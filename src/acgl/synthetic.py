"""Stochastic-block-model style synthetic graphs with Gaussian node features.

Every class gets the same number of nodes and a Gaussian feature cloud
around a class-specific mean. Each edge draws a node ``u``, then with
probability ``homophily`` a partner from ``u``'s class, otherwise from a
different class, so the expected intra-class edge fraction equals
``homophily`` and homophily 1.0 yields purely intra-class edges. Fully
deterministic for a fixed seed.

The edges are the ones a per-edge loop of scalar draws would give:
``u = integers(n)``, ``random() < homophily``, ``integers(len(pool))``.
They are drawn in bulk and still exactly: ``_replay_edge_draws`` reads
the PCG64 outputs with ``random_raw`` and reproduces numpy's reduction of
each one (Lemire's bounded integer on a 32-bit half-word, 53 bits for a
float), including the rare rejected half-word, so every graph matches the
loop bit for bit and the generator is left where the loop would leave it.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

# Per-class split used for the masks; remainders go to train.
_TRAIN_FRAC = 0.6
_VAL_FRAC = 0.2

_LOW32 = np.uint64(0xFFFFFFFF)
_DOUBLE_SCALE = 1.0 / 9007199254740992.0  # 2**-53: random() is (u64 >> 11) * 2**-53


def _lemire_threshold(k: int) -> int:
    """``integers(k)`` rejects a 32-bit draw x when (x * k) mod 2**32 is below this."""
    return (2**32 - k) % k


def _replay_edge_draws(bitgen, n: int, k_in: int, k_out: int, homophily: float,
                       count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` rounds of ``u = integers(n)``, ``same = random() < homophily``,
    ``j = integers(k_in if same else k_out)`` on a PCG64 ``bitgen``, in bulk.

    Returns the arrays ``(u, same, j)`` and leaves ``bitgen`` at the position
    and 32-bit buffer those scalar calls would leave. A 32-bit draw takes
    the buffered high half of the last 64-bit output if there is one, else
    the low half of a fresh output (buffering its high half); ``random()``
    takes a fresh output and leaves the buffer alone. So with an empty
    buffer an edge reads two outputs ``r0, r1`` as ``u <- low(r0)``,
    ``coin <- r1``, ``j <- high(r0)``; with a full buffer ``b`` it reads
    ``u <- b``, ``coin <- r0``, ``j <- low(r1)`` and buffers ``high(r1)``.
    Both layouts are decoded for a whole window at once; the first edge
    with a rejected half-word is replayed one draw at a time, and decoding
    resumes after it from the position and buffer it leaves.
    """
    for k in (n, k_in, k_out):
        if not 2 <= k < 2**32:
            raise ValueError(f"bound {k} outside [2, 2**32)")
    state = bitgen.state
    has, word = bool(state["has_uint32"]), int(state["uinteger"])
    raw, pos = np.empty(0, dtype=np.uint64), 0   # outputs drawn so far; next unread
    u = np.empty(count, dtype=np.int64)
    same = np.empty(count, dtype=bool)
    j = np.empty(count, dtype=np.int64)

    def next64() -> int:
        nonlocal raw, pos
        if pos == len(raw):
            raw = np.append(raw, bitgen.random_raw(1))
        pos += 1
        return int(raw[pos - 1])

    def next32() -> int:
        nonlocal has, word
        if has:
            has = False
            return word
        x = next64()
        has, word = True, x >> 32
        return x & 0xFFFFFFFF

    def bounded(k: int) -> int:
        threshold = _lemire_threshold(k)
        while True:
            m = next32() * k
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32

    t_n = np.uint64(_lemire_threshold(n))
    t_in, t_out = np.uint64(_lemire_threshold(k_in)), np.uint64(_lemire_threshold(k_out))
    i, window = 0, count
    while i < count:
        # The loop reads at least two outputs per remaining edge, so drawing
        # 2w ahead never moves the generator past where the loop would.
        w = min(window, count - i)
        short = pos + 2 * w - len(raw)
        if short > 0:
            raw, pos = np.concatenate((raw[pos:], bitgen.random_raw(short))), 0
        even, odd = raw[pos : pos + 2 * w : 2], raw[pos + 1 : pos + 2 * w : 2]
        if has:
            a = np.empty(w, dtype=np.uint64)
            a[0], a[1:] = word, odd[:-1] >> 32
            coin, b, left = even, odd & _LOW32, odd >> 32
        else:
            a, coin, b = even & _LOW32, odd, even >> 32
            left = b
        hit = (coin >> 11).astype(np.float64) * _DOUBLE_SCALE < homophily
        mu = a * np.uint64(n)
        mj = b * np.where(hit, np.uint64(k_in), np.uint64(k_out))
        rejected = ((mu & _LOW32) < t_n) | ((mj & _LOW32) < np.where(hit, t_in, t_out))
        ok = int(np.argmax(rejected)) if rejected.any() else w
        u[i : i + ok], same[i : i + ok], j[i : i + ok] = mu[:ok] >> 32, hit[:ok], mj[:ok] >> 32
        if ok:
            pos, word = pos + 2 * ok, int(left[ok - 1])
        i += ok
        if ok == w:
            window *= 2
            continue
        u[i] = bounded(n)
        same[i] = (next64() >> 11) * _DOUBLE_SCALE < homophily
        j[i] = bounded(k_in if same[i] else k_out)
        i += 1
        window = max(64, 2 * ok)

    state = bitgen.state
    state["has_uint32"], state["uinteger"] = int(has), word
    bitgen.state = state
    return u, same, j


def _class_split(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split n in-class node slots into train/val/test index sets."""
    order = rng.permutation(n)
    n_train = max(1, round(_TRAIN_FRAC * n))
    n_val = int(_VAL_FRAC * n)
    if n_train + n_val >= n:  # keep at least one test node
        n_val = max(0, n - n_train - 1)
    n_train = min(n_train, n - 1)
    return order[:n_train], order[n_train : n_train + n_val], order[n_train + n_val :]


def generate_synthetic(
    num_classes: int,
    nodes_per_class: int,
    d: int,
    homophily: float,
    seed: int,
    avg_degree: float = 4.0,
    class_sep: float = 1.0,
) -> Graph:
    """Generate a labeled homophilous graph with class-conditional features.

    Parameters
    ----------
    num_classes, nodes_per_class, d
        Class count (>= 2), nodes per class (>= 2), feature dimension.
    homophily
        Probability in [0, 1] that an edge connects same-class endpoints.
    seed
        Seeds all randomness; identical seeds give byte-identical graphs.
    avg_degree
        Target mean degree before deduplication, in (0, n - 1] for
        n = num_classes * nodes_per_class: at most the complete graph's.
    class_sep
        Scale of the class mean vectors relative to unit feature noise.
    """
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if nodes_per_class < 2:
        raise ValueError("nodes_per_class must be >= 2")
    if d < 1:
        raise ValueError("feature dimension must be >= 1")
    if not 0.0 <= homophily <= 1.0:
        raise ValueError("homophily must lie in [0, 1]")
    n = num_classes * nodes_per_class
    if not 0 < avg_degree <= n - 1:
        raise ValueError(f"avg_degree must lie in (0, n - 1 = {n - 1}], got {avg_degree!r}")

    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), nodes_per_class)

    means = rng.normal(0.0, 1.0, size=(num_classes, d)) * class_sep
    features = means[labels] + rng.normal(0.0, 1.0, size=(n, d))

    num_edges = int(round(avg_degree * n / 2))
    u, same, j = _replay_edge_draws(rng.bit_generator, n, nodes_per_class,
                                    n - nodes_per_class, homophily, num_edges)
    # Labels are np.repeat blocks: class c owns nodes [c, c + 1) * nodes_per_class,
    # so the j-th node of u's class and the j-th node outside it are closed forms.
    first = u - u % nodes_per_class
    v = np.where(same, first + j, j + nodes_per_class * (j >= first))
    clash = v == u  # only possible on the intra-class branch: take u's successor
    v[clash] = first[clash] + (u[clash] - first[clash] + 1) % nodes_per_class
    keys = np.unique(np.minimum(u, v) * n + np.maximum(u, v))
    edges = np.stack((keys // n, keys % n), axis=1)

    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    for c in range(num_classes):
        members = np.arange(c * nodes_per_class, (c + 1) * nodes_per_class)
        tr, va, te = _class_split(len(members), rng)
        train[members[tr]] = True
        val[members[va]] = True
        test[members[te]] = True

    return Graph(
        num_nodes=n,
        edges=edges,
        features=features,
        labels=labels,
        train_mask=train,
        val_mask=val,
        test_mask=test,
        num_classes=num_classes,
    )


def intra_class_fraction(graph: Graph) -> float:
    """Fraction of edges whose endpoints share a class (1.0 if no edges)."""
    if graph.num_edges == 0:
        return 1.0
    same = graph.labels[graph.edges[:, 0]] == graph.labels[graph.edges[:, 1]]
    return float(same.mean())
