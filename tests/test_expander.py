import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acgl.expander import ExpanderParams, expand, init_expander

from conftest import count_splits, one_call


def naive_expand(hidden, weight):
    """Triple-loop reference for relu(H @ W)."""
    n, h = hidden.shape
    _, d_out = weight.shape
    out = np.zeros((n, d_out))
    for i in range(n):
        for j in range(d_out):
            acc = 0.0
            for k in range(h):
                acc += hidden[i, k] * weight[k, j]
            out[i, j] = max(acc, 0.0)
    return out


def test_same_seed_same_weight():
    a = init_expander(8, 16, seed=5)
    b = init_expander(8, 16, seed=5)
    np.testing.assert_array_equal(a.weight, b.weight)


def test_shapes_from_config_values():
    assert init_expander(256, 2048, seed=0).weight.shape == (256, 2048)
    assert init_expander(256, 1024, seed=0).weight.shape == (256, 1024)


def test_entries_bounded_by_inverse_sqrt_h():
    p = init_expander(64, 256, seed=2)
    bound = 1.0 / np.sqrt(64)
    assert np.abs(p.weight).max() <= bound


def test_must_widen():
    with pytest.raises(ValueError, match="must exceed"):
        init_expander(16, 16, seed=0)
    with pytest.raises(ValueError, match="must exceed"):
        init_expander(16, 8, seed=0)


@pytest.mark.parametrize("h", [0, -1])
def test_input_dim_must_be_positive(h):
    # Checked before 1 / sqrt(h) is taken, which warns and overflows at h = 0.
    with pytest.raises(ValueError, match=f"^expander input dim h={h} must be at least 1$"):
        init_expander(h, 4, seed=0)


def test_weight_must_be_a_matrix():
    with pytest.raises(ValueError, match="^expansion weight must be a matrix$"):
        ExpanderParams(weight=np.ones(4))
    with pytest.raises(ValueError, match="^expansion weight must be a matrix$"):
        ExpanderParams(weight=[0.5, 1.0])  # converted before its ndim is read
    assert ExpanderParams(weight=[[0.5, 1.0]]).weight.shape == (1, 2)


def test_hidden_width_must_match_the_weight():
    with pytest.raises(ValueError, match="^hidden dim 3 != expander input dim 4$"):
        expand(np.ones((2, 3)), init_expander(4, 8, seed=0))


def test_zero_input_maps_to_zero():
    p = init_expander(4, 8, seed=1)
    out = expand(np.zeros((5, 4)), p)
    np.testing.assert_array_equal(out, np.zeros((5, 8)))


def test_identity_padded_weight_passes_nonnegative_input_through():
    w = np.zeros((3, 6))
    w[:, :3] = np.eye(3)
    p = ExpanderParams(weight=w)
    hidden = np.abs(np.random.default_rng(0).normal(size=(4, 3)))
    out = expand(hidden, p)
    np.testing.assert_allclose(out[:, :3], hidden)
    np.testing.assert_array_equal(out[:, 3:], np.zeros((4, 3)))


def test_matches_naive_matmul_oracle():
    rng = np.random.default_rng(6)
    hidden = rng.normal(size=(5, 8))
    p = init_expander(8, 16, seed=9)
    np.testing.assert_allclose(expand(hidden, p), naive_expand(hidden, p.weight), atol=1e-12)


def test_output_nonnegative_and_pure():
    rng = np.random.default_rng(7)
    hidden = rng.normal(size=(10, 6))
    p = init_expander(6, 20, seed=3)
    out1 = expand(hidden, p)
    out2 = expand(hidden, p)
    assert (out1 >= 0).all()
    np.testing.assert_array_equal(out1, out2)


def test_full_row_rank_when_wide_enough():
    rng = np.random.default_rng(8)
    hidden = np.abs(rng.normal(size=(12, 6)))
    p = init_expander(6, 24, seed=4)
    out = expand(hidden, p)
    assert np.linalg.matrix_rank(out) == 12



@st.composite
def expansions(draw):
    """(hidden, params): rows on both sides of the split floors, C- or Fortran-ordered rows."""
    rows = draw(st.integers(1, 700))
    h = draw(st.integers(1, 64))
    d_out = draw(st.integers(h + 1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hidden = np.asarray(rng.normal(size=(rows, h)), order=draw(st.sampled_from("CF")))
    return hidden, init_expander(h, d_out, seed=int(rng.integers(100)))


@settings(max_examples=60, deadline=None)
@given(case=expansions())
@example(case=(np.random.default_rng(0).normal(size=(6000, 64)),              # big_sessions base
               init_expander(64, 1024, seed=0)))
@example(case=(np.asfortranarray(np.random.default_rng(1).normal(size=(301, 64))),
               init_expander(64, 130, seed=1)))                                # split at 144
def test_split_expansion_is_bit_identical(case):
    hidden, p = case
    pre = hidden @ p.weight
    want = np.maximum(pre, 0.0, out=pre).tobytes()
    assert expand(hidden, p).tobytes() == want
    with pytest.MonkeyPatch.context() as mp:
        one_call(mp)
        assert expand(hidden, p).tobytes() == want


def test_base_sized_expansion_takes_the_helper(monkeypatch):
    calls = count_splits(monkeypatch)
    expand(np.ones((1500, 64)), init_expander(64, 1024, seed=0))
    assert len(calls) == 1
