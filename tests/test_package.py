"""Every name in ``acgl.__all__`` exists on the package and is listed once."""

import collections

import acgl


def test_all_names_resolve_once():
    assert [name for name in acgl.__all__ if not hasattr(acgl, name)] == []
    assert [name for name, n in collections.Counter(acgl.__all__).items() if n > 1] == []
