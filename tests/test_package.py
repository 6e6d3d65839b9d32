"""Tests for the package's public namespace."""
import types

import horogrowth


def test_all_is_sorted_unique_and_complete():
    exported = horogrowth.__all__
    assert exported == sorted(exported)
    assert len(exported) == len(set(exported))
    bound = {
        name
        for name, value in vars(horogrowth).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == bound
