"""Tests of the package namespace."""

import types

import bnspecht


def test_all_lists_no_modules():
    assert bnspecht.__all__
    assert [n for n in bnspecht.__all__ if isinstance(getattr(bnspecht, n), types.ModuleType)] == []
    assert {"specht_generators", "ResourceLimits", "hasse_diagram"} <= set(bnspecht.__all__)
