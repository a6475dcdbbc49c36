"""The package's public export list."""

import entroineq


def test_every_export_resolves():
    missing = [name for name in entroineq.__all__ if not hasattr(entroineq, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(set(entroineq.__all__)) == len(entroineq.__all__)
