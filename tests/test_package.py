"""The package's public names."""

import muscletract


def test_every_exported_name_resolves():
    assert len(set(muscletract.__all__)) == len(muscletract.__all__)
    assert [name for name in muscletract.__all__ if not hasattr(muscletract, name)] == []


def test_import_star():
    namespace = {}
    exec("from muscletract import *", namespace)
    assert set(muscletract.__all__) <= set(namespace)
