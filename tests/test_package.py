"""The package's public names: every name in ``rbfsurf.__all__`` exists."""

import rbfsurf


def test_every_exported_name_resolves():
    missing = [name for name in rbfsurf.__all__ if not hasattr(rbfsurf, name)]
    assert missing == []
    assert len(set(rbfsurf.__all__)) == len(rbfsurf.__all__)


def test_star_import():
    namespace = {}
    exec("from rbfsurf import *", namespace)
    assert set(rbfsurf.__all__) <= set(namespace)
