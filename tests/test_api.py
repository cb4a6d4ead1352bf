import curveopt


def test_every_public_name_resolves():
    missing = [name for name in curveopt.__all__ if not hasattr(curveopt, name)]
    assert missing == []
    assert len(set(curveopt.__all__)) == len(curveopt.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from curveopt import *", namespace)
    assert set(curveopt.__all__) <= namespace.keys()
