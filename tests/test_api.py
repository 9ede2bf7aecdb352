import gea


def test_every_exported_name_imports():
    namespace = {}
    exec("from gea import *", namespace)  # raises on a stale name in __all__
    assert set(gea.__all__) <= namespace.keys()
