import ptscatter


def test_every_exported_name_resolves():
    missing = [name for name in ptscatter.__all__ if not hasattr(ptscatter, name)]
    assert missing == []
    assert len(set(ptscatter.__all__)) == len(ptscatter.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from ptscatter import *", namespace)  # import * is only allowed at module level
    assert set(ptscatter.__all__) <= namespace.keys()
