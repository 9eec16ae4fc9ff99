import lqgduet


def test_every_exported_name_resolves():
    missing = [name for name in lqgduet.__all__
               if not hasattr(lqgduet, name)]
    assert missing == []
    assert len(set(lqgduet.__all__)) == len(lqgduet.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from lqgduet import *", namespace)
    assert set(lqgduet.__all__) <= set(namespace)
