"""The package's public names: every export resolves to a package attribute."""

import wmera


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from wmera import *", namespace)
    for name in wmera.__all__:
        assert namespace[name] is getattr(wmera, name)
    assert len(set(wmera.__all__)) == len(wmera.__all__)
