import types

import qir


def test_every_listed_name_imports():
    assert len(qir.__all__) == len(set(qir.__all__)) == 49
    namespace = {}
    exec("from qir import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qir.__all__)
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]


def test_all_lists_every_public_name_but_the_submodules():
    public = {
        name
        for name, value in vars(qir).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(qir.__all__)
