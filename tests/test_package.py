"""The package namespace: __all__ and the names lnlab/__init__.py binds."""

import types

import lnlab


def test_all_lists_each_public_name_once():
    assert len(lnlab.__all__) == len(set(lnlab.__all__))
    for name in lnlab.__all__:
        assert getattr(lnlab, name) is not None
    bound = {name for name, value in vars(lnlab).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(lnlab.__all__) == bound
