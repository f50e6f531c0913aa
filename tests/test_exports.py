"""The package's export list is exactly its public names, so a name deleted
from a module cannot linger in ``refsig.__all__`` and a new public import
cannot be left out of it."""

import inspect

import refsig


def test_star_import_binds_every_export():
    namespace = {}
    exec("from refsig import *", namespace)
    assert set(refsig.__all__) <= namespace.keys()


def test_all_equals_the_public_names():
    public = {
        name for name, value in vars(refsig).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(refsig.__all__) == len(set(refsig.__all__))
    assert set(refsig.__all__) == public | {"__version__"}
