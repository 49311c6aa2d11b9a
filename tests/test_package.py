import importlib
import pkgutil

import pytest

import fedgeo

# the package and each of its modules that declares __all__
MODULES = [fedgeo] + [
    m for m in (importlib.import_module(f"fedgeo.{info.name}")
                for info in sorted(pkgutil.iter_modules(fedgeo.__path__), key=lambda i: i.name))
    if hasattr(m, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    # a name left in __all__ after its definition is deleted would fail
    # only at `from fedgeo import *` time
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"{module.__name__}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"
