"""Every exported name resolves, so a deletion cannot leave a stale
entry in ``__all__`` behind."""

import importlib
import pkgutil

import pytest

import contraction_lab

MODULES = [
    importlib.import_module(f"contraction_lab.{info.name}")
    for info in pkgutil.iter_modules(contraction_lab.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize(
    "module", [contraction_lab, *MODULES], ids=lambda m: m.__name__
)
def test_all_names_resolve(module):
    names = getattr(module, "__all__", [])
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == []
    assert len(set(names)) == len(names)
