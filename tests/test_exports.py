"""Every exported name resolves, so a deletion cannot leave a stale
entry in ``__all__`` behind; the package list is its modules' lists."""

import importlib
import inspect
import pkgutil

import pytest

import contraction_lab

MODULES = [
    importlib.import_module(f"contraction_lab.{info.name}")
    for info in pkgutil.iter_modules(contraction_lab.__path__)
    if info.name != "__main__"
]

# the modules whose lists make up the package list, in its order
EXPORTED = [
    "operators", "chains", "products", "gaps", "nonexample", "config", "errors",
]


@pytest.mark.parametrize(
    "module", [contraction_lab, *MODULES], ids=lambda m: m.__name__
)
def test_all_names_resolve(module):
    names = getattr(module, "__all__", [])
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == []
    assert len(set(names)) == len(names)


def test_package_list_is_the_module_lists():
    lists = [
        importlib.import_module(f"contraction_lab.{name}").__all__
        for name in EXPORTED
    ]
    joined = [name for names in lists for name in names]
    assert contraction_lab.__all__ == ["__version__", *joined]
    assert len(set(joined)) == len(joined)


@pytest.mark.parametrize("name", [*EXPORTED, "corpus", "certify"])
def test_module_lists_every_public_definition(name):
    module = importlib.import_module(f"contraction_lab.{name}")
    defined = {
        attr
        for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert defined - set(module.__all__) == set()
