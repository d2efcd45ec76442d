"""Every name a module exports resolves, and none is exported twice, so
`from graphcollapse import *` and its submodules' star imports work."""

import importlib
import pkgutil

import pytest

import graphcollapse

EXPORTING = [
    module
    for module in [graphcollapse] + [
        importlib.import_module(f"graphcollapse.{info.name}")
        for info in pkgutil.iter_modules(graphcollapse.__path__)
        if info.name != "__main__"
    ]
    if hasattr(module, "__all__")
]


def test_the_package_and_its_exporting_modules_are_all_checked():
    names = {module.__name__ for module in EXPORTING}
    assert {"graphcollapse", "graphcollapse.exactla", "graphcollapse.contract"} <= names


@pytest.mark.parametrize("module", EXPORTING, ids=lambda module: module.__name__)
def test_exports_resolve_and_are_listed_once(module):
    exported = list(module.__all__)
    assert sorted({x for x in exported if exported.count(x) > 1}) == []
    assert [x for x in exported if not hasattr(module, x)] == []
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(exported) <= namespace.keys()
