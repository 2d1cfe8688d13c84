import importlib
import pkgutil

import pytest

import graph_inertia

MODULES = sorted(m.name for m in pkgutil.iter_modules(graph_inertia.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    # A stale entry only fails on ``from graph_inertia.<name> import *``.
    module = importlib.import_module(f"graph_inertia.{name}")
    assert [x for x in module.__all__ if not hasattr(module, x)] == []
