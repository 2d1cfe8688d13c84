import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import graph_inertia

MODULES = sorted(m.name for m in pkgutil.iter_modules(graph_inertia.__path__))
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    # A stale entry only fails on ``from graph_inertia.<name> import *``.
    module = importlib.import_module(f"graph_inertia.{name}")
    assert [x for x in module.__all__ if not hasattr(module, x)] == []


def test_import_leaves_dataclasses_unloaded():
    # Every record is a named tuple: defining a frozen dataclass costs about
    # eight times as much, and each run of the console script pays it at import.
    code = "import sys, graph_inertia, graph_inertia.cli; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (0, b"False\n", b"")
