"""The benchmark scripts use only names the package has.

bench/perf.py and perfbench/ import the package inside functions, so a
renamed or deleted name breaks them only when they run.  This reads their
source instead and checks every spikesound name they import, and every
attribute they read off an imported spikesound module.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = [ROOT / "bench" / "perf.py", *sorted((ROOT / "perfbench").glob("*.py"))]


def _missing_names(tree: ast.AST) -> list[str]:
    modules = {}  # local name -> the spikesound module it is bound to
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "spikesound":
                    continue
                importlib.import_module(alias.name)
                local = alias.asname or alias.name.split(".")[0]
                modules[local] = alias.name if alias.asname else local
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "spikesound"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name, None)
                if value is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif inspect.ismodule(value):
                    modules[alias.asname or alias.name] = value.__name__
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            module = importlib.import_module(modules[node.value.id])
            if not hasattr(module, node.attr):
                missing.append(f"{module.__name__}.{node.attr}")
    return missing


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: str(p.relative_to(ROOT)))
def test_script_uses_existing_package_names(script):
    assert _missing_names(ast.parse(script.read_text(encoding="utf-8"))) == []


def test_stale_name_is_caught():
    tree = ast.parse("from spikesound.metrics import errdb, score_matrix\n"
                     "from spikesound import harness\n"
                     "harness.run_bench\nharness._no_such_helper\n")
    assert _missing_names(tree) == ["spikesound.metrics.score_matrix",
                                    "spikesound.harness._no_such_helper"]
