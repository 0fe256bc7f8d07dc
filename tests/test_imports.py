"""Every name a spikesound module, bench/perf.py, a test or a demo imports
is used there.

The package's __init__.py is skipped: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
MODULES = [*sorted(p for p in (ROOT / "src" / "spikesound").glob("*.py")
                   if p.name != "__init__.py"), ROOT / "bench" / "perf.py",
           *sorted((ROOT / "tests").glob("*.py")), *sorted((ROOT / "demos").glob("*.py"))]


def unused_imports(source: str) -> list[str]:
    """'line N: name' for each imported name that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_modules_found():
    names = {p.relative_to(ROOT).as_posix() for p in MODULES}
    assert {"src/spikesound/cli.py", "bench/perf.py", "tests/test_acceptance.py",
            "demos/01_encode_decode_tour.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import json, os.path\n"
              "import numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "@dataclass\n"
              "class A:\n"
              "    x: np.ndarray\n"
              "print(os.sep)\n")
    assert unused_imports(source) == ["line 2: json", "line 4: field"]
