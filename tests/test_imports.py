"""Every name a spikesound module, bench/perf.py, a test or a demo imports
is used there, every private top-level function or class of the package is
used in it, the package never loads scipy.signal on its default
path, resampling included, only container.py imports csv or json, only
ingest.py imports scipy.io, and only ingest._read_wav reads a WAV file.

The package's __init__.py is skipped by the unused-import check: its imports
are the public re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
PACKAGE = sorted((ROOT / "src" / "spikesound").glob("*.py"))
MODULES = [*(p for p in PACKAGE if p.name != "__init__.py"), ROOT / "bench" / "perf.py",
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


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """'file:name' for each top-level private function or class (one
    leading underscore) that no code in sources reads by name, attribute
    or import outside its own definition."""
    defined, read = [], set()
    for name, source in sources.items():
        for top in ast.parse(source).body:
            owner = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and owner.startswith("_") and not owner.startswith("__"):
                defined.append((name, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    used = [node.id]
                elif isinstance(node, ast.Attribute):
                    used = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    used = [alias.name for alias in node.names]
                else:
                    continue
                read.update(u for u in used if u != owner)
    return [f"{name}:{owner}" for name, owner in defined if owner not in read]


def test_no_unreferenced_private_kernels():
    # A merge of two kernels must delete the old one: tests/test_mutants.py
    # refers to kernels by name, so only src/ counts.
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unreferenced_privates(sources) == []


def test_check_finds_unreferenced_privates():
    sources = {
        "a.py": ("def _used(x):\n"
                 "    return _helper(x)\n"
                 "def _helper(x):\n"
                 "    return x\n"
                 "def _recursive(n):\n"
                 "    return _recursive(n - 1) if n else 0\n"
                 "class _Unused:\n"
                 "    def _method(self):\n"
                 "        return self._method\n"
                 "def __getattr__(name):\n"
                 "    return _used(name)\n"
                 "def _imported():\n"
                 "    pass\n"
                 "def _by_attribute():\n"
                 "    pass\n"),
        "b.py": ("from .a import _imported\n"
                 "import a\n"
                 "a._by_attribute()\n"
                 "x = '_Unused'\n"),
    }
    assert unreferenced_privates(sources) == ["a.py:_recursive", "a.py:_Unused"]


def import_time_modules(source: str) -> list[str]:
    """Each module or name a file imports outside a function body, in full
    dotted form ('scipy.signal.firwin' for `from scipy.signal import firwin`)."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.extend(f"{child.module}.{alias.name}" for alias in child.names)
            visit(child)

    visit(ast.parse(source))
    return found


def loads_scipy_signal(source: str) -> list[str]:
    return [name for name in import_time_modules(source)
            if name == "scipy.signal" or name.startswith("scipy.signal.")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_level_scipy_signal(path):
    assert loads_scipy_signal(path.read_text(encoding="utf-8")) == []


def test_check_finds_module_level_scipy_signal():
    source = ("import scipy.io\n"
              "from scipy import signal\n"
              "try:\n"
              "    from scipy.signal.windows import hann\n"
              "except ImportError:\n"
              "    pass\n"
              "class A:\n"
              "    import scipy.signal as sig\n"
              "    def f(self):\n"
              "        from scipy.signal import firwin\n"
              "def g():\n"
              "    import scipy.signal\n")
    assert loads_scipy_signal(source) == [
        "scipy.signal", "scipy.signal.windows.hann", "scipy.signal"]


def absolute_imports(source: str) -> list[str]:
    """Each module or name a file imports, at any depth, in full dotted form."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.extend(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def csv_or_json_imports(source: str) -> list[str]:
    """Each csv or json module or name a file imports, at any depth."""
    return [name for name in absolute_imports(source)
            if name.split(".")[0] in ("csv", "json")]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "container.py"],
                         ids=lambda p: p.name)
def test_only_container_reads_csv_or_json(path):
    # CSV and JSON files are written and read through spikesound.container.
    assert csv_or_json_imports(path.read_text(encoding="utf-8")) == []


def test_check_finds_csv_and_json_imports():
    source = ("import csv\n"
              "from json import loads\n"
              "import jsonschema\n"
              "from .container import read_csv\n"
              "def f():\n"
              "    import json.decoder as d\n")
    assert csv_or_json_imports(source) == ["csv", "json.loads", "json.decoder"]


def scipy_io_imports(source: str) -> list[str]:
    """Each scipy.io module or name a file imports, at any depth."""
    return [name for name in absolute_imports(source)
            if name == "scipy.io" or name.startswith("scipy.io.")]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "ingest.py"],
                         ids=lambda p: p.name)
def test_only_ingest_imports_scipy_io(path):
    # WAV files are read and written through spikesound.ingest.
    assert scipy_io_imports(path.read_text(encoding="utf-8")) == []


def test_check_finds_scipy_io_imports():
    source = ("import scipy\n"
              "import scipy.io\n"
              "from scipy import io, signal\n"
              "from scipy.io import wavfile\n"
              "import scipy.iolib\n"
              "def f():\n"
              "    from scipy.io.wavfile import write as w\n")
    assert scipy_io_imports(source) == [
        "scipy.io", "scipy.io", "scipy.io.wavfile", "scipy.io.wavfile.write"]


def wavfile_reads(source: str) -> list[str]:
    """The function around each use of scipy.io.wavfile.read, as an
    attribute of a name ending in wavfile or as an imported name;
    '<module>' outside any function."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "read":
                if ast.unparse(child.value).split(".")[-1] == "wavfile":
                    found.append(where)
            elif isinstance(child, ast.ImportFrom) and child.module == "scipy.io.wavfile":
                found.extend(where for alias in child.names if alias.name == "read")
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(ast.parse(source), "<module>")
    return found


def test_only_read_wav_reads_wav_files():
    # ingest._read_wav is the one WAV reader, so wav_duration and load_audio
    # reject the same files.
    found = [f"{path.name}:{where}" for path in PACKAGE
             for where in wavfile_reads(path.read_text(encoding="utf-8"))]
    assert found == ["ingest.py:_read_wav"]


def test_check_finds_wavfile_reads():
    source = ("from scipy.io import wavfile\n"
              "import scipy.io.wavfile\n"
              "rate, data = wavfile.read('a.wav')\n"
              "def f(path):\n"
              "    from scipy.io.wavfile import read, write\n"
              "    return scipy.io.wavfile.read(path)\n"
              "class A:\n"
              "    def g(self, fh):\n"
              "        reader = wavfile.read\n"
              "        wavfile.write(fh, 8000, fh.read())\n")
    assert wavfile_reads(source) == ["<module>", "f", "f", "g"]


_FRESH = """
import json, sys
from pathlib import Path

import spikesound
from spikesound.cli import main

tmp = Path(sys.argv[1])
for rate in (44100, 22050, 48000):
    config = tmp / f"config_{rate}.json"
    config.write_text(json.dumps({"codecs": ["sf"], "synthetic": {
        "n_clips": 5, "duration_s": 0.3, "sample_rate": rate}}))
    command = "bench" if rate == 44100 else "encode"
    assert main([command, "--config", str(config), "--out", str(tmp / str(rate))]) == 0
    print("scipy.signal after", command, "scipy.signal" in sys.modules)
"""


def test_scipy_signal_never_loads(tmp_path):
    # A fresh interpreter: neither a bench at the frontend's own rate nor an
    # encode of 22.05 or 48 kHz clips, which resamples, loads scipy.signal.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _FRESH, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = [line for line in proc.stdout.splitlines() if line.startswith("scipy.signal")]
    assert loaded == ["scipy.signal after bench False", "scipy.signal after encode False",
                      "scipy.signal after encode False"]
