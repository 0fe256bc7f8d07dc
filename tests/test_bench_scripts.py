"""The benchmark scripts use only names the package has.

bench/perf.py and perfbench/ import the package inside functions, so a
renamed or deleted name breaks them only when they run.  This reads their
source instead and checks every spikesound name they import, and every
attribute they read off an imported spikesound module, in the scripts
themselves and in the code strings they run in fresh interpreters.
"""

import ast
import importlib
import inspect
import json
import re
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


def _embedded_code(tree: ast.AST) -> list[ast.AST]:
    """The string constants of tree that parse as Python importing spikesound."""
    code = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and re.search(r"^(from|import) spikesound\b", node.value, re.MULTILINE)):
            try:
                code.append(ast.parse(node.value))
            except SyntaxError:
                continue
    return code


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: str(p.relative_to(ROOT)))
def test_script_uses_existing_package_names(script):
    tree = ast.parse(script.read_text(encoding="utf-8"))
    assert [name for t in (tree, *_embedded_code(tree)) for name in _missing_names(t)] == []


def test_perf_code_strings_are_checked():
    tree = ast.parse((ROOT / "bench" / "perf.py").read_text(encoding="utf-8"))
    assert len(_embedded_code(tree)) == 4  # COLD_IMPORT, RUN_BENCH, ENCODE and ROUNDTRIP
    stale = ast.parse('CODE = ("from spikesound.harness import run_bench, run_all\\n"\n'
                      '        "run_bench()\\n")\n')
    assert [_missing_names(t) for t in _embedded_code(stale)] == [
        ["spikesound.harness.run_all"]]


def test_stale_name_is_caught():
    tree = ast.parse("from spikesound.metrics import errdb, ReconScore\n"
                     "from spikesound import harness\n"
                     "harness.run_bench\nharness._no_such_helper\n")
    assert _missing_names(tree) == ["spikesound.metrics.ReconScore",
                                    "spikesound.harness._no_such_helper"]


def _traced_main(argv, monkeypatch) -> dict[str, float]:
    """perfbench's per-layer summary of one traced `spikesound` CLI call."""
    import time

    from spikesound.cli import main

    monkeypatch.syspath_prepend(str(ROOT))
    spans = importlib.import_module("perfbench.spans")
    tracer = spans.Tracer()
    with tracer.iteration(0):
        t0 = time.perf_counter()
        assert main(argv) == 0
        wall_s = time.perf_counter() - t0
    return tracer.summarize(0, wall_s)


def test_trace_hooks_see_the_snn_protocol(tmp_path, monkeypatch):
    """perfbench's span wrappers still find run_protocol, train and
    evaluate_macro, and _count_train still reads train's arguments."""
    from conftest import write_fold_corpus

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dataset": str(write_fold_corpus(tmp_path / "corpus")), "codecs": ["sf", "tae"],
        "snn": {"hidden_sizes": [4, 4, 4], "epochs": 2, "batch_size": 8}}))
    out = _traced_main(["train", "--config", str(config), "--out", str(tmp_path / "out")],
                       monkeypatch)
    lines = (tmp_path / "out" / "classification.csv").read_text().splitlines()[1:]
    assert out["snn.models"] == len([l for l in lines if ",mean," not in l]) == 8
    assert out["snn.batches"] > 0
    for key in ("snn.protocol_s", "snn.train_s", "snn.eval_s"):
        assert out[key] > 0, key


def test_trace_times_every_stage_perf_reads(tmp_path, monkeypatch):
    """bench/perf.py takes each pipeline stage from a traced run_bench, so
    every one of these spans must still find the function it wraps."""
    from spikesound.codec import CODEC_IDS

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synthetic": {"n_clips": 5, "duration_s": 0.3}}))
    out = _traced_main(["bench", "--config", str(config), "--out", str(tmp_path / "out")],
                       monkeypatch)
    stages = ["ingest.load_audio_s", "frontend.stft_s", "frontend.mel_s", "metrics.score_s",
              *[f"codec.{op}_s.{c}" for op in ("encode", "decode") for c in CODEC_IDS]]
    for key in stages:
        assert out.get(key, 0.0) > 0, key


def test_trace_times_the_disk_path_perf_reads(tmp_path, monkeypatch):
    """bench/perf.py's encode_layers come from a traced `spikesound encode`:
    its load, save and byte-count spans must still find what they wrap, and
    the bytes written are the .spk files and their sidecars."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synthetic": {"n_clips": 5, "duration_s": 0.3,
                                                "sample_rate": 22050}}))
    out = _traced_main(["encode", "--config", str(config), "--out", str(tmp_path / "enc")],
                       monkeypatch)
    for key in ("ingest.load_audio_s", "frontend.save_s", "codec.save_s"):
        assert out.get(key, 0.0) > 0, key
    enc = tmp_path / "enc"
    written = [*enc.rglob("*.spk"), *enc.rglob("*.spk.json")]
    assert len(written) == 2 * 5 * 3  # a .spk and its sidecar per clip and codec
    assert out["codec.bytes_written"] == sum(p.stat().st_size for p in written)
