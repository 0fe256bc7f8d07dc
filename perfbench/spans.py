"""In-memory span tracing around the package's public functions.

Spans are recorded from outside the program: during a traced iteration each
public function listed in TARGETS is replaced, in the module that calls it,
by a wrapper that opens a span (name, start, end, parent, run id) and bumps
work counters.  Untraced iterations run the original functions untouched.

A span's self time is its duration minus the durations of its direct
children.  Calls within one iteration run on one thread and nest strictly,
so the children of a span never overlap and the self times of all spans of
an iteration, root included, sum to the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import defaultdict

ROOT_SPAN = "iteration"
LAYERS = ("ingest", "frontend", "codec", "metrics", "snn", "harness", "cli")


class Tracer:
    """Collects spans and counters; one root span per traced iteration."""

    def __init__(self):
        self.spans: list[list] = []  # [run_id, name, start, end, parent index]
        self.counts: dict[int, dict[str, float]] = {}
        self.patched: list[str] = []
        self._stack: list[int] = []
        self._run_id = -1

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._run_id, name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[self._run_id][key] += amount

    @contextlib.contextmanager
    def iteration(self, run_id: int):
        """Root span of one traced iteration, with every target wrapped."""
        self._run_id = run_id
        self.counts[run_id] = defaultdict(float)
        with _instrument(self):
            root = self.begin(ROOT_SPAN)
            try:
                yield
            finally:
                self.end(root)

    def summarize(self, run_id: int, wall_s: float) -> dict[str, float]:
        """Per-layer times and counts of one traced iteration.

        `<layer>.<op>_s` is the inclusive time in spans of that name;
        `<layer>.self_s` is the layer's self time and `trace.root_self_s` the
        root time no layer span covers.  Raises ValueError if the root span
        disagrees with `wall_s`, the iteration's wall time taken by the
        caller's own clock, or if the layer self times and the root's
        uncovered time do not add up to the root's duration.  The second
        check holds by construction (self times telescope) unless a span
        name has a layer missing from LAYERS; it guards naming only.
        """
        ids = [i for i, s in enumerate(self.spans) if s[0] == run_id]
        child = defaultdict(float)
        for i in ids:
            _, _, start, end, parent = self.spans[i]
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i in ids:
            _, name, start, end, _ = self.spans[i]
            dur = end - start
            if name == ROOT_SPAN:
                out["trace.wall_s"] = dur
                out["trace.root_self_s"] = dur - child[i]
                continue
            layer, op, *sub = name.split(".")
            out[".".join([f"{layer}.{op}_s", *sub])] += dur
            out[f"{layer}.self_s"] += dur - child[i]
        out["trace.spans"] = len(ids)
        out.update(self.counts[run_id])
        skew = out["trace.wall_s"] - wall_s
        if not 0.0 <= skew <= 1e-3 + 1e-3 * wall_s:
            raise ValueError(f"root span is {skew} s longer than the timed wall {wall_s} s")
        covered = sum(out[f"{layer}.self_s"] for layer in LAYERS)
        gap = covered + out["trace.root_self_s"] - out["trace.wall_s"]
        if abs(gap) > 1e-6:
            raise ValueError(f"layer self times miss the traced wall time by {gap} s")
        return dict(out)

    def dump(self) -> dict:
        t0 = self.spans[0][2] if self.spans else 0.0
        return {
            "patched": self.patched,
            "fields": ["run_id", "name", "start_s", "end_s", "parent"],
            "spans": [[r, n, s - t0, e - t0, p] for r, n, s, e, p in self.spans],
            "counts": {str(k): dict(v) for k, v in self.counts.items()},
        }


# ---------------------------------------------------------------------------
# Counters recorded at the same boundaries as the spans
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_audio(tr, args, kwargs, result):
    tr.count("ingest.clips")
    tr.count("ingest.bytes_read", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _count_encode(tr, args, kwargs, result):
    rows, frames = result.spikes.shape
    tr.count("codec.encode_calls")
    tr.count("codec.encode_rows", rows)
    tr.count(f"codec.steps.{result.codec_id}", frames - 1)


def _count_decode(tr, args, kwargs, result):
    tr.count("codec.decode_calls")
    tr.count(f"codec.steps.{_arg(args, kwargs, 0, 'st').codec_id}", result.shape[1] - 1)


def _count_spikes_written(tr, args, kwargs, result):
    path = str(_arg(args, kwargs, 1, "path"))
    tr.count("codec.bytes_written", os.path.getsize(path) + os.path.getsize(path + ".json"))


def _count_spikes_read(tr, args, kwargs, result):
    tr.count("codec.bytes_read", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _count_train(tr, args, kwargs, result):
    net, train_set = args[0], _arg(args, kwargs, 1, "train_set")
    cfg = _arg(args, kwargs, 2, "cfg") or net.config
    clips, _, frames = train_set.inputs.shape
    tr.count("snn.models")
    tr.count("snn.batches", -(-clips // cfg.batch_size) * cfg.epochs)
    tr.count("snn.frames_trained", clips * frames * cfg.epochs)


def _encode_name(args, kwargs):
    return "codec.encode." + _arg(args, kwargs, 2, "codec")


def _decode_name(args, kwargs):
    return "codec.decode." + _arg(args, kwargs, 0, "st").codec_id


_SCORE = ("score_matrix", "score_per_band", "score_per_class", "firing_rate",
          "encoder_state_bytes")
_REPORT = ("write_per_band_csv", "write_per_class_csv", "write_efficiency_csv")

# (calling module, attribute, span name or name function, counter hook).
# Each function is wrapped in the module whose globals its caller reads.
TARGETS = [
    *[(m, "load_audio", "ingest.load_audio", _count_audio) for m in ("harness", "cli")],
    *[(m, "mel_spectrogram", "frontend.mel", None) for m in ("harness", "cli")],
    ("frontend", "stft_power", "frontend.stft", None),
    ("frontend", "mel_filterbank", "frontend.filterbank", None),
    ("cli", "save_features", "frontend.save", None),
    ("cli", "load_features", "frontend.load", None),
    *[(m, "encode_matrix", _encode_name, _count_encode) for m in ("harness", "cli")],
    *[(m, "decode_matrix", _decode_name, _count_decode) for m in ("harness", "cli")],
    ("cli", "save_spikes", "codec.save", _count_spikes_written),
    ("cli", "load_spikes", "codec.load", _count_spikes_read),
    *[("harness", f, "metrics.score", None) for f in _SCORE],
    ("cli", "score_matrix", "metrics.score", None),
    *[("harness", f, "metrics.report_write", None) for f in _REPORT],
    *[(m, "run_protocol", "snn.protocol", None) for m in ("harness", "cli")],
    ("snn", "train", "snn.train", _count_train),
    ("snn", "evaluate_macro", "snn.eval", None),
    ("cli", "run_bench", "harness.run_bench", None),
    ("cli", "load_run_config", "harness.config", None),
    ("cli", "main", "cli.main", None),
]


def _wrap(tracer, fn, name, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.begin(name(args, kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result
    return traced


@contextlib.contextmanager
def _instrument(tracer: Tracer):
    """Swap every target for its traced wrapper; restore on exit.

    A target the package no longer has is skipped, so its time shows up
    in the caller's self time instead.
    """
    saved = []
    try:
        for mod_name, attr, name, hook in TARGETS:
            mod = importlib.import_module(f"spikesound.{mod_name}")
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            saved.append((mod, attr, fn))
            setattr(mod, attr, _wrap(tracer, fn, name, hook))
        tracer.patched = [f"{m.__name__}.{a}" for m, a, _ in saved]
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)
