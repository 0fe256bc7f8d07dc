"""Stage timings of the spikesound pipeline, written to BENCH_<n>.json.

Usage, from the repository root:

    python3 bench/perf.py                  # next free BENCH_<n>.json
    python3 bench/perf.py --out BENCH_9.json --src other/checkout/src

On the default corpus (40 synthetic 5 s clips at 44.1 kHz, seed 1234) the
script times a full `run_bench` with and without the SNN protocol, and then
each stage on its own: synthesis, WAV write and load, STFT, mel/log/normalize,
and encode, decode and score per codec over the stacked blocks `run_bench`
uses.  Every figure is the median of RUNS = 5 timed runs after one untimed
warm-up; the raw runs are kept too.  A traced `run_bench` per run
(perfbench/spans.py) splits the full run by layer, and the host-speed
reference (perfbench/hostspeed.py) is probed between stages, so two files
taken on a busy host can be told apart from a change in the code.

The SNN is timed per batch (one forward and one backward pass of the whole
network); a per-layer split would need spans inside snn.py.  BLAS threads
are capped at the usable CPU count, as perfbench/run.py does.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as perfrun  # noqa: E402  (perfbench/run.py: BLAS cap, machine info)

NPROC = perfrun.cap_blas_threads()  # before numpy loads

import hostspeed  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402
import spans  # noqa: E402

RUNS = 5  # timed runs per stage, after one warm-up
SNN_EPOCHS = 5  # the default 100 takes minutes per run_bench


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="the package tree to measure")
    p.add_argument("--out", type=Path, help="output file (default: next BENCH_<n>.json)")
    return p.parse_args(argv)


def _next_bench_path() -> Path:
    n = 1
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def _git(src: Path, *args: str) -> str | None:
    out = subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


class Stages:
    """Raw run times per stage; one untimed warm-up call before the runs."""

    def __init__(self, runs: int, clock: hostspeed.Clock):
        self.runs, self.clock = runs, clock
        self.raw: dict[str, list[float]] = {}

    def time(self, name: str, fn) -> None:
        fn()
        times = []
        for _ in range(self.runs):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        self.raw[name] = times
        self.clock.mark()
        print(f"{name}: {statistics.median(times):.4f} s", file=sys.stderr)

    def medians(self) -> dict[str, float]:
        return {k: statistics.median(v) for k, v in self.raw.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import spikesound
    from spikesound import harness
    from spikesound.codec import decode_matrix, encode_matrix
    from spikesound.frontend import mel_spectrogram, partition_bands, stft_power
    from spikesound.harness import RunConfig, run_bench
    from spikesound.ingest import load_audio, read_manifest
    from spikesound.metrics import errdb, firing_rate, score_per_band
    from spikesound.snn import SnnConfig, _backward_batch, _forward_batch, cross_entropy, init_net

    clock = hostspeed.Clock()
    stages = Stages(RUNS, clock)
    cfg = RunConfig()
    spec, fcfg = cfg.synthetic, cfg.frontend
    with tempfile.TemporaryDirectory(prefix="spikesound-perf-") as tmp:
        tmp = Path(tmp)

        # Full runs, untraced, then traced for the per-layer split.
        plain = RunConfig(output_dir=str(tmp / "bench"))
        snn = RunConfig(output_dir=str(tmp / "bench_snn"), run_snn=True,
                        snn=SnnConfig(epochs=SNN_EPOCHS))
        stages.time("run_bench", lambda: run_bench(plain))
        stages.time("run_bench_snn", lambda: run_bench(snn))
        tracer = spans.Tracer()
        layers = []
        for run_id in range(RUNS):
            with tracer.iteration(run_id):
                t0 = time.perf_counter()
                run_bench(plain)
                wall = time.perf_counter() - t0
            layers.append(tracer.summarize(run_id, wall))

        # Stage by stage over the same corpus.
        stages.time("synthesis", lambda: harness.generate_synthetic(spec, cfg.seed))
        manifest = tmp / "corpus" / "manifest.csv"
        stages.time("synthesis_wav_write", lambda: harness.write_synthetic_corpus(
            spec, cfg.seed, tmp / "corpus"))
        entries = read_manifest(manifest)
        paths = [manifest.parent / e.path for e in entries]
        stages.time("wav_load", lambda: [load_audio(p, fcfg.sample_rate) for p in paths])
        waves = [load_audio(p, fcfg.sample_rate) for p in paths]
        stages.time("stft", lambda: [stft_power(w, fcfg.n_fft, fcfg.hop, fcfg.window)
                                     for w in waves])
        stages.time("mel", lambda: [mel_spectrogram(w, fcfg) for w in waves])
        clips = [(e, mel_spectrogram(w, fcfg)) for e, w in zip(entries, waves)]
        bands = partition_bands(clips[0][1].channel_center_hz)
        blocks = harness._stack_blocks(clips)
        stacked = [block for block, _ in blocks]

        def score(estimates, spike_trains):
            for (_, members), est, st in zip(blocks, estimates, spike_trains):
                for _, feats, rows in members:
                    errdb(feats.values, est[rows])
                    score_per_band(feats.values, est[rows], bands)
                firing_rate(st)

        for codec in sorted(cfg.codecs):
            ccfg = cfg.codec_params[codec]
            stages.time(f"encode.{codec}",
                        lambda: [encode_matrix(b, ccfg, codec) for b in stacked])
            trains = [encode_matrix(b, ccfg, codec) for b in stacked]
            stages.time(f"decode.{codec}", lambda: [decode_matrix(st) for st in trains])
            estimates = [decode_matrix(st) for st in trains]
            stages.time(f"score.{codec}", lambda: score(estimates, trains))

        # One SNN batch at the default network size on TAE spikes.
        net_cfg = SnnConfig(input_size=fcfg.n_mels, output_size=len(spec.classes))
        net = init_net(net_cfg)
        batch = min(net_cfg.batch_size, len(clips))
        x = np.stack([encode_matrix(f, cfg.codec_params["tae"], "tae").spikes
                      for _, f in clips[:batch]]).astype(np.float64)
        labels = np.arange(batch) % net_cfg.output_size
        stages.time("snn.forward_batch", lambda: _forward_batch(net, x))
        cache = _forward_batch(net, x)
        d_counts = cross_entropy(cache.counts, labels)[1]
        stages.time("snn.backward_batch", lambda: _backward_batch(net, cache, d_counts))

    medians = stages.medians()
    # Paired within each traced run_bench: mel (STFT included) minus STFT.
    medians["mel_log_normalize"] = statistics.median(
        r["frontend.mel_s"] - r["frontend.stft_s"] for r in layers)
    trace = {k: statistics.median(r[k] for r in layers) for k in layers[0]}
    record = {
        "description": "median seconds of each stage over the default corpus; "
                       "mel includes stft; mel_log_normalize is mel minus stft "
                       "within each traced run_bench; host_scaled times are "
                       "scaled by the host-speed probe (perfbench/hostspeed.py)",
        "src": {"commit": _git(args.src, "rev-parse", "HEAD"),
                "uncommitted_changes": bool(_git(args.src, "status", "--porcelain", ".")),
                "spikesound": spikesound.__version__},
        "machine": {"cpu": perfrun._cpu_model(), "nproc": NPROC,
                    "platform": platform.platform()},
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "blas": perfrun.blas_info(),
        "host_probe": clock.summary(),
        "corpus": {"clips": spec.n_clips, "duration_s": spec.duration_s,
                   "sample_rate": spec.sample_rate, "seed": cfg.seed,
                   "channels": clips[0][1].n_channels, "frames": clips[0][1].n_frames,
                   "blocks": len(blocks), "snn_epochs": SNN_EPOCHS,
                   "snn_batch": list(x.shape)},
        "runs": RUNS,
        "median_s": medians,
        "median_host_scaled_s": {k: v * clock.scale() for k, v in medians.items()},
        "run_bench_layers": trace,
        "raw_s": stages.raw,
    }
    out = args.out or _next_bench_path()
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
