"""Stage timings of the spikesound pipeline, written to BENCH_<n>.json.

Usage, from the repository root:

    python3 bench/perf.py                  # next free BENCH_<n>.json
    python3 bench/perf.py --out BENCH_9.json --src other/checkout/src

On the default corpus (40 synthetic 5 s clips at 44.1 kHz, seed 1234) the
script times a full `run_bench` with and without the SNN protocol,
synthesis, synthesis with the WAV write, one SNN batch, `ingest.resample`
of a 4 s clip at 22.05 and at 48 kHz, and, each in RUNS fresh
interpreters, the wall time and peak RSS of the cold start (`import
spikesound.cli`, `cold_import`), of one `run_bench` without the SNN
(`run_bench_peak_rss`), of the same run with one codec only
(`run_bench_peak_rss_<codec>`, which tells which codec sets the peak), of
one `run_bench` with the SNN protocol on perfbench train_folds' corpus (4
folds of 1 s crops, SNN_EPOCHS epochs; `run_bench_snn_peak_rss`) and of
one `spikesound encode` of a small corpus
at 22.05, 44.1 and 48 kHz (`encode_peak_rss`, import excluded from its
wall time).  Every figure is the median of RUNS = 5 timed runs
(after one untimed warm-up in this interpreter); the raw runs are kept
too.  The pipeline stages (WAV load, STFT, mel, encode and decode per
codec, scoring) come only from RUNS traced `run_bench` calls
(perfbench/spans.py), so each has one figure, timed inside the run it
belongs to.  The disk path's stages (WAV load with resampling, feature and
spike saves, bytes written) come likewise from RUNS traced in-process
`spikesound encode` calls on the mixed-rate corpus (`encode_layers`).
The host-speed reference (perfbench/hostspeed.py) is probed between
stages, so two files taken on a busy host can be told apart from a change
in the code.

The SNN is timed per batch (one forward and one backward pass of the whole
network); a per-layer split would need spans inside snn.py.  BLAS threads
are capped at the usable CPU count, as perfbench/run.py does.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
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

# Code run in fresh interpreters; each prints its wall time and peak RSS (MB).
COLD_IMPORT = ("import resource, time\n"
               "t0 = time.perf_counter()\n"
               "import spikesound.cli\n"
               "print(time.perf_counter() - t0, "
               "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)\n")
RUN_BENCH = ("import resource, sys, time\n"
             "from spikesound.harness import load_run_config, run_bench\n"
             "cfg = load_run_config(sys.argv[1])\n"
             "t0 = time.perf_counter()\n"
             "run_bench(cfg)\n"
             "print(time.perf_counter() - t0, "
             "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)\n")
ENCODE = ("import resource, sys, time\n"
          "from spikesound.cli import main\n"
          "t0 = time.perf_counter()\n"
          "assert main(['encode', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
          "print(time.perf_counter() - t0, "
          "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)\n")
# The encode_peak_rss corpus: MIXED_CLIPS clips of 1 s at each rate, one
# per synthetic class.
MIXED_RATES = (22050, 44100, 48000)
MIXED_CLIPS = 5


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


def write_mixed_rate_corpus(seed: int, root: Path) -> Path:
    """MIXED_CLIPS synthetic 1 s clips at each of MIXED_RATES under root,
    one manifest for all; returns the manifest path."""
    from spikesound import harness, ingest

    entries = []
    for rate in MIXED_RATES:
        spec = harness.SyntheticSpec(n_clips=MIXED_CLIPS, duration_s=1.0, sample_rate=rate)
        manifest = harness.write_synthetic_corpus(spec, seed, root / str(rate))
        entries += [replace(e, path=f"{rate}/{e.path}") for e in ingest.read_manifest(manifest)]
    ingest.write_manifest(entries, root / "manifest.csv")
    return root / "manifest.csv"


def write_fold_corpus(seed: int, root: Path) -> Path:
    """perfbench train_folds' corpus under root, its clips dealt to folds
    as that workload deals them; returns the manifest path."""
    import workloads
    from spikesound import harness, ingest

    spec = workloads.WORKLOADS["train_folds"].spec
    manifest = harness.write_synthetic_corpus(spec, seed, root)
    ingest.write_manifest([replace(e, fold=workloads._fold(i))
                           for i, e in enumerate(ingest.read_manifest(manifest))], manifest)
    return manifest


def write_config(path: Path, **fields) -> str:
    """A run configuration JSON of fields at path; returns the path."""
    path.write_text(json.dumps(fields), encoding="utf-8")
    return str(path)


def fresh_runs(name: str, code: str, src: Path, *args: str) -> dict:
    """Wall time and peak RSS that code prints last, each run in a fresh
    interpreter with src first on its path: medians and raw runs."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src.resolve()), os.environ.get("PYTHONPATH")])))
    runs = [subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                           capture_output=True, text=True).stdout.split()[-2:]
            for _ in range(RUNS)]
    wall, rss = ([float(r[i]) for r in runs] for i in (0, 1))
    print(f"{name}: {statistics.median(wall):.4f} s, "
          f"{statistics.median(rss):.1f} MB", file=sys.stderr)
    return {"wall_s": statistics.median(wall), "peak_rss_mb": statistics.median(rss),
            "raw_wall_s": wall, "raw_peak_rss_mb": rss}


def traced_runs(fn) -> list[dict[str, float]]:
    """perfbench/spans.py's per-layer summary of RUNS traced calls of fn,
    after one untraced warm-up call."""
    fn()
    tracer = spans.Tracer()
    layers = []
    for run_id in range(RUNS):
        with tracer.iteration(run_id):
            t0 = time.perf_counter()
            fn()
            wall = time.perf_counter() - t0
        layers.append(tracer.summarize(run_id, wall))
    return layers


def layer_medians(layers: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in layers) for k in layers[0]}


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import spikesound
    from spikesound import harness, ingest
    from spikesound.codec import CODEC_IDS, encode_matrix
    from spikesound.harness import RunConfig, run_bench
    from spikesound.snn import SnnConfig, _backward_batch, _forward_batch, cross_entropy, init_net

    clock = hostspeed.Clock()
    stages = Stages(RUNS, clock)
    cold = fresh_runs("cold_import", COLD_IMPORT, args.src)
    clock.mark()
    cfg = RunConfig()
    spec = cfg.synthetic
    with tempfile.TemporaryDirectory(prefix="spikesound-perf-") as tmp:
        tmp = Path(tmp)
        fresh = str(tmp / "fresh")
        bench_rss = fresh_runs("run_bench_peak_rss", RUN_BENCH, args.src,
                               write_config(tmp / "all.json", output_dir=fresh))
        codec_rss = {f"run_bench_peak_rss_{c}": fresh_runs(
            f"run_bench_peak_rss_{c}", RUN_BENCH, args.src,
            write_config(tmp / f"{c}.json", output_dir=fresh, codecs=[c]))
            for c in CODEC_IDS}
        clock.mark()
        snn_rss = fresh_runs("run_bench_snn_peak_rss", RUN_BENCH, args.src, write_config(
            tmp / "folds.json", output_dir=fresh, seed=cfg.seed, run_snn=True,
            dataset=str(write_fold_corpus(cfg.seed, tmp / "folds")), crop_seconds=1.0,
            snn={"epochs": SNN_EPOCHS}))
        clock.mark()
        mixed = write_config(tmp / "mixed.json",
                             dataset=str(write_mixed_rate_corpus(cfg.seed, tmp / "mixed")))
        encode_rss = fresh_runs("encode_peak_rss", ENCODE, args.src, mixed,
                                str(tmp / "encode"))
        clock.mark()

        # Full runs, untraced, then traced: the spans of the traced runs time
        # every pipeline stage.
        plain = RunConfig(output_dir=str(tmp / "bench"))
        snn = RunConfig(output_dir=str(tmp / "bench_snn"), run_snn=True,
                        snn=SnnConfig(epochs=SNN_EPOCHS))
        stages.time("run_bench", lambda: run_bench(plain))
        stages.time("run_bench_snn", lambda: run_bench(snn))
        layers = traced_runs(lambda: run_bench(plain))

        rng = np.random.default_rng(cfg.seed)
        for rate in (22050, 48000):
            clip = rng.uniform(-0.9, 0.9, 4 * rate)
            stages.time(f"resample_{rate}",
                        lambda clip=clip, rate=rate: ingest.resample(clip, rate, 44100))
        stages.time("synthesis", lambda: harness.generate_synthetic(spec, cfg.seed))
        stages.time("synthesis_wav_write", lambda: harness.write_synthetic_corpus(
            spec, cfg.seed, tmp / "corpus"))

        # One SNN batch at the default network size on the TAE spikes of the
        # first clips of the corpus just written, int8 as run_bench passes them.
        net_cfg = SnnConfig(input_size=cfg.frontend.n_mels, output_size=len(spec.classes))
        net = init_net(net_cfg)
        corpus = replace(cfg, dataset=str(tmp / "corpus" / "manifest.csv"))
        _, clips = harness.load_corpus(corpus, tmp)
        x = np.stack([encode_matrix(f, cfg.codec_params["tae"], "tae").spikes
                      for _, f in itertools.islice(clips, net_cfg.batch_size)])
        labels = np.arange(len(x)) % net_cfg.output_size
        stages.time("snn.forward_batch", lambda: _forward_batch(net, x))
        cache = _forward_batch(net, x)
        d_counts = cross_entropy(cache.counts, labels)[1]
        stages.time("snn.backward_batch", lambda: _backward_batch(net, cache, d_counts))

        # Traced in-process encodes of the mixed-rate corpus time the disk
        # path: WAV load and resampling, and the feature and spike saves.
        import spikesound.cli as cli  # main looked up per call, so the tracer wraps it
        argv = ["encode", "--config", mixed, "--out", str(tmp / "encode_traced")]
        encode_layers = traced_runs(lambda: cli.main(argv))

    medians = stages.medians()
    # Paired within each traced run_bench: mel (STFT included) minus STFT.
    medians["mel_log_normalize"] = statistics.median(
        r["frontend.mel_s"] - r["frontend.stft_s"] for r in layers)
    record = {
        "description": "median seconds over the default corpus; median_s times whole "
                       "run_bench runs, synthesis and one SNN batch; every pipeline "
                       "stage is taken from the traced run_bench runs "
                       "(run_bench_layers, perfbench/spans.py), where mel includes "
                       "stft; mel_log_normalize is mel minus stft within each traced "
                       "run; host_probe holds the host-speed reference "
                       "(perfbench/hostspeed.py) probed between stages; cold_import "
                       "and run_bench_peak_rss are the median wall time and peak RSS "
                       "of `import spikesound.cli` and of one run_bench without the "
                       "SNN, each in a fresh interpreter; run_bench_peak_rss_<codec> "
                       "is the same run with that codec only; run_bench_snn_peak_rss "
                       "is one run_bench with the SNN protocol on perfbench "
                       "train_folds' corpus (4 folds of 1 s crops, snn_epochs); "
                       "resample_<rate> times "
                       "ingest.resample of a 4 s clip at that rate to 44.1 kHz; "
                       "encode_peak_rss is the median wall time (import excluded) and "
                       "peak RSS of one `spikesound encode` of the mixed-rate corpus "
                       "in a fresh interpreter; encode_layers holds the spans of "
                       "RUNS traced in-process encodes of that corpus",
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
                   "channels": x.shape[1], "frames": x.shape[2],
                   "snn_epochs": SNN_EPOCHS, "snn_batch": list(x.shape)},
        "runs": RUNS,
        "cold_import": cold,
        "run_bench_peak_rss": bench_rss,
        **codec_rss,
        "run_bench_snn_peak_rss": snn_rss,
        "encode_peak_rss": encode_rss,
        "encode_corpus": {"rates": list(MIXED_RATES), "clips_per_rate": MIXED_CLIPS,
                          "duration_s": 1.0, "seed": cfg.seed},
        "median_s": medians,
        "run_bench_layers": layer_medians(layers),
        "encode_layers": layer_medians(encode_layers),
        "raw_s": stages.raw,
    }
    out = args.out or _next_bench_path()
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
