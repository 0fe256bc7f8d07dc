"""spikesound benchmark: one workload, measured end to end or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload bench_synth --seed 1 --seconds 20 --trace 0

Workloads are defined in workloads.py; metric names and units come from
BENCHMARK.json.  The run sets up several times, each time in a fresh
interpreter that imports the package and writes the workload's inputs from
the seed; setup_s is the median, and the generator's memory stays out of
peak_rss_mb.  Then the run imports the package itself, runs one untimed
warm-up iteration, then runs the workload in a closed loop of one caller for
--seconds.  The set-up times, and the iteration times of the workloads
whose speed follows the host's, are scaled by the host-speed reference's
nominal over its median time in the run (see hostspeed.py); the raw times
are in the run record.  Every iteration's reports are checked against the
digest pinned in digests.json for this seed and platform, or else against
the first iteration's.  With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones.  The last line of standard output is
a JSON object with the keys correct, attempted, failed and metrics.

The workload runs in this one process, with BLAS threads capped at the
number of usable CPUs.  Inputs and outputs live under perfbench/_work/ and
are removed at exit; a traced run leaves its spans there as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable CPU count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = nproc
        os.environ[var] = str(min(max(current, 1), nproc))
    return nproc


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads_env": int(os.environ["OPENBLAS_NUM_THREADS"])}
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                info["threads"] = get_threads()
                info["config"] = get_config().decode()
                return info
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one; no search upward."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def set_up(workload: str, seed: int) -> int:
    """One set-up, run in a child interpreter: import the package and write
    the workload's inputs under inputs/, and their shape to shape.json."""
    import spikesound.cli  # noqa: F401  (import time is part of setup_s)
    import workloads

    shutil.rmtree("inputs", ignore_errors=True)
    Path("inputs").mkdir()
    shape = workloads.WORKLOADS[workload].generate(seed)
    Path("shape.json").write_text(json.dumps(shape), encoding="utf-8")
    return 0


def timed_set_up(workload: str, seed: int) -> tuple[float, dict]:
    """Wall time of one set-up in a fresh interpreter, and the corpus shape."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--seconds", "0", "--set-up-only"],
                   check=True, timeout=170)
    elapsed = time.perf_counter() - t0
    return elapsed, json.loads(Path("shape.json").read_text(encoding="utf-8"))


def _peak_rss_mb() -> float:
    """High-water resident set size of this process so far: imports, warm-up
    and timed loop; inputs are generated in child processes and do not count."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--set-up-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def _pinned_digest(workload: str, seed: int, platform_key: dict) -> str | None:
    table = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    if table["platform"] != platform_key:
        return None
    return table["digests"].get(workload, {}).get(str(seed))


def platform_key(blas: dict) -> dict:
    """What the report bytes may depend on besides the inputs."""
    import numpy as np
    import scipy

    return {"blas": blas.get("config", blas.get("version")),
            "numpy": np.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    args = _parse(argv)
    nproc = cap_blas_threads()
    if not (SRC / "spikesound").is_dir():
        print(f"error: no package source at {SRC / 'spikesound'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.set_up_only:
        return set_up(args.workload, args.seed)
    try:
        import spikesound.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import spikesound: {exc}", file=sys.stderr)
        return 2
    import numpy as np
    import scipy

    import hostspeed
    import spans
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(why)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    blas = blas_info()
    pkey = platform_key(blas)
    pinned = _pinned_digest(wl.name, args.seed, pkey)

    work = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        clock = hostspeed.Clock()
        setups = []
        for _ in range(SETUP_REPEATS):
            try:
                elapsed, shape = timed_set_up(wl.name, args.seed)
            except subprocess.SubprocessError as exc:
                print(f"error: set-up failed: {exc}", file=sys.stderr)
                return 1
            setups.append(elapsed)
        rss_before_warmup_mb = _peak_rss_mb()

        tracer = spans.Tracer() if args.trace else None
        reference = workloads.Reference(wl, pinned)
        walls = {False: [], True: []}  # traced? -> timed iteration wall times
        layer_rows, problems = [], []

        def failure(run_id: int, exc: Exception) -> None:
            traceback.print_exc()
            problems.append(f"iteration {run_id}: {exc}")

        def attempt(run_id: int, traced: bool) -> float | None:
            """Run and check one iteration; its wall time, or None if it crashed.

            An iteration whose outputs fail the checks still has its time
            measured but counts as failed, so the run reports correct=false.
            """
            workloads.clean_outputs(wl)
            try:
                with tracer.iteration(run_id) if traced else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    wl.run()
                    wall = time.perf_counter() - t0
            except Exception as exc:  # one failed iteration must not end the run
                failure(run_id, exc)
                return None
            try:
                reference.check()
                if traced:
                    layer_rows.append(tracer.summarize(run_id, wall))
            except Exception as exc:
                failure(run_id, exc)
            return wall

        # Iteration 0 warms caches and the allocator; it is checked, not timed.
        warmup_s = attempt(0, traced=False)
        clock.mark()
        # Then the closed loop runs for --seconds: an iteration starts only if
        # it is due to end no later than half an iteration past the deadline.
        # A traced run alternates untraced and traced iterations and has at
        # least one of each.
        run_id, start = 1, time.perf_counter()
        typical = warmup_s or 0.0
        while (time.perf_counter() - start + typical / 2 < args.seconds
               or (tracer and run_id < 3) or run_id < 2):
            traced = bool(tracer) and run_id % 2 == 0
            wall = attempt(run_id, traced)
            clock.mark()
            if wall is not None:
                walls[traced].append(wall)
                typical = statistics.median(walls[False] + walls[True]) + clock.probe_s
            run_id += 1
        attempted, failed = run_id, len(problems)

        ok_walls = walls[False]
        if not ok_walls or reference.quality is None or (tracer and not layer_rows):
            print("error: no iteration succeeded", file=sys.stderr)
            return 1
        pairs = wl.n_clips * len(workloads.CODECS)
        setup_scale = clock.scale()
        scale = setup_scale if wl.host_scaled else 1.0
        if tracer:
            values = _per_layer(spec["per_layer"], layer_rows, scale,
                                reference.quality, walls, wl)
            (WORK / f"trace-{wl.name}-{args.seed}.json").write_text(
                json.dumps(tracer.dump()) + "\n", encoding="utf-8")
        else:
            wall_s = statistics.median(ok_walls) * scale
            values = {"wall_s": wall_s, "clips_per_s": pairs / wall_s,
                      "setup_s": statistics.median(setups) * setup_scale,
                      "peak_rss_mb": _peak_rss_mb(), **reference.quality}
        wanted = spec["per_layer" if tracer else "end_to_end"]
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in wanted}
        record = {
            "workload": wl.name, "why": why[wl.name], "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "cpu_model": _cpu_model(), "nproc": nproc, "blas": blas,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "git_commit": _git_commit(),
            "corpus": {**shape, "frames": reference.frames},
            "setup": {"set_up_s": setups, "rss_before_warmup_mb": rss_before_warmup_mb},
            "host_speed": {**clock.summary(), "iteration_scale": scale},
            "warmup_s": warmup_s,
            "iterations": {"untraced_s": walls[False], "traced_s": walls[True]},
            "pairs_per_iteration": pairs,
            "digest": reference.digest, "digest_pinned": pinned is not None,
            "fail_frac": failed / attempted, "problems": problems,
        }
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:<18.10g} {unit}")
    if not tracer:
        print(f"{'wall_raw_s':28s} {statistics.median(walls[False]):<18.10g} s "
              "(unscaled, not a metric)")
    print(f"{'fail_frac':28s} {failed / attempted:<18.10g} ({failed}/{attempted})")
    if pinned is None:
        print(f"{'digest':28s} unpinned: no digest for seed {args.seed} on this platform "
              "in digests.json; iterations were checked against the first")
    else:
        print(f"{'digest':28s} pinned")
    print("run_record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _per_layer(wanted, rows, scale, quality, walls, wl) -> dict[str, float]:
    """Mean of each per-layer value over the traced iterations; times (unit
    s) are scaled to the nominal host speed like wall_s.

    A layer or counter the workload does not exercise reads 0.
    """
    out = {m["name"]: statistics.fmean(r.get(m["name"], 0.0) for r in rows)
           * (scale if m["unit"] == "s" else 1.0) for m in wanted}
    calls = out["codec.encode_calls"]
    encode_rows = statistics.fmean(r.get("codec.encode_rows", 0.0) for r in rows)
    out["codec.rows_per_call"] = encode_rows / calls if calls else 0.0
    out["snn.macro_acc"] = quality.get("macro_acc", 0.0)
    out["trace.overhead_s"] = scale * (statistics.median(walls[True])
                                       - statistics.median(walls[False]))
    if hasattr(wl, "container_drift_db"):
        out["codec.container_drift_db"] = wl.container_drift_db()
    return out


if __name__ == "__main__":
    sys.exit(main())
