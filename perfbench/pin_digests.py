"""Record the report digests that run.py checks every run against.

Usage, from the repository root:

    python3 perfbench/pin_digests.py --seeds 0-63

Runs each workload once for every seed in the inclusive range and records
its digest in digests.json, keyed by the platform (BLAS build, numpy, scipy)
that produced the reports.  Digests of other seeds are kept if the platform
is the same and dropped otherwise.  A run whose seed or platform is not in
the file still checks that every iteration reproduces the first, and says
so on a `digest unpinned` line.  Re-pin only in a change that means to alter
the reports, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-63", help="inclusive seed range A-B")
    args = p.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    run.cap_blas_threads()
    sys.path.insert(0, str(run.SRC))
    import workloads

    path = run.HERE / "digests.json"
    table = {"platform": run.platform_key(run.blas_info()), "digests": {}}
    if path.is_file():
        old = json.loads(path.read_text(encoding="utf-8"))
        if old["platform"] == table["platform"]:
            table["digests"] = old["digests"]
    work = run.WORK / f"pin-{os.getpid()}"
    work.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for name, wl in workloads.WORKLOADS.items():
            for seed in range(first, last + 1):
                shutil.rmtree("inputs", ignore_errors=True)
                Path("inputs").mkdir()
                wl.generate(seed)
                workloads.clean_outputs(wl)
                wl.run()
                table["digests"].setdefault(name, {})[str(seed)] = wl.verify()
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    path.write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
