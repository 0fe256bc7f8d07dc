from dataclasses import replace

import pytest

from spikesound.harness import RunConfig, SyntheticSpec, run_bench, write_synthetic_corpus
from spikesound.ingest import read_manifest, write_manifest


def small_run_config(out_dir, seed=777) -> RunConfig:
    """20 half-second clips: fast enough for per-test pipeline runs."""
    return RunConfig(
        dataset="synthetic",
        synthetic=SyntheticSpec(n_clips=20, duration_s=0.5),
        output_dir=str(out_dir),
        seed=seed,
    )


def write_fold_corpus(out_dir):
    """20 clips of 0.3 s whose manifest deals them to 4 folds in runs of 5,
    so with the 5 classes every fold holds one clip of each; returns the
    manifest path."""
    manifest = write_synthetic_corpus(SyntheticSpec(n_clips=20, duration_s=0.3), 5, out_dir)
    entries = read_manifest(manifest)
    write_manifest([replace(e, fold=(i // 5) % 4) for i, e in enumerate(entries)], manifest)
    return manifest


@pytest.fixture(scope="session")
def small_bench(tmp_path_factory):
    """One shared bench run over the small synthetic corpus."""
    out_dir = tmp_path_factory.mktemp("bench_small")
    cfg = small_run_config(out_dir)
    result = run_bench(cfg)
    return cfg, result
