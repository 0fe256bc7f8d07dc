"""Benchmark workloads: seeded inputs, one closed-loop iteration, output checks.

Each workload writes its WAVs, manifest and run config under `inputs/` of
the current directory, then runs the `spikesound` CLI on them.  The program
sees only those files.  Workloads are chosen to load different layers:

bench_synth     `spikesound bench` on the default 40 x 5 s corpus at the
                canonical rate: frontend and codec recurrences dominate,
                clips are equal-length, no resampling, containers or SNN.
train_folds     `spikesound bench` with the SNN protocol on a 4-fold
                manifest of 1 s crops: 4 folds x 3 codecs = 12 models, SNN
                training dominates.
disk_roundtrip  `spikesound encode` then `spikesound reconstruct` on a
                corpus of mixed rates and durations shaped like
                UrbanSound8K: the only workload that resamples and writes
                and reads containers; unequal lengths cannot be stacked.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from spikesound import cli
from spikesound.codec import CODEC_IDS, CodecConfig, decode_matrix, encode_matrix, load_spikes
from spikesound.frontend import load_features, mel_spectrogram
from spikesound.harness import (
    SYNTH_CLASSES,
    SyntheticSpec,
    generate_synthetic,
    write_synthetic_corpus,
)
from spikesound.ingest import load_audio, read_manifest, write_manifest
from spikesound.metrics import errdb

CODECS = tuple(sorted(CODEC_IDS))
N_FOLDS = 4
CONFIG = "inputs/config.json"


class VerifyError(Exception):
    """An output of the program is missing, malformed or wrong."""


def _fold(i: int) -> int:
    # The synthetic corpus deals classes round-robin, so i % N_FOLDS would
    # put one class in each fold and leave every training split without it.
    return (i // len(SYNTH_CLASSES)) % N_FOLDS


def _write_config(cfg: dict) -> None:
    Path(CONFIG).write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")


def _read_rows(path: str) -> list[dict[str, str]]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))
    except OSError as exc:
        raise VerifyError(f"missing report {path}: {exc}") from exc


def _finite(rows, *fields) -> None:
    for row in rows:
        for f in fields:
            if not math.isfinite(float(row[f])):
                raise VerifyError(f"non-finite {f} in row {row}")


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise VerifyError(what)


def _digest(parts: list[tuple[str, bytes]]) -> str:
    h = hashlib.sha256()
    for name, data in parts:
        h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def _csv_without(path: str, dropped: str) -> bytes:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name != dropped]
    return "\n".join(",".join(r[i] for i in keep) for r in rows).encode()


def _summary_without_versions(path: str) -> bytes:
    summary = json.loads(Path(path).read_text(encoding="utf-8"))
    summary.pop("versions", None)
    return json.dumps(summary, sort_keys=True).encode()


def _check_tae_leads(quality: dict[str, float]) -> None:
    """The paper's ordering: TAE fires least and reconstructs best."""
    firing = {c: quality[f"firing_{c}_pct"] for c in CODECS}
    snr = {c: quality[f"snr_{c}_db"] for c in CODECS}
    _expect(min(firing, key=firing.get) == "tae", f"TAE is not the sparsest: {firing}")
    _expect(max(snr, key=snr.get) == "tae", f"TAE does not reconstruct best: {snr}")


def _corpus_shape(entries: list[dict]) -> dict:
    rates: dict[str, int] = {}
    for e in entries:
        rates[str(e["rate"])] = rates.get(str(e["rate"]), 0) + 1
    durs = [e["duration_s"] for e in entries]
    return {"clips": len(entries), "rates_hz": rates, "duration_s_min": min(durs),
            "duration_s_max": max(durs), "duration_s_total": round(sum(durs), 6)}


# ---------------------------------------------------------------------------
# bench_synth and train_folds: `spikesound bench`
# ---------------------------------------------------------------------------

class BenchWorkload:
    outputs = ("out",)

    def __init__(self, name: str, spec: SyntheticSpec, run_cfg: dict, folds: bool,
                 host_scaled: bool):
        self.name = name
        self.spec, self.run_cfg, self.folds = spec, run_cfg, folds
        self.n_clips = spec.n_clips
        self.host_scaled = host_scaled

    def generate(self, seed: int) -> dict:
        manifest = write_synthetic_corpus(self.spec, seed, Path("inputs/corpus"))
        if self.folds:
            entries = [replace(e, fold=_fold(i))
                       for i, e in enumerate(read_manifest(manifest))]
            write_manifest(entries, manifest)
        _write_config({**self.run_cfg, "seed": seed,
                       "dataset": "inputs/corpus/manifest.csv"})
        shape = _corpus_shape([{"rate": self.spec.sample_rate,
                                "duration_s": self.spec.duration_s}] * self.n_clips)
        shape["crop_s"] = self.run_cfg.get("crop_seconds")
        shape["folds"] = N_FOLDS if self.folds else None
        return shape

    def run(self) -> None:
        rc = cli.main(["bench", "--config", CONFIG, "--out", "out"])
        _expect(rc == 0, f"spikesound bench exited {rc}")

    def verify(self) -> str:
        """Check the reports and return their digest, timing column removed."""
        band = _read_rows("out/per_band.csv")
        klass = _read_rows("out/per_class.csv")
        eff = _read_rows("out/efficiency.csv")
        _expect(len(band) == 8 * len(CODECS), f"per_band.csv has {len(band)} rows")
        _expect(len(klass) == len(SYNTH_CLASSES) * len(CODECS),
                f"per_class.csv has {len(klass)} rows")
        _expect([r["codec"] for r in eff] == list(CODECS), "efficiency.csv codecs")
        _finite(band, "errdb", "snr")
        _finite(klass, "errdb")
        _finite(eff, "firing_rate_pct", "encode_ms", "aux_bytes")
        summary = json.loads(Path("out/run_summary.json").read_text(encoding="utf-8"))
        _expect(summary["dataset"]["n_clips"] == self.n_clips, "run_summary n_clips")
        parts = [("per_band.csv", Path("out/per_band.csv").read_bytes()),
                 ("per_class.csv", Path("out/per_class.csv").read_bytes()),
                 ("efficiency.csv", _csv_without("out/efficiency.csv", "encode_ms")),
                 ("run_summary.json", _summary_without_versions("out/run_summary.json"))]
        if self.folds:
            cls = _read_rows("out/classification.csv")
            _expect(len(cls) == len(CODECS) * (N_FOLDS + 1),
                    f"classification.csv has {len(cls)} rows")
            _expect(all(0.0 <= float(r["macro_acc"]) <= 1.0 for r in cls),
                    "macro_acc outside [0, 1]")
            parts.append(("classification.csv",
                          Path("out/classification.csv").read_bytes()))
        else:
            self._check_band_wins(band)
        _check_tae_leads(self.quality())
        return _digest(parts)

    @staticmethod
    def _check_band_wins(band) -> None:
        """TAE has the best ERRdB in every band."""
        per_band: dict[str, dict[str, float]] = {}
        for r in band:
            per_band.setdefault(r["band"], {})[r["codec"]] = float(r["errdb"])
        wins = sum(min(v, key=v.get) == "tae" for v in per_band.values())
        _expect(wins == 8, f"TAE has the best ERRdB in {wins}/8 bands")

    def quality(self) -> dict[str, float]:
        band = _read_rows("out/per_band.csv")
        eff = {r["codec"]: float(r["firing_rate_pct"])
               for r in _read_rows("out/efficiency.csv")}
        out = {}
        for c in CODECS:
            out[f"snr_{c}_db"] = float(np.mean([float(r["snr"]) for r in band
                                                if r["codec"] == c]))
            out[f"firing_{c}_pct"] = eff[c]
        if self.folds:
            cls = _read_rows("out/classification.csv")
            out["macro_acc"] = float(np.mean([float(r["macro_acc"]) for r in cls
                                              if r["fold"] == "mean"]))
        return out

    def frames(self) -> int:
        return json.loads(Path("out/run_summary.json").read_text())["dataset"]["n_frames"]


# ---------------------------------------------------------------------------
# disk_roundtrip: `spikesound encode` then `spikesound reconstruct`
# ---------------------------------------------------------------------------

class DiskWorkload:
    name = "disk_roundtrip"
    outputs = ("enc", "rec")
    host_scaled = True
    n_clips = 40
    rates = (22050, 44100, 48000)
    duration_range_s = (0.5, 4.0)

    def generate(self, seed: int) -> dict:
        """Mixed-rate, mixed-length clips; clip i depends only on (seed, i).

        Every seed uses the same (rate, duration) pairs, dealt to the clips
        in a seeded order, so the amount of work does not vary with the seed.
        """
        root = Path("inputs/corpus")
        durs = np.round(np.linspace(*self.duration_range_s, self.n_clips), 3)
        pairs = [(self.rates[i % len(self.rates)], float(d)) for i, d in enumerate(durs)]
        order = np.random.default_rng([seed, 1]).permutation(self.n_clips)
        entries, shape = [], []
        for i, k in enumerate(order):
            kind = SYNTH_CLASSES[i % len(SYNTH_CLASSES)]
            rate, dur = pairs[k]
            spec = SyntheticSpec(n_clips=1, classes=(kind,), duration_s=dur,
                                 sample_rate=rate)
            (w,), (e,) = generate_synthetic(spec, seed * self.n_clips + i)
            rel = f"{kind}/{kind}_{i // len(SYNTH_CLASSES):03d}.wav"
            (root / kind).mkdir(parents=True, exist_ok=True)
            pcm = np.round(w.samples * 32767.0).astype(np.int16)
            wavfile.write(str(root / rel), rate, pcm)
            entries.append(replace(e, path=rel, fold=_fold(i)))
            shape.append({"rate": rate, "duration_s": dur})
        write_manifest(entries, root / "manifest.csv")
        _write_config({"dataset": "inputs/corpus/manifest.csv", "seed": seed})
        return _corpus_shape(shape)

    def run(self) -> None:
        rc = cli.main(["encode", "--config", CONFIG, "--out", "enc"])
        _expect(rc == 0, f"spikesound encode exited {rc}")
        rc = cli.main(["reconstruct", "enc", "--out", "rec"])
        _expect(rc == 0, f"spikesound reconstruct exited {rc}")

    def verify(self) -> str:
        index = json.loads(Path("enc/encode_index.json").read_text(encoding="utf-8"))
        _expect(len(index) == self.n_clips * len(CODECS),
                f"encode_index.json has {len(index)} entries")
        for item in index:
            _expect(Path("enc", item["spikes"]).is_file(), f"missing {item['spikes']}")
            _expect(Path("enc", item["features"]).is_file(), f"missing {item['features']}")
        rows = _read_rows("rec/reconstruct_scores.csv")
        _expect(len(rows) == len(index), f"reconstruct_scores.csv has {len(rows)} rows")
        _finite(rows, "errdb", "snr")
        _check_tae_leads(self.quality())
        return _digest([("encode_index.json", Path("enc/encode_index.json").read_bytes()),
                        ("reconstruct_scores.csv",
                         Path("rec/reconstruct_scores.csv").read_bytes())])

    def quality(self) -> dict[str, float]:
        rows = _read_rows("rec/reconstruct_scores.csv")
        index = json.loads(Path("enc/encode_index.json").read_text(encoding="utf-8"))
        rates: dict[str, list[float]] = {c: [] for c in CODECS}
        for item in index:
            side = json.loads(Path("enc", item["spikes"] + ".json").read_text())
            rates[item["codec"]].append(
                100.0 * sum(side["spike_counts"]) / (side["channels"] * side["frames"]))
        out = {}
        for c in CODECS:
            out[f"snr_{c}_db"] = float(np.mean([float(r["snr"]) for r in rows
                                                if r["codec"] == c]))
            out[f"firing_{c}_pct"] = float(np.mean(rates[c]))
        return out

    def frames(self) -> list[int]:
        index = json.loads(Path("enc/encode_index.json").read_text(encoding="utf-8"))
        return [json.loads(Path("enc", item["spikes"] + ".json").read_text())["frames"]
                for item in index if item["codec"] == CODECS[0]]

    def container_drift_db(self) -> float:
        """Largest |ERRdB| change between the in-memory path and the
        container round trip, over every clip and codec, at full precision."""
        root = Path("inputs/corpus")
        index = json.loads(Path("enc/encode_index.json").read_text(encoding="utf-8"))
        feats = {}
        drift = 0.0
        for item in index:
            clip = item["clip"]
            if clip not in feats:
                feats[clip] = mel_spectrogram(load_audio(root / clip))
            f = feats[clip]
            mem = errdb(f.values, decode_matrix(encode_matrix(f, CodecConfig(),
                                                              item["codec"])))
            disk = errdb(load_features(Path("enc", item["features"])).values,
                         decode_matrix(load_spikes(Path("enc", item["spikes"]))))
            drift = max(drift, abs(disk - mem))
        return drift


WORKLOADS = {
    w.name: w
    for w in (
        # host_scaled: report iteration times at the nominal host speed of
        # hostspeed.py; SNN training does not follow the reference's speed.
        BenchWorkload("bench_synth", SyntheticSpec(), {"run_snn": False}, folds=False,
                      host_scaled=True),
        BenchWorkload("train_folds", SyntheticSpec(duration_s=1.25),
                      {"run_snn": True, "crop_seconds": 1.0, "snn": {"epochs": 5}},
                      folds=True, host_scaled=False),
        DiskWorkload(),
    )
}


class Reference:
    """The report digest every iteration must reproduce: the pinned one for
    this seed and platform if known, else the first iteration's.  The first
    iteration also supplies the quality metrics and the corpus frames, even
    when its outputs then fail a check."""

    def __init__(self, wl, pinned: str | None):
        self.wl, self.pinned = wl, pinned
        self.digest = self.quality = self.frames = None

    def check(self) -> None:
        if self.quality is None:
            self.quality, self.frames = self.wl.quality(), self.wl.frames()
        digest = self.wl.verify()
        if self.digest is None:
            self.digest = digest
        expected = self.pinned or self.digest
        if digest != expected:
            raise VerifyError(f"report digest {digest} differs from the expected "
                              f"{expected}")


def clean_outputs(workload) -> None:
    for d in workload.outputs:
        shutil.rmtree(d, ignore_errors=True)
