"""Benchmark orchestration: synthetic corpora, full pipeline runs, reports.

A bench run encodes every clip with each selected codec, decodes, scores
reconstruction per band and per class, measures firing rates and encoding
cost, optionally trains the spiking classifier, and emits plot-ready CSVs
plus a run_summary.json echoing the full configuration.  Given the same
config and seed, every non-timing output byte is reproducible.
"""

from __future__ import annotations

import json
import logging
import platform
import time
from collections.abc import Iterator
from dataclasses import dataclass, asdict, field
from pathlib import Path

import numpy as np
import scipy
from scipy.io import wavfile

from . import __version__
from .codec import (
    CODEC_IDS,
    CodecConfig,
    SpikeTrain,
    decode_matrix,
    encode_matrix,
    serialized_size,
)
from .errors import ConfigError, DataError
from .frontend import (
    FrontendConfig,
    FeatureMatrix,
    mel_spectrogram,
    partition_bands,
    N_BANDS,
)
from .ingest import ManifestEntry, Waveform, center_crop, load_audio, read_manifest, write_manifest
from .metrics import (
    encoder_state_bytes,
    firing_rate,
    score_matrix,
    score_per_band,
    score_per_class,
    write_efficiency_csv,
    write_per_band_csv,
    write_per_class_csv,
)
from .snn import ProtocolSample, SnnConfig, run_protocol

log = logging.getLogger(__name__)

SYNTH_CLASSES = ("tone", "chirp", "band_noise", "am_tone", "impulse_train")


@dataclass(frozen=True)
class SyntheticSpec:
    """Desk-scale corpus of spectrally separable classes."""

    n_clips: int = 40
    classes: tuple[str, ...] = SYNTH_CLASSES
    duration_s: float = 5.0
    sample_rate: int = 44100

    def __post_init__(self):
        unknown = set(self.classes) - set(SYNTH_CLASSES)
        if unknown:
            raise ConfigError(f"unknown synthetic classes: {sorted(unknown)}")
        if self.n_clips < len(self.classes):
            raise ConfigError("need at least one clip per class")


@dataclass
class RunConfig:
    dataset: str = "synthetic"  # manifest path or "synthetic"
    codecs: tuple[str, ...] = CODEC_IDS
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    codec_params: dict[str, CodecConfig] = field(
        default_factory=lambda: {c: CodecConfig() for c in CODEC_IDS}
    )
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    snn: SnnConfig = field(default_factory=SnnConfig)
    run_snn: bool = False
    crop_seconds: float | None = None
    seed: int = 1234
    output_dir: str = "runs/out"

    def __post_init__(self):
        if not self.codecs:
            raise ConfigError("at least one codec must be selected")
        unknown = set(self.codecs) - set(CODEC_IDS)
        if unknown:
            raise ConfigError(f"unknown codecs: {sorted(unknown)}")
        if len(set(self.codecs)) != len(self.codecs):
            raise ConfigError(f"duplicate codecs: {list(self.codecs)}")
        for c in self.codecs:
            if c not in self.codec_params:
                self.codec_params[c] = CodecConfig()


# ---------------------------------------------------------------------------
# Synthetic corpus
# ---------------------------------------------------------------------------

def _tone(rng, n, rate):
    f = 440.0 * (1.0 + rng.uniform(-0.05, 0.05))
    phase = rng.uniform(0, 2 * np.pi)
    t = np.arange(n) / rate
    return 0.5 * np.sin(2 * np.pi * f * t + phase)


def _chirp(rng, n, rate):
    f0 = 800.0 * (1.0 + rng.uniform(-0.05, 0.05))
    f1 = 1600.0 * (1.0 + rng.uniform(-0.05, 0.05))
    t = np.arange(n) / rate
    sweep = f0 + (f1 - f0) * t / t[-1] / 2.0
    return 0.5 * np.sin(2 * np.pi * sweep * t + rng.uniform(0, 2 * np.pi))


def _band_noise(rng, n, rate, lo=4800.0, hi=7200.0):
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, 1.0 / rate)
    spec[(freqs < lo) | (freqs > hi)] = 0.0
    x = np.fft.irfft(spec, n)
    peak = np.abs(x).max()
    return 0.5 * x / peak if peak > 0 else x


def _am_tone(rng, n, rate):
    f = 2500.0 * (1.0 + rng.uniform(-0.05, 0.05))
    fm = rng.uniform(3.0, 8.0)
    t = np.arange(n) / rate
    env = 1.0 + 0.8 * np.sin(2 * np.pi * fm * t)
    return 0.25 * env * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))


def _impulse_train(rng, n, rate):
    x = np.zeros(n)
    period = 0.1 * (1.0 + rng.uniform(-0.1, 0.1))
    pos = rng.uniform(0.0, period)
    while pos < n / rate:
        x[int(pos * rate)] = 0.9 * rng.choice([-1.0, 1.0])
        pos += period * (1.0 + rng.uniform(-0.1, 0.1))
    click = np.exp(-np.arange(int(0.002 * rate)) / (0.0005 * rate))
    return np.convolve(x, click)[:n]


_GENERATORS = {
    "tone": _tone,
    "chirp": _chirp,
    "band_noise": _band_noise,
    "am_tone": _am_tone,
    "impulse_train": _impulse_train,
}

_NOISE_FLOOR = 0.01


def generate_synthetic(spec: SyntheticSpec,
                       seed: int) -> tuple[list[Waveform], list[ManifestEntry]]:
    """Deterministic in-memory corpus; clip i depends only on (seed, i).

    Clips are dealt to classes round-robin so the manifest stays balanced;
    every clip gets a small broadband noise floor so all mel channels carry
    signal.  Every fourth clip of a class goes to the test split.
    """
    n = int(round(spec.duration_s * spec.sample_rate))
    waveforms, entries = [], []
    per_class_counter = {c: 0 for c in spec.classes}
    for i in range(spec.n_clips):
        kind = spec.classes[i % len(spec.classes)]
        rng = np.random.default_rng([seed, i])
        x = _GENERATORS[kind](rng, n, spec.sample_rate)
        x = x + _NOISE_FLOOR * rng.standard_normal(n)
        np.clip(x, -1.0, 1.0, out=x)
        j = per_class_counter[kind]
        per_class_counter[kind] += 1
        name = f"{kind}/{kind}_{j:03d}.wav"
        waveforms.append(Waveform(samples=x, sample_rate=spec.sample_rate,
                                  source_path=name))
        entries.append(ManifestEntry(path=name, class_label=kind, fold=None,
                                     split="test" if j % 4 == 3 else "train"))
    return waveforms, entries


def write_synthetic_corpus(spec: SyntheticSpec, seed: int,
                           out_dir: str | Path) -> Path:
    """Materialize the corpus as 16-bit WAVs plus manifest.csv; returns the
    manifest path.  Byte-identical for identical (spec, seed)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    waveforms, entries = generate_synthetic(spec, seed)
    for w, e in zip(waveforms, entries):
        path = out_dir / e.path
        path.parent.mkdir(parents=True, exist_ok=True)
        pcm = np.round(w.samples * 32767.0).astype(np.int16)
        wavfile.write(str(path), w.sample_rate, pcm)
    manifest_path = out_dir / "manifest.csv"
    write_manifest(entries, manifest_path)
    return manifest_path


# ---------------------------------------------------------------------------
# Bench
# ---------------------------------------------------------------------------

def load_corpus(cfg: RunConfig, out_dir: Path
                ) -> tuple[str, Iterator[tuple[ManifestEntry, FeatureMatrix]]]:
    """Dataset name and a lazy stream of (entry, features), one per clip.

    A synthetic corpus is first written to out_dir/corpus.  Each clip is
    loaded, cropped and featurized only when the stream reaches it; a bad
    clip raises DataError naming its path.
    """
    if cfg.dataset == "synthetic":
        manifest_path = write_synthetic_corpus(cfg.synthetic, cfg.seed,
                                               out_dir / "corpus")
        dataset_name = "synthetic"
    else:
        manifest_path = Path(cfg.dataset)
        dataset_name = manifest_path.stem
    entries = read_manifest(manifest_path)
    if not entries:
        raise DataError(f"empty manifest: {manifest_path}")
    root = manifest_path.parent
    return dataset_name, ((e, _clip_features(root, e, cfg)) for e in entries)


def _clip_features(root: Path, e: ManifestEntry, cfg: RunConfig) -> FeatureMatrix:
    try:
        w = load_audio(root / e.path, cfg.frontend.sample_rate)
        if cfg.crop_seconds is not None:
            w = center_crop(w, cfg.crop_seconds)
        return mel_spectrogram(w, cfg.frontend)
    except DataError as exc:
        raise DataError(f"clip {e.path!r}: {exc}") from exc


# Most feature entries (rows x frames) one encode call takes: 4 clips of
# 128 x 858.  Memory sets the size: one block for the whole 40-clip default
# corpus raised a bench run's peak RSS from 183 to 224 MB, while 4-clip
# blocks peak no higher than one clip per block.
BLOCK_ENTRIES = 1 << 19

_Block = tuple[FeatureMatrix, list[tuple[ManifestEntry, FeatureMatrix, slice]]]


def _stack_blocks(clips: list[tuple[ManifestEntry, FeatureMatrix]]) -> list[_Block]:
    """Stack runs of consecutive equal-length clips, in corpus order.

    A block holds at most BLOCK_ENTRIES feature entries (a larger clip is a
    block by itself).  Each block's features become one FeatureMatrix and
    every clip's values a view of its rows, so the clips keep no copy.
    """
    groups: list[list[tuple[ManifestEntry, FeatureMatrix]]] = []
    entries = 0
    for entry, feats in clips:
        size = feats.values.size
        if (groups and groups[-1][0][1].n_frames == feats.n_frames
                and entries + size <= BLOCK_ENTRIES):
            groups[-1].append((entry, feats))
            entries += size
        else:
            groups.append([(entry, feats)])
            entries = size
    blocks = []
    for group in groups:
        feats = [f for _, f in group]
        stacked = FeatureMatrix(
            values=np.concatenate([f.values for f in feats]),
            channel_center_hz=np.concatenate([f.channel_center_hz for f in feats]),
            norm_state=np.concatenate([f.norm_state for f in feats]),
            frame_rate=feats[0].frame_rate,
        )
        members, start = [], 0
        for entry, f in group:
            rows = slice(start, start + f.n_channels)
            f.values = stacked.values[rows]
            members.append((entry, f, rows))
            start = rows.stop
        blocks.append((stacked, members))
    return blocks


def _decoded_clips(blocks: list[_Block], ccfg: CodecConfig, codec: str):
    """Encode and decode each block once; yield per clip, in corpus order,
    (entry, features, spike train, estimate, encode ms).  The spike train
    and estimate are row views of the block's, and the encode time is the
    clip's share of its block's."""
    for stacked, members in blocks:
        t0 = time.perf_counter()
        block_st = encode_matrix(stacked, ccfg, codec)
        share_ms = 1000.0 * (time.perf_counter() - t0) / len(members)
        block_est = decode_matrix(block_st)
        for entry, feats, rows in members:
            st = SpikeTrain(spikes=block_st.spikes[rows],
                            side_info=block_st.side_info[rows],
                            codec_id=codec, params=ccfg)
            yield entry, feats, st, block_est[rows], share_ms


@dataclass
class BenchResult:
    output_dir: Path
    per_band_rows: list[tuple[str, int, float, float]]
    per_class_rows: list[tuple[str, str, float]]
    efficiency_rows: list[tuple[str, str, float, float, float]]
    classification_rows: list[tuple[str, str, str, float]]


def run_bench(cfg: RunConfig) -> BenchResult:
    """Full pipeline for every selected codec; writes the report files.

    Outputs land in cfg.output_dir: per_band.csv, per_class.csv,
    efficiency.csv, run_summary.json, and, when the SNN protocol is enabled,
    classification.csv plus one training_log_<codec>.csv per codec.  All
    results are staged in memory and written in one pass so a failure
    leaves no partial report behind.
    """
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset_name, clips = load_corpus(cfg, out_dir)
    clips = list(clips)
    bands = partition_bands(clips[0][1].channel_center_hz)
    blocks = _stack_blocks(clips)

    per_band_rows = []
    per_class_rows = []
    efficiency_rows = []
    classification_rows = []
    training_logs = {}
    for codec in sorted(cfg.codecs):
        ccfg = cfg.codec_params[codec]
        band_errs = np.zeros(N_BANDS)
        band_counts = np.zeros(N_BANDS, dtype=np.int64)
        class_scores = []
        rates, times_ms, aux = [], [], []
        samples = []
        for entry, feats, st, est, ms in _decoded_clips(blocks, ccfg, codec):
            times_ms.append(ms)
            overall = score_matrix(feats.values, est,
                                   class_label=entry.class_label)
            class_scores.append((entry.class_label, overall))
            for sc in score_per_band(feats, est, bands):
                if not sc.absent:
                    band_errs[sc.band] += sc.errdb
                    band_counts[sc.band] += 1
            rates.append(firing_rate(st))
            aux.append(serialized_size(st) + encoder_state_bytes(st))
            if cfg.run_snn:
                samples.append(ProtocolSample(
                    inputs=st.spikes.astype(np.float64),
                    label=entry.class_label,
                    fold=entry.fold,
                    split=entry.split,
                ))
        del st, est  # views that keep the last block alive through training
        for b in range(N_BANDS):
            if band_counts[b]:
                mean_err = band_errs[b] / band_counts[b]
                per_band_rows.append((codec, b, mean_err, -mean_err))
        for label, mean_err in score_per_class(class_scores).items():
            per_class_rows.append((codec, label, mean_err))
        efficiency_rows.append((
            codec, dataset_name, float(np.mean(rates)),
            float(np.median(times_ms)), float(np.mean(aux)),
        ))
        if cfg.run_snn:
            result = run_protocol(samples, cfg.snn)
            for fr in result.per_fold:
                fold_label = "holdout" if fr.fold is None else str(fr.fold)
                classification_rows.append((codec, dataset_name, fold_label,
                                            fr.macro_acc))
            classification_rows.append((codec, dataset_name, "mean",
                                        result.mean_macro_acc))
            training_logs[codec] = result.histories
        log.info("bench: codec=%s clips=%d mean_rate=%.2f%%",
                 codec, len(clips), float(np.mean(rates)))

    written = []
    try:
        write_per_band_csv(out_dir / "per_band.csv", per_band_rows)
        written.append(out_dir / "per_band.csv")
        write_per_class_csv(out_dir / "per_class.csv", per_class_rows)
        written.append(out_dir / "per_class.csv")
        write_efficiency_csv(out_dir / "efficiency.csv", efficiency_rows)
        written.append(out_dir / "efficiency.csv")
        if cfg.run_snn:
            _write_classification_csv(out_dir / "classification.csv",
                                      classification_rows)
            written.append(out_dir / "classification.csv")
        for codec, histories in training_logs.items():
            path = out_dir / f"training_log_{codec}.csv"
            _write_training_log_csv(path, histories)
            written.append(path)
        _write_run_summary(out_dir / "run_summary.json", cfg, dataset_name, clips)
        written.append(out_dir / "run_summary.json")
    except Exception:
        for p in written:
            p.unlink(missing_ok=True)
        raise
    return BenchResult(
        output_dir=out_dir,
        per_band_rows=per_band_rows,
        per_class_rows=per_class_rows,
        efficiency_rows=efficiency_rows,
        classification_rows=classification_rows,
    )


def _write_classification_csv(path: Path, rows) -> None:
    lines = ["codec,dataset,fold,macro_acc"]
    for codec, ds, fold, acc in rows:
        lines.append(f"{codec},{ds},{fold},{acc:.6f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_training_log_csv(path: Path, histories) -> None:
    lines = ["epoch,split,loss,macro_acc"]
    for hist in histories:
        for epoch, split, loss, acc in hist.rows:
            lines.append(f"{epoch},{split},{loss:.6f},{acc:.6f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_run_summary(path: Path, cfg: RunConfig, dataset_name: str,
                       clips: list[tuple[ManifestEntry, FeatureMatrix]]) -> None:
    classes = sorted({e.class_label for e, _ in clips})
    summary = {
        "config": asdict(cfg),
        "seed": cfg.seed,
        "dataset": {
            "name": dataset_name,
            "n_clips": len(clips),
            "classes": classes,
            "n_frames": clips[0][1].n_frames,
        },
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "spikesound": __version__,
        },
    }
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


# ---------------------------------------------------------------------------
# Report comparison
# ---------------------------------------------------------------------------

# name -> (file, key column, value column) of each table compare_report reads
_REPORT_TABLES = {
    "band": ("per_band.csv", "band", "errdb"),
    "class": ("per_class.csv", "class", "errdb"),
    "eff": ("efficiency.csv", "dataset", "firing_rate_pct"),
}


def _read_csv_rows(path: Path, key_field: str,
                   value_field: str) -> list[tuple[str, str, float]]:
    """(codec, key, value) per row of a report CSV; DataError naming the file
    and line if it is unreadable, lacks a column or holds a non-number."""
    import csv

    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            missing = {"codec", key_field, value_field} - set(reader.fieldnames or ())
            if missing:
                raise DataError(f"report file {path} lacks column(s) {sorted(missing)}")
            rows = []
            for row in reader:
                codec, key, value = row["codec"], row[key_field], row[value_field]
                where = f"report file {path} line {reader.line_num}"
                if codec is None or key is None:
                    raise DataError(f"short row in {where}")
                try:
                    rows.append((codec, key, float(value)))
                except (TypeError, ValueError) as exc:
                    raise DataError(f"bad {value_field} {value!r} in {where}") from exc
            return rows
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read report file {path}: {exc}") from exc


def _codec_ranking(rows):
    """Per key: codecs sorted ascending by value (lower is better)."""
    table: dict[str, list[tuple[float, str]]] = {}
    for codec, key, value in rows:
        table.setdefault(key, []).append((value, codec))
    return {k: [c for _, c in sorted(v)] for k, v in sorted(table.items())}


def _win_counts(rows):
    """Codec -> number of keys where it is strictly best."""
    values: dict[str, dict[str, float]] = {}
    for codec, key, value in rows:
        values.setdefault(key, {})[codec] = value
    wins: dict[str, int] = {}
    for key, per_codec in values.items():
        best = min(per_codec.values())
        winners = [c for c, v in per_codec.items() if v == best]
        if len(winners) == 1:
            wins[winners[0]] = wins.get(winners[0], 0) + 1
    return wins


def compare_report(report_a: str | Path, report_b: str | Path) -> dict:
    """Ordering summary for two bench reports over the same corpus.

    Within each report, codecs are ranked by ERRdB per band and per class
    and by firing rate (ascending; lower is better throughout).  Across the
    two reports, each (codec, key) cell is compared and marked 'a', 'b', or
    'tie'.  Raises DataError when the corpora differ.
    """
    dirs = {"a": Path(report_a), "b": Path(report_b)}
    datasets = {}
    for tag, d in dirs.items():
        summary_path = d / "run_summary.json"
        try:
            datasets[tag] = json.loads(summary_path.read_text(encoding="utf-8"))["dataset"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise DataError(f"no dataset name in {summary_path}: {exc!r}") from exc
    if datasets["a"] != datasets["b"]:
        raise DataError(f"mismatched corpora: {datasets['a']} vs {datasets['b']}")

    out: dict = {"reports": {t: str(d) for t, d in dirs.items()}}
    tables = {}
    for tag, d in dirs.items():
        t = tables[tag] = {name: _read_csv_rows(d / fname, key, value)
                           for name, (fname, key, value) in _REPORT_TABLES.items()}
        out[f"report_{tag}"] = {
            "errdb_ranking_per_band": _codec_ranking(t["band"]),
            "errdb_ranking_per_class": _codec_ranking(t["class"]),
            "firing_rate_ranking": _codec_ranking(t["eff"]),
            "band_wins": _win_counts(t["band"]),
            "class_wins": _win_counts(t["class"]),
        }

    def cell_relations(name):
        a_map, b_map = ({(codec, key): value for codec, key, value in tables[tag][name]}
                        for tag in "ab")
        rel = {}
        for cell in sorted(set(a_map) & set(b_map)):
            va, vb = a_map[cell], b_map[cell]
            rel["/".join(cell)] = "tie" if va == vb else ("a" if va < vb else "b")
        return rel

    out["cross_report"] = {
        "errdb_per_band": cell_relations("band"),
        "errdb_per_class": cell_relations("class"),
        "firing_rate": cell_relations("eff"),
    }
    relations = [v for table in out["cross_report"].values() for v in table.values()]
    out["all_ties"] = bool(relations) and all(v == "tie" for v in relations)
    return out


# ---------------------------------------------------------------------------
# Config (de)serialization
# ---------------------------------------------------------------------------

def _build(cls, data: dict, what: str):
    valid = set(cls.__dataclass_fields__)
    unknown = set(data) - valid
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} config: {exc}") from exc


def run_config_from_dict(data: dict) -> RunConfig:
    data = dict(data)
    kwargs: dict = {}
    if "frontend" in data:
        kwargs["frontend"] = _build(FrontendConfig, data.pop("frontend"), "frontend")
    if "synthetic" in data:
        synth = dict(data.pop("synthetic"))
        if "classes" in synth:
            synth["classes"] = tuple(synth["classes"])
        kwargs["synthetic"] = _build(SyntheticSpec, synth, "synthetic")
    if "snn" in data:
        snn = dict(data.pop("snn"))
        if "hidden_sizes" in snn:
            snn["hidden_sizes"] = tuple(snn["hidden_sizes"])
        kwargs["snn"] = _build(SnnConfig, snn, "snn")
    if "codec_params" in data:
        kwargs["codec_params"] = {
            k: _build(CodecConfig, v, f"codec {k}")
            for k, v in data.pop("codec_params").items()
        }
    if "codecs" in data:
        data["codecs"] = tuple(data["codecs"])
    kwargs.update(data)
    return _build(RunConfig, kwargs, "run")


def load_run_config(path: str | Path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a JSON object: {path}")
    return run_config_from_dict(data)
