"""Benchmark orchestration: synthetic corpora, full pipeline runs, reports.

A bench run encodes every clip with each selected codec, decodes, scores
reconstruction per band and per class, measures firing rates and encoding
cost, optionally trains the spiking classifier, and emits plot-ready CSVs
plus a run_summary.json echoing the full configuration.  Given the same
config and seed, every non-timing output byte is reproducible.
"""

from __future__ import annotations

import logging
import platform
import time
import typing
from collections.abc import Iterator
from dataclasses import dataclass, asdict, field, is_dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .codec import (
    CODEC_IDS,
    CodecConfig,
    SpikeTrain,
    decode_matrix,
    encode_matrix,
    serialized_size,
)
from .container import make_dir, read_csv, read_json, write_csv, write_json
from .errors import ConfigError, DataError
from .frontend import FrontendConfig, FeatureMatrix, mel_spectrogram, partition_bands
from .ingest import (MAX_SAMPLES, ManifestEntry, Waveform, center_crop, load_audio,
                     read_manifest, write_manifest, write_wav)
from .metrics import (
    band_rows,
    encoder_state_bytes,
    firing_rate,
    score_matrix,
    score_per_class,
    sums_of_squares,
)
from .snn import SnnConfig, run_protocol

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
        if not self.classes:
            raise ConfigError("need at least one synthetic class")
        unknown = set(self.classes) - set(SYNTH_CLASSES)
        if unknown:
            raise ConfigError(f"unknown synthetic classes: {sorted(unknown)}")
        if len(set(self.classes)) != len(self.classes):
            raise ConfigError(f"duplicate synthetic classes: {list(self.classes)}")
        if self.n_clips < len(self.classes):
            raise ConfigError("need at least one clip per class")
        if not (self.sample_rate > 0 and 0 < self.duration_s < np.inf):
            raise ConfigError("need sample_rate > 0 and finite duration_s > 0, got "
                              f"{self.sample_rate} / {self.duration_s}")
        if not 2 <= round(self.duration_s * self.sample_rate) <= MAX_SAMPLES:
            raise ConfigError(f"need 2 to {MAX_SAMPLES} samples per clip, got duration_s "
                              f"{self.duration_s} at {self.sample_rate} Hz")


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
        unknown = (set(self.codecs) | set(self.codec_params)) - set(CODEC_IDS)
        if unknown:
            raise ConfigError(f"unknown codecs in codecs or codec_params: {sorted(unknown)}")
        if len(set(self.codecs)) != len(self.codecs):
            raise ConfigError(f"duplicate codecs: {list(self.codecs)}")
        if self.crop_seconds is not None and not 0 < self.crop_seconds < np.inf:
            raise ConfigError(f"crop_seconds must be finite and > 0, got {self.crop_seconds}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        try:  # the SNN's input layer takes one input per mel channel
            replace(self.snn, input_size=self.frontend.n_mels)
        except ValueError as exc:
            raise ConfigError(f"snn with {self.frontend.n_mels} mel inputs: {exc}") from exc
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
    click = np.exp(-np.arange(max(1, int(0.002 * rate))) / (0.0005 * rate))
    return np.convolve(x, click)[:n]


_GENERATORS = {
    "tone": _tone,
    "chirp": _chirp,
    "band_noise": _band_noise,
    "am_tone": _am_tone,
    "impulse_train": _impulse_train,
}

_NOISE_FLOOR = 0.01


def _synthetic_clips(spec: SyntheticSpec,
                     seed: int) -> Iterator[tuple[Waveform, ManifestEntry]]:
    """The corpus, one (waveform, entry) per clip; clip i depends only on (seed, i).

    Clips are dealt to classes round-robin so the manifest stays balanced;
    every clip gets a small broadband noise floor so all mel channels carry
    signal.  Every fourth clip of a class goes to the test split.
    """
    n = int(round(spec.duration_s * spec.sample_rate))
    for i in range(spec.n_clips):
        kind = spec.classes[i % len(spec.classes)]
        rng = np.random.default_rng([seed, i])
        x = _GENERATORS[kind](rng, n, spec.sample_rate)
        x = x + _NOISE_FLOOR * rng.standard_normal(n)
        np.clip(x, -1.0, 1.0, out=x)
        j = i // len(spec.classes)  # the clip's index within its class
        name = f"{kind}/{kind}_{j:03d}.wav"
        yield (Waveform(samples=x, sample_rate=spec.sample_rate, source_path=name),
               ManifestEntry(path=name, class_label=kind, fold=None,
                             split="test" if j % 4 == 3 else "train"))


def generate_synthetic(spec: SyntheticSpec,
                       seed: int) -> tuple[list[Waveform], list[ManifestEntry]]:
    """The whole synthetic corpus in memory: its waveforms and its entries."""
    waveforms, entries = zip(*_synthetic_clips(spec, seed))
    return list(waveforms), list(entries)


def write_synthetic_corpus(spec: SyntheticSpec, seed: int,
                           out_dir: str | Path) -> Path:
    """Write each clip as a 16-bit WAV as it is generated, then manifest.csv;
    returns the manifest path.  Byte-identical for identical (spec, seed)."""
    out_dir = make_dir(out_dir)
    entries = []
    for w, e in _synthetic_clips(spec, seed):
        path = out_dir / e.path
        make_dir(path.parent)
        write_wav(path, w.samples, w.sample_rate)
        entries.append(e)
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
# 128 x 858, so the default 40-clip corpus runs as 10 blocks.  A larger block
# spreads each codec's per-frame steps over more rows, but run_bench holds one
# block at a time: one default run_bench in a fresh interpreter (2 vCPUs,
# numpy 2.4) peaks at 66 / 67 / 78 / 95 MB RSS with 2^18 / 2^19 / 2^20 / 2^21
# entries (2 / 4 / 9 / 19 clips).
BLOCK_ENTRIES = 1 << 19


def _stack_blocks(clips: Iterator[tuple[ManifestEntry, FeatureMatrix]]
                  ) -> Iterator[tuple[list[ManifestEntry], FeatureMatrix]]:
    """Stack runs of consecutive equal-length clips, in corpus order, as the
    stream delivers them; yield (entries, block features) per run.

    A run closes as soon as one more clip of its size would pass
    BLOCK_ENTRIES (a larger clip is a block by itself), or when the next
    clip's frame count differs.  Clip j of a block owns its j-th run of
    n_mels rows.
    """
    run: list[tuple[ManifestEntry, FeatureMatrix]] = []

    def stacked():
        entries, feats = zip(*run)
        run.clear()
        return list(entries), FeatureMatrix(
            values=np.concatenate([f.values for f in feats]),
            channel_center_hz=np.concatenate([f.channel_center_hz for f in feats]),
            norm_state=np.concatenate([f.norm_state for f in feats]),
            frame_rate=feats[0].frame_rate,
        )

    for entry, feats in clips:
        if run and run[0][1].n_frames != feats.n_frames:
            yield stacked()
        run.append((entry, feats))
        if (len(run) + 1) * feats.values.size > BLOCK_ENTRIES:
            yield stacked()
    if run:
        yield stacked()


# Each report table: its file name ({codec} makes one file per codec), its
# header, and how many label columns lead it; the other columns are numbers.
REPORT_TABLES = {
    "per_band": ("per_band.csv", ["codec", "band", "errdb", "snr"], 2),
    "per_class": ("per_class.csv", ["codec", "class", "errdb"], 2),
    "efficiency": ("efficiency.csv",
                   ["codec", "dataset", "firing_rate_pct", "encode_ms", "aux_bytes"], 2),
    "classification": ("classification.csv", ["codec", "dataset", "fold", "macro_acc"], 3),
    "training_log": ("training_log_{codec}.csv", ["epoch", "split", "loss", "macro_acc"], 2),
    "reconstruct_scores": ("reconstruct_scores.csv",
                           ["codec", "clip", "class", "errdb", "snr"], 3),
}


def write_report(out_dir: Path, table: str, rows, codec: str = "") -> Path:
    """Write the rows of one REPORT_TABLES table under out_dir, numbers with
    six decimals; returns the file's path."""
    name, header, labels = REPORT_TABLES[table]
    path = out_dir / name.format(codec=codec)
    write_csv(path, header, ([*row[:labels], *(f"{v:.6f}" for v in row[labels:])]
                             for row in rows))
    return path


def run_bench(cfg: RunConfig) -> dict[str, list[tuple]]:
    """Full pipeline for every selected codec; writes the report files and
    returns the rows of each CSV by file name.

    Each block of clips (_stack_blocks) is encoded, decoded and scored by
    every codec as the corpus streams in, so one block's features are held
    at a time; an SNN run lists its blocks first, to reject unequal lengths.

    Outputs land in cfg.output_dir: per_band.csv, per_class.csv,
    efficiency.csv, run_summary.json, and, when the SNN protocol is enabled,
    classification.csv plus one training_log_<codec>.csv per codec.  All
    results are staged in memory and written in one pass so a failure
    leaves no partial report behind.
    """
    out_dir = make_dir(cfg.output_dir)
    dataset_name, clips = load_corpus(cfg, out_dir)
    blocks = _stack_blocks(clips)
    if cfg.run_snn:  # the protocol holds every clip's spikes anyway
        blocks = list(blocks)
        frames = [block.n_frames for _, block in blocks]
        if min(frames) != max(frames):
            raise DataError(f"the SNN protocol needs equal-length clips, got {min(frames)} "
                            f"to {max(frames)} frames; set crop_seconds")
    n_mels, codecs = cfg.frontend.n_mels, sorted(cfg.codecs)
    band_errs: dict[str, dict[int, list[float]]] = {c: {} for c in codecs}
    class_scores, rates, times_ms, aux, spikes = ({c: [] for c in codecs} for _ in range(5))
    entries, n_frames = [], 0
    for members, block in blocks:
        k = len(members)
        entries += members
        n_frames = n_frames or block.n_frames
        rows = band_rows(partition_bands(block.channel_center_hz[:n_mels]))
        shape = (k, n_mels, block.n_frames)
        signals = [sums_of_squares(values, rows)  # shared by every codec
                   for values in block.values.reshape(shape)]
        for codec in codecs:
            ccfg = cfg.codec_params[codec]
            t0 = time.perf_counter()
            st = encode_matrix(block, ccfg, codec)
            times_ms[codec] += [1000.0 * (time.perf_counter() - t0) / k] * k
            est = decode_matrix(st)
            for entry, values, clip_spikes, side_info, clip_est, signal in zip(
                    members, block.values.reshape(shape), st.spikes.reshape(shape),
                    st.side_info.reshape(k, n_mels, 2), est.reshape(shape), signals):
                clip = SpikeTrain(clip_spikes, side_info, codec, ccfg)
                # squares the error in est's own buffer
                clip_err, band_scores = score_matrix(values, clip_est, rows, signal)
                class_scores[codec].append((entry.class_label, clip_err))
                for b, e in band_scores.items():
                    band_errs[codec].setdefault(b, []).append(e)
                rates[codec].append(firing_rate(clip))
                aux[codec].append(serialized_size(clip) + encoder_state_bytes(clip))
                if cfg.run_snn:
                    spikes[codec].append(clip_spikes)
            del st, est, clip, values, clip_spikes, side_info, clip_est  # before the next encode
        del block  # freed before the next block is stacked
    del blocks  # an SNN run's features, freed before training

    per_band_rows, per_class_rows, efficiency_rows, classification_rows = [], [], [], []
    training_logs = []
    for codec in codecs:
        for b, errs in band_errs[codec].items():
            mean_err = sum(errs) / len(errs)
            per_band_rows.append((codec, b, mean_err, -mean_err))
        for label, mean_err in score_per_class(class_scores[codec]).items():
            per_class_rows.append((codec, label, mean_err))
        efficiency_rows.append((codec, dataset_name, float(np.mean(rates[codec])),
                                float(np.median(times_ms[codec])), float(np.mean(aux[codec]))))
        if cfg.run_snn:
            results, histories = run_protocol(
                np.stack(spikes.pop(codec)),
                [e.class_label for e in entries],
                [e.fold for e in entries], [e.split for e in entries], cfg.snn)
            for fold, acc, _ in results:
                classification_rows.append((codec, dataset_name,
                                            "holdout" if fold is None else str(fold), acc))
            classification_rows.append((codec, dataset_name, "mean",
                                        float(np.mean([acc for _, acc, _ in results]))))
            training_logs.append(("training_log", sum(histories, []), codec))
        log.info("bench: codec=%s clips=%d mean_rate=%.2f%%",
                 codec, len(entries), float(np.mean(rates[codec])))

    reports = [("per_band", per_band_rows), ("per_class", per_class_rows),
               ("efficiency", efficiency_rows)]
    if cfg.run_snn:
        reports += [("classification", classification_rows), *training_logs]
    written = {}
    try:
        for table, rows, *codec in reports:
            written[write_report(out_dir, table, rows, *codec)] = rows
        _write_run_summary(out_dir / "run_summary.json", cfg, dataset_name, entries,
                           n_frames)
    except Exception:
        for p in written:
            p.unlink(missing_ok=True)
        raise
    return {p.name: rows for p, rows in written.items()}


def _write_run_summary(path: Path, cfg: RunConfig, dataset_name: str,
                       entries: list[ManifestEntry], n_frames: int) -> None:
    write_json(path, {
        "config": asdict(cfg),
        "seed": cfg.seed,
        "dataset": {"name": dataset_name, "n_clips": len(entries),
                    "classes": sorted({e.class_label for e in entries}), "n_frames": n_frames},
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "spikesound": __version__},
    })


# ---------------------------------------------------------------------------
# Report comparison
# ---------------------------------------------------------------------------

# name -> (report table, key column, value column) of each table compare_report reads
_COMPARED_TABLES = {
    "band": ("per_band", "band", "errdb"),
    "class": ("per_class", "class", "errdb"),
    "eff": ("efficiency", "dataset", "firing_rate_pct"),
}


def _read_table(report_dir: Path, table_name: str, key_field: str,
                value_field: str) -> dict[str, dict[str, float]]:
    """{key: {codec: value}} of one REPORT_TABLES file in report_dir;
    DataError naming the file and line if read_csv rejects it against the
    table's header, or a value is not a finite number, or a (codec, key)
    cell repeats."""
    name, header, _ = REPORT_TABLES[table_name]
    table: dict[str, dict[str, float]] = {}

    def add(*fields):
        codec, key = fields[0], fields[header.index(key_field)]
        number = float(fields[header.index(value_field)])
        if not np.isfinite(number):
            raise DataError(f"non-finite {value_field} {number}")
        if codec in table.setdefault(key, {}):
            raise DataError(f"repeated {codec}/{key} cell")
        table[key][codec] = number

    read_csv(report_dir / name, "report file", header, add)
    return table


def _codec_ranking(table):
    """Per key: codecs sorted ascending by value (lower is better)."""
    return {k: sorted(cells, key=lambda c: (cells[c], c))
            for k, cells in sorted(table.items())}


def _win_counts(table):
    """Codec -> number of keys where it is strictly best."""
    wins: dict[str, int] = {}
    for cells in table.values():
        best = min(cells.values())
        winners = [c for c, v in cells.items() if v == best]
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
        summary = read_json(summary_path, "run summary")
        try:
            datasets[tag] = summary["dataset"]
        except (KeyError, TypeError) as exc:
            raise DataError(f"no dataset name in {summary_path}: {exc!r}") from exc
    if datasets["a"] != datasets["b"]:
        raise DataError(f"mismatched corpora: {datasets['a']} vs {datasets['b']}")

    out: dict = {"reports": {t: str(d) for t, d in dirs.items()}}
    tables = {}
    for tag, d in dirs.items():
        t = tables[tag] = {name: _read_table(d, *columns)
                           for name, columns in _COMPARED_TABLES.items()}
        out[f"report_{tag}"] = {
            "errdb_ranking_per_band": _codec_ranking(t["band"]),
            "errdb_ranking_per_class": _codec_ranking(t["class"]),
            "firing_rate_ranking": _codec_ranking(t["eff"]),
            "band_wins": _win_counts(t["band"]),
            "class_wins": _win_counts(t["class"]),
        }

    def cell_relations(name):
        a, b = tables["a"][name], tables["b"][name]
        rel = {}
        for codec, key in sorted((c, k) for k in a.keys() & b.keys()
                                 for c in a[k].keys() & b[k].keys()):
            va, vb = a[key][codec], b[key][codec]
            rel[f"{codec}/{key}"] = "tie" if va == vb else ("a" if va < vb else "b")
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

# JSON value types each scalar field type takes: an int field takes no
# bool or float, a float field an int too.
_JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,),
               type(None): (type(None),)}


def _check_scalar(value, kind, what: str) -> None:
    """ConfigError unless value has a JSON type the field type kind takes;
    X | None also takes null."""
    if not any(type(value) in _JSON_TYPES[k] for k in typing.get_args(kind) or (kind,)):
        name = getattr(kind, "__name__", kind)
        raise ConfigError(f"{what} must be {name}, got {value!r}")


def _build(cls, data, what: str):
    """cls from a parsed JSON object.  Each value follows its field's type: a
    dataclass section is built the same way, a dict of dataclasses item by
    item, a tuple field takes a JSON list, and scalars go by _check_scalar.
    ConfigError names the section on a non-object, an unknown key, a wrong
    type or a value the dataclass rejects."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what} config must be a JSON object, got {data!r}")
    unknown = set(data) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    types = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        kind = types[key]
        origin = typing.get_origin(kind)
        if is_dataclass(kind):
            value = _build(kind, value, key)
        elif origin is dict:
            item = typing.get_args(kind)[1]
            if not isinstance(value, dict):
                raise ConfigError(f"{what} {key} must be a JSON object, got {value!r}")
            value = {k: _build(item, v, f"{key} {k}") for k, v in value.items()}
        elif origin is tuple:
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{what} {key} must be a JSON list, got {value!r}")
            for item in value:
                _check_scalar(item, typing.get_args(kind)[0], f"{what} {key} item")
            value = tuple(value)
        else:
            _check_scalar(value, kind, f"{what} {key}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} config: {exc}") from exc


def run_config_from_dict(data: dict) -> RunConfig:
    return _build(RunConfig, data, "run")


def load_run_config(path: str | Path) -> RunConfig:
    data = read_json(path, "config file", ConfigError)
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a JSON object: {path}")
    return run_config_from_dict(data)
