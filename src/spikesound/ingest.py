"""Audio loading, duration rules, and dataset manifest construction.

Reads PCM WAV files (8/16/24-bit integer or 32/64-bit float), mixes down to
mono, and resamples everything to one canonical rate so frame counts are
reproducible across heterogeneous corpora; writes mono 16-bit PCM WAV files.
_read_wav is the one WAV reader, for samples and durations alike.
Manifests are plain CSV files with the columns of MANIFEST_HEADER and paths
relative to the manifest location.
"""

from __future__ import annotations

import functools
import io
import logging
import re
from collections import Counter
from dataclasses import dataclass
from math import gcd
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.io import wavfile

from .container import read_csv, write_csv, write_file
from .errors import ConfigError, DataError

log = logging.getLogger(__name__)

DEFAULT_SAMPLE_RATE = 44100

# Polyphase anti-alias filter: windowed sinc, Kaiser beta 8.6, 64 taps per
# phase.  Fixed so resampled output is bit-reproducible everywhere.
_KAISER_BETA = 8.6
_TAPS_PER_PHASE = 64
# Largest up or down factor load_audio resamples by; the filter has 64 taps
# per unit of it, so about 33 MB at most.
MAX_RESAMPLE_FACTOR = 1 << 16
# Most samples load_audio returns (1 GiB of float64, 50 min at 44.1 kHz):
# a low rate passes the factor check yet can upsample past any memory.
MAX_SAMPLES = 1 << 27
# Input samples per block of output periods in resample: 1 MB, so they
# stay in a core's L2 cache while every phase passes over them.
_BLOCK_INPUTS = 1 << 17
# The columns of a manifest CSV, in order.
MANIFEST_HEADER = ["path", "class_label", "fold", "split"]


@dataclass
class Waveform:
    """Mono audio samples at a fixed rate.

    Attributes
    ----------
    samples : ndarray
        1-D float64 amplitudes in [-1, 1].
    sample_rate : int
        Sampling rate in Hz, > 0.
    source_path : str
        Origin of the audio (file path or synthetic tag).
    """

    samples: np.ndarray
    sample_rate: int
    source_path: str = ""

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("waveform samples must be 1-D")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be > 0")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class ManifestEntry:
    """One clip in a dataset manifest."""

    path: str
    class_label: str
    fold: int | None = None
    split: str = "train"

    def __post_init__(self):
        if self.split not in ("train", "test"):
            raise ValueError(f"split must be 'train' or 'test', got {self.split!r}")
        if self.fold is not None and self.fold < 0:
            raise ValueError("fold must be >= 0")


@dataclass
class DatasetRules:
    """How to turn a directory tree into a manifest.

    labels is the declared label set; any file resolving to a label outside
    it is an error.  label_pattern / fold_pattern / split_pattern are regexes
    applied to the file's relative POSIX path (first capture group used);
    with label_pattern None the parent directory name is the label.  A file
    matching split_pattern goes to the test split.  duration_s, if set,
    keeps only clips of that exact duration (within duration_tol seconds).
    """

    labels: tuple[str, ...]
    exclude: tuple[str, ...] = ()
    label_pattern: str | None = None
    fold_pattern: str | None = None
    split_pattern: str | None = None
    duration_s: float | None = None
    duration_tol: float | None = None


def _pcm_to_float(data: np.ndarray) -> np.ndarray:
    """Scale integer PCM to [-1, 1]; float data passes through."""
    if data.dtype == np.uint8:
        return (data.astype(np.float64) - 128.0) / 128.0
    if data.dtype == np.int16:
        return data.astype(np.float64) / 32768.0
    if data.dtype == np.int32:
        # 24-bit PCM arrives as int32 with the payload in the top 3 bytes,
        # so full-scale division works for both 24- and 32-bit.
        return data.astype(np.float64) / 2147483648.0
    return data.astype(np.float64)  # float32 or float64, as _read_wav checks


def _read_wav(path: Path) -> tuple[int, np.ndarray]:
    """(rate, samples): the package's one WAV reader.  A DataError naming
    path if scipy cannot read the file, it has no data chunk, its header
    gives 0 Hz, its samples are of a type _pcm_to_float does not scale (any
    but u1, <i2, <i4, where 24-bit arrives, <f4 and <f8), it holds no
    samples, or a float sample is not finite."""
    try:
        rate, data = wavfile.read(str(path))
    except UnboundLocalError as exc:  # scipy returns a local only its data chunk sets
        raise DataError(f"no data chunk in {path}") from exc
    except Exception as exc:  # missing, malformed RIFF, cut short, unsupported codec, ...
        raise DataError(f"cannot read audio file {path}: {exc}") from exc
    if rate == 0:
        raise DataError(f"sample rate of 0 Hz in {path}")
    if data.dtype.str not in ("|u1", "<i2", "<i4", "<f4", "<f8"):
        raise DataError(f"unsupported WAV sample type {data.dtype.str} in {path}")
    if data.size == 0:
        raise DataError(f"zero-length audio: {path}")
    if data.dtype.kind == "f" and not np.all(np.isfinite(data)):
        raise DataError(f"non-finite samples in {path}")
    return rate, data


def _anti_alias_filter(up: int, down: int) -> np.ndarray:
    """The polyphase filter for (up, down), read-only: scipy.signal.firwin(
    64 * m + 1, 1 / m, window=("kaiser", 8.6)), m = max(up, down), step by
    step.  scipy.special.i0 keeps the bits; np.i0 differs in the last ones.
    """
    from scipy.special import i0
    max_rate = max(up, down)
    numtaps = _TAPS_PER_PHASE * max_rate + 1
    cutoff = 1.0 / max_rate
    n = np.arange(numtaps, dtype=np.float64)
    alpha = (numtaps - 1) / 2.0
    window = i0(_KAISER_BETA * np.sqrt(1 - ((n - alpha) / alpha) ** 2.0)) / i0(_KAISER_BETA)
    h = cutoff * np.sinc(cutoff * (n - alpha)) * window
    h /= np.sum(h)
    h.flags.writeable = False
    return h


@functools.lru_cache(maxsize=8)
def _polyphase(up: int, down: int) -> tuple[np.ndarray, np.ndarray]:
    """The filter of one (up, down), designed once and split into phases:
    (taps, first).  Output p * up + r (period p, phase r) sums taps[j, r]
    times input first[r] + p * down + j - (hpp - 1), hpp = len(taps).  A
    phase with fewer taps leads with zero weights: their +-0 products leave
    the sum's bits alone.
    """
    h = _anti_alias_filter(up, down)
    hpp = -(-len(h) // up)
    padded = np.zeros(hpp * up)
    padded[:len(h)] = h * up
    e = np.arange(up) * down + len(h) // 2
    taps = padded.reshape(hpp, up)[::-1, e % up]
    taps.flags.writeable = False
    return taps, e // up


def _resample_factors(orig_rate: int, target_rate: int) -> tuple[int, int]:
    """(up, down): target_rate / orig_rate in lowest terms."""
    g = gcd(int(target_rate), int(orig_rate))
    return int(target_rate) // g, int(orig_rate) // g


def resample(samples: np.ndarray, orig_rate: int, target_rate: int) -> np.ndarray:
    """Polyphase windowed-sinc resampling from orig_rate to target_rate.

    Output length is ceil(n * target / orig), and its bytes equal
    scipy.signal.resample_poly(samples, up, down, window=h) for the
    package's filter h: each output is 0.0 plus its products added in
    ascending input order, as scipy's upfirdn adds them.  samples must be
    finite.  Identity when the rates match.

    Each phase is one np.matmul of its taps with a view of the input that
    walks the periods backwards: numpy hands a vector-matrix product with a
    negative stride to its own loop, which adds one product at a time from
    0.0, where BLAS would add them in blocks.
    """
    if orig_rate == target_rate:
        return np.asarray(samples, dtype=np.float64)
    up, down = _resample_factors(orig_rate, target_rate)
    x = np.asarray(samples, dtype=np.float64)
    taps, first = _polyphase(up, down)
    hpp = len(taps)
    n_out = -(-len(x) * up // down)
    n_per = max(2, -(-n_out // up))  # one period would be a dot product, which BLAS does
    back = (n_per - 1) * down
    # hpp - 1 zeros before the input: phase r of period p reads from
    # xp[first[r] + p * down] on, and windows[s][j, p] = xp[s + back + j - p * down].
    xp = np.zeros(max(hpp - 1 + len(x), int(first.max()) + back + hpp))
    xp[hpp - 1:hpp - 1 + len(x)] = x
    windows = as_strided(xp[back:], (int(first.max()) + 1, hpp, n_per), (8, 8, -8 * down))
    y = np.empty(n_per * up)
    blocks = max(1, min(-(-n_per * down // _BLOCK_INPUTS), n_per // 2))  # >= 2 periods each
    for k in range(blocks):
        a, b = n_per * k // blocks, n_per * (k + 1) // blocks
        for r in range(up):
            np.matmul(taps[:, r], windows[first[r], :, n_per - b:n_per - a],
                      out=y[a * up + r:b * up:up][::-1])
    return y[:n_out]


def load_audio(path: str | Path, target_rate: int = DEFAULT_SAMPLE_RATE) -> Waveform:
    """Load a PCM WAV file as a mono waveform at target_rate.

    Multi-channel audio is averaged across channels, integer PCM is scaled
    to [-1, 1] by full scale, and the result is resampled with the package's
    fixed polyphase filter.  Deterministic: identical bytes give identical
    samples.

    Raises
    ------
    DataError
        If _read_wav rejects the file (zero length and non-finite float
        samples included), or it has a rate whose ratio to target_rate
        needs an up or down factor over MAX_RESAMPLE_FACTOR or would give
        over MAX_SAMPLES samples at target_rate.
    """
    path = Path(path)
    rate, data = _read_wav(path)
    up, down = _resample_factors(rate, target_rate)
    n_out = -(-len(data) * up // down)
    if max(up, down) > MAX_RESAMPLE_FACTOR or n_out > MAX_SAMPLES:
        raise DataError(f"cannot resample {path} from {rate} Hz to {target_rate} Hz: factor "
                        f"{max(up, down)} (at most {MAX_RESAMPLE_FACTOR}), "
                        f"{n_out} samples (at most {MAX_SAMPLES})")
    x = _pcm_to_float(data)
    if x.ndim == 2:
        x = x.mean(axis=1)
    y = resample(x, rate, target_rate)
    np.clip(y, -1.0, 1.0, out=y)
    return Waveform(samples=y, sample_rate=int(target_rate), source_path=str(path))


def write_wav(path: str | Path, samples: np.ndarray, rate: int) -> None:
    """Write samples in [-1, 1] as mono 16-bit PCM, round(sample * 32767)."""
    wav = io.BytesIO()
    wavfile.write(wav, rate, np.round(samples * 32767.0).astype(np.int16))
    write_file(path, wav.getvalue())


def wav_duration(path: str | Path) -> float:
    """Duration in seconds, read by _read_wav as load_audio reads the file,
    so a file _read_wav rejects gets the same DataError from both."""
    rate, data = _read_wav(Path(path))
    return len(data) / rate


def center_crop(w: Waveform, seconds: float) -> Waveform:
    """Keep exactly round(seconds * rate) samples around the clip midpoint.

    When the discarded sample count is odd, the extra sample is dropped from
    the end.  Idempotent for a fixed duration.
    """
    n = int(round(seconds * w.sample_rate))
    discard = len(w.samples) - n
    if discard < 0:
        raise DataError(
            f"clip {w.source_path or '<memory>'} is {w.duration_s:.3f}s, "
            f"shorter than requested {seconds}s"
        )
    start = discard // 2
    return Waveform(
        samples=w.samples[start : start + n].copy(),
        sample_rate=w.sample_rate,
        source_path=w.source_path,
    )


def filter_exact_duration(
    entries: list[ManifestEntry],
    seconds: float,
    tolerance: float | None = None,
    root: str | Path = ".",
) -> list[ManifestEntry]:
    """Keep entries whose file duration is within tolerance of seconds.

    Default tolerance is half a sample period at the canonical rate.  Input
    order is preserved; the result is a subsequence of the input.
    """
    if tolerance is None:
        tolerance = 0.5 / DEFAULT_SAMPLE_RATE
    root = Path(root)
    kept = []
    for e in entries:
        if abs(wav_duration(root / e.path) - seconds) <= tolerance:
            kept.append(e)
    return kept


def _extract(pattern: str, relpath: str, what: str) -> str:
    m = re.search(pattern, relpath)
    if not m or not m.groups():
        raise DataError(f"cannot parse {what} from {relpath!r} with {pattern!r}")
    return m.group(1)


def build_manifest(root: str | Path, rules: DatasetRules) -> list[ManifestEntry]:
    """Scan root for .wav files and apply the dataset rules.

    Returns a lexicographically ordered manifest (by relative POSIX path)
    with excluded labels removed; logs per-fold class counts.
    """
    root = Path(root)
    declared = set(rules.labels)
    excluded = set(rules.exclude)
    entries: list[ManifestEntry] = []
    for p in sorted(root.rglob("*.wav"), key=lambda q: q.relative_to(root).as_posix()):
        rel = p.relative_to(root).as_posix()
        if rules.label_pattern is not None:
            label = _extract(rules.label_pattern, rel, "label")
        else:
            label = p.parent.name
        if label in excluded:
            continue
        if label not in declared:
            raise DataError(f"label {label!r} of {rel!r} not in declared label set")
        fold = None
        if rules.fold_pattern is not None:
            raw = _extract(rules.fold_pattern, rel, "fold")
            try:
                fold = int(raw)
            except ValueError as exc:
                raise DataError(f"unparsable fold identifier {raw!r} in {rel!r}") from exc
        split = "train"
        if rules.split_pattern is not None and re.search(rules.split_pattern, rel):
            split = "test"
        entries.append(ManifestEntry(path=rel, class_label=label, fold=fold, split=split))
    if rules.duration_s is not None:
        entries = filter_exact_duration(
            entries, rules.duration_s, rules.duration_tol, root=root
        )
    for (fold, label), count in sorted(fold_class_counts(entries).items(), key=str):
        log.info("manifest: fold=%s class=%s count=%d", fold, label, count)
    return entries


def fold_class_counts(entries: list[ManifestEntry]) -> dict[tuple[int | None, str], int]:
    """Clip count per (fold, class_label)."""
    return dict(Counter((e.fold, e.class_label) for e in entries))


def write_manifest(entries: list[ManifestEntry], path: str | Path) -> None:
    """Write the manifest CSV (UTF-8, LF endings, relative paths)."""
    write_csv(path, MANIFEST_HEADER,
              ([e.path, e.class_label, "" if e.fold is None else e.fold, e.split]
               for e in entries))


def _manifest_entry(path: str, class_label: str, fold: str, split: str) -> ManifestEntry:
    if Path(path).is_absolute() or ".." in Path(path).parts:
        raise ValueError(f"clip path {path!r} must be relative to the manifest, "
                         "without '..' parts")
    return ManifestEntry(path, class_label, int(fold) if fold != "" else None, split)


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    """Read a manifest CSV written by write_manifest.  A missing or
    unreadable file is a ConfigError; a bad header, encoding or row, or a
    clip path that is absolute or has a '..' part, a DataError naming the
    file and line."""
    return read_csv(path, "manifest", MANIFEST_HEADER, _manifest_entry, ConfigError)
