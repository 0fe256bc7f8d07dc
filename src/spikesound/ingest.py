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
from math import exp, gcd
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
# Cephes' Chebyshev coefficients for i0 (scipy.special.i0's): exp(-x) I0(x)
# in x/2 - 2 on [0, 8], and sqrt(x) exp(-x) I0(x) in 32/x - 2 above 8.
_I0_A = (-4.41534164647933937950E-18, 3.33079451882223809783E-17, -2.43127984654795469359E-16,
         1.71539128555513303061E-15, -1.16853328779934516808E-14, 7.67618549860493561688E-14,
         -4.85644678311192946090E-13, 2.95505266312963983461E-12, -1.72682629144155570723E-11,
         9.67580903537323691224E-11, -5.18979560163526290666E-10, 2.65982372468238665035E-9,
         -1.30002500998624804212E-8, 6.04699502254191894932E-8, -2.67079385394061173391E-7,
         1.11738753912010371815E-6, -4.41673835845875056359E-6, 1.64484480707288970893E-5,
         -5.75419501008210370398E-5, 1.88502885095841655729E-4, -5.76375574538582365885E-4,
         1.63947561694133579842E-3, -4.32430999505057594430E-3, 1.05464603945949983183E-2,
         -2.37374148058994688156E-2, 4.93052842396707084878E-2, -9.49010970480476444210E-2,
         1.71620901522208775349E-1, -3.04682672343198398683E-1, 6.76795274409476084995E-1)
_I0_B = (-7.23318048787475395456E-18, -4.83050448594418207126E-18, 4.46562142029675999901E-17,
         3.46122286769746109310E-17, -2.82762398051658348494E-16, -3.42548561967721913462E-16,
         1.77256013305652638360E-15, 3.81168066935262242075E-15, -9.55484669882830764870E-15,
         -4.15056934728722208663E-14, 1.54008621752140982691E-14, 3.85277838274214270114E-13,
         7.18012445138366623367E-13, -1.79417853150680611778E-12, -1.32158118404477131188E-11,
         -3.14991652796324136454E-11, 1.18891471078464383424E-11, 4.94060238822496958910E-10,
         3.39623202570838634515E-9, 2.26666899049817806459E-8, 2.04891858946906374183E-7,
         2.89137052083475648297E-6, 6.88975834691682398426E-5, 3.36911647825569408990E-3,
         8.04490411014108831608E-1)
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


def _mono_float(data: np.ndarray) -> np.ndarray:
    """_pcm_to_float of data, channels averaged."""
    x = _pcm_to_float(data)
    return x.mean(axis=1) if x.ndim == 2 else x


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


def _chbevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Cephes' Chebyshev series sum at each x, one operation at a time in
    its order: b0 = x * b1 - b2 + c for each coefficient c after the first."""
    b0, b1 = np.full(x.shape, coef[0]), np.zeros(x.shape)
    for c in coef[1:]:
        b2, b1 = b1, b0
        b0 = x * b1
        b0 -= b2
        b0 += c
    return 0.5 * (b0 - b2)


def _i0(x: np.ndarray) -> np.ndarray:
    """The modified Bessel function I0 at each x >= 0, bit for bit as
    scipy.special.i0 (Cephes) computes it: exp(x) * chbevl(x/2 - 2, A) up
    to 8, exp(x) * chbevl(32/x - 2, B) / sqrt(x) above.  exp is libm's
    (math.exp), which np.exp differs from in the last bit at some x."""
    low = x <= 8.0
    out = np.fromiter(map(exp, x.tolist()), np.float64, len(x))
    out[low] *= _chbevl(x[low] / 2.0 - 2.0, _I0_A)
    high = x[~low]
    out[~low] *= _chbevl(32.0 / high - 2.0, _I0_B)
    out[~low] /= np.sqrt(high)
    return out


def _anti_alias_filter(up: int, down: int) -> np.ndarray:
    """The polyphase filter for (up, down), read-only: scipy.signal.firwin(
    64 * m + 1, 1 / m, window=("kaiser", 8.6)), m = max(up, down), step by
    step.  _i0 keeps scipy.special.i0's bits; np.i0 differs in the last ones.
    """
    max_rate = max(up, down)
    numtaps = _TAPS_PER_PHASE * max_rate + 1
    cutoff = 1.0 / max_rate
    n = np.arange(numtaps, dtype=np.float64)
    alpha = (numtaps - 1) / 2.0
    window = (_i0(_KAISER_BETA * np.sqrt(1 - ((n - alpha) / alpha) ** 2.0))
              / _i0(np.array([_KAISER_BETA])))
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
    del samples, x  # freed here unless the caller keeps them
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
    # no name here keeps the float samples, so resample frees them once copied
    y = resample(_mono_float(data), rate, target_rate)
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
