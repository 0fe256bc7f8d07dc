"""Mel-spectrogram front-end and frequency-band partitioning.

The feature pipeline is: power STFT (no padding, fully interior frames),
triangular mel filterbank on the HTK scale, log10 compression, then
per-channel min-max normalization to [0, 1].  The 128 mel channels are
grouped into eight contiguous analysis bands for per-band scoring.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import read_container, write_container
from .errors import ConfigError, DataError
from .ingest import Waveform

LOG_EPS = 1e-10

# Analysis band boundaries in Hz; band b covers [edges[b], edges[b+1]), with
# the last band closed at 20 kHz.
BAND_EDGES_HZ = (20.0, 125.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0, 20000.0)

FEATURE_MAGIC = b"SPKF2"

# Config bounds past which the window or the mel filterbank (n_mels x
# (n_fft//2 + 1) float64 entries, 128 MiB at the bound) would not fit.
MAX_N_FFT = 1 << 16
MAX_FILTERBANK_ENTRIES = 1 << 24

# Frames per chunk of the STFT: bounds its windowed-frame and spectrum
# buffers to 32 rows while the power matrix is filled in place.
_STFT_CHUNK = 32


@dataclass(frozen=True)
class FrontendConfig:
    sample_rate: int = 44100
    n_fft: int = 1024
    hop: int = 256
    n_mels: int = 128
    f_min: float = 20.0
    f_max: float = 20000.0
    window: str = "hann"

    def __post_init__(self):
        if not 1 <= self.n_fft <= MAX_N_FFT or self.n_fft & (self.n_fft - 1):
            raise ConfigError(f"n_fft must be a power of two up to {MAX_N_FFT}, "
                              f"got {self.n_fft}")
        if self.hop < 1:
            raise ConfigError(f"hop must be >= 1, got {self.hop}")
        if self.n_mels < 2:
            raise ConfigError(f"n_mels must be >= 2, got {self.n_mels}")
        if self.n_mels * (self.n_fft // 2 + 1) > MAX_FILTERBANK_ENTRIES:
            raise ConfigError(f"n_mels x (n_fft // 2 + 1) must be at most {MAX_FILTERBANK_ENTRIES}"
                              f", got {self.n_mels} x {self.n_fft // 2 + 1}")
        if not self.f_min < self.f_max <= self.sample_rate / 2:
            raise ConfigError("need f_min < f_max <= sample_rate / 2, got "
                              f"{self.f_min} / {self.f_max} / {self.sample_rate}")
        lo, *_, hi = mel_center_frequencies(self.n_mels, self.f_min, self.f_max)
        if not BAND_EDGES_HZ[0] <= lo <= hi <= BAND_EDGES_HZ[-1]:
            raise ConfigError(f"mel channel centers {lo:.2f} to {hi:.2f} Hz outside the "
                              f"analysis bands, {BAND_EDGES_HZ[0]} to {BAND_EDGES_HZ[-1]} Hz")
        try:
            _analysis_window(self.window, self.n_fft)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad window {self.window!r}: {exc}") from exc


@dataclass
class FeatureMatrix:
    """Normalized log-mel features for one clip.

    values is a (channels x frames) float64 matrix in [0, 1]; norm_state
    holds the per-channel (offset, scale) of the min-max normalization, with
    scale 0 marking a degenerate (flat) channel that was mapped to zeros.
    """

    values: np.ndarray
    channel_center_hz: np.ndarray
    norm_state: np.ndarray  # (channels, 2): offset, scale
    frame_rate: float

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]

    def denormalize(self) -> np.ndarray:
        """Invert the per-channel min-max map (flat channels -> offset)."""
        offset = self.norm_state[:, :1]
        scale = self.norm_state[:, 1:]
        return self.values * scale + offset


def hz_to_mel(f):
    """HTK mel scale: mel = 2595 log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def stft_power(w: Waveform, n_fft: int = 1024, hop: int = 256,
               window: str = "hann") -> np.ndarray:
    """Power spectrogram, shape (n_fft//2 + 1, frames).

    Frames are fully interior (no padding): frames = 1 + (N - n_fft) // hop.
    Each entry is the squared magnitude of the windowed DFT bin.

    Raises
    ------
    DataError
        If the clip is shorter than n_fft samples.
    """
    x = w.samples
    if len(x) < n_fft:
        raise DataError(
            f"clip {w.source_path or '<memory>'} has {len(x)} samples, "
            f"shorter than n_fft={n_fft}"
        )
    if n_fft & (n_fft - 1):
        raise ValueError("n_fft must be a power of two")
    frames = np.lib.stride_tricks.sliding_window_view(x, n_fft)[::hop]
    win = _analysis_window(window, n_fft)
    # Frame-major, _STFT_CHUNK frames at a time through reused buffers, so no
    # frames x n_fft temporary is made; the squares add as re**2 + im**2.
    power = np.empty((len(frames), n_fft // 2 + 1))
    seg = np.empty((_STFT_CHUNK, n_fft))
    spec = np.empty((_STFT_CHUNK, n_fft // 2 + 1), dtype=np.complex128)
    im2 = np.empty(spec.shape)
    for lo in range(0, len(frames), _STFT_CHUNK):
        out = power[lo : lo + _STFT_CHUNK]
        m = len(out)
        np.fft.rfft(np.multiply(frames[lo : lo + m], win, out=seg[:m]), axis=1,
                    out=spec[:m])
        np.square(spec[:m].real, out=out)
        out += np.square(spec[:m].imag, out=im2[:m])
    return power.T


def mel_center_frequencies(n_mels: int, f_min: float, f_max: float) -> np.ndarray:
    """Centers of the n_mels triangular filters, equally spaced in mel."""
    pts = np.linspace(hz_to_mel(f_min), hz_to_mel(f_max), n_mels + 2)
    return mel_to_hz(pts[1:-1])


def mel_filterbank(n_mels: int, f_min: float, f_max: float, n_fft: int,
                   sample_rate: int) -> np.ndarray:
    """Triangular mel filterbank, shape (n_mels, n_fft//2 + 1).

    Filter m rises from mel point m to m+1 and falls to m+2, sampled at the
    FFT bin centers.  Every row is nonnegative and is guaranteed at least
    one positive weight: a filter narrower than the bin spacing gets unit
    weight at the bin nearest its center.
    """
    if n_mels < 2:
        raise ValueError("n_mels must be >= 2")
    if f_max > sample_rate / 2:
        raise ValueError(f"f_max={f_max} above Nyquist {sample_rate / 2}")
    if not f_min < f_max:
        raise ValueError("f_min must be < f_max")
    n_bins = n_fft // 2 + 1
    bin_hz = np.arange(n_bins) * (sample_rate / n_fft)
    pts = mel_to_hz(np.linspace(hz_to_mel(f_min), hz_to_mel(f_max), n_mels + 2))
    fb = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, center, hi = pts[m], pts[m + 1], pts[m + 2]
        rising = (bin_hz - lo) / (center - lo)
        falling = (hi - bin_hz) / (hi - center)
        fb[m] = np.maximum(0.0, np.minimum(rising, falling))
        if not fb[m].any():
            fb[m, np.argmin(np.abs(bin_hz - center))] = 1.0
    return fb


@functools.lru_cache(maxsize=8)
def _mel_basis(cfg: FrontendConfig) -> np.ndarray:
    """mel_filterbank built once per FrontendConfig, read-only."""
    fb = mel_filterbank(cfg.n_mels, cfg.f_min, cfg.f_max, cfg.n_fft, cfg.sample_rate)
    fb.flags.writeable = False
    return fb


@functools.lru_cache(maxsize=8)
def _analysis_window(window: str, n_fft: int) -> np.ndarray:
    """The periodic STFT window built once per (name, length), read-only.

    Hann is scipy's general-cosine sum done in numpy, so its bytes equal
    get_window("hann", n_fft); any other name loads scipy.signal.
    """
    if window != "hann":
        from scipy.signal import get_window
        win = get_window(window, n_fft, fftbins=True)
    elif n_fft <= 1:
        win = np.ones(n_fft)
    else:
        win = (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n_fft + 1)))[:-1]
    win.flags.writeable = False
    return win


def normalize_channels(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel min-max to [0, 1]; returns (normalized, norm_state).

    Flat channels map to all zeros with scale recorded as 0 so the inverse
    reproduces the constant.
    """
    lo = values.min(axis=1, keepdims=True)
    scale = values.max(axis=1, keepdims=True) - lo  # +0.0 on a flat row
    out = (values - lo) / np.where(scale == 0.0, 1.0, scale)  # a flat row: (x - x) / 1
    return out, np.column_stack([lo[:, 0], scale[:, 0]])


def mel_spectrogram(w: Waveform, cfg: FrontendConfig = FrontendConfig()) -> FeatureMatrix:
    """Normalized log-mel features for one waveform.

    values = minmax(log10(melFB @ stft_power + 1e-10)) per channel.
    """
    if w.sample_rate != cfg.sample_rate:
        raise ValueError(f"waveform is at {w.sample_rate} Hz but the front end "
                         f"expects {cfg.sample_rate} Hz")
    logmel = _mel_basis(cfg) @ stft_power(w, cfg.n_fft, cfg.hop, cfg.window)
    logmel += LOG_EPS
    np.log10(logmel, out=logmel)
    values, state = normalize_channels(logmel)
    return FeatureMatrix(
        values=values,
        channel_center_hz=mel_center_frequencies(cfg.n_mels, cfg.f_min, cfg.f_max),
        norm_state=state,
        frame_rate=cfg.sample_rate / cfg.hop,
    )


def partition_bands(channel_center_hz: np.ndarray) -> np.ndarray:
    """The int64 index of the band containing each channel's center.

    Band b is [BAND_EDGES_HZ[b], BAND_EDGES_HZ[b+1]), except the last band
    which is closed at its upper edge.  Centers outside them are an error.
    """
    lo, *_, hi = BAND_EDGES_HZ
    centers = np.asarray(channel_center_hz, dtype=np.float64)
    if np.any(centers < lo) or np.any(centers > hi):
        bad = centers[(centers < lo) | (centers > hi)]
        raise ValueError(f"channel centers outside [{lo}, {hi}]: {bad}")
    bands = np.searchsorted(BAND_EDGES_HZ, centers, side="right") - 1
    bands[centers == hi] = len(BAND_EDGES_HZ) - 2
    return bands.astype(np.int64)


_HEADER = struct.Struct("<IId")  # channels, frames, frame_rate


def save_features(f: FeatureMatrix, path: str | Path) -> None:
    """Write f as one SPKF2 container: magic, channels (u32), frames (u32),
    frame_rate (f64), then little-endian row-major float32 values, float64
    channel centers and float64 (offset, scale) norm_state rows."""
    write_container(path, FEATURE_MAGIC, _HEADER,
                    (f.n_channels, f.n_frames, f.frame_rate),
                    [f.values.astype("<f4").tobytes(),
                     f.channel_center_hz.astype("<f8").tobytes(),
                     f.norm_state.astype("<f8").tobytes()])


def load_features(path: str | Path) -> FeatureMatrix:
    """Read a save_features file; DataError if it is unreadable or
    malformed, or if any value, center, norm_state entry or the frame
    rate is non-finite."""

    def layout(fields, take):
        channels, frames, frame_rate = fields
        values = np.frombuffer(take(channels * frames * 4), dtype="<f4")
        centers = np.frombuffer(take(channels * 8), dtype="<f8")
        norm_state = np.frombuffer(take(channels * 16), dtype="<f8")
        for piece in (values, centers, norm_state, frame_rate):
            if not np.all(np.isfinite(piece)):
                raise DataError("non-finite values, centers, norm_state or frame rate")
        return FeatureMatrix(
            values=values.reshape(channels, frames).astype(np.float64),
            channel_center_hz=centers.astype(np.float64),
            norm_state=norm_state.reshape(channels, 2).astype(np.float64),
            frame_rate=frame_rate,
        )

    return read_container(path, FEATURE_MAGIC, _HEADER, "feature file", layout)
