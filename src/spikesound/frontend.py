"""Mel-spectrogram front-end and frequency-band partitioning.

The feature pipeline is: power STFT (no padding, fully interior frames),
triangular mel filterbank on the HTK scale, log10 compression, then
per-channel min-max normalization to [0, 1].  The 128 mel channels are
grouped into eight contiguous analysis bands for per-band scoring.
"""

from __future__ import annotations

import functools
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import get_window

from .errors import DataError
from .ingest import Waveform

LOG_EPS = 1e-10

# Analysis band boundaries in Hz; band b covers [edges[b], edges[b+1]), with
# the last band closed at 20 kHz.
BAND_EDGES_HZ = (20.0, 125.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0, 20000.0)
N_BANDS = len(BAND_EDGES_HZ) - 1

FEATURE_MAGIC = b"SPKF1"


@dataclass(frozen=True)
class FrontendConfig:
    sample_rate: int = 44100
    n_fft: int = 1024
    hop: int = 256
    n_mels: int = 128
    f_min: float = 20.0
    f_max: float = 20000.0
    window: str = "hann"


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


@dataclass
class BandPartition:
    edges_hz: tuple[float, ...]
    assignment: np.ndarray  # per-channel band index, 0..N_BANDS-1

    def channels_in_band(self, band: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == band)


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
    spec = np.fft.rfft(frames * _analysis_window(window, n_fft), axis=1)
    return (spec.real**2 + spec.imag**2).T


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
    """The STFT window built once per (name, length), read-only."""
    win = get_window(window, n_fft, fftbins=True)
    win.flags.writeable = False
    return win


def normalize_channels(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel min-max to [0, 1]; returns (normalized, norm_state).

    Flat channels map to all zeros with scale recorded as 0 so the inverse
    reproduces the constant.
    """
    lo = values.min(axis=1, keepdims=True)
    hi = values.max(axis=1, keepdims=True)
    scale = hi - lo
    flat = scale[:, 0] == 0.0
    safe = np.where(scale == 0.0, 1.0, scale)
    out = (values - lo) / safe
    out[flat] = 0.0
    state = np.column_stack([lo[:, 0], np.where(flat, 0.0, scale[:, 0])])
    return out, state


def mel_spectrogram(w: Waveform, cfg: FrontendConfig = FrontendConfig()) -> FeatureMatrix:
    """Normalized log-mel features for one waveform.

    values = minmax(log10(melFB @ stft_power + 1e-10)) per channel.
    """
    power = stft_power(w, cfg.n_fft, cfg.hop, cfg.window)
    fb = _mel_basis(cfg)
    logmel = np.log10(fb @ power + LOG_EPS)
    values, state = normalize_channels(logmel)
    return FeatureMatrix(
        values=values,
        channel_center_hz=mel_center_frequencies(cfg.n_mels, cfg.f_min, cfg.f_max),
        norm_state=state,
        frame_rate=cfg.sample_rate / cfg.hop,
    )


def partition_bands(channel_center_hz: np.ndarray,
                    edges_hz: tuple[float, ...] = BAND_EDGES_HZ) -> BandPartition:
    """Assign each channel to the band containing its center frequency.

    Band b is [edges[b], edges[b+1]), except the last band which is closed
    at its upper edge.  Centers outside the overall range are an error.
    """
    centers = np.asarray(channel_center_hz, dtype=np.float64)
    if np.any(centers < edges_hz[0]) or np.any(centers > edges_hz[-1]):
        bad = centers[(centers < edges_hz[0]) | (centers > edges_hz[-1])]
        raise ValueError(f"channel centers outside [{edges_hz[0]}, {edges_hz[-1]}]: {bad}")
    assignment = np.searchsorted(np.asarray(edges_hz), centers, side="right") - 1
    assignment[centers == edges_hz[-1]] = len(edges_hz) - 2
    return BandPartition(edges_hz=tuple(edges_hz), assignment=assignment.astype(np.int64))


def save_features(f: FeatureMatrix, path: str | Path) -> None:
    """Write the SPKF1 binary container plus a JSON sidecar.

    Binary layout: magic, channels (u32), frames (u32), frame_rate (f32),
    then row-major little-endian float32 values.  The sidecar (same path +
    '.json') carries norm_state and channel centers at full precision.
    """
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<IIf", f.n_channels, f.n_frames, f.frame_rate))
        fh.write(f.values.astype("<f4").tobytes(order="C"))
    sidecar = {
        "channel_center_hz": f.channel_center_hz.tolist(),
        "norm_state": f.norm_state.tolist(),
        "frame_rate": f.frame_rate,
    }
    with open(path.with_suffix(path.suffix + ".json"), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_features(path: str | Path) -> FeatureMatrix:
    path = Path(path)
    sidecar_path = path.with_suffix(path.suffix + ".json")
    try:
        with open(path, "rb") as fh:
            magic = fh.read(5)
            if magic != FEATURE_MAGIC:
                raise DataError(f"bad feature file magic in {path}: {magic!r}")
            header = fh.read(12)
            if len(header) != 12:
                raise DataError(f"truncated feature file header in {path}")
            channels, frames, frame_rate = struct.unpack("<IIf", header)
            raw = fh.read(channels * frames * 4)
            if len(raw) != channels * frames * 4:
                raise DataError(f"truncated feature file payload in {path}")
            if fh.read(1):
                raise DataError(f"feature file {path} is longer than its header declares")
        with open(sidecar_path, encoding="utf-8") as fh:
            sidecar = json.load(fh)
        return FeatureMatrix(
            values=np.frombuffer(raw, dtype="<f4").reshape(channels, frames).astype(np.float64),
            channel_center_hz=np.array(sidecar["channel_center_hz"]),
            norm_state=np.array(sidecar["norm_state"]),
            frame_rate=float(sidecar["frame_rate"]),
        )
    except OSError as exc:
        raise DataError(f"cannot read feature file: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad feature sidecar {sidecar_path}: {exc!r}") from exc
