"""Ternary spike codecs: Step Forward, Moving Window, Threshold Adaptive.

Each codec turns a per-channel signal into a {-1, 0, +1} spike row plus the
side information a decoder needs to rebuild a signal estimate.  All three
operate channel-wise: thresholds are a fraction of the channel's dynamic
range, so one relative setting is meaningful across normalized channels.

Codec summaries
---------------
SF   baseline steps by a fixed threshold T on every spike; a spike fires
     when the signal's distance from the baseline, x - base, passes +/-T.
MW   baseline is the mean of the previous ``window`` samples; spikes mark
     deviation from that local mean but do not move it.
TAE  SF with an adaptive T: it grows by a factor (up to a cap) after each
     spike and decays (down to a floor) during silence.  SF and TAE share
     one encoder, which skips the adaptation for SF.  The adaptation depends
     only on the emitted spikes, which lets the decoder replay it exactly.

One decoder serves all three: estimate i is spike_i * T_i plus the mean of
the previous ``window`` estimates, which SF and TAE take with a one-frame
window (the previous estimate itself) and MW with its own.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, astuple
from pathlib import Path

import numpy as np

from .container import read_container, write_container, write_json
from .errors import ConfigError, DataError
from .frontend import FeatureMatrix

CODEC_IDS = ("sf", "mw", "tae")
SPIKE_MAGIC = b"SPKS1"
MAX_WINDOW = (1 << 32) - 1  # the largest u32


def _float32(x: float) -> float:
    """x rounded to float32, as the .spk header stores it; inf past its range."""
    try:
        return struct.unpack("<f", struct.pack("<f", x))[0]
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class CodecConfig:
    """Encoder parameters, thresholds relative to per-channel range.

    threshold_rel sets the base threshold as a fraction of (max - min) of
    each channel (flat channels fall back to the fraction itself).  window
    applies to MW only; tae_gamma and the tae_*_rel bounds apply to TAE.
    """

    threshold_rel: float = 0.05
    window: int = 3
    tae_gamma: float = 2.0
    tae_tmin_rel: float = 0.01
    tae_tmax_rel: float = 0.5

    def __post_init__(self):
        # The .spk header holds window as a u32 and the rest as float32, so
        # every field is checked as stored there and the file loads back.
        if not 1 <= self.window <= MAX_WINDOW:
            raise ConfigError(f"window must be in [1, {MAX_WINDOW}], got {self.window}")
        for name in ("threshold_rel", "tae_gamma", "tae_tmin_rel", "tae_tmax_rel"):
            value = getattr(self, name)
            if not 0.0 < _float32(value) < math.inf:
                raise ConfigError(f"{name} must be finite and > 0 as float32, got {value}")
        if not self.threshold_rel <= 1.0:
            raise ConfigError(f"threshold_rel must be in (0, 1], got {self.threshold_rel}")
        if not 1.0 < _float32(self.tae_gamma):
            raise ConfigError(f"tae_gamma must be > 1 as float32, got {self.tae_gamma}")
        if not self.tae_tmin_rel <= self.threshold_rel <= self.tae_tmax_rel:
            raise ConfigError(
                "need tae_tmin_rel <= threshold_rel <= tae_tmax_rel, got "
                f"{self.tae_tmin_rel} / {self.threshold_rel} / {self.tae_tmax_rel}"
            )


@dataclass
class SpikeTrain:
    """Ternary spike matrix plus decoder bootstrap.

    spikes is (channels x frames) int8 in {-1, 0, +1}; side_info is
    (channels x 2) float64 holding [initial value, threshold] per channel
    (for TAE the threshold column is the initial threshold).
    """

    spikes: np.ndarray
    side_info: np.ndarray
    codec_id: str
    params: CodecConfig

    @property
    def n_channels(self) -> int:
        return self.spikes.shape[0]

    @property
    def n_frames(self) -> int:
        return self.spikes.shape[1]


# ---------------------------------------------------------------------------
# Step Forward, and the one step encoder SF and TAE share
# ---------------------------------------------------------------------------

def _step_encode_rows(x: np.ndarray, t0: np.ndarray,
                      cfg: CodecConfig | None = None) -> np.ndarray:
    # Frame-major on one threshold row t, buffers reused through out=: a
    # spike fires where d = x - base passes +t or -t and steps the baseline
    # by t.  TAE (cfg given) then steps t by _tae_next; SF keeps t = T0.
    xt = np.ascontiguousarray(x.T)
    spikes = np.zeros(xt.shape, dtype=np.int8)
    base, t = xt[0].copy(), t0.copy()
    d, step, grown = np.empty((3, len(t)))
    neg = np.negative(t)  # -t, renewed only where t steps
    up, dn, fired = np.empty((3, len(t)), dtype=bool)
    up8, dn8 = up.view(np.int8), dn.view(np.int8)
    if cfg is not None:
        tmin, tmax = _tae_bounds(t0, cfg)
    for i in range(1, len(xt)):
        np.subtract(xt[i], base, out=d)
        np.greater(d, t, out=up)
        np.less(d, neg, out=dn)
        s = np.subtract(up8, dn8, out=spikes[i])
        base += np.multiply(s, t, out=step)
        if cfg is not None:
            _tae_next(t, np.logical_or(up, dn, out=fired), tmin, tmax,
                      cfg.tae_gamma, t, grown)
            np.negative(t, out=neg)
    return np.ascontiguousarray(spikes.T)


# ---------------------------------------------------------------------------
# Moving Window
# ---------------------------------------------------------------------------

# Frames per slab of the MW encoder's baseline, which bounds its buffers.
_SLAB_FRAMES = 128


def _mw_encode_rows(x: np.ndarray, t: np.ndarray, window: int) -> np.ndarray:
    # One slab of frames at a time, straight into the spikes.  Frame i's
    # baseline, mean(x[:, i-k:i]) with k = min(i, window), starts at 0.0, adds
    # its k frames in turn from the oldest (term j as one shifted slice of x
    # over the slab) and is divided by k.  Frame 0 never fires.
    c, n = x.shape
    spikes = np.zeros((c, n), dtype=np.int8)
    base, edge = np.empty((2, c, _SLAB_FRAMES))
    up, dn = np.empty((2, c, _SLAB_FRAMES), dtype=bool)
    for lo in range(1, n, _SLAB_FRAMES):
        hi = min(lo + _SLAB_FRAMES, n)
        m = hi - lo
        b = base[:, :m]
        b.fill(0.0)
        for j in range(max(0, window - hi + 1), window):
            f = max(lo, window - j)  # the first frame term j reaches
            b[:, f - lo :] += x[:, f - window + j : hi - window + j]
        b /= np.minimum(np.arange(lo, hi), window)
        seg = x[:, lo:hi]
        np.less(seg, np.subtract(b, t[:, None], out=edge[:, :m]), out=dn[:, :m])
        np.greater(seg, np.add(b, t[:, None], out=edge[:, :m]), out=up[:, :m])
        np.subtract(up[:, :m].view(np.int8), dn[:, :m].view(np.int8), out=spikes[:, lo:hi])
    return spikes


# ---------------------------------------------------------------------------
# Threshold Adaptive
# ---------------------------------------------------------------------------

def _tae_bounds(t0: np.ndarray, cfg: CodecConfig) -> tuple[np.ndarray, np.ndarray]:
    # Derived from the initial threshold (not the raw range) so encoder and
    # decoder compute bit-identical clamps from side_info alone.
    tmin = t0 * (cfg.tae_tmin_rel / cfg.threshold_rel)
    tmax = t0 * (cfg.tae_tmax_rel / cfg.threshold_rel)
    return tmin, tmax


def _tae_next(t: np.ndarray, fired: np.ndarray, tmin: np.ndarray, tmax: np.ndarray,
              gamma: float, out: np.ndarray, grown: np.ndarray) -> np.ndarray:
    """The adaptation law: grow by gamma after a spike, shrink on silence.
    Writes the next thresholds to out; grown is scratch shaped like t."""
    np.minimum(np.multiply(t, gamma, out=grown), tmax, out=grown)
    np.maximum(np.divide(t, gamma, out=out), tmin, out=out)
    np.putmask(out, fired, grown)
    return out


# ---------------------------------------------------------------------------
# The one decoder, for all three codecs
# ---------------------------------------------------------------------------

def _decode_rows(spikes: np.ndarray, x0: np.ndarray, t0: np.ndarray, window: int,
                 cfg: CodecConfig | None = None) -> np.ndarray:
    # In place on the channel-major estimate, through column views made once
    # (slicing them per frame costs more on short clips).  Column 0 is x0 (its
    # spike is ignored); column i is spike_i * T_i plus mean(est[:, i-k:i]),
    # k = min(i, window), its k columns added in turn from the oldest.  SF
    # and TAE decode with window 1, where the mean is the previous column.
    # SF and MW keep T_i = T0, so with window 1 (SF's) the sums are
    # np.cumsum's, the same additions in the same order in one call.  TAE
    # (cfg given) starts from the spikes as floats, scales each column by its
    # one threshold row t, then steps t by _tae_next.
    est = np.multiply(spikes, t0[:, None] if cfg is None else 1.0, dtype=np.float64)
    est[:, 0] = x0
    if cfg is None and window == 1:
        return np.cumsum(est, axis=1, out=est)
    col, mean = list(est.T), np.empty(len(t0))
    if cfg is not None:
        tmin, tmax = _tae_bounds(t0, cfg)
        t, grown, fired = t0.copy(), np.empty(len(t0)), np.empty(len(t0), dtype=bool)
    for i in range(1, len(col)):
        if cfg is not None:
            np.not_equal(col[i], 0.0, out=fired)
            col[i] *= t
            _tae_next(t, fired, tmin, tmax, cfg.tae_gamma, t, grown)
        k = min(i, window)
        if k == 1:  # the mean of one column is that column
            col[i] += col[i - 1]
        else:
            np.copyto(mean, col[i - k])
            for j in range(i - k + 1, i):
                mean += col[j]
            col[i] += np.divide(mean, k, out=mean)
    return est


# ---------------------------------------------------------------------------
# Matrix-level API
# ---------------------------------------------------------------------------

def encode_matrix(f: FeatureMatrix, cfg: CodecConfig, codec: str) -> SpikeTrain:
    """Encode every channel of a FeatureMatrix independently.

    Output dimensions equal the input's; side_info stores (x[0], T) per
    channel, where T = threshold_rel of the channel's range (the fraction
    itself when flat) is the SF/MW threshold or the TAE initial threshold.
    """
    if codec not in CODEC_IDS:
        raise ConfigError(f"unknown codec {codec!r}, expected one of {CODEC_IDS}")
    x = np.asarray(f.values, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError("signal must be a nonempty channels x frames matrix")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite values")
    span = x.max(axis=1) - x.min(axis=1)
    t = np.where(span > 0.0, cfg.threshold_rel * span, cfg.threshold_rel)
    if codec == "mw":
        spikes = _mw_encode_rows(x, t, cfg.window)
    else:
        spikes = _step_encode_rows(x, t, cfg if codec == "tae" else None)
    return SpikeTrain(spikes=spikes, side_info=np.column_stack([x[:, 0], t]),
                      codec_id=codec, params=cfg)


def decode_matrix(st: SpikeTrain) -> np.ndarray:
    """Signal estimate for every channel of a SpikeTrain."""
    if st.codec_id not in CODEC_IDS:
        raise DataError(f"unknown codec_id {st.codec_id!r}")
    x0, t = st.side_info.T
    return _decode_rows(st.spikes, x0, t, st.params.window if st.codec_id == "mw" else 1,
                        st.params if st.codec_id == "tae" else None)


# ---------------------------------------------------------------------------
# Serialization: SPKS1 container, spikes packed 2 bits per entry
# ---------------------------------------------------------------------------

_CODEC_TAGS = {c: i for i, c in enumerate(CODEC_IDS)}  # on disk: sf 0, mw 1, tae 2
_TAG_CODECS = {v: k for k, v in _CODEC_TAGS.items()}
_HEADER = struct.Struct("<BIIfIfff")  # codec, channels, frames, CodecConfig fields


def pack_spikes(spikes: np.ndarray) -> bytes:
    """Pack ternary entries 2 bits each (00=0, 01=+1, 10=-1), row-major,
    the first entry in the lowest bits of the first byte."""
    flat = spikes.reshape(-1)
    bits = np.column_stack([flat == 1, flat == -1])
    return np.packbits(bits, bitorder="little").tobytes()


def unpack_spikes(data: bytes, channels: int, frames: int) -> np.ndarray:
    """Inverse of pack_spikes; DataError on the unused code 11."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8),
                         count=2 * channels * frames, bitorder="little").reshape(-1, 2)
    up, down = bits[:, 0].view(np.int8), bits[:, 1].view(np.int8)
    if np.any(up & down):
        raise DataError("spike payload holds the invalid code 11")
    return (up - down).reshape(channels, frames)


def spike_payload_bytes(channels: int, frames: int) -> int:
    return -(-channels * frames * 2 // 8)  # ceil


def serialized_size(st: SpikeTrain) -> int:
    """Exact on-disk size of the SPKS1 container, computed analytically."""
    return (
        len(SPIKE_MAGIC)
        + _HEADER.size
        + spike_payload_bytes(st.n_channels, st.n_frames)
        + st.n_channels * 2 * 4
    )


def save_spikes(st: SpikeTrain, path: str | Path) -> None:
    """Write the SPKS1 binary container plus a JSON sidecar holding only the
    shape and the per-channel spike counts (perfbench's disk workload reads
    them)."""
    write_container(path, SPIKE_MAGIC, _HEADER, (
        _CODEC_TAGS[st.codec_id], st.n_channels, st.n_frames, *astuple(st.params),
    ), [pack_spikes(st.spikes), st.side_info.astype("<f4").tobytes(order="C")])
    write_json(f"{path}.json", {
        "channels": st.n_channels,
        "frames": st.n_frames,
        "spike_counts": np.count_nonzero(st.spikes, axis=1).tolist(),
    })


def load_spikes(path: str | Path) -> SpikeTrain:
    """Read a save_spikes file; DataError if it is unreadable, malformed,
    holds invalid codec parameters or non-finite side_info."""

    def layout(fields, take):
        tag, channels, frames, *params = fields
        if tag not in _TAG_CODECS:
            raise DataError(f"unknown codec tag {tag}")
        if frames < 1:
            raise DataError("no frames")
        params = CodecConfig(*params)  # the header holds the fields in order
        payload = take(spike_payload_bytes(channels, frames))
        side = np.frombuffer(take(channels * 2 * 4), dtype="<f4")
        if not np.all(np.isfinite(side)):
            raise DataError("non-finite side_info")
        return SpikeTrain(spikes=unpack_spikes(payload, channels, frames),
                          side_info=side.reshape(channels, 2).astype(np.float64),
                          codec_id=_TAG_CODECS[tag], params=params)

    return read_container(path, SPIKE_MAGIC, _HEADER, "spike file", layout)
