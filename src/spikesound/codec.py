"""Ternary spike codecs: Step Forward, Moving Window, Threshold Adaptive.

Each codec turns a per-channel signal into a {-1, 0, +1} spike row plus the
side information a decoder needs to rebuild a signal estimate.  All three
operate channel-wise: thresholds are a fraction of the channel's dynamic
range, so one relative setting is meaningful across normalized channels.

Codec summaries
---------------
SF   baseline steps by a fixed threshold on every spike; a spike fires when
     the signal leaves the +/- threshold corridor around the baseline.
MW   baseline is the mean of the previous ``window`` samples; spikes mark
     deviation from that local mean but do not move it.
TAE  like SF, but the threshold grows by a factor (up to a cap) after each
     spike and decays (down to a floor) during silence, so step size adapts
     to signal volatility.  The adaptation depends only on the emitted
     spikes, which lets the decoder replay it exactly.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .frontend import FeatureMatrix

CODEC_IDS = ("sf", "mw", "tae")
SPIKE_MAGIC = b"SPKS1"


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
        if not 0.0 < self.threshold_rel <= 1.0:
            raise ConfigError(f"threshold_rel must be in (0, 1], got {self.threshold_rel}")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.tae_gamma <= 1.0:
            raise ConfigError(f"tae_gamma must be > 1, got {self.tae_gamma}")
        if not (0.0 < self.tae_tmin_rel <= self.threshold_rel <= self.tae_tmax_rel):
            raise ConfigError(
                "need 0 < tae_tmin_rel <= threshold_rel <= tae_tmax_rel, got "
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


def _encode_rows(x, cfg: CodecConfig, codec: str):
    """Encode each row of a (rows x frames) signal with T = threshold_rel of
    the row's range (the fraction itself when flat).  Returns the spikes,
    side_info (x[0], T) and, for TAE, the threshold used at each frame."""
    if codec not in CODEC_IDS:
        raise ConfigError(f"unknown codec {codec!r}, expected one of {CODEC_IDS}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError("signal must be a nonempty channel or channels x frames matrix")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite values")
    span = x.max(axis=1) - x.min(axis=1)
    t = np.where(span > 0.0, cfg.threshold_rel * span, cfg.threshold_rel)
    side = np.column_stack([x[:, 0], t])
    if codec == "sf":
        return _sf_encode_rows(x, t), side, None
    if codec == "mw":
        return _mw_encode_rows(x, t, cfg.window), side, None
    spikes, trace = _tae_encode_rows(x, t, cfg)
    return spikes, side, trace


def _encode_channel(x, cfg: CodecConfig, codec: str):
    """_encode_rows on one 1-D channel: spike row, (x[0], T), TAE trace."""
    spikes, side, trace = _encode_rows(np.asarray(x, dtype=np.float64)[None], cfg, codec)
    return spikes[0], (float(side[0, 0]), float(side[0, 1])), trace


def _step_sum(spikes: np.ndarray, x0: np.ndarray, step: np.ndarray) -> np.ndarray:
    """SF/TAE decoder: x0 + cumsum(spike * step), step a column (SF) or the
    replayed per-frame thresholds (TAE); cumsum adds frame by frame."""
    steps = np.multiply(spikes, step, dtype=np.float64)
    steps[:, 0] = x0
    return np.cumsum(steps, axis=1, out=steps)


# ---------------------------------------------------------------------------
# Step Forward
# ---------------------------------------------------------------------------

def encode_sf(x, cfg: CodecConfig) -> tuple[np.ndarray, tuple[float, float]]:
    """Step-forward encoding of one channel.

    The baseline starts at x[0] and moves by the absolute threshold T with
    every spike; a +1/-1 fires when the sample exceeds baseline +/- T.
    Returns the spike row and side_info (x[0], T).
    """
    spikes, side, _ = _encode_channel(x, cfg, "sf")
    return spikes, side


def decode_sf(spikes, side_info) -> np.ndarray:
    """Inverse of encode_sf: cumulative threshold steps from the start value."""
    x0, t = side_info[0], side_info[1]
    return _step_sum(np.asarray(spikes)[None, :], np.array([x0]), np.array([[t]]))[0]


def _sf_encode_rows(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    c, n = x.shape
    spikes = np.zeros((c, n), dtype=np.int8)
    base = x[:, 0].copy()
    for i in range(1, n):
        s = np.where(x[:, i] > base + t, 1, np.where(x[:, i] < base - t, -1, 0))
        spikes[:, i] = s
        base += s * t
    return spikes


# ---------------------------------------------------------------------------
# Moving Window
# ---------------------------------------------------------------------------

def encode_mw(x, cfg: CodecConfig) -> tuple[np.ndarray, tuple[float, float, int]]:
    """Moving-window encoding of one channel.

    The baseline at frame t is the mean of the previous min(t, window)
    samples (x[0] itself at t=0, which never fires).  Returns the spike row
    and side_info (x[0], T, window).
    """
    spikes, side, _ = _encode_channel(x, cfg, "mw")
    return spikes, (*side, cfg.window)


def decode_mw(spikes, side_info) -> np.ndarray:
    """Rebuild the signal as (running mean of the estimate) + spike * T."""
    x0, t, window = side_info[0], side_info[1], int(side_info[2])
    return _mw_decode_rows(
        np.asarray(spikes)[None, :], np.array([x0]), np.array([t]), window
    )[0]


def _mw_encode_rows(x: np.ndarray, t: np.ndarray, window: int) -> np.ndarray:
    # Baseline: mean of the previous min(i, window) samples, summed over the
    # slice (not as prefix-sum differences) to match the plain definition.
    base = np.empty_like(x)
    base[:, 0] = x[:, 0]
    for i in range(1, x.shape[1]):
        k = min(i, window)
        base[:, i] = x[:, i - k : i].sum(axis=1) / k
    tcol = t[:, None]
    return (x > base + tcol).view(np.int8) - (x < base - tcol).view(np.int8)


def _mw_decode_rows(spikes: np.ndarray, x0: np.ndarray, t: np.ndarray,
                    window: int) -> np.ndarray:
    c, n = spikes.shape
    out = np.empty((c, n), dtype=np.float64)
    out[:, 0] = x0
    for i in range(1, n):
        base = out[:, max(0, i - window) : i].mean(axis=1)
        out[:, i] = base + spikes[:, i] * t
    return out


# ---------------------------------------------------------------------------
# Threshold Adaptive
# ---------------------------------------------------------------------------

def _tae_bounds(t0: np.ndarray, cfg: CodecConfig) -> tuple[np.ndarray, np.ndarray]:
    # Derived from the initial threshold (not the raw range) so encoder and
    # decoder compute bit-identical clamps from side_info alone.
    tmin = t0 * (cfg.tae_tmin_rel / cfg.threshold_rel)
    tmax = t0 * (cfg.tae_tmax_rel / cfg.threshold_rel)
    return tmin, tmax


def _tae_next(t: np.ndarray, fired: np.ndarray, tmin: np.ndarray,
              tmax: np.ndarray, gamma: float) -> np.ndarray:
    """The adaptation law: grow by gamma after a spike, shrink on silence."""
    return np.where(fired, np.minimum(t * gamma, tmax), np.maximum(t / gamma, tmin))


def encode_tae(x, cfg: CodecConfig, with_trace: bool = False):
    """Threshold-adaptive encoding of one channel.

    Works like SF but the threshold multiplies by tae_gamma after every
    spike (clamped to the upper bound) and divides by tae_gamma on silent
    frames (clamped to the lower bound).  Returns the spike row and
    side_info (x[0], T0); with_trace additionally returns the threshold
    value used at each frame decision.
    """
    spikes, side, trace = _encode_channel(x, cfg, "tae")
    if with_trace:
        return spikes, side, trace[0]
    return spikes, side


def decode_tae(spikes, side_info, cfg: CodecConfig, with_trace: bool = False):
    """Replay the adaptive recurrence from spikes alone.

    The estimate steps by the current threshold on each spike and holds on
    silence; the threshold follows the identical update law as the encoder,
    driven only by the spike sequence.
    """
    spikes = np.asarray(spikes)[None, :]
    trace = _tae_thresholds(spikes, np.array([side_info[1]]), cfg)
    est = _step_sum(spikes, np.array([side_info[0]]), trace)[0]
    if with_trace:
        return est, trace[0]
    return est


def _tae_encode_rows(x: np.ndarray, t0: np.ndarray, cfg: CodecConfig):
    """Spikes plus the threshold used at each frame decision."""
    c, n = x.shape
    tmin, tmax = _tae_bounds(t0, cfg)
    spikes = np.zeros((c, n), dtype=np.int8)
    trace = np.empty((c, n), dtype=np.float64)
    trace[:, 0] = t = t0
    base = x[:, 0].copy()
    for i in range(1, n):
        trace[:, i] = t
        d = x[:, i] - base
        s = np.where(d > t, 1, np.where(d < -t, -1, 0))
        spikes[:, i] = s
        base += s * t
        t = _tae_next(t, s != 0, tmin, tmax, cfg.tae_gamma)
    return spikes, trace


def _tae_thresholds(spikes: np.ndarray, t0: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """Replay the encoder's per-frame thresholds from the spikes and T0."""
    c, n = spikes.shape
    tmin, tmax = _tae_bounds(t0, cfg)
    trace = np.empty((c, n), dtype=np.float64)
    trace[:, 0] = t = t0
    for i in range(1, n):
        trace[:, i] = t
        t = _tae_next(t, spikes[:, i] != 0, tmin, tmax, cfg.tae_gamma)
    return trace


# ---------------------------------------------------------------------------
# Matrix-level API
# ---------------------------------------------------------------------------

def encode_matrix(f: FeatureMatrix, cfg: CodecConfig, codec: str) -> SpikeTrain:
    """Encode every channel of a FeatureMatrix independently.

    Output dimensions equal the input's; side_info stores (x[0], T) per
    channel, where T is the SF/MW threshold or the TAE initial threshold.
    """
    spikes, side, _ = _encode_rows(f.values, cfg, codec)
    return SpikeTrain(spikes=spikes, side_info=side, codec_id=codec, params=cfg)


def decode_matrix(st: SpikeTrain) -> np.ndarray:
    """Signal estimate for every channel of a SpikeTrain."""
    x0, t = st.side_info.T
    if st.codec_id == "sf":
        return _step_sum(st.spikes, x0, t[:, None])
    if st.codec_id == "mw":
        return _mw_decode_rows(st.spikes, x0, t, st.params.window)
    if st.codec_id == "tae":
        return _step_sum(st.spikes, x0, _tae_thresholds(st.spikes, t, st.params))
    raise DataError(f"unknown codec_id {st.codec_id!r}")


# ---------------------------------------------------------------------------
# Serialization: SPKS1 container, spikes packed 2 bits per entry
# ---------------------------------------------------------------------------

_CODEC_TAGS = {"sf": 0, "mw": 1, "tae": 2}
_TAG_CODECS = {v: k for k, v in _CODEC_TAGS.items()}
_HEADER = struct.Struct("<BIIfIfff")  # codec, channels, frames, params...


def pack_spikes(spikes: np.ndarray) -> bytes:
    """Pack ternary entries 2 bits each (00=0, 01=+1, 10=-1), row-major."""
    flat = spikes.reshape(-1)
    codes = np.where(flat == 1, 1, np.where(flat == -1, 2, 0)).astype(np.uint8)
    pad = (-len(codes)) % 4
    if pad:
        codes = np.concatenate([codes, np.zeros(pad, dtype=np.uint8)])
    quads = codes.reshape(-1, 4)
    packed = quads[:, 0] | (quads[:, 1] << 2) | (quads[:, 2] << 4) | (quads[:, 3] << 6)
    return packed.tobytes()


def unpack_spikes(data: bytes, channels: int, frames: int) -> np.ndarray:
    raw = np.frombuffer(data, dtype=np.uint8)
    codes = np.empty(len(raw) * 4, dtype=np.uint8)
    for j in range(4):
        codes[j::4] = (raw >> (2 * j)) & 0b11
    codes = codes[: channels * frames]
    spikes = np.zeros(len(codes), dtype=np.int8)
    spikes[codes == 1] = 1
    spikes[codes == 2] = -1
    return spikes.reshape(channels, frames)


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
    """Write the SPKS1 binary container plus a JSON debugging sidecar.

    The sidecar mirrors the header, params, and side_info, and adds
    per-channel spike counts; the packed payload stays binary-only.
    """
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(SPIKE_MAGIC)
        fh.write(_HEADER.pack(
            _CODEC_TAGS[st.codec_id], st.n_channels, st.n_frames,
            st.params.threshold_rel, st.params.window, st.params.tae_gamma,
            st.params.tae_tmin_rel, st.params.tae_tmax_rel,
        ))
        fh.write(pack_spikes(st.spikes))
        fh.write(st.side_info.astype("<f4").tobytes(order="C"))
    sidecar = {
        "codec_id": st.codec_id,
        "channels": st.n_channels,
        "frames": st.n_frames,
        "params": asdict(st.params),
        "side_info": st.side_info.tolist(),
        "spike_counts": np.count_nonzero(st.spikes, axis=1).tolist(),
    }
    with open(path.with_suffix(path.suffix + ".json"), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_spikes(path: str | Path) -> SpikeTrain:
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            magic = fh.read(5)
            if magic != SPIKE_MAGIC:
                raise DataError(f"bad spike file magic in {path}: {magic!r}")
            header = fh.read(_HEADER.size)
            if len(header) != _HEADER.size:
                raise DataError(f"truncated spike file header in {path}")
            tag, channels, frames, thr, window, gamma, tmin, tmax = _HEADER.unpack(header)
            if tag not in _TAG_CODECS:
                raise DataError(f"unknown codec tag {tag} in {path}")
            if frames < 1:
                raise DataError(f"spike file {path} holds no frames")
            payload = fh.read(spike_payload_bytes(channels, frames))
            side_raw = fh.read(channels * 2 * 4)
            if (len(payload), len(side_raw)) != (spike_payload_bytes(channels, frames),
                                                 channels * 2 * 4):
                raise DataError(f"truncated spike file payload in {path}")
            if fh.read(1):
                raise DataError(f"spike file {path} is longer than its header declares")
    except OSError as exc:
        raise DataError(f"cannot read spike file: {exc}") from exc
    try:
        params = CodecConfig(
            threshold_rel=float(thr), window=int(window), tae_gamma=float(gamma),
            tae_tmin_rel=float(tmin), tae_tmax_rel=float(tmax),
        )
    except ConfigError as exc:
        raise DataError(f"bad codec parameters in {path}: {exc}") from exc
    side = np.frombuffer(side_raw, dtype="<f4").reshape(channels, 2).astype(np.float64)
    return SpikeTrain(
        spikes=unpack_spikes(payload, channels, frames),
        side_info=side,
        codec_id=_TAG_CODECS[tag],
        params=params,
    )
