"""Shared signal builders and stacked codec calls for codec tests."""

from unittest import mock

import numpy as np

import spikesound.codec
from spikesound.codec import (
    CodecConfig,
    SpikeTrain,
    _tae_next,
    decode_matrix,
    encode_matrix,
)
from spikesound.frontend import FeatureMatrix


def slow_signal(rng, threshold_rel):
    """Random walk in [0, 1] refined until per-step change <= its own
    absolute threshold (threshold_rel of the final signal's range)."""
    x = np.cumsum(rng.uniform(-0.08, 0.08, size=rng.integers(20, 60)))
    x = np.clip(x + 0.5, 0.0, 1.0)
    span = x.max() - x.min()
    t_abs = threshold_rel * span if span > 0 else threshold_rel
    step = np.abs(np.diff(x)).max() if len(x) > 1 else 0.0
    if step > t_abs:
        factor = int(np.ceil(step / t_abs))
        grid = np.arange(len(x))
        fine = np.linspace(0, len(x) - 1, factor * (len(x) - 1) + 1)
        x = np.interp(fine, grid, x)
    return x


def make_features(values):
    """A FeatureMatrix around raw (channels x frames) values, so the codecs
    see them directly with no mel front-end."""
    values = np.asarray(values, dtype=np.float64)
    c = values.shape[0]
    return FeatureMatrix(
        values=values,
        channel_center_hz=np.linspace(100, 10000, c),
        norm_state=np.column_stack([np.zeros(c), np.ones(c)]),
        frame_rate=172.265625,
    )


def _stacks(signals):
    """(indices, matrix) per distinct length: the signals of that length
    stacked as the rows of one matrix, in input order."""
    groups = {}
    for i, x in enumerate(signals):
        groups.setdefault(len(x), []).append(i)
    return [(idx, np.array([signals[i] for i in idx], dtype=np.float64))
            for idx in groups.values()]


def code_rows(signals, cfg, codec):
    """encode_matrix then decode_matrix on signals of any lengths, one call
    per length: per signal, in order, its spike row, (x0, T) and estimate."""
    out = [None] * len(signals)
    for idx, x in _stacks(signals):
        st = encode_matrix(make_features(x), cfg, codec)
        est = decode_matrix(st)
        for r, i in enumerate(idx):
            out[i] = st.spikes[r], tuple(st.side_info[r].tolist()), est[r]
    return out


def code_row(x, cfg, codec):
    """code_rows on one signal."""
    return code_rows([x], cfg, codec)[0]


def decode_row(spikes, x0, t, codec, cfg=CodecConfig()):
    """decode_matrix on one spike row with side_info (x0, T)."""
    st = SpikeTrain(spikes=np.array([spikes], dtype=np.int8),
                    side_info=np.array([[x0, t]]), codec_id=codec, params=cfg)
    return decode_matrix(st)[0]


def tae_traces(signals, cfg):
    """Per signal, in order: the TAE encoder's threshold at each frame
    decision and the decoder's replay of it from the spikes and T0.

    Both are read by wrapping _tae_next.  The encoder's thresholds are the
    rows it passes to it: at frame i, from 1 on, the row frame i was decided
    with.  The decoder's are the rows it writes: frame i's from 2 on.
    Frame 0 holds T0 in both, and so does frame 1 in the decoder's."""
    out = [None] * len(signals)
    for idx, x in _stacks(signals):
        used, replayed = [], []

        def record_used(t, *args):
            used.append(t.copy())
            return _tae_next(t, *args)

        def record_replayed(*args):
            replayed.append(_tae_next(*args).copy())
            return replayed[-1]

        with mock.patch.object(spikesound.codec, "_tae_next", record_used):
            st = encode_matrix(make_features(x), cfg, "tae")
        with mock.patch.object(spikesound.codec, "_tae_next", record_replayed):
            decode_matrix(st)
        t0 = st.side_info[:, 1]
        trace = np.array([t0, *used]).T
        replay = np.array([t0, t0, *replayed][: x.shape[1]]).T
        for r, i in enumerate(idx):
            out[i] = trace[r], replay[r]
    return out
