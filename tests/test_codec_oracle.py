"""Codec implementations vs the independent straight-line oracles.

Exact float equality everywhere: the production encoders and the pure
Python references must agree bit for bit on spikes, side information, and
round-trip estimates.  Enumeration is exhaustive where tractable (all
signals up to length 4 on the 11-point value grid, all signals of length
5..8 on a 4-point grid) and randomized on the full grid for the rest.
check_oracle stacks equal-length signals as the rows of one matrix, so a
sweep costs one encode_matrix/decode_matrix call per length.  MW adds each
window's frames in turn from the oldest, as the oracle's sum() does, so
windows of any length compare exactly.
"""

import itertools

import numpy as np
import pytest

from spikesound.codec import CODEC_IDS, CodecConfig, encode_matrix

import oracles
from siggen import code_rows, make_features

FINE_GRID = [i / 10.0 for i in range(11)]
COARSE_GRID = [0.0, 0.3, 0.6, 1.0]

CFG = CodecConfig(threshold_rel=0.15, window=3, tae_gamma=2.0,
                  tae_tmin_rel=0.05, tae_tmax_rel=0.45)


def _oracle(xs, cfg, codec):
    """(spikes, [x0, T], estimate) of one signal from the references."""
    if codec == "sf":
        spikes, x0, t = oracles.sf_encode(xs, cfg.threshold_rel)
        return spikes, [x0, t], oracles.sf_decode(spikes, x0, t)
    if codec == "mw":
        spikes, x0, t = oracles.mw_encode(xs, cfg.threshold_rel, cfg.window)
        return spikes, [x0, t], oracles.mw_decode(spikes, x0, t, cfg.window)
    tae = (cfg.threshold_rel, cfg.tae_gamma, cfg.tae_tmin_rel, cfg.tae_tmax_rel)
    spikes, x0, t0, _ = oracles.tae_encode(xs, *tae)
    est, _ = oracles.tae_decode(spikes, x0, t0, *tae)
    return spikes, [x0, t0], est


def check_oracle(signals, cfg, codec):
    """Encode and decode the signals, those of one length stacked as the
    rows of one FeatureMatrix, and compare each row's spikes, (x0, T) and
    estimate with the oracle by exact ==.  Returns how many were checked."""
    coded = code_rows(signals, cfg, codec)
    for xs, (spikes, side, est) in zip(signals, coded):
        got = (spikes.tolist(), list(side), est.tolist())
        assert got == _oracle(list(xs), cfg, codec), (codec, xs)
    return len(coded)


@pytest.mark.parametrize("codec", CODEC_IDS)
def test_exhaustive_short_signals_fine_grid(codec):
    """All signals of length 1..4 over {0, 0.1, ..., 1.0}."""
    signals = [xs for length in range(1, 5)
               for xs in itertools.product(FINE_GRID, repeat=length)]
    assert check_oracle(signals, CFG, codec) == 11 + 11**2 + 11**3 + 11**4


def test_sf_and_tae_decide_frame_1_alike():
    """TAE is SF with an adaptive threshold, and frame 1 is decided by T0
    in both, so its spike is the same under SF and TAE on every length-3
    signal over {0, 0.05, ..., 1.0}: in the codec and in the oracles.  A
    tie rule of SF's own, x > base + T, fails (0.85, 1.0, 0.0), which
    TAE's x - base > T fires on."""
    signals = list(itertools.product([i / 20.0 for i in range(21)], repeat=3))
    assert len(signals) == 9261
    f = make_features(signals)
    sf, tae = (encode_matrix(f, CFG, c).spikes[:, 1].tolist() for c in ("sf", "tae"))
    assert sf == tae
    args = (CFG.threshold_rel, CFG.tae_gamma, CFG.tae_tmin_rel, CFG.tae_tmax_rel)
    for xs in signals:
        sf_row, _, _ = oracles.sf_encode(xs, CFG.threshold_rel)
        tae_row, _, _, _ = oracles.tae_encode(xs, *args)
        assert sf_row[1] == tae_row[1], xs


@pytest.mark.parametrize("codec", CODEC_IDS)
def test_exhaustive_medium_signals_coarse_grid(codec):
    """All signals of length 5..8 over a 4-point grid."""
    signals = [xs for length in range(5, 9)
               for xs in itertools.product(COARSE_GRID, repeat=length)]
    assert check_oracle(signals, CFG, codec) == 4**5 + 4**6 + 4**7 + 4**8


@pytest.mark.parametrize("codec", CODEC_IDS)
def test_random_length8_signals_fine_grid(codec):
    """Seeded random cover of length 5..8 signals on the full grid."""
    rng = np.random.default_rng(20260809)
    signals = []
    for _ in range(4000):
        length = int(rng.integers(5, 9))
        signals.append(tuple(FINE_GRID[i] for i in rng.integers(0, 11, size=length)))
    assert check_oracle(signals, CFG, codec) == 4000


@pytest.mark.parametrize("codec", CODEC_IDS)
@pytest.mark.parametrize("threshold_rel,window", [(0.05, 1), (0.3, 2), (0.75, 7)])
def test_parameter_sweep_random_signals(codec, threshold_rel, window):
    """Oracle agreement holds across threshold and window settings."""
    cfg = CodecConfig(threshold_rel=threshold_rel, window=window,
                      tae_gamma=1.5, tae_tmin_rel=threshold_rel / 4,
                      tae_tmax_rel=min(1.0, threshold_rel * 3))
    rng = np.random.default_rng(7)
    signals = []
    for _ in range(500):
        length = int(rng.integers(1, 11))
        signals.append(tuple(rng.uniform(0.0, 1.0, size=length).tolist()))
    assert check_oracle(signals, cfg, codec) == 500


@pytest.mark.parametrize("window", [8, 12, 129])
def test_long_window_sweep_random_signals(window):
    """MW on random floats agrees with the oracle at windows of 8 and more,
    on signals from shorter than the window to past two slabs of frames."""
    cfg = CodecConfig(threshold_rel=0.1, window=window)
    rng = np.random.default_rng(window)
    signals = []
    for _ in range(60):
        length = int(rng.integers(1, window + 300))
        signals.append(tuple(rng.uniform(-1.0, 1.0, size=length).tolist()))
    assert check_oracle(signals, cfg, "mw") == 60


@pytest.mark.parametrize("codec", CODEC_IDS)
def test_constant_and_flat_signals(codec):
    """Flat channels use the relative threshold directly and stay silent."""
    signals = [(c,) * length for c in [0.0, 0.5, 1.0] for length in [1, 2, 8]]
    assert check_oracle(signals, CFG, codec) == 9
