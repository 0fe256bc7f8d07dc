"""Known-wrong variants of private kernels, each killed by a named fast check.

Each row swaps one kernel for a mutant and runs one in-process check of the
suite: the check must pass on the real kernel, and fail on the mutant within
a second.  A change that weakens one of these checks fails here instead of
passing quietly.  A new mutant that no fast check kills is a finding.
"""

import csv
import struct
import time
from dataclasses import replace
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy.io import wavfile

from spikesound import codec, container, ingest, metrics, snn
from spikesound.errors import DataError

import test_codec
import test_codec_oracle
import test_container
import test_ingest
import test_metrics
import test_snn

_real_step_encode_rows = codec._step_encode_rows
_real_mw_encode_rows = codec._mw_encode_rows
_real_decode_rows = codec._decode_rows
_real_lif_update = snn._lif_update
_real_backward_batch = snn._backward_batch


def sf_fires_on_equal(x, t0, cfg=None):
    # >= and <= for > and <: a signal exactly T off the baseline fires.
    # SF only, as the check encodes.
    xt = np.ascontiguousarray(x.T)
    spikes = np.zeros(xt.shape, dtype=np.int8)
    base = xt[0].copy()
    for i in range(1, len(xt)):
        d = xt[i] - base
        spikes[i] = (d >= t0).astype(np.int8) - (d <= -t0)
        base += spikes[i] * t0
    return np.ascontiguousarray(spikes.T)


def sf_adapts(x, t0, cfg=None):
    # The SF path runs TAE's adaptation, with the default config's law.
    return _real_step_encode_rows(x, t0, cfg or codec.CodecConfig())


def step_decides_by_corridor(x, t0, cfg=None):
    # x > base + T and x < base - T, MW's corridor form, for d = x - base
    # against +/-T: the two round differently on ties.  SF only, as the
    # check encodes.
    xt = np.ascontiguousarray(x.T)
    spikes = np.zeros(xt.shape, dtype=np.int8)
    base = xt[0].copy()
    for i in range(1, len(xt)):
        spikes[i] = (xt[i] > base + t0).astype(np.int8) - (xt[i] < base - t0)
        base += spikes[i] * t0
    return np.ascontiguousarray(spikes.T)


def mw_encode_window_off_by_one(x, t, window):
    return _real_mw_encode_rows(x, t, window + 1)


def mw_encode_head_divides_by_window(x, t, window):
    # Every baseline divided by window, also before frame window, where the
    # mean is of k = i < window frames.
    base = x.copy()
    for i in range(1, x.shape[1]):
        k = min(i, window)
        total = x[:, i - k].copy()
        for j in range(i - k + 1, i):
            total += x[:, j]
        base[:, i] = total / window
    return (x > base + t[:, None]).astype(np.int8) - (x < base - t[:, None])


def mw_encode_frame0_fires(x, t, window):
    spikes = _real_mw_encode_rows(x, t, window)
    spikes[:, 0] = 1
    return spikes


def mw_decode_window_off_by_one(spikes, x0, t0, window, cfg=None):
    return _real_decode_rows(spikes, x0, t0, window + 1, cfg)


def mw_decode_shortcut_every_frame(spikes, x0, t0, window, cfg=None):
    # The k = 1 shortcut, add the previous estimate, taken at every frame:
    # MW decoded as with a one-frame window.
    return _real_decode_rows(spikes, x0, t0, 1, cfg)


def step_sum_adds_x0(spikes, x0, t0, window, cfg=None):
    # x0 added to frame 0's step instead of replacing it.
    return _real_decode_rows(spikes, x0 + spikes[:, 0] * t0, t0, window, cfg)


def tae_decode_replaying(spikes, x0, t0, window, cfg, shifted=False, fired=np.not_equal):
    # TAE's decoder with its threshold replay changed: frame i's threshold
    # stepped from frame i's own spike, one frame early (shifted), or the
    # frames that grow it picked by another test of the spike than != 0.
    tmin, tmax = codec._tae_bounds(t0, cfg)
    t, grown = t0.copy(), np.empty_like(t0)
    est = np.empty(spikes.shape)
    est[:, 0] = x0
    for i in range(1, spikes.shape[1]):
        if shifted:
            codec._tae_next(t, fired(spikes[:, i], 0), tmin, tmax, cfg.tae_gamma, t, grown)
        est[:, i] = spikes[:, i] * t + est[:, i - 1]
        if not shifted:
            codec._tae_next(t, fired(spikes[:, i], 0), tmin, tmax, cfg.tae_gamma, t, grown)
    return est


def tae_clamps_from_span(x, t0, cfg=None):
    # The encoder clamps to fractions of the channel's range, 0 when it is
    # flat, which the decoder cannot know from side_info.
    span = x.max(axis=1) - x.min(axis=1)
    bounds = (cfg.tae_tmin_rel * span, cfg.tae_tmax_rel * span)
    with mock.patch.object(codec, "_tae_bounds", lambda *args: bounds):
        return _real_step_encode_rows(x, t0, cfg)


def mw_encode_pairwise(x, t, window):
    # Each baseline summed as numpy's pairwise sum over the channel-major
    # signal, which rounds unlike the in-turn sum from 8 frames on.
    base = x.copy()
    for i in range(1, x.shape[1]):
        k = min(i, window)
        base[:, i] = x[:, i - k : i].sum(axis=1) / k
    return (x > base + t[:, None]).astype(np.int8) - (x < base - t[:, None])


def mw_decode_pairwise(spikes, x0, t, window, cfg=None):
    # Each window summed as numpy's pairwise sum over the channel-major
    # estimate, which differs from the in-turn sum from 8 frames on.  MW
    # only, as the check decodes.
    est = spikes * t[:, None]
    est[:, 0] = x0
    for i in range(1, spikes.shape[1]):
        k = min(i, window)
        est[:, i] += est[:, i - k : i].sum(axis=1) / k
    return est


def mw_decode_from_steps(spikes, x0, t, window, cfg=None):
    # Each mean taken over the steps spike * T, not over the estimates
    # decoded so far: every column read before any is updated.  MW only,
    # as the check decodes.
    steps = np.multiply(spikes, t[:, None], dtype=np.float64)
    steps[:, 0] = x0
    est = steps.copy()
    for i in range(1, steps.shape[1]):
        k = min(i, window)
        mean = steps[:, i - k].copy()
        for j in range(i - k + 1, i):
            mean += steps[:, j]
        est[:, i] += mean / k
    return est


def wav_duration_first_data_chunk(path):
    # Returns at the first data chunk, where scipy's reader keeps the last.
    raw = Path(path).read_bytes()
    pos = 12
    while True:
        tag, size = raw[pos : pos + 4], struct.unpack_from("<I", raw, pos + 4)[0]
        pos += 8
        if tag == b"fmt ":
            _, _, rate, _, align, _ = struct.unpack_from("<HHIIHH", raw, pos)
        elif tag == b"data":
            return min(size, len(raw) - pos) // align / rate
        pos += size + (size & 1)


def read_wav_checking(path, zero_rate=True, sample_type=True, finite=True):
    # The package's WAV reader with its 0 Hz, its sample-type or its
    # non-finite check left out.
    try:
        rate, data = wavfile.read(str(path))
    except Exception as exc:
        raise DataError(f"cannot read audio file {path}: {exc}") from exc
    if zero_rate and rate == 0:
        raise DataError(f"sample rate of 0 Hz in {path}")
    if sample_type and data.dtype.str not in ("|u1", "<i2", "<i4", "<f4", "<f8"):
        raise DataError(f"unsupported WAV sample type {data.dtype.str} in {path}")
    if data.size == 0:
        raise DataError(f"zero-length audio: {path}")
    if finite and data.dtype.kind == "f" and not np.all(np.isfinite(data)):
        raise DataError(f"non-finite samples in {path}")
    return rate, data


def resample_summed_backwards(samples, orig_rate, target_rate):
    # Each output's products added from its last input back to its first.
    up, down = ingest._resample_factors(orig_rate, target_rate)
    h = ingest._anti_alias_filter(up, down) * up
    x = np.asarray(samples, dtype=np.float64)
    e = np.arange(-(-len(x) * up // down)) * down + len(h) // 2
    y = np.zeros(len(e))
    for a in range(-(-len(h) // up)):  # input e // up - a, tap e % up + a * up
        k, u = e // up - a, e % up + a * up
        ok = (k >= 0) & (k < len(x)) & (u < len(h))
        y[ok] += x[k[ok]] * h[u[ok]]
    return y


def lif_reset_to_zero(membrane, current, beta, theta, smooth=False, slope=25.0):
    s, u, _ = _real_lif_update(membrane, current, beta, theta, smooth, slope)
    return s, u, u * (1.0 - s)


def backward_hard_spikes(net, cache, d_counts):
    # The previous layer's spikes recomputed by the hard threshold even
    # after a smooth forward pass.
    return _real_backward_batch(net, replace(cache, smooth=False), d_counts)


def score_per_class_input_order(scores):
    groups = {}
    for label, e in scores:
        groups.setdefault(label, []).append(e)
    return {label: float(np.sum(vals) / len(vals)) for label, vals in sorted(groups.items())}


def sums_of_squares_by_row(x, rows, out=None):
    # Each band's sum added up from its rows' sums, which rounds unlike one
    # sum over the band's run of memory.
    sq = np.square(x, out=out)
    return float(np.sum(sq)), {b: float(np.sum(np.sum(sq[r], axis=1)))
                               for b, r in rows.items()}


def read_csv_any_field_count(path, what, header, parse, error=DataError):
    # Every non-blank row reaches parse, however many fields it has.
    with open(path, encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        if next(rows, None) != header:
            raise DataError(f"{what} {path}: bad header")
        return [parse(*fields) for fields in rows if fields]


# name: (kernel module, kernel name, mutant, check module, check, check kwargs)
MUTANTS = {
    "sf_fires_on_equal": (
        codec, "_step_encode_rows", sf_fires_on_equal, test_codec_oracle,
        "test_exhaustive_short_signals_fine_grid", {"codec": "sf"}),
    "sf_adapts": (
        codec, "_step_encode_rows", sf_adapts, test_codec_oracle,
        "test_exhaustive_short_signals_fine_grid", {"codec": "sf"}),
    "step_decides_by_corridor": (
        codec, "_step_encode_rows", step_decides_by_corridor, test_codec_oracle,
        "test_exhaustive_short_signals_fine_grid", {"codec": "sf"}),
    "mw_encode_window_off_by_one": (
        codec, "_mw_encode_rows", mw_encode_window_off_by_one, test_codec,
        "TestMovingWindow.test_slab_edges_match_oracle", {"n": 129, "window": 3}),
    "mw_encode_head_divides_by_window": (
        codec, "_mw_encode_rows", mw_encode_head_divides_by_window, test_codec,
        "TestMovingWindow.test_slab_edges_match_oracle", {"n": 129, "window": 3}),
    "mw_encode_frame0_fires": (
        codec, "_mw_encode_rows", mw_encode_frame0_fires, test_codec,
        "TestMovingWindow.test_slab_edges_match_oracle", {"n": 129, "window": 3}),
    "mw_decode_window_off_by_one": (
        codec, "_decode_rows", mw_decode_window_off_by_one, test_codec,
        "TestMovingWindow.test_decode_trace_lossier_than_sf", {}),
    "mw_decode_shortcut_every_frame": (
        codec, "_decode_rows", mw_decode_shortcut_every_frame, test_codec,
        "TestMovingWindow.test_decode_trace_lossier_than_sf", {}),
    "step_sum_adds_x0": (
        codec, "_decode_rows", step_sum_adds_x0, test_codec,
        "TestMatrixEncoding.test_decode_ignores_frame_zero_spike", {"n": 129}),
    "tae_replay_shifted": (
        codec, "_decode_rows", partial(tae_decode_replaying, shifted=True), test_codec,
        "TestThresholdAdaptive.test_hand_trace_adaptive_recurrence", {}),
    # The hand trace has +1 spikes only, so it passes this mutant; the grid
    # sweep decodes falling signals too.
    "tae_replay_positive_only": (
        codec, "_decode_rows", partial(tae_decode_replaying, fired=np.greater),
        test_codec_oracle, "test_exhaustive_short_signals_fine_grid", {"codec": "tae"}),
    "tae_clamps_from_span": (
        codec, "_step_encode_rows", tae_clamps_from_span, test_codec,
        "TestThresholdAdaptive.test_constant_signal_threshold_decays_to_floor", {}),
    "mw_encode_pairwise": (
        codec, "_mw_encode_rows", mw_encode_pairwise, test_codec,
        "TestMovingWindow.test_summation_order_decides_a_spike", {"window": 12}),
    "mw_decode_pairwise": (
        codec, "_decode_rows", mw_decode_pairwise, test_codec,
        "TestMovingWindow.test_slab_edges_match_oracle", {"n": 129, "window": 12}),
    "mw_decode_from_steps": (
        codec, "_decode_rows", mw_decode_from_steps, test_codec,
        "TestMovingWindow.test_decode_all_zero_spikes_holds_constant", {}),
    "wav_duration_first_data_chunk": (
        ingest, "wav_duration", wav_duration_first_data_chunk, test_ingest,
        "TestFilterExactDuration.test_wav_duration_agrees_with_load_audio",
        {"chunks": test_ingest.TestFilterExactDuration.TWO_DATA}),
    "read_wav_takes_0_hz": (
        ingest, "_read_wav", partial(read_wav_checking, zero_rate=False), test_ingest,
        "TestFilterExactDuration.test_wav_duration_bad_header_is_data_error",
        {"riff": b"RIFF", "body": test_ingest.TestFilterExactDuration.ZERO_RATE,
         "message": "sample rate of 0 Hz in "}),
    "read_wav_takes_any_sample_type": (
        ingest, "_read_wav", partial(read_wav_checking, sample_type=False), test_ingest,
        "TestFilterExactDuration.test_wav_duration_bad_header_is_data_error",
        {"riff": b"RIFF", "body": test_ingest.TestFilterExactDuration.PCM64,
         "message": "unsupported WAV sample type <i8 in "}),
    "read_wav_takes_nan": (
        ingest, "_read_wav", partial(read_wav_checking, finite=False), test_ingest,
        "TestFilterExactDuration.test_wav_duration_bad_header_is_data_error",
        {"riff": b"RIFF", "body": test_ingest.TestFilterExactDuration.NAN,
         "message": "non-finite samples in "}),
    "resample_summed_backwards": (
        ingest, "resample", resample_summed_backwards, test_ingest,
        "TestResample.test_matches_resample_poly", {"rate": 48000}),
    "lif_reset_to_zero": (
        snn, "_lif_update", lif_reset_to_zero, test_snn,
        "TestLifStep.test_integrate_and_fire_arithmetic", {}),
    "backward_hard_spikes": (
        snn, "_backward_batch", backward_hard_spikes, test_snn,
        "TestSurrogateGradients.test_gradcheck_2222_net", {"slope": 2.0, "seed": 0}),
    "score_per_class_input_order": (
        metrics, "score_per_class", score_per_class_input_order, test_metrics,
        "TestScorePerClass.test_order_invariance", {}),
    "sums_of_squares_by_row": (
        metrics, "sums_of_squares", sums_of_squares_by_row, test_metrics,
        "TestScorePerBand.test_one_pass_scores_equal_copies", {"kind": "contiguous"}),
    "read_csv_any_field_count": (
        container, "read_csv", read_csv_any_field_count, test_container,
        "TestContainer.test_csv_rows_need_one_field_per_column", {}),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(monkeypatch, name):
    module, kernel, mutant, check_module, check_name, kwargs = MUTANTS[name]
    *cls, attr = check_name.split(".")
    owner = getattr(check_module, cls[0])() if cls else check_module
    check = partial(getattr(owner, attr), **kwargs)
    check()  # passes on the real kernel
    real = getattr(module, kernel)
    for m in (module, check_module):  # wherever the check looks the kernel up
        if vars(m).get(kernel) is real:
            monkeypatch.setattr(m, kernel, mutant)
    start = time.perf_counter()
    with pytest.raises(AssertionError):
        check()
    assert time.perf_counter() - start < 1.0
