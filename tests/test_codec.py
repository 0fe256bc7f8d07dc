"""Spike codec behavior: hand traces, round-trip bounds, serialization."""

import hashlib
import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from spikesound import codec as codec_module
from spikesound.codec import (
    CODEC_IDS,
    CodecConfig,
    SpikeTrain,
    decode_matrix,
    encode_matrix,
    load_spikes,
    pack_spikes,
    save_spikes,
    serialized_size,
    spike_payload_bytes,
    unpack_spikes,
)
from spikesound.errors import ConfigError, DataError

import oracles
import siggen
from siggen import code_row, code_rows, decode_row, make_features, tae_traces


# Range 0.3 with threshold_rel 1/3 gives T ~= 0.1 for the hand traces.
TRACE_CFG = CodecConfig(threshold_rel=1.0 / 3.0, window=2, tae_gamma=2.0,
                        tae_tmin_rel=0.05, tae_tmax_rel=1.0)


class TestStepForward:
    def test_constant_signal_is_silent(self):
        spikes, (x0, t), _ = code_row([0.7, 0.7, 0.7, 0.7], CodecConfig(), "sf")
        assert spikes.tolist() == [0, 0, 0, 0]
        assert x0 == 0.7
        assert t == CodecConfig().threshold_rel  # flat-channel fallback

    def test_hand_trace_two_up_spikes(self):
        # T = (1/3) * range([0, .25, .3, .1]) ~= 0.1
        spikes, (x0, t), est = code_row([0.0, 0.25, 0.3, 0.1], TRACE_CFG, "sf")
        assert spikes.tolist() == [0, 1, 1, 0]
        assert x0 == 0.0
        assert t == pytest.approx(0.1)
        assert est[-1] == pytest.approx(0.2)  # final baseline lags at 2T

    def test_slope_overload_on_steep_ramp(self):
        # Per-step increase of exactly 2T: one spike per frame, baseline
        # lags by T*t.
        cfg = CodecConfig(threshold_rel=0.05, tae_tmin_rel=0.01, tae_tmax_rel=0.5)
        n = 11
        x = np.linspace(0.0, 1.0, n)  # range 1 -> T = 0.05, steps = 0.1 = 2T
        spikes, (x0, t), est = code_row(x, cfg, "sf")
        assert spikes[1:].tolist() == [1] * (n - 1)
        np.testing.assert_allclose(x - est, np.arange(n) * t, atol=1e-12)

    def test_decode_trace(self):
        est = decode_row([0, 1, 1, 0], 0.0, 0.1, "sf")
        np.testing.assert_allclose(est, [0.0, 0.1, 0.2, 0.2])

    def test_decode_constant(self):
        est = decode_row([0, 0, 0], 0.4, 0.1, "sf")
        assert est.tolist() == [0.4, 0.4, 0.4]


class TestMovingWindow:
    def test_constant_signal_is_silent(self):
        spikes, _, _ = code_row([0.2] * 6, CodecConfig(), "mw")
        assert spikes.tolist() == [0] * 6

    def test_hand_trace_window_means(self):
        # x = [0, 0, 1, 1], w=2, T ~= 0.1: B[2]=0, B[3]=0.5 -> [0,0,+1,+1]
        cfg = CodecConfig(threshold_rel=0.1, window=2,
                          tae_tmin_rel=0.05, tae_tmax_rel=0.5)
        spikes, (x0, t), _ = code_row([0.0, 0.0, 1.0, 1.0], cfg, "mw")
        assert spikes.tolist() == [0, 0, 1, 1]
        assert (x0, t) == (0.0, 0.1)

    def test_single_sample_signal(self):
        spikes, _, _ = code_row([0.33], CodecConfig(), "mw")
        assert spikes.tolist() == [0]

    def test_decode_trace_lossier_than_sf(self):
        # Decoding [0,0,+1,+1] with w=2 walks 0, 0, 0.1, 0.15: visibly
        # further from the step input than the SF reconstruction.
        est = decode_row([0, 0, 1, 1], 0.0, 0.1, "mw", CodecConfig(window=2))
        np.testing.assert_allclose(est, [0.0, 0.0, 0.1, 0.15])
        x = np.array([0.0, 0.0, 1.0, 1.0])
        sf_est = decode_row([0, 0, 1, 1], 0.0, 0.1, "sf")
        assert np.abs(x - est).sum() > np.abs(x - sf_est).sum()

    def test_decode_all_zero_spikes_holds_constant(self):
        est = decode_row([0] * 5, 0.8, 0.1, "mw", CodecConfig(window=3))
        np.testing.assert_allclose(est, 0.8)

    def test_decode_deterministic(self):
        spikes = [0, 1, -1, 0, 1]
        a = decode_row(spikes, 0.5, 0.07, "mw", CodecConfig(window=3))
        b = decode_row(spikes, 0.5, 0.07, "mw", CodecConfig(window=3))
        assert a.tolist() == b.tolist()

    def test_window_past_the_signal_sizes_no_buffer(self):
        # A window longer than the signal sums the same frames as one of the
        # signal's length, so it changes no byte and sizes no buffer (a
        # damaged .spk header can declare a window of millions).
        f = make_features(np.random.default_rng(9).uniform(0, 1, (4, 50)))
        out, peaks = {}, {}
        for window in (50, 100_000):
            tracemalloc.start()
            st = encode_matrix(f, CodecConfig(window=window), "mw")
            out[window] = st.spikes.tobytes() + decode_matrix(st).tobytes()
            peaks[window] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert out[100_000] == out[50]
        assert peaks[100_000] <= peaks[50] + 4096, peaks

    @pytest.mark.parametrize("window", [1, 3, 7, 8, 12, 129, 200])
    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 257, 300])
    def test_slab_edges_match_oracle(self, n, window):
        # The encoder fills its frames a slab of 128 at a time: these
        # lengths put frames on both sides of each slab edge, and the
        # windows reach past a slab and past the signal.  Encoder and
        # decoder add each window's frames in turn, as the oracle does, so
        # the spikes, side_info and estimate of random floats match it bit
        # for bit.
        cfg = CodecConfig(window=window)
        rng = np.random.default_rng(1000 * n + window)
        signals = [rng.uniform(-1.0, 1.0, n) for _ in range(3)]
        for x, (spikes, (x0, t), est) in zip(signals, code_rows(signals, cfg, "mw")):
            ref_code = oracles.mw_encode(x.tolist(), cfg.threshold_rel, window)
            assert (spikes.tolist(), x0, t) == ref_code
            assert est.tolist() == oracles.mw_decode(spikes.tolist(), x0, t, window)

    @pytest.mark.parametrize("window", [12, 20])
    def test_summation_order_decides_a_spike(self, window):
        # Frame 12 sits exactly T above the larger of two roundings of the
        # mean of frames 0-11, added in turn and by numpy's pairwise sum, so
        # it fires under one and not the other; frames 13 and 14 fix the
        # range and so T.  Frame 12's mean is of k = min(12, window) = 12
        # frames: its full window at window 12, a partial one at window 20.
        rng = np.random.default_rng(4)
        heads = (100.0 + rng.uniform(-1.0, 1.0, 12) for _ in range(100))
        head = next(h for h in heads if sum(h.tolist()) / 12 != h.sum() / 12)
        top = max(sum(head.tolist()) / 12, head.sum() / 12)
        x = [*head.tolist(), top + oracles.abs_threshold([90.0, 110.0], 0.05), 90.0, 110.0]
        spikes, _, _ = code_row(x, CodecConfig(window=window), "mw")
        assert spikes.tolist() == oracles.mw_encode(x, 0.05, window)[0]


class TestThresholdAdaptive:
    def test_constant_signal_threshold_decays_to_floor(self):
        cfg = CodecConfig(threshold_rel=0.1, tae_gamma=2.0,
                          tae_tmin_rel=0.01, tae_tmax_rel=0.5)
        spikes, _, _ = code_row([0.5] * 12, cfg, "tae")
        [(trace, _)] = tae_traces([[0.5] * 12], cfg)
        assert spikes.tolist() == [0] * 12
        assert trace[-1] == pytest.approx(0.01)  # flat channel: rel values direct

    def test_hand_trace_adaptive_recurrence(self):
        # x = [0, 0.3, 0.6, 0.6], T0=0.1, gamma=2, Tmax=0.4:
        # spikes [0,+1,+1,0], baseline 0 -> 0.1 -> 0.3 -> 0.3,
        # threshold 0.1 -> 0.2 -> 0.4 -> 0.2.
        cfg = CodecConfig(threshold_rel=1.0 / 6.0, tae_gamma=2.0,
                          tae_tmin_rel=0.01, tae_tmax_rel=4.0 / 6.0)
        x = [0.0, 0.3, 0.6, 0.6]  # range 0.6 -> T0 ~= 0.1, Tmax ~= 0.4
        spikes, (x0, t0), est = code_row(x, cfg, "tae")
        [(trace, dec_trace)] = tae_traces([x], cfg)
        assert spikes.tolist() == [0, 1, 1, 0]
        assert t0 == pytest.approx(0.1)
        np.testing.assert_allclose(trace, [0.1, 0.1, 0.2, 0.4])
        np.testing.assert_allclose(est, [0.0, 0.1, 0.3, 0.3])
        assert dec_trace.tolist() == trace.tolist()

    def test_fewer_spikes_than_sf_on_fast_ramp(self):
        # Once the adaptive threshold grows past the per-step increment,
        # TAE stops firing every frame while SF saturates.
        cfg = CodecConfig(threshold_rel=0.02, tae_gamma=2.0,
                          tae_tmin_rel=0.01, tae_tmax_rel=0.5)
        x = np.linspace(0.0, 1.0, 50)
        sf_spikes, _, _ = code_row(x, cfg, "sf")
        tae_spikes, _, _ = code_row(x, cfg, "tae")
        assert np.count_nonzero(sf_spikes) == 49
        assert np.count_nonzero(tae_spikes) < np.count_nonzero(sf_spikes)

    def test_round_trip_constant_exact(self):
        _, _, est = code_row([0.42] * 7, CodecConfig(), "tae")
        assert est.tolist() == [0.42] * 7

    def test_threshold_stays_within_bounds(self):
        cfg = CodecConfig(threshold_rel=0.1, tae_gamma=3.0,
                          tae_tmin_rel=0.02, tae_tmax_rel=0.3)
        rng = np.random.default_rng(11)
        signals = [rng.uniform(0, 1, size=60) for _ in range(50)]
        for x, (trace, _) in zip(signals, tae_traces(signals, cfg)):
            span = x.max() - x.min()
            lo, hi = 0.02 * span, 0.3 * span
            assert np.all(trace[1:] >= lo - 1e-12)
            assert np.all(trace[1:] <= hi + 1e-12)


class TestRoundTripBounds:
    """Reconstruction error bounds for slow signals (per-step change <= T)."""

    def test_sf_round_trip_bound(self):
        cfg = CodecConfig(threshold_rel=0.05, tae_tmin_rel=0.01, tae_tmax_rel=0.5)
        rng = np.random.default_rng(101)
        signals = [siggen.slow_signal(rng, cfg.threshold_rel) for _ in range(1000)]
        for x, (_, (_, t_abs), est) in zip(signals, code_rows(signals, cfg, "sf")):
            assert np.abs(x - est).max() <= 2 * t_abs + 1e-12

    def test_tae_round_trip_bound(self):
        cfg = CodecConfig(threshold_rel=0.05, tae_gamma=2.0,
                          tae_tmin_rel=0.01, tae_tmax_rel=0.5)
        rng = np.random.default_rng(202)
        signals = [siggen.slow_signal(rng, cfg.threshold_rel) for _ in range(1000)]
        for x, (_, _, est) in zip(signals, code_rows(signals, cfg, "tae")):
            span = x.max() - x.min()
            tmax = (0.5 * span if span > 0 else 0.5)
            assert np.abs(x - est).max() <= 2 * tmax + 1e-12

    def test_constants_reconstruct_exactly_all_codecs(self):
        cfg = CodecConfig()
        for c in [0.0, 0.123, 1.0]:
            x = np.full(20, c)
            for codec in CODEC_IDS:
                _, _, est = code_row(x, cfg, codec)
                assert np.abs(est - c).max() <= 1e-9


class TestTaeReplayConsistency:
    def test_decoder_threshold_sequence_matches_encoder(self):
        cfg = CodecConfig(threshold_rel=0.07, tae_gamma=1.8,
                          tae_tmin_rel=0.02, tae_tmax_rel=0.4)
        rng = np.random.default_rng(303)
        signals = [rng.uniform(0, 1, size=rng.integers(2, 80)) for _ in range(1000)]
        for enc_trace, dec_trace in tae_traces(signals, cfg):
            assert enc_trace.tolist() == dec_trace.tolist()


class TestMatrixEncoding:
    def test_all_silence_features_give_zero_spikes(self):
        f = make_features(np.zeros((8, 30)))
        for codec in CODEC_IDS:
            st = encode_matrix(f, CodecConfig(), codec)
            assert not st.spikes.any()

    def test_dimensions_preserved(self):
        rng = np.random.default_rng(5)
        f = make_features(rng.uniform(0, 1, size=(128, 858)))
        for codec in CODEC_IDS:
            st = encode_matrix(f, CodecConfig(), codec)
            assert st.spikes.shape == (128, 858)
            assert st.side_info.shape == (128, 2)
            assert st.spikes.dtype == np.int8

    def test_entries_are_ternary(self):
        rng = np.random.default_rng(6)
        f = make_features(rng.uniform(0, 1, size=(16, 200)))
        for codec in CODEC_IDS:
            st = encode_matrix(f, CodecConfig(), codec)
            assert set(np.unique(st.spikes)) <= {-1, 0, 1}

    def test_channel_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(0, 1, size=(12, 90))
        perm = rng.permutation(12)
        for codec in CODEC_IDS:
            st = encode_matrix(make_features(values), CodecConfig(), codec)
            st_perm = encode_matrix(make_features(values[perm]), CodecConfig(), codec)
            assert st_perm.spikes.tolist() == st.spikes[perm].tolist()

    def test_matrix_matches_per_channel_calls(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(0, 1, size=(5, 40))
        cfg = CodecConfig()
        st = encode_matrix(make_features(values), cfg, "tae")
        for c in range(5):
            row_spikes, (x0, t0), _ = code_row(values[c], cfg, "tae")
            assert st.spikes[c].tolist() == row_spikes.tolist()
            assert (st.side_info[c, 0], st.side_info[c, 1]) == (x0, t0)

    def test_decode_matrix_matches_per_channel_decode(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(0, 1, size=(4, 50))
        cfg = CodecConfig()
        for codec in CODEC_IDS:
            st = encode_matrix(make_features(values), cfg, codec)
            est = decode_matrix(st)
            assert est.shape == values.shape
            x0, t = st.side_info[2]
            ref = decode_row(st.spikes[2], x0, t, codec, cfg)
            assert est[2].tolist() == ref.tolist()

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300])
    def test_decode_ignores_frame_zero_spike(self, n):
        # The encoders never emit a frame-0 spike, but a decoder handed one
        # must still start at x0, as the oracles do: they skip spikes[0].
        cfg = CodecConfig()
        rng = np.random.default_rng(n)
        spikes = rng.integers(-1, 2, size=(6, n), dtype=np.int8)
        spikes[:, 0] = [1, -1, 1, -1, 1, -1]
        side = np.column_stack([rng.uniform(0, 1, 6), rng.uniform(0.01, 0.1, 6)])
        tae = (cfg.threshold_rel, cfg.tae_gamma, cfg.tae_tmin_rel, cfg.tae_tmax_rel)
        for codec in CODEC_IDS:
            est = decode_matrix(SpikeTrain(spikes, side, codec, cfg))
            assert est[:, 0].tolist() == side[:, 0].tolist(), codec
            for row, (x0, t), e in zip(spikes.tolist(), side.tolist(), est):
                ref = {"sf": lambda: oracles.sf_decode(row, x0, t),
                       "mw": lambda: oracles.mw_decode(row, x0, t, cfg.window),
                       "tae": lambda: oracles.tae_decode(row, x0, t, *tae)[0]}[codec]()
                assert e.tolist() == ref, codec

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 387])
    def test_sf_is_mw_with_one_frame_window_and_tae_held_at_t0(self, n):
        # One recurrence, estimate i = estimate i-1 + spike_i * T0, for SF,
        # for MW with window 1 and for TAE with tmin = T0 = tmax, where
        # T0 * (rel / rel) is T0 exactly and no step moves T.  SF and MW
        # take it as one cumsum, TAE frame by frame; the oracle row by row.
        rng = np.random.default_rng(n)
        spikes = rng.integers(-1, 2, size=(8, n), dtype=np.int8)
        side = np.column_stack([rng.uniform(-1, 1, 8), rng.uniform(0.001, 0.2, 8)])
        cfg = CodecConfig(threshold_rel=0.07, window=1, tae_tmin_rel=0.07, tae_tmax_rel=0.07)
        sf, mw, tae = (decode_matrix(SpikeTrain(spikes, side, codec, cfg)).tobytes()
                       for codec in ("sf", "mw", "tae"))
        ref = np.array([oracles.sf_decode(row, x0, t)
                        for row, (x0, t) in zip(spikes.tolist(), side.tolist())])
        assert sf == mw == tae == ref.tobytes()

    def test_encode_decode_pure_functions(self):
        rng = np.random.default_rng(10)
        f = make_features(rng.uniform(0, 1, size=(6, 70)))
        for codec in CODEC_IDS:
            a = encode_matrix(f, CodecConfig(), codec)
            b = encode_matrix(f, CodecConfig(), codec)
            assert a.spikes.tobytes() == b.spikes.tobytes()
            assert a.side_info.tobytes() == b.side_info.tobytes()
            assert decode_matrix(a).tobytes() == decode_matrix(b).tobytes()

    def test_unknown_codec_rejected(self):
        f = make_features(np.zeros((2, 4)))
        with pytest.raises(ConfigError):
            encode_matrix(f, CodecConfig(), "bsa")

    def test_non_finite_input_rejected(self):
        bad = np.zeros((2, 4))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError):
            encode_matrix(make_features(bad), CodecConfig(), "sf")

    def test_tae_peak_memory_near_sf(self):
        # TAE keeps one threshold row, not a frames x channels trace
        # (3.5 MB of float64 on this block).
        f = make_features(np.random.default_rng(8).uniform(0, 1, (512, 858)))
        peaks = {}
        for codec in ("sf", "tae"):
            tracemalloc.start()
            encode_matrix(f, CodecConfig(), codec)
            peaks[codec] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peaks["tae"] - peaks["sf"] <= 64 * 1024, peaks

    def test_mw_peak_memory_near_sf(self):
        # MW builds its baseline and both comparisons from the channel-major
        # signal one slab of frames at a time, straight into the int8 spikes,
        # with no frame-major copy: it stays under one int8 spike matrix plus
        # four float64 slab buffers, below SF's frames x channels copy.
        f = make_features(np.random.default_rng(8).uniform(0, 1, (512, 858)))
        peaks = {}
        for codec in ("sf", "mw"):
            tracemalloc.start()
            encode_matrix(f, CodecConfig(), codec)
            peaks[codec] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peaks["mw"] <= 512 * 858 + 4 * codec_module._SLAB_FRAMES * 512 * 8, peaks

    def test_decode_peak_memory_near_sf(self):
        # The one decoder works in place on the channel-major estimate for
        # every codec: MW adds one mean row into each column, TAE writes
        # each column from one threshold row.  No slab, no copy of the
        # spikes and no transposed estimate.
        f = make_features(np.random.default_rng(8).uniform(0, 1, (512, 858)))
        cfg = CodecConfig()
        peaks = {}
        for codec in CODEC_IDS:
            st = encode_matrix(f, cfg, codec)
            tracemalloc.start()
            decode_matrix(st)
            peaks[codec] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peaks["mw"] <= peaks["sf"] + 64 * 1024, peaks
        assert peaks["tae"] <= peaks["sf"] + 64 * 1024, peaks


class TestBitExactOutput:
    """Pins the exact bytes of every codec's spikes, side_info and estimate.

    The input is a seeded random walk with a flat row and a level jump, fed
    straight to encode_matrix (no mel front-end), so only the codec
    recurrences decide the bytes.
    """

    @pytest.mark.parametrize("cfg, expected", [
        (CodecConfig(),
         "573895af8da0f92ce02bb8c2470c2f8c0ce148157f9a3739ee9a7f432cffad66"),
        (CodecConfig(threshold_rel=0.1, window=5, tae_gamma=1.5,
                     tae_tmin_rel=0.02, tae_tmax_rel=0.3),
         "301ac37513b848dc43631715dfc5b2869595dce13b465b82476698a9aaca2714"),
        # window >= 8, where numpy's pairwise sum rounds unlike MW's in-turn one
        (CodecConfig(window=12, tae_gamma=1.3),
         "760d7b32ad07ad2b0155ea1ae127b089a82e1b18a7c7d01115f4693019387d87"),
    ])
    def test_output_sha256(self, cfg, expected):
        rng = np.random.default_rng(2024)
        values = np.cumsum(rng.normal(0.0, 0.05, size=(24, 300)), axis=1)
        values[5] = 0.37
        values[11, 150:] += 1.0
        digest = hashlib.sha256()
        for codec in CODEC_IDS:
            st = encode_matrix(make_features(values), cfg, codec)
            for array in (st.spikes, st.side_info, decode_matrix(st)):
                digest.update(array.tobytes())
        assert digest.hexdigest() == expected

    @pytest.mark.parametrize("codec", CODEC_IDS)
    @pytest.mark.parametrize("cfg", [
        CodecConfig(),
        CodecConfig(threshold_rel=0.1, window=5, tae_gamma=1.5,
                    tae_tmin_rel=0.02, tae_tmax_rel=0.3),
        CodecConfig(window=12, tae_gamma=1.3),
    ])
    def test_stacked_clips_match_per_clip(self, cfg, codec):
        # Rows never interact, so encoding a vertical stack of clips must
        # give each clip's own bytes back from its rows.
        rng = np.random.default_rng(2025)
        clips = [np.cumsum(rng.normal(0.0, 0.05, size=(rows, 300)), axis=1)
                 for rows in (24, 7, 16)]
        clips[1][3] = 0.37
        clips[2][11, 150:] += 1.0
        stacked = encode_matrix(make_features(np.vstack(clips)), cfg, codec)
        stacked_est = decode_matrix(stacked)
        start = 0
        for values in clips:
            rows = slice(start, start + len(values))
            start = rows.stop
            st = encode_matrix(make_features(values), cfg, codec)
            assert stacked.spikes[rows].tobytes() == st.spikes.tobytes()
            assert stacked.side_info[rows].tobytes() == st.side_info.tobytes()
            assert stacked_est[rows].tobytes() == decode_matrix(st).tobytes()

    @pytest.mark.parametrize("codec", CODEC_IDS)
    @pytest.mark.parametrize("cfg", [CodecConfig(), CodecConfig(window=12)])
    def test_outputs_c_contiguous(self, cfg, codec):
        # The SF and TAE encoders run frame-major, and reductions downstream
        # sum in layout order, so a transposed view here would change report
        # bytes.
        values = np.cumsum(np.random.default_rng(3).normal(0.0, 0.05, size=(9, 40)), axis=1)
        st = encode_matrix(make_features(values), cfg, codec)
        assert st.spikes.flags.c_contiguous
        assert decode_matrix(st).flags.c_contiguous


class TestConfigValidation:
    def test_threshold_rel_range(self):
        with pytest.raises(ConfigError):
            CodecConfig(threshold_rel=0.0)
        with pytest.raises(ConfigError):
            CodecConfig(threshold_rel=1.5)

    def test_bound_ordering(self):
        with pytest.raises(ConfigError):
            CodecConfig(tae_tmin_rel=0.2, threshold_rel=0.1)
        with pytest.raises(ConfigError):
            CodecConfig(tae_tmax_rel=0.01, threshold_rel=0.1)

    def test_gamma_and_window(self):
        with pytest.raises(ConfigError):
            CodecConfig(tae_gamma=1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                CodecConfig(tae_gamma=bad)
            with pytest.raises(ConfigError):
                CodecConfig(tae_tmax_rel=bad)
        with pytest.raises(ConfigError):
            CodecConfig(window=0)

    def test_fields_must_fit_the_spike_header(self):
        # window is a u32 there and the rest float32: past their range a save
        # would fail, and a value that rounds to 0 would not load back.
        with pytest.raises(ConfigError, match="window"):
            CodecConfig(window=2**32)
        with pytest.raises(ConfigError, match="tae_tmax_rel"):
            CodecConfig(tae_tmax_rel=1e39)
        with pytest.raises(ConfigError, match="threshold_rel"):
            CodecConfig(threshold_rel=1e-50, tae_tmin_rel=1e-50)
        with pytest.raises(ConfigError, match="tae_gamma"):
            CodecConfig(tae_gamma=1.0 + 1e-9)  # rounds to 1.0

    @pytest.mark.parametrize("fields", [
        {"window": 2**32 - 1},
        {"threshold_rel": 1e-45, "tae_tmin_rel": 1e-45},  # float32's least subnormal
        {"tae_tmax_rel": 3.4028235e38},  # float32's largest finite
        {"tae_gamma": 1.0 + 2**-23},  # the float32 just above 1
        {"threshold_rel": 1.0, "tae_tmax_rel": 1.0},
        {"threshold_rel": 0.1, "tae_tmin_rel": 0.1, "tae_gamma": 1.3},
    ])
    def test_every_valid_config_loads_back(self, tmp_path, fields):
        cfg = CodecConfig(**fields)
        stored = {k: float(np.float32(v)) for k, v in asdict(cfg).items() if k != "window"}
        f = make_features(np.random.default_rng(15).uniform(0, 1, size=(3, 20)))
        for codec in CODEC_IDS:
            save_spikes(encode_matrix(f, cfg, codec), tmp_path / "clip.spk")
            loaded = load_spikes(tmp_path / "clip.spk").params
            assert asdict(loaded) == {**stored, "window": cfg.window}


class TestSerialization:
    def test_pack_unpack_round_trip(self):
        rng = np.random.default_rng(12)
        spikes = rng.integers(-1, 2, size=(7, 53)).astype(np.int8)
        packed = pack_spikes(spikes)
        assert len(packed) == spike_payload_bytes(7, 53)
        assert unpack_spikes(packed, 7, 53).tolist() == spikes.tolist()

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        f = make_features(rng.uniform(0, 1, size=(16, 120)))
        for codec in CODEC_IDS:
            st = encode_matrix(f, CodecConfig(), codec)
            dest = tmp_path / f"clip.{codec}.spk"
            save_spikes(st, dest)
            loaded = load_spikes(dest)
            assert loaded.codec_id == codec
            assert loaded.spikes.tolist() == st.spikes.tolist()
            # side info survives the float32 container within rounding
            np.testing.assert_allclose(loaded.side_info, st.side_info, rtol=1e-6)
            assert dest.stat().st_size == serialized_size(st)
            # the sidecar holds only what the container says, nothing to drift
            sidecar = json.loads(dest.with_suffix(".spk.json").read_text())
            assert sidecar == {
                "channels": loaded.n_channels,
                "frames": loaded.n_frames,
                "spike_counts": np.count_nonzero(loaded.spikes, axis=1).tolist(),
            }

    def test_load_rejects_zero_frames(self, tmp_path):
        st = encode_matrix(make_features(np.zeros((2, 3))), CodecConfig(), "sf")
        dest = tmp_path / "clip.spk"
        save_spikes(st, dest)
        whole = dest.read_bytes()
        # frames is the u32 after the magic (5), codec tag (1) and channels (4)
        dest.write_bytes(whole[:10] + bytes(4) + whole[14:])
        with pytest.raises(DataError):
            load_spikes(dest)

    def test_load_rejects_bytes_past_declared_payload(self, tmp_path):
        rng = np.random.default_rng(14)
        st = encode_matrix(make_features(rng.uniform(0, 1, size=(4, 50))),
                           CodecConfig(), "sf")
        dest = tmp_path / "clip.spk"
        save_spikes(st, dest)
        whole = dest.read_bytes()
        # frames 50 -> 10: the rest of the spike payload would be read as
        # side_info and the file would still have bytes left over
        dest.write_bytes(whole[:10] + (10).to_bytes(4, "little") + whole[14:])
        with pytest.raises(DataError, match="longer than its header"):
            load_spikes(dest)
        dest.write_bytes(whole + b"\x00")
        with pytest.raises(DataError, match="longer than its header"):
            load_spikes(dest)
        dest.write_bytes(whole)
        assert load_spikes(dest).spikes.tobytes() == st.spikes.tobytes()

    def test_load_rejects_invalid_code_and_non_finite_side_info(self, tmp_path):
        st = encode_matrix(make_features(np.zeros((2, 3))), CodecConfig(), "sf")
        dest = tmp_path / "clip.spk"
        save_spikes(st, dest)
        whole = dest.read_bytes()
        payload = 5 + 29  # the packed spikes follow magic and header
        # entry 1 of an all-silent train set to the unused code 11
        dest.write_bytes(whole[:payload] + bytes([0b1100]) + whole[payload + 1:])
        with pytest.raises(DataError, match="invalid code 11"):
            load_spikes(dest)
        side = payload + spike_payload_bytes(2, 3)
        for bad in (np.nan, np.inf, -np.inf):
            value = np.array([bad], dtype="<f4").tobytes()
            dest.write_bytes(whole[:side + 4] + value + whole[side + 8:])
            with pytest.raises(DataError, match="non-finite side_info"):
                load_spikes(dest)
        with pytest.raises(DataError, match="invalid code 11"):
            unpack_spikes(bytes([0b11]), 1, 1)

    def test_payload_size_formula(self):
        assert spike_payload_bytes(128, 858) == 27456  # ceil(128*858*2/8)
        assert spike_payload_bytes(1, 1) == 1
        assert spike_payload_bytes(2, 2) == 1
        assert spike_payload_bytes(2, 3) == 2
