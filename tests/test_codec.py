"""Spike codec behavior: hand traces, round-trip bounds, serialization."""

import hashlib

import numpy as np
import pytest

from spikesound.codec import (
    CODEC_IDS,
    CodecConfig,
    SpikeTrain,
    decode_matrix,
    decode_mw,
    decode_sf,
    decode_tae,
    encode_matrix,
    encode_mw,
    encode_sf,
    encode_tae,
    load_spikes,
    pack_spikes,
    save_spikes,
    serialized_size,
    spike_payload_bytes,
    unpack_spikes,
)
from spikesound.errors import ConfigError, DataError
from spikesound.frontend import FeatureMatrix

import siggen


def make_features(values):
    values = np.asarray(values, dtype=np.float64)
    c = values.shape[0]
    return FeatureMatrix(
        values=values,
        channel_center_hz=np.linspace(100, 10000, c),
        norm_state=np.column_stack([np.zeros(c), np.ones(c)]),
        frame_rate=172.265625,
    )


# Range 0.3 with threshold_rel 1/3 gives T ~= 0.1 for the hand traces.
TRACE_CFG = CodecConfig(threshold_rel=1.0 / 3.0, window=2, tae_gamma=2.0,
                        tae_tmin_rel=0.05, tae_tmax_rel=1.0)


class TestStepForward:
    def test_constant_signal_is_silent(self):
        spikes, (x0, t) = encode_sf([0.7, 0.7, 0.7, 0.7], CodecConfig())
        assert spikes.tolist() == [0, 0, 0, 0]
        assert x0 == 0.7
        assert t == CodecConfig().threshold_rel  # flat-channel fallback

    def test_hand_trace_two_up_spikes(self):
        # T = (1/3) * range([0, .25, .3, .1]) ~= 0.1
        spikes, (x0, t) = encode_sf([0.0, 0.25, 0.3, 0.1], TRACE_CFG)
        assert spikes.tolist() == [0, 1, 1, 0]
        assert x0 == 0.0
        assert t == pytest.approx(0.1)
        est = decode_sf(spikes, (x0, t))
        assert est[-1] == pytest.approx(0.2)  # final baseline lags at 2T

    def test_slope_overload_on_steep_ramp(self):
        # Per-step increase of exactly 2T: one spike per frame, baseline
        # lags by T*t.
        cfg = CodecConfig(threshold_rel=0.05, tae_tmin_rel=0.01, tae_tmax_rel=0.5)
        n = 11
        x = np.linspace(0.0, 1.0, n)  # range 1 -> T = 0.05, steps = 0.1 = 2T
        spikes, (x0, t) = encode_sf(x, cfg)
        assert spikes[1:].tolist() == [1] * (n - 1)
        est = decode_sf(spikes, (x0, t))
        np.testing.assert_allclose(x - est, np.arange(n) * t, atol=1e-12)

    def test_decode_trace(self):
        est = decode_sf(np.array([0, 1, 1, 0]), (0.0, 0.1))
        np.testing.assert_allclose(est, [0.0, 0.1, 0.2, 0.2])

    def test_decode_constant(self):
        est = decode_sf(np.zeros(3, dtype=np.int8), (0.4, 0.1))
        assert est.tolist() == [0.4, 0.4, 0.4]


class TestMovingWindow:
    def test_constant_signal_is_silent(self):
        spikes, _ = encode_mw([0.2] * 6, CodecConfig())
        assert spikes.tolist() == [0] * 6

    def test_hand_trace_window_means(self):
        # x = [0, 0, 1, 1], w=2, T ~= 0.1: B[2]=0, B[3]=0.5 -> [0,0,+1,+1]
        cfg = CodecConfig(threshold_rel=0.1, window=2,
                          tae_tmin_rel=0.05, tae_tmax_rel=0.5)
        spikes, (x0, t, w) = encode_mw([0.0, 0.0, 1.0, 1.0], cfg)
        assert spikes.tolist() == [0, 0, 1, 1]
        assert (x0, t, w) == (0.0, 0.1, 2)

    def test_single_sample_signal(self):
        spikes, _ = encode_mw([0.33], CodecConfig())
        assert spikes.tolist() == [0]

    def test_decode_trace_lossier_than_sf(self):
        # Decoding [0,0,+1,+1] with w=2 walks 0, 0, 0.1, 0.15: visibly
        # further from the step input than the SF reconstruction.
        est = decode_mw(np.array([0, 0, 1, 1]), (0.0, 0.1, 2))
        np.testing.assert_allclose(est, [0.0, 0.0, 0.1, 0.15])
        x = np.array([0.0, 0.0, 1.0, 1.0])
        sf_est = decode_sf(np.array([0, 0, 1, 1]), (0.0, 0.1))
        assert np.abs(x - est).sum() > np.abs(x - sf_est).sum()

    def test_decode_all_zero_spikes_holds_constant(self):
        est = decode_mw(np.zeros(5, dtype=np.int8), (0.8, 0.1, 3))
        np.testing.assert_allclose(est, 0.8)

    def test_decode_deterministic(self):
        spikes = np.array([0, 1, -1, 0, 1], dtype=np.int8)
        a = decode_mw(spikes, (0.5, 0.07, 3))
        b = decode_mw(spikes, (0.5, 0.07, 3))
        assert a.tolist() == b.tolist()


class TestThresholdAdaptive:
    def test_constant_signal_threshold_decays_to_floor(self):
        cfg = CodecConfig(threshold_rel=0.1, tae_gamma=2.0,
                          tae_tmin_rel=0.01, tae_tmax_rel=0.5)
        spikes, side, trace = encode_tae([0.5] * 12, cfg, with_trace=True)
        assert spikes.tolist() == [0] * 12
        assert trace[-1] == pytest.approx(0.01)  # flat channel: rel values direct

    def test_hand_trace_adaptive_recurrence(self):
        # x = [0, 0.3, 0.6, 0.6], T0=0.1, gamma=2, Tmax=0.4:
        # spikes [0,+1,+1,0], baseline 0 -> 0.1 -> 0.3 -> 0.3,
        # threshold 0.1 -> 0.2 -> 0.4 -> 0.2.
        cfg = CodecConfig(threshold_rel=1.0 / 6.0, tae_gamma=2.0,
                          tae_tmin_rel=0.01, tae_tmax_rel=4.0 / 6.0)
        x = [0.0, 0.3, 0.6, 0.6]  # range 0.6 -> T0 ~= 0.1, Tmax ~= 0.4
        spikes, (x0, t0), trace = encode_tae(x, cfg, with_trace=True)
        assert spikes.tolist() == [0, 1, 1, 0]
        assert t0 == pytest.approx(0.1)
        np.testing.assert_allclose(trace, [0.1, 0.1, 0.2, 0.4])
        est, dec_trace = decode_tae(spikes, (x0, t0), cfg, with_trace=True)
        np.testing.assert_allclose(est, [0.0, 0.1, 0.3, 0.3])
        assert dec_trace.tolist() == trace.tolist()

    def test_fewer_spikes_than_sf_on_fast_ramp(self):
        # Once the adaptive threshold grows past the per-step increment,
        # TAE stops firing every frame while SF saturates.
        cfg = CodecConfig(threshold_rel=0.02, tae_gamma=2.0,
                          tae_tmin_rel=0.01, tae_tmax_rel=0.5)
        x = np.linspace(0.0, 1.0, 50)
        sf_spikes, _ = encode_sf(x, cfg)
        tae_spikes, _ = encode_tae(x, cfg)
        assert np.count_nonzero(sf_spikes) == 49
        assert np.count_nonzero(tae_spikes) < np.count_nonzero(sf_spikes)

    def test_round_trip_constant_exact(self):
        spikes, side = encode_tae([0.42] * 7, CodecConfig())
        est = decode_tae(spikes, side, CodecConfig())
        assert est.tolist() == [0.42] * 7

    def test_threshold_stays_within_bounds(self):
        cfg = CodecConfig(threshold_rel=0.1, tae_gamma=3.0,
                          tae_tmin_rel=0.02, tae_tmax_rel=0.3)
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.uniform(0, 1, size=60)
            _, (x0, t0), trace = encode_tae(x, cfg, with_trace=True)
            span = x.max() - x.min()
            lo, hi = 0.02 * span, 0.3 * span
            assert np.all(trace[1:] >= lo - 1e-12)
            assert np.all(trace[1:] <= hi + 1e-12)


class TestRoundTripBounds:
    """Reconstruction error bounds for slow signals (per-step change <= T)."""

    def test_sf_round_trip_bound(self):
        cfg = CodecConfig(threshold_rel=0.05, tae_tmin_rel=0.01, tae_tmax_rel=0.5)
        rng = np.random.default_rng(101)
        for _ in range(1000):
            x = siggen.slow_signal(rng, cfg.threshold_rel)
            spikes, side = encode_sf(x, cfg)
            est = decode_sf(spikes, side)
            t_abs = side[1]
            assert np.abs(x - est).max() <= 2 * t_abs + 1e-12

    def test_tae_round_trip_bound(self):
        cfg = CodecConfig(threshold_rel=0.05, tae_gamma=2.0,
                          tae_tmin_rel=0.01, tae_tmax_rel=0.5)
        rng = np.random.default_rng(202)
        for _ in range(1000):
            x = siggen.slow_signal(rng, cfg.threshold_rel)
            spikes, side = encode_tae(x, cfg)
            est = decode_tae(spikes, side, cfg)
            span = x.max() - x.min()
            tmax = (0.5 * span if span > 0 else 0.5)
            assert np.abs(x - est).max() <= 2 * tmax + 1e-12

    def test_constants_reconstruct_exactly_all_codecs(self):
        cfg = CodecConfig()
        for c in [0.0, 0.123, 1.0]:
            x = np.full(20, c)
            s, side = encode_sf(x, cfg)
            assert np.abs(decode_sf(s, side) - c).max() <= 1e-9
            s, side = encode_mw(x, cfg)
            assert np.abs(decode_mw(s, side) - c).max() <= 1e-9
            s, side = encode_tae(x, cfg)
            assert np.abs(decode_tae(s, side, cfg) - c).max() <= 1e-9


class TestTaeReplayConsistency:
    def test_decoder_threshold_sequence_matches_encoder(self):
        cfg = CodecConfig(threshold_rel=0.07, tae_gamma=1.8,
                          tae_tmin_rel=0.02, tae_tmax_rel=0.4)
        rng = np.random.default_rng(303)
        for _ in range(1000):
            x = rng.uniform(0, 1, size=rng.integers(2, 80))
            spikes, side, enc_trace = encode_tae(x, cfg, with_trace=True)
            _, dec_trace = decode_tae(spikes, side, cfg, with_trace=True)
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
            row_spikes, (x0, t0) = encode_tae(values[c], cfg)
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
            row = st.spikes[2]
            x0, t = st.side_info[2]
            if codec == "sf":
                ref = decode_sf(row, (x0, t))
            elif codec == "mw":
                ref = decode_mw(row, (x0, t, cfg.window))
            else:
                ref = decode_tae(row, (x0, t), cfg)
            assert est[2].tolist() == ref.tolist()

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
        with pytest.raises(ConfigError):
            CodecConfig(window=0)


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
            assert dest.with_suffix(".spk.json").exists()
            assert dest.stat().st_size == serialized_size(st)

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

    def test_payload_size_formula(self):
        assert spike_payload_bytes(128, 858) == 27456  # ceil(128*858*2/8)
        assert spike_payload_bytes(1, 1) == 1
        assert spike_payload_bytes(2, 2) == 1
        assert spike_payload_bytes(2, 3) == 2
