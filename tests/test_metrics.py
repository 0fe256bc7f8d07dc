"""Metric identities, band/class aggregation, firing rate, encode cost."""

import numpy as np
import pytest

from spikesound.codec import CodecConfig, SpikeTrain, encode_matrix, serialized_size
from spikesound.frontend import FeatureMatrix, mel_center_frequencies, partition_bands
from spikesound.metrics import (
    ReconScore,
    encoder_state_bytes,
    errdb,
    firing_rate,
    score_matrix,
    score_per_band,
    score_per_class,
    snr_db,
    write_efficiency_csv,
    write_per_band_csv,
    write_per_class_csv,
)


def make_features(values, centers=None):
    values = np.asarray(values, dtype=np.float64)
    c = values.shape[0]
    if centers is None:
        centers = np.linspace(100, 15000, c)
    return FeatureMatrix(
        values=values,
        channel_center_hz=np.asarray(centers, dtype=np.float64),
        norm_state=np.column_stack([np.zeros(c), np.ones(c)]),
        frame_rate=172.265625,
    )


class TestSnrAndErrDb:
    def test_perfect_reconstruction_clamps(self):
        s = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert snr_db(s, s) == 100.0
        assert errdb(s, s) == -100.0

    def test_zero_estimate_scores_zero_db(self):
        s = np.array([[3.0, -4.0, 1.0]])
        assert snr_db(s, np.zeros_like(s)) == 0.0

    def test_closed_form_example(self):
        # s=[3,4], s_hat=[3,0]: 10 log10(25/16) = 1.93820026...
        s = np.array([3.0, 4.0])
        s_hat = np.array([3.0, 0.0])
        assert snr_db(s, s_hat) == pytest.approx(1.9382002601611537, abs=1e-12)
        assert errdb(s, s_hat) == pytest.approx(-1.9382002601611537, abs=1e-12)

    def test_errdb_is_exact_negation(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            s = rng.normal(size=(4, 9))
            s_hat = s + rng.normal(scale=rng.uniform(1e-6, 10), size=s.shape)
            assert errdb(s, s_hat) == -snr_db(s, s_hat)
            assert abs(errdb(s, s_hat) + snr_db(s, s_hat)) <= 1e-9

    def test_zero_signal_cases(self):
        z = np.zeros((2, 3))
        assert snr_db(z, z) == 100.0            # zero error
        assert snr_db(z, z + 0.1) == -100.0     # nonzero error, no signal

    def test_clamping_extremes(self):
        s = np.ones((1, 4))
        nearly = s + 1e-9
        assert snr_db(s, nearly) <= 100.0
        assert snr_db(s, s + 1e6) >= -100.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            snr_db(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_score_matrix_identity(self):
        rng = np.random.default_rng(60)
        s = rng.normal(size=(3, 7))
        sc = score_matrix(s, s * 0.9, band=2, class_label="dog")
        assert sc.snr == -sc.errdb
        assert sc.band == 2
        assert sc.class_label == "dog"
        assert (sc.n_channels, sc.n_frames) == (3, 7)


class TestScorePerBand:
    def setup_method(self):
        self.centers = mel_center_frequencies(128, 20.0, 20000.0)
        self.bands = partition_bands(self.centers)
        rng = np.random.default_rng(20)
        self.values = rng.uniform(0, 1, size=(128, 40))
        self.features = make_features(self.values, self.centers)

    def test_perfect_reconstruction_all_bands(self):
        scores = score_per_band(self.features, self.values.copy(), self.bands)
        assert len(scores) == 8
        assert all(sc.errdb == -100.0 for sc in scores)

    def test_targeted_corruption_isolates_band(self):
        corrupted = self.values.copy()
        idx = self.bands.channels_in_band(3)
        corrupted[idx] += 0.5
        scores = score_per_band(self.features, corrupted, self.bands)
        for sc in scores:
            if sc.band == 3:
                assert sc.errdb > -100.0
            else:
                assert sc.errdb == -100.0

    def test_band_sizes_sum_to_128(self):
        scores = score_per_band(self.features, self.values, self.bands)
        assert sum(sc.n_channels for sc in scores) == 128

    def test_empty_band_flagged_absent(self):
        # two channels squeezed into band 0 leave the rest empty
        f = make_features(np.ones((2, 5)), centers=[50.0, 100.0])
        bands = partition_bands(f.channel_center_hz)
        scores = score_per_band(f, np.ones((2, 5)), bands)
        assert scores[0].n_channels == 2
        assert all(sc.absent for sc in scores[1:])


class TestScorePerClass:
    def test_mean_within_class(self):
        scores = [("dog", ReconScore(errdb=-10.0, snr=10.0)),
                  ("dog", ReconScore(errdb=-20.0, snr=20.0))]
        assert score_per_class(scores) == {"dog": -15.0}

    def test_identical_classes_identical_rows(self):
        sc = ReconScore(errdb=-7.5, snr=7.5)
        table = score_per_class([("a", sc), ("b", sc)])
        assert table["a"] == table["b"] == -7.5

    def test_order_invariance(self):
        rng = np.random.default_rng(30)
        pairs = [(lab, ReconScore(errdb=float(rng.uniform(-60, 0)), snr=0.0))
                 for lab in rng.choice(["x", "y", "z"], size=30)]
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        assert score_per_class(pairs) == score_per_class(shuffled)


class TestFiringRate:
    def test_all_zeros(self):
        st = SpikeTrain(spikes=np.zeros((3, 5), dtype=np.int8),
                        side_info=np.zeros((3, 2)), codec_id="sf",
                        params=CodecConfig())
        assert firing_rate(st) == 0.0

    def test_direct_count(self):
        spikes = np.zeros((2, 4), dtype=np.int8)
        spikes[0, 1] = 1
        spikes[1, 0] = -1
        spikes[1, 3] = 1
        st = SpikeTrain(spikes=spikes, side_info=np.zeros((2, 2)),
                        codec_id="sf", params=CodecConfig())
        assert firing_rate(st) == 37.5

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(40)
        spikes = rng.integers(-1, 2, size=(11, 17)).astype(np.int8)
        st = SpikeTrain(spikes=spikes, side_info=np.zeros((11, 2)),
                        codec_id="mw", params=CodecConfig())
        manual = sum(1 for row in spikes for v in row if v != 0)
        assert firing_rate(st) == pytest.approx(100.0 * manual / (11 * 17))

    def test_invariant_under_permutation_and_sign_flip(self):
        rng = np.random.default_rng(41)
        spikes = rng.integers(-1, 2, size=(8, 20)).astype(np.int8)
        st = SpikeTrain(spikes=spikes, side_info=np.zeros((8, 2)),
                        codec_id="sf", params=CodecConfig())
        flipped = SpikeTrain(spikes=(-spikes).astype(np.int8),
                             side_info=np.zeros((8, 2)),
                             codec_id="sf", params=CodecConfig())
        perm = SpikeTrain(spikes=spikes[rng.permutation(8)],
                          side_info=np.zeros((8, 2)),
                          codec_id="sf", params=CodecConfig())
        assert firing_rate(st) == firing_rate(flipped) == firing_rate(perm)

    def test_empty_train_rejected(self):
        st = SpikeTrain(spikes=np.zeros((0, 0), dtype=np.int8),
                        side_info=np.zeros((0, 2)), codec_id="sf",
                        params=CodecConfig())
        with pytest.raises(ValueError):
            firing_rate(st)


class TestMeasureEncodeCost:
    """The aux_bytes of efficiency.csv: serialized size plus encoder state."""

    def test_deterministic_rate_and_size(self):
        rng = np.random.default_rng(50)
        f = make_features(rng.uniform(0, 1, size=(32, 100)))
        a, b = (encode_matrix(f, CodecConfig(), "tae") for _ in range(2))
        assert firing_rate(a) == firing_rate(b)
        assert (serialized_size(a) + encoder_state_bytes(a)
                == serialized_size(b) + encoder_state_bytes(b))

    def test_aux_bytes_dominated_by_packing(self):
        rng = np.random.default_rng(51)
        f = make_features(rng.uniform(0, 1, size=(128, 858)),
                          centers=np.linspace(30, 19000, 128))
        st = encode_matrix(f, CodecConfig(), "sf")
        aux_bytes = serialized_size(st) + encoder_state_bytes(st)
        payload = -(-128 * 858 * 2 // 8)  # ceil(128*858*2/8) = 27456
        side = 128 * 2 * 4
        header = 5 + 29
        state = 128 * 16
        assert aux_bytes == payload + side + header + state
        assert payload / aux_bytes > 0.85  # packing is the dominant term

    def test_mw_state_includes_window_buffer(self):
        rng = np.random.default_rng(52)
        f = make_features(rng.uniform(0, 1, size=(16, 50)))
        cfg = CodecConfig(window=5)
        st = encode_matrix(f, cfg, "mw")
        assert encoder_state_bytes(st) == 16 * (2 * 8 + 5 * 8)


class TestReportCsvs:
    def test_per_band_rows_sorted(self, tmp_path):
        path = tmp_path / "per_band.csv"
        write_per_band_csv(path, [("tae", 1, -5.0, 5.0), ("sf", 0, -3.0, 3.0),
                                  ("sf", 1, -4.0, 4.0)])
        lines = path.read_text().splitlines()
        assert lines[0] == "codec,band,errdb,snr"
        assert [l.split(",")[:2] for l in lines[1:]] == [
            ["sf", "0"], ["sf", "1"], ["tae", "1"]]

    def test_per_class_rows_sorted(self, tmp_path):
        path = tmp_path / "per_class.csv"
        write_per_class_csv(path, [("tae", "dog", -8.0), ("mw", "cat", -2.0)])
        lines = path.read_text().splitlines()
        assert lines[1].startswith("mw,cat")
        assert lines[2].startswith("tae,dog")

    def test_efficiency_schema(self, tmp_path):
        path = tmp_path / "efficiency.csv"
        write_efficiency_csv(path, [("sf", "synthetic", 50.0, 8.5, 30562.0)])
        lines = path.read_text().splitlines()
        assert lines[0] == "codec,dataset,firing_rate_pct,encode_ms,aux_bytes"
        assert lines[1] == "sf,synthetic,50.000000,8.500000,30562.000000"
