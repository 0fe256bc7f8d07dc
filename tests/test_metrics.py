"""Metric identities, band/class aggregation, firing rate, encode cost,
and the report CSVs a bench run writes."""

import re
from pathlib import Path

import numpy as np
import pytest

from spikesound.codec import CodecConfig, SpikeTrain, encode_matrix, serialized_size
from spikesound.frontend import FeatureMatrix, mel_center_frequencies, partition_bands
from spikesound.metrics import (
    band_rows,
    encoder_state_bytes,
    errdb,
    firing_rate,
    score_matrix,
    score_per_band,
    score_per_class,
    snr_db,
    sums_of_squares,
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
        # a whole matrix scored as one band is its errdb, and SNR is -errdb
        rng = np.random.default_rng(60)
        s = rng.normal(size=(3, 7))
        e = errdb(s, s * 0.9)
        assert score_per_band(s, s * 0.9, np.zeros(3, dtype=np.int64)) == {0: e}
        assert snr_db(s, s * 0.9) == -e


class TestScorePerBand:
    def setup_method(self):
        self.centers = mel_center_frequencies(128, 20.0, 20000.0)
        self.bands = partition_bands(self.centers)
        rng = np.random.default_rng(20)
        self.values = rng.uniform(0, 1, size=(128, 40))

    def test_perfect_reconstruction_all_bands(self):
        scores = score_per_band(self.values, self.values.copy(), self.bands)
        assert list(scores) == list(range(8))
        assert all(e == -100.0 for e in scores.values())

    def test_targeted_corruption_isolates_band(self):
        corrupted = self.values.copy()
        idx = np.flatnonzero(self.bands == 3)
        corrupted[idx] += 0.5
        scores = score_per_band(self.values, corrupted, self.bands)
        for b, e in scores.items():
            if b == 3:
                assert e > -100.0
            else:
                assert e == -100.0

    def test_band_sizes_sum_to_128(self):
        est = self.values + np.random.default_rng(21).normal(scale=0.1, size=(128, 40))
        scores = score_per_band(self.values, est, self.bands)
        rows = [np.flatnonzero(self.bands == b) for b in scores]
        assert sum(len(idx) for idx in rows) == 128
        for b, idx in zip(scores, rows):
            assert scores[b] == errdb(self.values[idx], est[idx])

    BANDS = {
        "contiguous": partition_bands(mel_center_frequencies(128, 20.0, 20000.0)),
        "interleaved": np.arange(128) % 5,
        "mixed": np.r_[np.zeros(40, int), np.arange(48) % 3 + 1, np.full(40, 4)],
    }

    @pytest.mark.parametrize("kind", BANDS)
    def test_one_pass_scores_equal_copies(self, kind):
        # Band sums taken as row slices (or index rows) of one squared
        # array equal the sums over each band's fancy-indexed copy, and the
        # scores equal errdb over those copies, bit for bit, for clips that
        # are row slices of a stacked block as run_bench scores them.
        # Fixture-free, so tests/test_mutants.py can run it on a mutant.
        bands = self.BANDS[kind]
        rows = band_rows(bands)
        assert all(isinstance(r, slice) for r in rows.values()) == (kind == "contiguous")
        idx = {b: np.flatnonzero(bands == b) for b in rows}
        rng = np.random.default_rng(22)
        k, n = 3, 203
        block = rng.uniform(-1, 1, size=(k * 128, n))
        est = block + rng.normal(scale=0.1, size=block.shape)
        for values, clip_est in zip(block.reshape(k, 128, n), est.reshape(k, 128, n)):
            signal = sums_of_squares(values, rows)
            assert signal == (np.sum(values ** 2),
                              {b: np.sum(values[i] ** 2) for b, i in idx.items()})
            copies = {b: errdb(values[i], clip_est[i]) for b, i in idx.items()}
            assert score_per_band(values, clip_est, bands) == copies
            assert score_matrix(values, clip_est.copy(), rows, signal) == (
                errdb(values, clip_est), copies)

    def test_empty_band_flagged_absent(self):
        # two channels squeezed into band 0 leave the rest empty
        bands = partition_bands(np.array([50.0, 100.0]))
        scores = score_per_band(np.ones((2, 5)), np.ones((2, 5)), bands)
        assert scores == {0: -100.0}


class TestScorePerClass:
    def test_mean_within_class(self):
        assert score_per_class([("dog", -10.0), ("dog", -20.0)]) == {"dog": -15.0}

    def test_identical_classes_identical_rows(self):
        table = score_per_class([("a", -7.5), ("b", -7.5)])
        assert table["a"] == table["b"] == -7.5

    def test_order_invariance(self):
        rng = np.random.default_rng(30)
        pairs = [(lab, float(rng.uniform(-60, 0)))
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
    """The report files run_bench writes: header, rows sorted by codec then
    key, and every number with six decimals."""

    NUMBER = re.compile(r"-?\d+\.\d{6}")

    def _table(self, small_bench, name, header, labels):
        cfg, result = small_bench
        lines = (Path(cfg.output_dir) / name).read_text().splitlines()
        assert lines[0] == header
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            assert all(self.NUMBER.fullmatch(v) for v in row[labels:]), row
        return rows, result

    def test_per_band_rows_sorted(self, small_bench):
        rows, result = self._table(small_bench, "per_band.csv",
                                   "codec,band,errdb,snr", 2)
        keys = [(codec, int(band)) for codec, band, *_ in rows]
        assert keys == sorted(keys) == [(c, b) for c in ("mw", "sf", "tae")
                                        for b in range(8)]
        assert rows == [[c, str(b), f"{e:.6f}", f"{s:.6f}"]
                        for c, b, e, s in result["per_band.csv"]]

    def test_per_class_rows_sorted(self, small_bench):
        rows, result = self._table(small_bench, "per_class.csv",
                                   "codec,class,errdb", 2)
        keys = [tuple(row[:2]) for row in rows]
        assert keys == sorted(keys) and len(keys) == 3 * 5
        assert rows == [[c, label, f"{e:.6f}"] for c, label, e in result["per_class.csv"]]

    def test_efficiency_schema(self, small_bench):
        rows, result = self._table(
            small_bench, "efficiency.csv",
            "codec,dataset,firing_rate_pct,encode_ms,aux_bytes", 2)
        assert [row[:2] for row in rows] == [[c, "synthetic"] for c in ("mw", "sf", "tae")]
        assert rows == [[c, ds, *(f"{v:.6f}" for v in values)]
                        for c, ds, *values in result["efficiency.csv"]]
