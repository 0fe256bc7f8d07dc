"""Front-end: STFT framing, mel filterbank geometry, normalization, bands."""

import math

import numpy as np
import pytest

from spikesound import frontend
from spikesound.errors import DataError
from spikesound.frontend import (
    BAND_EDGES_HZ,
    FrontendConfig,
    load_features,
    mel_center_frequencies,
    mel_filterbank,
    mel_spectrogram,
    normalize_channels,
    partition_bands,
    save_features,
    stft_power,
)
from spikesound.ingest import Waveform


def sine_wave(freq, duration_s=5.0, rate=44100, amp=0.5):
    t = np.arange(int(duration_s * rate)) / rate
    return Waveform(samples=amp * np.sin(2 * np.pi * freq * t), sample_rate=rate,
                    source_path=f"sine{freq}")


class TestStftPower:
    def test_frame_count_five_second_clip(self):
        # 220500 samples, n_fft=1024, hop=256 -> 1 + (220500-1024)//256 = 858
        power = stft_power(sine_wave(440.0))
        assert power.shape == (513, 858)

    def test_frame_count_formula_random_lengths(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(1024, 60000))
            w = Waveform(samples=np.zeros(n), sample_rate=44100)
            frames = stft_power(w).shape[1]
            assert frames == 1 + (n - 1024) // 256

    def test_zero_signal_gives_zero_matrix(self):
        w = Waveform(samples=np.zeros(5000), sample_rate=44100)
        assert not stft_power(w).any()

    def test_4khz_tone_peaks_at_bin_93(self):
        # round(4000 * 1024 / 44100) = 93
        power = stft_power(sine_wave(4000.0, duration_s=1.0))
        assert np.all(power.argmax(axis=0) == 93)

    def test_too_short_clip_rejected(self):
        w = Waveform(samples=np.zeros(1000), sample_rate=44100)
        with pytest.raises(DataError):
            stft_power(w, n_fft=1024)

    def test_non_power_of_two_rejected(self):
        w = Waveform(samples=np.zeros(5000), sample_rate=44100)
        with pytest.raises(ValueError):
            stft_power(w, n_fft=1000)


class TestMelFilterbank:
    def test_shape_and_monotone_centers(self):
        fb = mel_filterbank(128, 20.0, 20000.0, 1024, 44100)
        assert fb.shape == (128, 513)
        centers = mel_center_frequencies(128, 20.0, 20000.0)
        assert np.all(np.diff(centers) > 0)
        assert centers[0] > 20.0 and centers[-1] < 20000.0

    @pytest.mark.parametrize("n_mels,f_min,f_max", [
        (128, 20.0, 20000.0),
        (64, 50.0, 8000.0),
        (256, 20.0, 20000.0),
        (16, 100.0, 2000.0),
    ])
    def test_rows_nonnegative_with_positive_sum(self, n_mels, f_min, f_max):
        fb = mel_filterbank(n_mels, f_min, f_max, 1024, 44100)
        assert np.all(fb >= 0)
        assert np.all(fb.sum(axis=1) > 0)

    def test_two_filter_centers_by_hand_inversion(self):
        # Over [0, Nyquist]: centers at mel m/3 and 2m/3 where m = mel(Nyquist).
        nyquist = 22050.0
        m = 2595.0 * math.log10(1.0 + nyquist / 700.0)
        expected = [700.0 * (10.0 ** (m * k / 3.0 / 2595.0) - 1.0) for k in (1, 2)]
        centers = mel_center_frequencies(2, 0.0, nyquist)
        np.testing.assert_allclose(centers, expected, rtol=1e-12)
        # the filter rows must peak at the FFT bin nearest each center
        fb = mel_filterbank(2, 0.0, nyquist, 1024, 44100)
        bin_hz = np.arange(513) * 44100 / 1024
        for row, c in zip(fb, expected):
            peak_hz = bin_hz[row.argmax()]
            assert abs(peak_hz - c) <= 44100 / 1024

    def test_f_max_above_nyquist_rejected(self):
        with pytest.raises(ValueError):
            mel_filterbank(128, 20.0, 23000.0, 1024, 44100)


class TestMelSpectrogram:
    def test_filterbank_built_once_per_config(self, monkeypatch):
        calls = []
        build = frontend.mel_filterbank
        monkeypatch.setattr(frontend, "mel_filterbank",
                            lambda *args: calls.append(args) or build(*args))
        frontend._mel_basis.cache_clear()
        cfg = FrontendConfig(n_mels=40, f_max=8000.0)
        first = mel_spectrogram(sine_wave(750.0, duration_s=0.1), cfg)
        second = mel_spectrogram(sine_wave(750.0, duration_s=0.1), cfg)
        mel_spectrogram(sine_wave(750.0, duration_s=0.1))
        assert calls == [(40, 20.0, 8000.0, 1024, 44100), (128, 20.0, 20000.0, 1024, 44100)]
        assert first.values.tobytes() == second.values.tobytes()
        assert not frontend._mel_basis(cfg).flags.writeable

    def test_silence_normalizes_to_zeros_with_degenerate_scale(self):
        w = Waveform(samples=np.zeros(44100), sample_rate=44100)
        f = mel_spectrogram(w)
        assert not f.values.any()
        assert np.all(f.norm_state[:, 1] == 0.0)

    def test_1khz_tone_argmax_channel_near_1khz(self):
        # Energy comparisons across channels must use the denormalized
        # values; min-max normalization erases absolute level by design.
        f = mel_spectrogram(sine_wave(1000.0, duration_s=1.0))
        ch = int(f.denormalize().mean(axis=1).argmax())
        centers = f.channel_center_hz
        spacing = (centers[ch + 1] - centers[ch - 1]) / 2 if 0 < ch < 127 else 50.0
        assert abs(centers[ch] - 1000.0) <= spacing

    def test_shape_and_frame_rate(self):
        f = mel_spectrogram(sine_wave(440.0))
        assert f.values.shape == (128, 858)
        assert f.frame_rate == pytest.approx(44100 / 256)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(3)
        w = Waveform(samples=rng.uniform(-0.5, 0.5, size=44100), sample_rate=44100)
        f = mel_spectrogram(w)
        assert f.values.min() >= 0.0
        assert f.values.max() <= 1.0

    def test_deterministic(self):
        w = sine_wave(333.0, duration_s=0.5)
        a = mel_spectrogram(w)
        b = mel_spectrogram(w)
        assert a.values.tobytes() == b.values.tobytes()


class TestNormalization:
    def test_round_trip_non_degenerate(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 50)) * rng.uniform(0.1, 10, size=(6, 1))
        normed, state = normalize_channels(x)
        recon = normed * state[:, 1:] + state[:, :1]
        assert np.abs(recon - x).max() <= 1e-9

    def test_degenerate_channel_round_trip(self):
        x = np.vstack([np.full(10, 3.5), np.linspace(0, 1, 10)])
        normed, state = normalize_channels(x)
        assert not normed[0].any()
        assert state[0, 1] == 0.0
        recon = normed * state[:, 1:] + state[:, :1]
        assert np.abs(recon - x).max() <= 1e-9

    def test_feature_denormalize_method(self):
        f = mel_spectrogram(sine_wave(500.0, duration_s=0.5))
        raw = f.denormalize()
        renorm, _ = normalize_channels(raw)
        assert np.abs(renorm - f.values).max() <= 1e-9


class TestBandPartition:
    def test_trivial_edges(self):
        p = partition_bands(np.array([100.0]))
        assert p.assignment.tolist() == [0]  # 20 <= 100 < 125
        p = partition_bands(np.array([20000.0]))
        assert p.assignment.tolist() == [7]  # closed last edge

    def test_boundary_centers_go_right(self):
        # half-open intervals: an edge value belongs to the upper band
        p = partition_bands(np.array([125.0, 250.0, 8000.0]))
        assert p.assignment.tolist() == [1, 2, 7]

    def test_full_bank_partition_counts(self):
        centers = mel_center_frequencies(128, 20.0, 20000.0)
        p = partition_bands(centers)
        sizes = np.bincount(p.assignment, minlength=8)
        assert sizes.sum() == 128
        assert np.all(np.diff(p.assignment) >= 0)  # monotone in channel index
        for b in range(8):
            chans = p.channels_in_band(b)
            lo, hi = BAND_EDGES_HZ[b], BAND_EDGES_HZ[b + 1]
            assert np.all(centers[chans] >= lo)
            assert np.all(centers[chans] < hi) or (b == 7)

    def test_every_channel_in_exactly_one_band(self):
        centers = mel_center_frequencies(128, 20.0, 20000.0)
        p = partition_bands(centers)
        total = sum(len(p.channels_in_band(b)) for b in range(8))
        assert total == 128

    def test_out_of_range_center_rejected(self):
        with pytest.raises(ValueError):
            partition_bands(np.array([10.0]))
        with pytest.raises(ValueError):
            partition_bands(np.array([25000.0]))


class TestFeatureSerialization:
    def test_round_trip(self, tmp_path):
        f = mel_spectrogram(sine_wave(750.0, duration_s=0.5))
        dest = tmp_path / "clip.spkf"
        save_features(f, dest)
        loaded = load_features(dest)
        assert loaded.values.shape == f.values.shape
        np.testing.assert_allclose(loaded.values, f.values, atol=1e-6)
        np.testing.assert_allclose(loaded.norm_state, f.norm_state)
        np.testing.assert_allclose(loaded.channel_center_hz, f.channel_center_hz)
        assert loaded.frame_rate == pytest.approx(f.frame_rate)

    def test_bad_magic_rejected(self, tmp_path):
        dest = tmp_path / "bad.spkf"
        dest.write_bytes(b"NOPE!" + b"\x00" * 32)
        with pytest.raises(DataError):
            load_features(dest)

    def test_bytes_past_declared_payload_rejected(self, tmp_path):
        f = mel_spectrogram(sine_wave(750.0, duration_s=0.1))
        dest = tmp_path / "clip.spkf"
        save_features(f, dest)
        whole = dest.read_bytes()
        dest.write_bytes(whole + b"\x00")
        with pytest.raises(DataError, match="longer than its header"):
            load_features(dest)
        dest.write_bytes(whole)
        assert load_features(dest).values.shape == f.values.shape
