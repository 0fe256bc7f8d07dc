"""Audio loading, duration filtering, cropping, and manifest rules."""

import hashlib
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from spikesound import ingest
from spikesound.errors import DataError
from spikesound.ingest import (
    DatasetRules,
    ManifestEntry,
    Waveform,
    build_manifest,
    center_crop,
    filter_exact_duration,
    fold_class_counts,
    load_audio,
    read_manifest,
    resample,
    wav_duration,
    write_manifest,
)


def write_wav(path, samples, rate, dtype=np.int16):
    samples = np.asarray(samples)
    if dtype == np.int16:
        data = np.round(samples * 32767.0).astype(np.int16)
    elif dtype == np.uint8:
        data = np.round(samples * 127.0 + 128.0).astype(np.uint8)
    elif dtype == np.float32:
        data = samples.astype(np.float32)
    else:
        raise ValueError(dtype)
    wavfile.write(str(path), rate, data)
    return path


def write_wav_24bit(path, values, rate):
    """Hand-built 24-bit PCM WAV; values are raw 24-bit ints."""
    payload = b"".join(struct.pack("<i", v << 8)[1:] for v in values)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 3, 3, 24))
        fh.write(b"data" + struct.pack("<I", len(payload)) + payload)
    return path


class TestLoadAudio:
    def test_stereo_constant_channel_average(self, tmp_path):
        # both channels at 0.5 -> mono constant 0.5 (16384/32768 exactly)
        stereo = np.full((2000, 2), 16384, dtype=np.int16)
        wavfile.write(str(tmp_path / "c.wav"), 8000, stereo)
        w = load_audio(tmp_path / "c.wav", target_rate=8000)
        assert np.all(w.samples == 0.5)
        assert w.sample_rate == 8000

    def test_silence_resamples_to_zeros(self, tmp_path):
        write_wav(tmp_path / "s.wav", np.zeros(48000), 48000)
        w = load_audio(tmp_path / "s.wav", target_rate=44100)
        assert len(w.samples) == 44100
        assert not w.samples.any()

    def test_sine_survives_resampling_fft_peak(self, tmp_path):
        rate = 22050
        t = np.arange(rate) / rate
        write_wav(tmp_path / "t.wav", 0.5 * np.sin(2 * np.pi * 1000 * t), rate)
        w = load_audio(tmp_path / "t.wav", target_rate=44100)
        assert w.sample_rate == 44100
        spec = np.abs(np.fft.rfft(w.samples * np.hanning(len(w.samples))))
        peak_hz = spec.argmax() * 44100 / len(w.samples)
        bin_hz = 44100 / len(w.samples)
        assert abs(peak_hz - 1000.0) <= bin_hz

    def test_24bit_full_scale(self, tmp_path):
        path = write_wav_24bit(tmp_path / "deep.wav", [0, 2**23 - 1, -(2**23), 0], 8000)
        w = load_audio(path, target_rate=8000)
        np.testing.assert_allclose(
            w.samples, [0.0, (2**23 - 1) / 2**23, -1.0, 0.0], atol=1e-6
        )

    def test_float32_passthrough(self, tmp_path):
        x = np.array([0.25, -0.75, 0.5, 0.0])
        write_wav(tmp_path / "f.wav", x, 8000, dtype=np.float32)
        w = load_audio(tmp_path / "f.wav", target_rate=8000)
        np.testing.assert_allclose(w.samples, x, atol=1e-7)

    def test_8bit_unsigned(self, tmp_path):
        write_wav(tmp_path / "b.wav", np.zeros(100), 8000, dtype=np.uint8)
        w = load_audio(tmp_path / "b.wav", target_rate=8000)
        assert np.abs(w.samples).max() <= 1 / 127.0

    def test_deterministic(self, tmp_path):
        rng = np.random.default_rng(1)
        write_wav(tmp_path / "r.wav", rng.uniform(-0.9, 0.9, 22050), 22050)
        a = load_audio(tmp_path / "r.wav")
        b = load_audio(tmp_path / "r.wav")
        assert a.samples.tobytes() == b.samples.tobytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_audio(tmp_path / "nope.wav")

    def test_garbage_file(self, tmp_path):
        (tmp_path / "junk.wav").write_bytes(b"this is not audio")
        with pytest.raises(DataError):
            load_audio(tmp_path / "junk.wav")

    def test_zero_length_audio(self, tmp_path):
        wavfile.write(str(tmp_path / "e.wav"), 8000, np.zeros(0, dtype=np.int16))
        with pytest.raises(DataError):
            load_audio(tmp_path / "e.wav")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("rate", [44100, 22050])
    def test_non_finite_float_samples(self, tmp_path, bad, rate):
        samples = np.zeros(4096)
        samples[100] = bad
        write_wav(tmp_path / "f.wav", samples, rate, dtype=np.float32)
        with pytest.raises(DataError, match="non-finite"):
            load_audio(tmp_path / "f.wav", target_rate=44100)

    def test_duration_matches_invariant(self, tmp_path):
        write_wav(tmp_path / "d.wav", np.zeros(12345), 44100)
        w = load_audio(tmp_path / "d.wav", target_rate=44100)
        assert abs(w.duration_s - len(w.samples) / w.sample_rate) < 1 / 44100


class TestResample:
    @pytest.mark.parametrize("rate,n_out,digest", [
        (22050, 9602, "6412b9d14dac40b5920a9be63f3417cf7526fa8ea1ecf399300cf33e6f57d287"),
        (48000, 4411, "2f8c5f2fe6bcf14a705d853bbca11e8efbdeaceffa656f52cf1a06de5d423528"),
    ])
    def test_cached_filter_keeps_output_bytes(self, rate, n_out, digest):
        # The digests were taken when every call designed its own filter with
        # scipy.signal; the second call reuses the cached, read-only plan.
        x = np.random.default_rng(12).uniform(-0.9, 0.9, 4801)
        before = ingest._polyphase.cache_info()
        for _ in range(2):
            y = resample(x, rate, 44100)
            assert len(y) == n_out
            assert hashlib.sha256(y.tobytes()).hexdigest() == digest
        after = ingest._polyphase.cache_info()
        assert after.misses - before.misses <= 1 <= after.hits - before.hits
        up, down = ingest._resample_factors(rate, 44100)
        assert not ingest._anti_alias_filter(up, down).flags.writeable
        assert not ingest._polyphase(up, down)[0].flags.writeable

    # 44101 Hz is coprime to 44100 Hz: 44100 phases of 65 taps.
    ORACLE_RATES = (8000, 11025, 16000, 22050, 24000, 32000, 48000, 88200, 96000, 44101)

    @pytest.mark.parametrize("rate", ORACLE_RATES)
    def test_matches_resample_poly(self, rate):
        # Bit for bit against scipy.signal's resample_poly and firwin, at
        # short lengths and one period either side of the lengths where
        # resample starts a new block of periods; zeros keep their sign.
        from scipy.signal import firwin, resample_poly

        up, down = ingest._resample_factors(rate, 44100)
        m = max(up, down)
        h = firwin(64 * m + 1, 1.0 / m, window=("kaiser", 8.6))
        assert ingest._anti_alias_filter(up, down).tobytes() == h.tobytes()
        block = ingest._BLOCK_INPUTS
        blocks = (1, 2) if m < 1000 else (1,)  # the coprime rate's 44100 phases are slow
        lengths = [1, 2, 5, 300] + [k * block + d for k in blocks for d in (-down, 0, down)]
        rng = np.random.default_rng(rate)
        try:
            for n in lengths:
                for x in (rng.uniform(-1, 1, n), np.zeros(n)):
                    y, want = resample(x, rate, 44100), resample_poly(x, up, down, window=h)
                    assert y.tobytes() == want.tobytes(), n
                    assert (np.signbit(y) == np.signbit(want)).all(), n
        finally:
            if m > 1000:  # drop the coprime rate's 22 MB of taps
                ingest._polyphase.cache_clear()


class TestCenterCrop:
    def test_ten_second_clip_keeps_central_five(self):
        rate = 1000
        w = Waveform(samples=np.arange(10 * rate, dtype=np.float64), sample_rate=rate)
        out = center_crop(w, 5.0)
        assert len(out.samples) == 5 * rate
        assert out.samples[0] == 2.5 * rate  # starts at the 2.5 s mark
        assert out.samples[-1] == 7.5 * rate - 1

    def test_identity_when_exact_length(self):
        w = Waveform(samples=np.arange(500, dtype=np.float64), sample_rate=100)
        out = center_crop(w, 5.0)
        assert out.samples.tolist() == w.samples.tolist()

    def test_odd_discard_drops_extra_at_end(self):
        # 7 samples at 1 Hz, keep 5 -> indices 1..5
        w = Waveform(samples=np.arange(7, dtype=np.float64), sample_rate=1)
        out = center_crop(w, 5.0)
        assert out.samples.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        w = Waveform(samples=rng.normal(size=977), sample_rate=100)
        once = center_crop(w, 5.0)
        twice = center_crop(once, 5.0)
        assert once.samples.tolist() == twice.samples.tolist()

    def test_too_short_rejected(self):
        w = Waveform(samples=np.zeros(100), sample_rate=100)
        with pytest.raises(DataError):
            center_crop(w, 5.0)


class TestFilterExactDuration:
    def make_entries(self, tmp_path, durations, rate=8000):
        entries = []
        for i, d in enumerate(durations):
            name = f"clip{i}.wav"
            write_wav(tmp_path / name, np.zeros(int(round(d * rate))), rate)
            entries.append(ManifestEntry(path=name, class_label="x"))
        return entries

    def test_keeps_matching_durations_in_order(self, tmp_path):
        entries = self.make_entries(tmp_path, [4.0, 3.2, 4.0])
        kept = filter_exact_duration(entries, 4.0, 0.01, root=tmp_path)
        assert [e.path for e in kept] == ["clip0.wav", "clip2.wav"]

    def test_empty_input(self):
        assert filter_exact_duration([], 4.0, 0.01) == []

    def test_tight_tolerance_rejects_near_misses(self, tmp_path):
        entries = self.make_entries(tmp_path, [3.99, 4.02])
        assert filter_exact_duration(entries, 4.0, 0.005, root=tmp_path) == []

    def test_within_tolerance_is_kept(self, tmp_path):
        entries = self.make_entries(tmp_path, [3.999])
        kept = filter_exact_duration(entries, 4.0, 0.005, root=tmp_path)
        assert [e.path for e in kept] == ["clip0.wav"]

    def test_output_is_subsequence(self, tmp_path):
        entries = self.make_entries(tmp_path, [1.0, 2.0, 1.0, 3.0, 1.0])
        kept = filter_exact_duration(entries, 1.0, 0.001, root=tmp_path)
        it = iter(entries)
        assert all(e in it for e in kept)

    def test_wav_duration_probe(self, tmp_path):
        write_wav(tmp_path / "p.wav", np.zeros(36000), 8000)
        assert wav_duration(tmp_path / "p.wav") == pytest.approx(4.5)

    FMT = b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 16000, 2, 16)
    DATA = b"data" + struct.pack("<I", 4) + bytes(4)
    STEREO = b"fmt " + struct.pack("<IHHIIHH", 16, 1, 2, 8000, 32000, 4, 16)
    ZERO_RATE = (b"WAVE" + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 0, 0, 2, 16)
                 + DATA)
    PCM64 = (b"WAVE" + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 64000, 8, 64)
             + b"data" + struct.pack("<I", 800) + bytes(800))
    EMPTY = b"WAVE" + FMT + b"data" + struct.pack("<I", 0)
    # 1 s of float32 (format tag 3) at 8 kHz, one sample NaN
    NAN = (b"WAVE" + b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, 8000, 32000, 4, 32)
           + b"data" + struct.pack("<I", 32000)
           + np.insert(np.zeros(7999, "<f4"), 4000, np.nan).tobytes())

    @pytest.mark.parametrize("riff, body, message", [
        (b"RIFF", b"WAVX" + FMT + DATA, "cannot read audio file"),
        (b"RIFF", b"WAVE" + b"fmt " + struct.pack("<I", 8) + bytes(8) + DATA,
         "cannot read audio file"),
        (b"RIFF", b"WAVE" + DATA + FMT, "cannot read audio file"),
        (b"RIFF", b"WAVE" + FMT, "no data chunk in "),
        # a stereo data chunk that declares 400 bytes but holds 101 samples
        (b"RIFF", b"WAVE" + STEREO + b"data" + struct.pack("<I", 400)
         + np.arange(101, dtype="<i2").tobytes(), "cannot read audio file"),
        (b"RIFF", ZERO_RATE, "sample rate of 0 Hz in "),
        # 16-bit PCM in big-endian RIFX, which scipy reads as >i2
        (b"RIFX", b"WAVE" + b"fmt " + struct.pack(">IHHIIHH", 16, 1, 1, 8000, 16000, 2, 16)
         + b"data" + struct.pack(">I", 4) + bytes(4), "unsupported WAV sample type >i2 in "),
        (b"RIFF", PCM64, "unsupported WAV sample type <i8 in "),
        # format tag 2, Microsoft ADPCM
        (b"RIFF", b"WAVE" + b"fmt " + struct.pack("<IHHIIHH", 16, 2, 1, 8000, 4000, 1, 4)
         + DATA, "cannot read audio file .*ADPCM"),
        (b"RIFF", EMPTY, "zero-length audio: "),
        (b"RIFF", NAN, "non-finite samples in "),
    ], ids=["not_wave", "short_fmt", "data_first", "no_data", "stereo_partial_frame",
            "zero_rate", "rifx", "pcm64", "adpcm", "zero_length", "float_nan"])
    def test_wav_duration_bad_header_is_data_error(self, riff, body, message):
        # A file load_audio rejects is rejected by wav_duration and by
        # build_manifest's duration filter with the same text, naming the
        # file, and never by another exception.  Fixture-free, so
        # tests/test_mutants.py can run it on a mutant reader.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "a" / "bad.wav"
            path.parent.mkdir()
            size = struct.pack("<I" if riff == b"RIFF" else ">I", len(body))
            path.write_bytes(riff + size + body)
            verdicts = []
            for read in (lambda: wav_duration(path),
                         lambda: build_manifest(tmp, DatasetRules(labels=("a",), duration_s=1.0)),
                         lambda: load_audio(path, target_rate=8000)):
                try:
                    verdicts.append(read())
                except Exception as exc:  # a mutant may raise anything
                    verdicts.append(exc)
            assert all(isinstance(v, DataError) for v in verdicts), verdicts
            assert len({str(v) for v in verdicts}) == 1, verdicts
            assert re.search(message, str(verdicts[0])), verdicts[0]
            assert str(path) in str(verdicts[0])

    SAMPLES = np.arange(100, dtype="<i2").tobytes()  # 0.0125 s at 8 kHz
    # two data chunks, 50 then 100 samples: the last one counts, as in scipy
    TWO_DATA = (FMT + b"data" + struct.pack("<I", 100) + SAMPLES[:100]
                + b"data" + struct.pack("<I", len(SAMPLES)) + SAMPLES)

    @pytest.mark.parametrize("chunks", [
        # a 17-byte fmt chunk, then its pad byte
        b"fmt " + struct.pack("<IHHIIHH", 17, 1, 1, 8000, 16000, 2, 16) + bytes(2)
        + b"data" + struct.pack("<I", len(SAMPLES)) + SAMPLES,
        # a data chunk that declares 400 bytes but holds 200
        FMT + b"data" + struct.pack("<I", 400) + SAMPLES,
        # a data chunk that ends one byte into a frame
        FMT + b"data" + struct.pack("<I", 201) + SAMPLES + bytes(1),
        TWO_DATA,
    ], ids=["odd_fmt", "truncated_data", "partial_frame", "two_data"])
    def test_wav_duration_agrees_with_load_audio(self, chunks):
        # Fixture-free, so tests/test_mutants.py can run it on a mutant walker.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "a" / "clip.wav"
            path.parent.mkdir()
            path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)
            assert load_audio(path, target_rate=8000).duration_s == 0.0125
            assert wav_duration(path) == 0.0125
            rules = DatasetRules(labels=("a",), duration_s=0.0125)
            assert [e.path for e in build_manifest(tmp, rules)] == ["a/clip.wav"]


class TestBuildManifest:
    def populate(self, root, layout):
        for rel in layout:
            p = root / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            write_wav(p, np.zeros(800), 8000)

    def test_excluded_labels_removed(self, tmp_path):
        labels = ["air_conditioner", "car_horn", "children_playing", "dog_bark",
                  "drilling", "engine_idling", "gun_shot", "jackhammer",
                  "siren", "street_music"]
        self.populate(tmp_path, [f"{lab}/{lab}_0.wav" for lab in labels])
        rules = DatasetRules(labels=tuple(labels),
                             exclude=("drilling", "car_horn"))
        entries = build_manifest(tmp_path, rules)
        found = {e.class_label for e in entries}
        assert len(found) == 8
        assert "drilling" not in found and "car_horn" not in found

    def test_empty_directory(self, tmp_path):
        rules = DatasetRules(labels=("a",))
        assert build_manifest(tmp_path, rules) == []

    def test_fold_parsing_matches_filenames(self, tmp_path):
        self.populate(tmp_path, [
            "dog/dog-fold3-001.wav",
            "dog/dog-fold1-002.wav",
            "cat/cat-fold2-001.wav",
        ])
        rules = DatasetRules(labels=("dog", "cat"),
                             fold_pattern=r"-fold(\d+)-")
        entries = build_manifest(tmp_path, rules)
        # lexicographic by relative path
        assert [(e.class_label, e.fold) for e in entries] == [
            ("cat", 2), ("dog", 1), ("dog", 3),
        ]

    def test_undeclared_label_rejected(self, tmp_path):
        self.populate(tmp_path, ["mystery/m.wav"])
        with pytest.raises(DataError):
            build_manifest(tmp_path, DatasetRules(labels=("known",)))

    def test_unparsable_fold_rejected(self, tmp_path):
        self.populate(tmp_path, ["dog/dog-a.wav"])
        rules = DatasetRules(labels=("dog",), fold_pattern=r"-fold(\d+)-")
        with pytest.raises(DataError):
            build_manifest(tmp_path, rules)

    def test_split_pattern(self, tmp_path):
        self.populate(tmp_path, ["a/test/x.wav", "a/train/y.wav"])
        rules = DatasetRules(labels=("test", "train"), label_pattern=r"a/(\w+)/",
                             split_pattern=r"/test/")
        entries = build_manifest(tmp_path, rules)
        assert [(e.path, e.split) for e in entries] == [
            ("a/test/x.wav", "test"), ("a/train/y.wav", "train"),
        ]

    def test_ordering_stable_across_runs(self, tmp_path):
        self.populate(tmp_path, ["b/2.wav", "a/1.wav", "a/3.wav"])
        rules = DatasetRules(labels=("a", "b"))
        first = build_manifest(tmp_path, rules)
        second = build_manifest(tmp_path, rules)
        assert [e.path for e in first] == [e.path for e in second]
        assert [e.path for e in first] == sorted(e.path for e in first)

    def test_duration_rule_applied(self, tmp_path):
        (tmp_path / "a").mkdir()
        write_wav(tmp_path / "a" / "long.wav", np.zeros(16000), 8000)
        write_wav(tmp_path / "a" / "short.wav", np.zeros(8000), 8000)
        rules = DatasetRules(labels=("a",), duration_s=1.0, duration_tol=0.01)
        entries = build_manifest(tmp_path, rules)
        assert [e.path for e in entries] == ["a/short.wav"]

    def test_fold_class_counts(self):
        entries = [
            ManifestEntry("x", "dog", fold=1), ManifestEntry("y", "dog", fold=1),
            ManifestEntry("z", "cat", fold=2),
        ]
        counts = fold_class_counts(entries)
        assert counts[(1, "dog")] == 2
        assert counts[(2, "cat")] == 1


class TestManifestCsv:
    def test_round_trip(self, tmp_path):
        entries = [
            ManifestEntry("a/one.wav", "dog", fold=1, split="train"),
            ManifestEntry("b/two.wav", "cat", fold=None, split="test"),
        ]
        path = tmp_path / "manifest.csv"
        write_manifest(entries, path)
        assert read_manifest(path) == entries

    def test_format_header_and_lf(self, tmp_path):
        path = tmp_path / "m.csv"
        write_manifest([ManifestEntry("x.wav", "dog", fold=3)], path)
        raw = path.read_bytes()
        assert raw.startswith(b"path,class_label,fold,split\n")
        assert b"\r" not in raw
        assert raw.decode("utf-8") == "path,class_label,fold,split\nx.wav,dog,3,train\n"
