"""Synthetic corpus, bench orchestration, report comparison, and the CLI."""

import hashlib
import json
import re
import shutil
import struct
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spikesound.cli import build_parser, main
from spikesound.codec import decode_matrix, encode_matrix, serialized_size
from spikesound.errors import ConfigError, DataError
from spikesound.frontend import load_features, mel_spectrogram, partition_bands, save_features
from spikesound.harness import (
    RunConfig,
    SyntheticSpec,
    _synthetic_clips,
    compare_report,
    generate_synthetic,
    load_corpus,
    load_run_config,
    run_bench,
    run_config_from_dict,
    write_report,
    write_synthetic_corpus,
)
from spikesound.ingest import read_manifest, write_manifest
from spikesound.metrics import (
    encoder_state_bytes,
    errdb,
    firing_rate,
    score_per_band,
    score_per_class,
)

from conftest import small_run_config, write_fold_corpus


class TestGenerateSynthetic:
    def test_counts_and_balance(self):
        waveforms, entries = generate_synthetic(SyntheticSpec(), seed=1)
        assert len(waveforms) == len(entries) == 40
        per_class = {}
        for e in entries:
            per_class[e.class_label] = per_class.get(e.class_label, 0) + 1
        assert set(per_class.values()) == {8}
        assert len(per_class) == 5

    def test_same_seed_byte_identical(self):
        a, _ = generate_synthetic(SyntheticSpec(n_clips=10, duration_s=0.3), seed=9)
        b, _ = generate_synthetic(SyntheticSpec(n_clips=10, duration_s=0.3), seed=9)
        for wa, wb in zip(a, b):
            assert wa.samples.tobytes() == wb.samples.tobytes()

    def test_different_seed_differs(self):
        a, _ = generate_synthetic(SyntheticSpec(n_clips=5, duration_s=0.3), seed=1)
        b, _ = generate_synthetic(SyntheticSpec(n_clips=5, duration_s=0.3), seed=2)
        assert a[0].samples.tobytes() != b[0].samples.tobytes()

    def test_corpus_files_byte_identical(self, tmp_path):
        spec = SyntheticSpec(n_clips=5, duration_s=0.3)
        m1 = write_synthetic_corpus(spec, 4, tmp_path / "one")
        m2 = write_synthetic_corpus(spec, 4, tmp_path / "two")
        assert m1.read_bytes() == m2.read_bytes()
        for p1 in sorted((tmp_path / "one").rglob("*.wav")):
            p2 = tmp_path / "two" / p1.relative_to(tmp_path / "one")
            assert p1.read_bytes() == p2.read_bytes()

    # sha256 of every file write_synthetic_corpus(SyntheticSpec(n_clips=10,
    # duration_s=0.3), 4, ...) writes, taken when the corpus was still built
    # in memory before the first WAV was written
    CORPUS_SHA256 = {
        "am_tone/am_tone_000.wav":
            "89bc84d57ffa8829a160970af9e2065a5d79dd054d46431469ff344542b21780",
        "am_tone/am_tone_001.wav":
            "4cee89e9f2b22349076d73a36e351123c0a3a3531849ae0f2cab3bc8af1bf9c1",
        "band_noise/band_noise_000.wav":
            "7e1c0402741e21323cb683987aadd4861a926ea479b7d4ab42d5bc8ffe3a2be5",
        "band_noise/band_noise_001.wav":
            "3e9f82863b1a80f01679b633db76cb7a60202f5056f8836df95ff7a45a4f6188",
        "chirp/chirp_000.wav":
            "d4ff57e56b4e1d4d7c8353f14ee284efbb1c7b5f9f6a2b1a0530ea6b42b51b6f",
        "chirp/chirp_001.wav":
            "203120581ae41fedb997b54d773ff441288e7526abde7ff487afa028b893dfc0",
        "impulse_train/impulse_train_000.wav":
            "c01371705c9eefc290df3637ffa4af93f56df4ee8ac77d2d2d13076458f895e5",
        "impulse_train/impulse_train_001.wav":
            "69f9e06606e1950ecbd1d23c2297fc29fe0cfc7d62fac55963e9c9e66645bda4",
        "manifest.csv":
            "1dbba6b33c841ccd76cfc3044a1b3dc0de8e4ac21111fd89f2a916d03759f387",
        "tone/tone_000.wav":
            "b8792f12a298b67f3e50aeb04ab974c8d1714e435e5d20367901e66325f143ee",
        "tone/tone_001.wav":
            "77db1ebe2c1483c0b6f7d0a667a05f835760a6352c009febb900ba8205d0f2c4",
    }

    def test_corpus_files_pinned(self, tmp_path):
        manifest = write_synthetic_corpus(SyntheticSpec(n_clips=10, duration_s=0.3), 4,
                                          tmp_path / "corpus")
        files = {p.relative_to(manifest.parent).as_posix():
                 hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in manifest.parent.rglob("*") if p.is_file()}
        assert files == self.CORPUS_SHA256

    def test_lists_equal_clip_stream(self):
        spec = SyntheticSpec(n_clips=7, duration_s=0.2)
        waveforms, entries = generate_synthetic(spec, seed=6)
        assert isinstance(waveforms, list) and isinstance(entries, list)
        stream = list(_synthetic_clips(spec, 6))
        assert entries == [e for _, e in stream]
        for w, (sw, _) in zip(waveforms, stream, strict=True):
            assert (w.sample_rate, w.source_path) == (sw.sample_rate, sw.source_path)
            assert w.samples.tobytes() == sw.samples.tobytes()

    def test_tone_clips_peak_near_tone_frequency(self):
        spec = SyntheticSpec(n_clips=10, classes=("tone",), duration_s=0.5)
        waveforms, entries = generate_synthetic(spec, seed=3)
        for w in waveforms:
            f = mel_spectrogram(w)
            ch = int(f.denormalize().mean(axis=1).argmax())
            # 440 Hz +/- 5 percent detune, one channel of slack
            assert 380.0 <= f.channel_center_hz[ch] <= 500.0

    def test_nearest_centroid_separability(self):
        waveforms, entries = generate_synthetic(SyntheticSpec(), seed=1234)
        feats = [mel_spectrogram(w) for w in waveforms]
        labels = [e.class_label for e in entries]
        classes = sorted(set(labels))
        means = np.stack([f.denormalize().mean(axis=1) for f in feats])
        centroids = {
            c: means[[i for i, l in enumerate(labels) if l == c]].mean(axis=0)
            for c in classes
        }
        for i, label in enumerate(labels):
            pred = min(classes, key=lambda c: np.linalg.norm(means[i] - centroids[c]))
            assert pred == label

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(classes=("tone", "kazoo"))

    def test_duplicate_class_rejected(self):
        # Each class's clips are named after it, so a repeated class would
        # write its clips over the first's and list each file twice.
        with pytest.raises(ConfigError, match="duplicate synthetic classes"):
            SyntheticSpec(n_clips=4, classes=("tone", "tone"))


class TestRunBench:
    def test_report_structure(self, small_bench):
        cfg, result = small_bench
        out = Path(cfg.output_dir)
        band_lines = (out / "per_band.csv").read_text().splitlines()
        assert band_lines[0] == "codec,band,errdb,snr"
        assert len(band_lines) == 1 + 3 * 8  # 3 codecs x 8 bands
        class_lines = (out / "per_class.csv").read_text().splitlines()
        assert len(class_lines) == 1 + 3 * 5  # 3 codecs x 5 classes
        eff_lines = (out / "efficiency.csv").read_text().splitlines()
        assert len(eff_lines) == 1 + 3
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["dataset"]["n_clips"] == 20
        assert summary["seed"] == cfg.seed
        assert summary["config"]["codecs"] == ["mw", "sf", "tae"] or sorted(
            summary["config"]["codecs"]) == ["mw", "sf", "tae"]

    def test_snr_column_is_negated_errdb(self, small_bench):
        cfg, result = small_bench
        for _, _, e, s in result["per_band.csv"]:
            assert s == -e

    def test_rerun_identical_config_byte_identical(self, tmp_path):
        cfg = small_run_config(tmp_path / "rerun", seed=55)
        run_bench(cfg)
        out = Path(cfg.output_dir)
        fixed = ["per_band.csv", "per_class.csv", "run_summary.json"]
        before = {n: (out / n).read_bytes() for n in fixed}
        eff_before = _strip_timing(out / "efficiency.csv")
        run_bench(small_run_config(tmp_path / "rerun", seed=55))
        for n in fixed:
            assert (out / n).read_bytes() == before[n], n
        assert _strip_timing(out / "efficiency.csv") == eff_before

    def test_corrupt_clip_aborts_naming_it(self, tmp_path):
        corpus = tmp_path / "corpus"
        manifest = write_synthetic_corpus(
            SyntheticSpec(n_clips=10, duration_s=0.3), 5, corpus)
        victim = sorted(corpus.rglob("*.wav"))[3]
        victim.write_bytes(b"ruined")
        cfg = RunConfig(dataset=str(manifest), output_dir=str(tmp_path / "out"),
                        seed=5)
        with pytest.raises(DataError) as exc:
            run_bench(cfg)
        assert victim.name in str(exc.value)
        # no partial report files
        assert not list((tmp_path / "out").glob("*.csv"))
        assert not list((tmp_path / "out").glob("*.json"))

    def test_corrupt_clip_in_later_block_aborts_naming_it(self, tmp_path, monkeypatch,
                                                          capsys):
        # Blocks of two clips: the ruined 6th clip is in the third block, read
        # after the first two blocks were encoded by every codec.
        import spikesound.harness as harness

        monkeypatch.setattr(harness, "BLOCK_ENTRIES", 2 * 128 * 48)
        encoded = []

        def counted_encode(f, *args):
            encoded.append(f.n_channels // 128)
            return encode_matrix(f, *args)

        monkeypatch.setattr(harness, "encode_matrix", counted_encode)
        corpus = tmp_path / "corpus"
        manifest = write_synthetic_corpus(
            SyntheticSpec(n_clips=10, duration_s=0.3), 5, corpus)
        victim = corpus / read_manifest(manifest)[5].path
        victim.write_bytes(b"ruined")
        out = tmp_path / "out"
        with pytest.raises(DataError) as exc:
            run_bench(RunConfig(dataset=str(manifest), output_dir=str(out), seed=5))
        assert victim.name in str(exc.value)
        assert encoded == [2] * 6
        assert not list(out.glob("*.csv")) and not list(out.glob("*.json"))

        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dataset": str(manifest)}))
        capsys.readouterr()
        assert main(["bench", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert victim.name in err
        assert not list(out.glob("*.csv")) and not list(out.glob("*.json"))

    def test_single_codec_selection(self, tmp_path):
        cfg = small_run_config(tmp_path / "solo", seed=11)
        cfg = RunConfig(**{**_as_kwargs(cfg), "codecs": ("tae",)})
        result = run_bench(cfg)
        assert {r[0] for r in result["per_band.csv"]} == {"tae"}

    def test_crop_seconds_shortens_frames(self, tmp_path):
        cfg = small_run_config(tmp_path / "crop", seed=12)
        cfg = RunConfig(**{**_as_kwargs(cfg), "crop_seconds": 0.3,
                           "codecs": ("sf",)})
        result = run_bench(cfg)
        summary = json.loads(
            (Path(cfg.output_dir) / "run_summary.json").read_text())
        # 0.3 s at 44.1 kHz -> 13230 samples -> 1 + (13230-1024)//256 frames
        assert summary["dataset"]["n_frames"] == 1 + (13230 - 1024) // 256

    def test_snn_protocol_emits_classification(self, tmp_path):
        from spikesound.snn import SnnConfig

        cfg = small_run_config(tmp_path / "with_snn", seed=31)
        cfg = RunConfig(**{
            **_as_kwargs(cfg),
            "codecs": ("sf",),
            "run_snn": True,
            "snn": SnnConfig(hidden_sizes=(8, 8, 8), epochs=3, batch_size=8,
                             seed=2),
        })
        result = run_bench(cfg)
        out = Path(cfg.output_dir)
        lines = (out / "classification.csv").read_text().splitlines()
        assert lines[0] == "codec,dataset,fold,macro_acc"
        assert lines[1].startswith("sf,synthetic,holdout,")
        assert lines[2].startswith("sf,synthetic,mean,")
        accs = [float(l.rsplit(",", 1)[1]) for l in lines[1:]]
        assert all(0.0 <= a <= 1.0 for a in accs)
        assert result["classification.csv"][-1][2] == "mean"

    def test_fold_path_reports(self, tmp_path):
        from spikesound.snn import SnnConfig

        epochs = 2
        cfg = RunConfig(dataset=str(write_fold_corpus(tmp_path / "corpus")),
                        codecs=("sf", "tae"), run_snn=True,
                        snn=SnnConfig(hidden_sizes=(8, 8, 8), epochs=epochs,
                                      batch_size=8, seed=2),
                        output_dir=str(tmp_path / "out"))
        result = run_bench(cfg)
        out = Path(cfg.output_dir)
        lines = (out / "classification.csv").read_text().splitlines()[1:]
        for codec in ("sf", "tae"):
            cells = [l.split(",") for l in lines if l.startswith(codec + ",")]
            assert [c[2] for c in cells] == ["0", "1", "2", "3", "mean"]
            rows = [r for r in result["classification.csv"] if r[0] == codec]
            accs = [r[3] for r in rows[:-1]]
            assert rows[-1][3] == float(np.mean(accs))
            assert cells[-1][3] == f"{np.mean(accs):.6f}"
            log_lines = (out / f"training_log_{codec}.csv").read_text().splitlines()
            assert len(log_lines) == 1 + 4 * epochs


class TestUnequalLengths:
    def _mixed_manifest(self, tmp_path):
        """10 clips of 0.5 s and 0.3 s with no crop_seconds."""
        corpus = tmp_path / "corpus"
        entries = []
        for tag, dur in (("L", 0.5), ("S", 0.3)):
            manifest = write_synthetic_corpus(
                SyntheticSpec(n_clips=5, duration_s=dur), 9, corpus / tag)
            entries += [replace(e, path=f"{tag}/{e.path}")
                        for e in read_manifest(manifest)]
        write_manifest(entries, corpus / "manifest.csv")
        return corpus / "manifest.csv"

    def test_snn_run_rejected_before_encoding(self, tmp_path, monkeypatch):
        import spikesound.harness as harness

        def no_encode(*args):
            raise AssertionError("encode_matrix called")

        monkeypatch.setattr(harness, "encode_matrix", no_encode)
        cfg = RunConfig(dataset=str(self._mixed_manifest(tmp_path)), run_snn=True,
                        output_dir=str(tmp_path / "out"))
        with pytest.raises(DataError, match="equal-length clips, got 48 to 83 frames"):
            run_bench(cfg)

    def test_train_exits_3(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dataset": str(self._mixed_manifest(tmp_path))}))
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert "equal-length clips" in err
        assert not (tmp_path / "out" / "per_band.csv").exists()


class TestBlockStacking:
    """run_bench encodes equal-length runs of clips in stacked blocks; the
    reports must equal a clip-by-clip computation."""

    # 0.5 s clips have 83 frames, 0.3 s clips 48: runs of 3 long, 1 short,
    # 1 long, 3 short, 1 long and 1 short clip make 6 blocks, or 7 when a
    # block holds at most two long clips
    ORDER = ["L0", "L1", "L2", "S0", "L3", "S1", "S2", "S3", "L4", "S4"]

    @pytest.mark.parametrize("budget, blocks", [(None, 6), (2 * 128 * 83, 7)],
                             ids=["default", "two_long"])
    def test_reports_match_clip_by_clip(self, tmp_path, monkeypatch, budget, blocks):
        import spikesound.harness as harness

        if budget is not None:
            monkeypatch.setattr(harness, "BLOCK_ENTRIES", budget)
        calls = []

        def counted_encode(f, *args):
            calls.append(f.n_channels)
            return encode_matrix(f, *args)

        monkeypatch.setattr(harness, "encode_matrix", counted_encode)
        corpus = tmp_path / "corpus"
        parts = {}
        for tag, dur in (("L", 0.5), ("S", 0.3)):
            manifest = write_synthetic_corpus(
                SyntheticSpec(n_clips=5, duration_s=dur), 8, corpus / tag)
            parts[tag] = [replace(e, path=f"{tag}/{e.path}")
                          for e in read_manifest(manifest)]
        write_manifest([parts[k[0]][int(k[1])] for k in self.ORDER],
                       corpus / "manifest.csv")
        cfg = RunConfig(dataset=str(corpus / "manifest.csv"),
                        output_dir=str(tmp_path / "out"))
        run_bench(cfg)
        assert len(calls) == 3 * blocks and sum(calls) == 3 * 10 * 128
        ref = tmp_path / "ref"
        ref.mkdir()
        _clip_by_clip_reports(cfg, ref)
        out = Path(cfg.output_dir)
        for name in ("per_band.csv", "per_class.csv"):
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name
        assert _strip_timing(out / "efficiency.csv") == _strip_timing(ref / "efficiency.csv")
        # n_frames is the first clip's (83), not the shortest clip's (48)
        dataset = json.loads((out / "run_summary.json").read_text())["dataset"]
        assert (dataset["n_clips"], dataset["n_frames"]) == (10, 83)

    def test_block_freed_before_next_block_is_encoded(self, tmp_path, monkeypatch):
        # Blocks of two 0.3 s clips (48 frames), three per codec: when a block
        # is encoded, no estimate of an earlier block may still be alive.
        import spikesound.harness as harness

        monkeypatch.setattr(harness, "BLOCK_ENTRIES", 2 * 128 * 48)
        estimates, live_at_encode = [], []

        def counted_encode(*args):
            live_at_encode.append(sum(ref() is not None for ref in estimates))
            return encode_matrix(*args)

        def tracked_decode(st):
            est = decode_matrix(st)
            estimates.append(weakref.ref(est))
            return est

        monkeypatch.setattr(harness, "encode_matrix", counted_encode)
        monkeypatch.setattr(harness, "decode_matrix", tracked_decode)
        run_bench(RunConfig(synthetic=SyntheticSpec(n_clips=5, duration_s=0.3),
                            output_dir=str(tmp_path / "out")))
        assert len(estimates) == 9
        assert live_at_encode == [0] * 9

    def test_one_block_alive_at_each_encode(self, tmp_path, monkeypatch):
        # Blocks of two 0.3 s clips (48 frames): five clips make three blocks.
        # Every codec encodes a block before the next is stacked, so when any
        # block is encoded, every earlier block's features are already freed.
        import spikesound.harness as harness

        monkeypatch.setattr(harness, "BLOCK_ENTRIES", 2 * 128 * 48)
        stack_blocks = harness._stack_blocks
        blocks, live_at_encode = [], []

        def recorded_blocks(clips):
            for members, block in stack_blocks(clips):
                blocks.append(weakref.ref(block.values))
                yield members, block

        def counted_encode(*args):
            live_at_encode.append(sum(ref() is not None for ref in blocks))
            return encode_matrix(*args)

        monkeypatch.setattr(harness, "_stack_blocks", recorded_blocks)
        monkeypatch.setattr(harness, "encode_matrix", counted_encode)
        run_bench(RunConfig(synthetic=SyntheticSpec(n_clips=5, duration_s=0.3),
                            output_dir=str(tmp_path / "out")))
        assert len(blocks) == 3
        assert live_at_encode == [1] * 9


def _clip_by_clip_reports(cfg: RunConfig, out: Path) -> None:
    """The bench reports computed one clip at a time, with encode_ms 0."""
    name, clips = load_corpus(cfg, out)
    clips = list(clips)
    bands = partition_bands(clips[0][1].channel_center_hz)
    band_rows, class_rows, eff_rows = [], [], []
    for codec in sorted(cfg.codecs):
        band_errs = np.zeros(8)
        class_scores, rates, aux = [], [], []
        for entry, feats in clips:
            st = encode_matrix(feats, cfg.codec_params[codec], codec)
            est = decode_matrix(st)
            class_scores.append((entry.class_label, errdb(feats.values, est)))
            scores = score_per_band(feats.values, est, bands)
            assert list(scores) == list(range(8))
            band_errs += list(scores.values())
            rates.append(firing_rate(st))
            aux.append(serialized_size(st) + encoder_state_bytes(st))
        for b in range(8):
            mean_err = band_errs[b] / len(clips)
            band_rows.append((codec, b, mean_err, -mean_err))
        for label, mean_err in score_per_class(class_scores).items():
            class_rows.append((codec, label, mean_err))
        eff_rows.append((codec, name, float(np.mean(rates)), 0.0, float(np.mean(aux))))
    write_report(out, "per_band", band_rows)
    write_report(out, "per_class", class_rows)
    write_report(out, "efficiency", eff_rows)


class TestLoadCorpus:
    def test_streams_clip_by_clip(self, tmp_path):
        corpus = tmp_path / "corpus"
        manifest = write_synthetic_corpus(
            SyntheticSpec(n_clips=5, duration_s=0.3), 5, corpus)
        cfg = RunConfig(dataset=str(manifest), output_dir=str(tmp_path / "out"))
        name, clips = load_corpus(cfg, tmp_path / "out")
        assert name == "manifest"
        entries = read_manifest(manifest)
        entry, feats = next(clips)
        assert entry == entries[0]
        assert feats.n_channels == cfg.frontend.n_mels
        # a clip is read only when the stream reaches it
        (corpus / entries[2].path).write_bytes(b"ruined")
        next(clips)
        with pytest.raises(DataError, match=re.escape(entries[2].path)):
            next(clips)

    def test_empty_manifest_rejected(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        write_manifest([], manifest)
        cfg = RunConfig(dataset=str(manifest), output_dir=str(tmp_path / "out"))
        with pytest.raises(DataError, match="empty manifest"):
            load_corpus(cfg, tmp_path / "out")


def _as_kwargs(cfg: RunConfig) -> dict:
    return {
        "dataset": cfg.dataset, "codecs": cfg.codecs, "frontend": cfg.frontend,
        "codec_params": cfg.codec_params, "synthetic": cfg.synthetic,
        "snn": cfg.snn, "run_snn": cfg.run_snn, "crop_seconds": cfg.crop_seconds,
        "seed": cfg.seed, "output_dir": cfg.output_dir,
    }


def _strip_timing(path):
    lines = Path(path).read_text().splitlines()
    return [",".join(c for i, c in enumerate(l.split(",")) if i != 3)
            for l in lines]


class TestCompareReport:
    def test_identical_reports_all_ties(self, small_bench, tmp_path):
        cfg, _ = small_bench
        summary = compare_report(cfg.output_dir, cfg.output_dir)
        assert summary["all_ties"] is True
        relations = summary["cross_report"]["errdb_per_band"].values()
        assert all(v == "tie" for v in relations)

    def test_winner_counts_match_csv_sort(self, small_bench):
        cfg, result = small_bench
        summary = compare_report(cfg.output_dir, cfg.output_dir)
        # hand-sort the in-memory rows: winner per band = lowest errdb
        by_band = {}
        for codec, band, e, _ in result["per_band.csv"]:
            by_band.setdefault(band, []).append((e, codec))
        wins = {}
        for band, entries in by_band.items():
            entries.sort()
            wins[entries[0][1]] = wins.get(entries[0][1], 0) + 1
        assert summary["report_a"]["band_wins"] == wins
        for band, ranked in summary["report_a"]["errdb_ranking_per_band"].items():
            expected = [c for _, c in sorted(by_band[int(band)])]
            assert ranked == expected

    def test_mismatched_corpora_rejected(self, small_bench, tmp_path):
        cfg, _ = small_bench
        other = small_run_config(tmp_path / "other_corpus", seed=999)
        other = RunConfig(**{**_as_kwargs(other),
                             "synthetic": SyntheticSpec(n_clips=15, duration_s=0.5)})
        run_bench(other)
        with pytest.raises(DataError):
            compare_report(cfg.output_dir, other.output_dir)

    def test_missing_report_rejected(self, tmp_path):
        with pytest.raises(DataError):
            compare_report(tmp_path, tmp_path)


class TestRunConfigParsing:
    def test_defaults_round_trip(self):
        cfg = run_config_from_dict({})
        assert cfg.codecs == ("sf", "mw", "tae")
        assert cfg.seed == 1234

    def test_nested_sections(self):
        cfg = run_config_from_dict({
            "codecs": ["tae"],
            "frontend": {"n_fft": 512, "hop": 128},
            "codec_params": {"tae": {"threshold_rel": 0.1}},
            "synthetic": {"n_clips": 10, "duration_s": 1.0},
            "snn": {"epochs": 5, "hidden_sizes": [16, 16, 16]},
            "seed": 7,
        })
        assert cfg.frontend.n_fft == 512
        assert cfg.codec_params["tae"].threshold_rel == 0.1
        assert cfg.snn.epochs == 5
        assert cfg.synthetic.n_clips == 10

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            run_config_from_dict({"dataset": "synthetic", "typo_key": 1})
        with pytest.raises(ConfigError):
            run_config_from_dict({"frontend": {"nfft": 512}})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            run_config_from_dict({"codecs": []})
        with pytest.raises(ConfigError):
            run_config_from_dict({"codecs": ["dct"]})
        with pytest.raises(ConfigError):
            run_config_from_dict({"codecs": ["sf", "sf"]})
        with pytest.raises(ConfigError):
            run_config_from_dict({"codec_params": {"sf": {"threshold_rel": 2.0}}})

    def test_malformed_json_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_run_config(bad)
        with pytest.raises(ConfigError):
            load_run_config(tmp_path / "absent.json")


class TestCli:
    def _config_file(self, tmp_path, **overrides):
        data = {
            "synthetic": {"n_clips": 20, "duration_s": 0.5},
            "seed": 777,
        }
        data.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return path

    def test_synth_writes_corpus(self, tmp_path):
        cfg = self._config_file(tmp_path)
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "corpus")])
        assert rc == 0
        assert (tmp_path / "corpus" / "manifest.csv").exists()
        assert len(list((tmp_path / "corpus").rglob("*.wav"))) == 20

    def test_synth_at_400_hz(self, tmp_path):
        # the 2 ms click of an impulse train is under one sample at 400 Hz
        cfg = self._config_file(tmp_path, synthetic={"n_clips": 5, "sample_rate": 400})
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "corpus")]) == 0
        assert len(list((tmp_path / "corpus").rglob("*.wav"))) == 5

    def test_bench_and_compare_flow(self, tmp_path):
        cfg = self._config_file(tmp_path)
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        rc = main(["compare", str(tmp_path / "a"), str(tmp_path / "b"),
                   "--out", str(tmp_path / "cmp")])
        assert rc == 0
        summary = json.loads((tmp_path / "cmp" / "ordering_summary.json").read_text())
        assert summary["all_ties"] is True

    def test_encode_then_reconstruct(self, tmp_path):
        cfg = self._config_file(tmp_path, codecs=["sf"],
                                synthetic={"n_clips": 5, "duration_s": 0.4})
        enc_dir = tmp_path / "enc"
        assert main(["encode", "--config", str(cfg), "--out", str(enc_dir)]) == 0
        index = json.loads((enc_dir / "encode_index.json").read_text())
        assert len(index) == 5
        assert all((enc_dir / item["spikes"]).exists() for item in index)
        assert all((enc_dir / (item["spikes"] + ".json")).is_file() for item in index)
        # one self-contained .spkf per clip and nothing else under features/
        written = sorted(p.relative_to(enc_dir).as_posix()
                         for p in (enc_dir / "features").rglob("*") if p.is_file())
        assert written == sorted({item["features"] for item in index})
        assert len(written) == 5 and all(w.endswith(".spkf") for w in written)
        assert main(["reconstruct", str(enc_dir)]) == 0
        scores = (enc_dir / "reconstruct_scores.csv").read_text().splitlines()
        assert scores[0] == "codec,clip,class,errdb,snr"
        assert len(scores) == 6
        errdb_val = float(scores[1].split(",")[3])
        assert -100.0 <= errdb_val < 0.0

    def test_reconstruct_loads_each_clip_features_once(self, tmp_path, monkeypatch):
        # encode writes the index clip-major, so a clip's codecs share one .spkf
        import spikesound.cli as cli

        loaded = []
        load = cli.load_features
        monkeypatch.setattr(cli, "load_features", lambda path: loaded.append(path) or load(path))
        cfg = self._config_file(tmp_path, codecs=["sf", "tae"],
                                synthetic={"n_clips": 5, "duration_s": 0.3})
        enc_dir = tmp_path / "enc"
        assert main(["encode", "--config", str(cfg), "--out", str(enc_dir)]) == 0
        assert main(["reconstruct", str(enc_dir)]) == 0
        assert len(loaded) == len(set(loaded)) == 5
        scores = (enc_dir / "reconstruct_scores.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in scores] == ["sf", "tae"] * 5

    def test_train_subcommand(self, tmp_path):
        cfg = self._config_file(
            tmp_path, codecs=["tae"],
            synthetic={"n_clips": 20, "duration_s": 0.4},
            snn={"hidden_sizes": [16, 16, 16], "epochs": 8, "batch_size": 8,
                 "lr": 0.01, "seed": 3},
        )
        out = tmp_path / "train_out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "classification.csv").read_text().splitlines()
        assert lines[0] == "codec,dataset,fold,macro_acc"
        assert any(",mean," in l for l in lines)
        log_lines = (out / "training_log_tae.csv").read_text().splitlines()
        assert log_lines[0] == "epoch,split,loss,macro_acc"
        assert len(log_lines) == 1 + 8  # eight epochs

    def test_train_is_bench_with_snn(self, tmp_path):
        snn = {"hidden_sizes": [8, 8, 8], "epochs": 3, "batch_size": 8, "seed": 2}
        shared = dict(codecs=["sf", "tae"],
                      synthetic={"n_clips": 20, "duration_s": 0.3}, snn=snn)
        cfg = self._config_file(tmp_path, **shared)
        assert main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "train")]) == 0
        cfg = self._config_file(tmp_path, run_snn=True, **shared)
        assert main(["bench", "--config", str(cfg),
                     "--out", str(tmp_path / "bench")]) == 0
        for name in ["classification.csv", "per_band.csv", "per_class.csv",
                     "training_log_sf.csv", "training_log_tae.csv"]:
            assert ((tmp_path / "train" / name).read_bytes()
                    == (tmp_path / "bench" / name).read_bytes()), name
        for codec in ("sf", "tae"):
            lines = (tmp_path / "bench" / f"training_log_{codec}.csv"
                     ).read_text().splitlines()
            assert lines[0] == "epoch,split,loss,macro_acc"
            assert [l.split(",")[:2] for l in lines[1:]] == [
                [str(e), "train"] for e in (1, 2, 3)]

    def test_class_missing_from_a_fold_exits_3_before_training(self, tmp_path, capsys,
                                                               monkeypatch):
        import spikesound.snn as snn

        calls = []
        monkeypatch.setattr(snn, "train", lambda *args: calls.append(args))
        manifest = write_fold_corpus(tmp_path / "corpus")
        entries = read_manifest(manifest)
        # fold 3's only tone clip moves to fold 0
        entries = [replace(e, fold=0) if (e.fold, e.class_label) == (3, "tone") else e
                   for e in entries]
        write_manifest(entries, manifest)
        cfg = self._config_file(tmp_path, dataset=str(manifest), codecs=["sf"],
                                snn={"hidden_sizes": [4, 4, 4], "epochs": 1})
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err == "data error: fold 3: test part has no clips of class 'tone'\n"
        assert calls == []

    def test_encode_bad_clip_names_it(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        manifest = write_synthetic_corpus(
            SyntheticSpec(n_clips=5, duration_s=0.3), 5, corpus)
        victim = read_manifest(manifest)[3].path
        (corpus / victim).write_bytes(b"junk")
        cfg = self._config_file(tmp_path, dataset=str(manifest))
        assert main(["encode", "--config", str(cfg),
                     "--out", str(tmp_path / "enc")]) == 3
        assert victim in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["per_band.csv", "per_class.csv",
                                         "efficiency.csv"])
    def test_compare_missing_report_file(self, small_bench, tmp_path, missing):
        cfg, _ = small_bench
        partial = tmp_path / "partial"
        shutil.copytree(cfg.output_dir, partial)
        (partial / missing).unlink()
        assert main(["compare", cfg.output_dir, str(partial),
                     "--out", str(tmp_path / "cmp")]) == 3

    def test_reconstruct_truncated_containers(self, tmp_path):
        cfg = self._config_file(tmp_path, codecs=["tae"],
                                synthetic={"n_clips": 5, "duration_s": 0.3})
        enc = tmp_path / "enc"
        assert main(["encode", "--config", str(cfg), "--out", str(enc)]) == 0
        item = json.loads((enc / "encode_index.json").read_text())[0]
        for rel in (item["spikes"], item["features"]):
            path = enc / rel
            whole = path.read_bytes()
            # empty, inside the magic, inside or at the end of either
            # header (.spkf 21 bytes, .spk 34), inside the payload
            for cut in (0, 3, 5, 9, 21, 34, len(whole) // 2, len(whole) - 1):
                path.write_bytes(whole[:cut])
                rc = main(["reconstruct", str(enc), "--out", str(tmp_path / "rec")])
                assert rc == 3, (rel, cut)
            path.write_bytes(whole)
        spikes = enc / item["spikes"]
        whole = spikes.read_bytes()
        spikes.write_bytes(whole[:5] + bytes([7]) + whole[6:])  # codec tag
        assert main(["reconstruct", str(enc), "--out", str(tmp_path / "rec")]) == 3
        spikes.write_bytes(whole)
        assert main(["reconstruct", str(enc), "--out", str(tmp_path / "rec")]) == 0

    def test_reconstruct_overlong_containers(self, tmp_path):
        cfg = self._config_file(tmp_path, codecs=["sf"],
                                synthetic={"n_clips": 5, "duration_s": 0.3})
        enc = tmp_path / "enc"
        assert main(["encode", "--config", str(cfg), "--out", str(enc)]) == 0
        item = json.loads((enc / "encode_index.json").read_text())[0]
        for rel in (item["spikes"], item["features"]):
            path = enc / rel
            whole = path.read_bytes()
            path.write_bytes(whole + b"\x00")
            assert main(["reconstruct", str(enc), "--out", str(tmp_path / "rec")]) == 3, rel
            path.write_bytes(whole)
        assert main(["reconstruct", str(enc), "--out", str(tmp_path / "rec")]) == 0

    @staticmethod
    def _edit_text(path, old, new):
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))

    @pytest.mark.parametrize("name, old, new", [
        ("per_band.csv", "codec,band,", "codec,bnd,"),           # renamed column
        ("per_class.csv", "codec,class,errdb\n", "codec,class\n"),  # dropped column
        ("per_class.csv", "\nmw,", "\nmw,abc,abc\nmw,"),        # non-numeric cell
        ("efficiency.csv", "\nsf,", "\nsf\nsf,"),               # short row
        ("per_band.csv", "\nmw,0,", "\nmw,9,0.5,0.5,EXTRA\nmw,0,"),  # long row
        ("per_band.csv", "\nmw,0,", "\nmw,0,nan,nan\nmw,9,"),    # nan ERRdB in band 0
        ("per_band.csv", "\nmw,1,", "\nmw,1,0.5,-0.5\nmw,1,"),   # repeated mw/1 cell
        ("run_summary.json", "{", "["),                          # malformed JSON
        ("run_summary.json", '"dataset": {', '"corpus": {'),     # missing key
    ], ids=["renamed_column", "dropped_column", "non_numeric", "short_row",
            "long_row", "non_finite", "repeated_cell", "summary_json", "summary_key"])
    def test_compare_malformed_report_file(self, small_bench, tmp_path, capsys,
                                           name, old, new):
        cfg, _ = small_bench
        partial = tmp_path / "partial"
        shutil.copytree(cfg.output_dir, partial)
        self._edit_text(partial / name, old, new)
        capsys.readouterr()
        assert main(["compare", cfg.output_dir, str(partial),
                     "--out", str(tmp_path / "cmp")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert name in err

    def _encode_small(self, tmp_path):
        cfg = self._config_file(tmp_path, codecs=["tae"],
                                synthetic={"n_clips": 5, "duration_s": 0.3})
        enc = tmp_path / "enc"
        assert main(["encode", "--config", str(cfg), "--out", str(enc)]) == 0
        return enc, json.loads((enc / "encode_index.json").read_text())

    def _assert_reconstruct_data_error(self, enc, tmp_path, capsys):
        capsys.readouterr()
        assert main(["reconstruct", str(enc), "--out", str(tmp_path / "rec")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1

    @pytest.mark.parametrize("which", ["spikes", "features"])
    def test_reconstruct_missing_file(self, tmp_path, capsys, which):
        enc, index = self._encode_small(tmp_path)
        (enc / index[1][which]).unlink()
        self._assert_reconstruct_data_error(enc, tmp_path, capsys)

    @pytest.mark.parametrize("mutate", [
        lambda index: [{k: v for k, v in item.items() if k != "features"}
                       for item in index],
        lambda index: [dict(item, spikes=7) for item in index],
        lambda index: {"items": index},
        lambda index: index + ["clip.wav"],
        lambda index: [dict(item, codec="sf") for item in index],
    ], ids=["no_features", "non_string", "not_a_list", "not_an_object", "codec_mismatch"])
    def test_reconstruct_malformed_index(self, tmp_path, capsys, mutate):
        enc, index = self._encode_small(tmp_path)
        (enc / "encode_index.json").write_text(json.dumps(mutate(index)))
        self._assert_reconstruct_data_error(enc, tmp_path, capsys)
        (enc / "encode_index.json").write_text("[{")
        self._assert_reconstruct_data_error(enc, tmp_path, capsys)

    def test_reconstruct_bad_spike_header_params(self, tmp_path, capsys):
        enc, index = self._encode_small(tmp_path)
        spikes = enc / index[0]["spikes"]
        whole = spikes.read_bytes()
        # magic (5) + codec tag (1) + channels, frames, threshold_rel (4 each)
        spikes.write_bytes(whole[:18] + bytes(4) + whole[22:])  # window 0
        self._assert_reconstruct_data_error(enc, tmp_path, capsys)

    @pytest.mark.parametrize("which", ["side_info", "features"])
    def test_reconstruct_non_finite_container(self, tmp_path, capsys, which):
        enc, index = self._encode_small(tmp_path)
        if which == "side_info":
            path = enc / index[2]["spikes"]
            offset = len(path.read_bytes()) - 4  # threshold of the last channel
        else:
            path = enc / index[2]["features"]
            offset = 5 + 16 + 4 * 40  # one value in the first channel
        whole = path.read_bytes()
        path.write_bytes(whole[:offset] + np.array([np.nan], "<f4").tobytes()
                         + whole[offset + 4:])
        self._assert_reconstruct_data_error(enc, tmp_path, capsys)
        assert not (tmp_path / "rec" / "reconstruct_scores.csv").exists()

    def test_reconstruct_shape_mismatch(self, tmp_path, capsys):
        enc, index = self._encode_small(tmp_path)
        path = enc / index[0]["features"]
        feats = load_features(path)
        save_features(replace(feats, values=feats.values[:, :-1]), path)
        self._assert_reconstruct_data_error(enc, tmp_path, capsys)

    # Bad input: a manifest row or encoding or a clip's WAV header (exit 3,
    # run through every subcommand that reads a manifest) or a config value
    # of the wrong JSON type or out of range (exit 2, through every
    # subcommand that reads a config).  Each is (manifest bytes edit, config
    # edit); a ("wav", offset, bytes) edit rewrites the first clip's header.
    MUTATIONS = {
        # 2 GHz: the 44.1 kHz filter would need 1.28e9 taps (9.5 GiB).
        "wav_rate_2ghz": (("wav", 24, struct.pack("<II", 2_000_000_000, 4_000_000_000)), {}),
        # 1 Hz: factor 44100 passes, but the 0.3 s clip would upsample to
        # 583e6 samples (4.7 GB of float64).
        "wav_rate_1hz": (("wav", 24, struct.pack("<II", 1, 2)), {}),
        "fold_not_int": ((b",,train", b",x,train"), {}),
        "fold_negative": ((b",,train", b",-1,train"), {}),
        "split_dev": ((b",,train", b",,dev"), {}),
        "short_row": ((b",,train", b""), {}),
        "not_utf8": ((b"chirp/", b"chirp\xff/"), {}),
        "path_absolute": ((b"chirp/", b"/chirp/"), {}),
        "path_parent": ((b"chirp/", b"../chirp/"), {}),
        "seed_str": (None, {"seed": "x"}),
        "seed_bool": (None, {"seed": True}),
        "seed_negative": (None, {"seed": -3}),
        "dataset_int": (None, {"dataset": 5}),
        "run_snn_str": (None, {"run_snn": "yes"}),
        "crop_str": (None, {"crop_seconds": "a"}),
        "crop_bool": (None, {"crop_seconds": True}),
        "crop_zero": (None, {"crop_seconds": 0}),
        "crop_negative": (None, {"crop_seconds": -1}),
        "crop_infinite": (None, {"crop_seconds": float("inf")}),
        "n_fft_str": (None, {"frontend": {"n_fft": "a"}}),
        "n_fft_float": (None, {"frontend": {"n_fft": 1024.0}}),
        "n_fft_not_pow2": (None, {"frontend": {"n_fft": 1000}}),
        "hop_zero": (None, {"frontend": {"hop": 0}}),
        "n_mels_one": (None, {"frontend": {"n_mels": 1}}),
        "rate_below_f_max": (None, {"frontend": {"sample_rate": 8000}}),
        "f_min_below_bands": (None, {"frontend": {"f_min": 0.0}}),
        "f_max_above_bands": (None, {"frontend": {"f_max": 22050.0}}),
        "window_unknown": (None, {"frontend": {"window": "nope"}}),
        "mw_window_float": (None, {"codec_params": {"mw": {"window": 1.5}}}),
        "codec_params_unknown": (None, {"codec_params": {"taee": {"threshold_rel": 0.2}}}),
        "snn_lr_str": (None, {"snn": {"lr": "x"}}),
        "snn_batch_float": (None, {"snn": {"batch_size": 2.5}}),
        "snn_batch_zero": (None, {"snn": {"batch_size": 0}}),
        "snn_hidden_float": (None, {"snn": {"hidden_sizes": [1.5, 4, 4]}}),
        "snn_lr_zero": (None, {"snn": {"lr": 0}}),
        "snn_lr_negative": (None, {"snn": {"lr": -0.5}}),
        "snn_lr_nan": (None, {"snn": {"lr": float("nan")}}),
        "snn_slope_zero": (None, {"snn": {"surrogate_slope": 0}}),
        "snn_theta_inf": (None, {"snn": {"theta": float("inf")}}),
        "snn_beta_above_one": (None, {"snn": {"beta": 1.5}}),
        "snn_hidden_zero": (None, {"snn": {"hidden_sizes": [8, 0, 8]}}),
        "snn_key_unknown": (None, {"snn": {"dropout": 0.5}}),
        "snn_seed_negative": (None, {"snn": {"seed": -3}}),
        "synth_rate_zero": (None, {"synthetic": {"sample_rate": 0}}),
        "synth_duration_negative": (None, {"synthetic": {"duration_s": -1}}),
        "synth_duration_nan": (None, {"synthetic": {"duration_s": float("nan")}}),
        "synth_classes_empty": (None, {"synthetic": {"classes": []}}),
        "synth_classes_repeated": (None, {"synthetic": {"classes": ["tone", "tone"]}}),
        "synth_no_samples": (None, {"synthetic": {"duration_s": 0.00001}}),
        "synth_one_sample": (None, {"synthetic": {"duration_s": 0.00003}}),
        # Each would ask for gigabytes before any input is read: a 16 GiB
        # window, a 7.6 GiB filterbank, 33 GiB of synthetic samples.
        "n_fft_huge": (None, {"frontend": {"n_fft": 2**31}}),
        "n_mels_huge": (None, {"frontend": {"n_mels": 2_000_000}}),
        "synth_duration_huge": (None, {"synthetic": {"duration_s": 1e5}}),
        # 1.28e12 weights in the first layer: 7.28 TiB.
        "snn_layer_huge": (None, {"snn": {"hidden_sizes": [10_000_000_000]}}),
        # 128 x 40,000 weights fit; the 512 x 40,000 that 512 mels feed do not.
        "snn_layer_huge_for_mels": (None, {"frontend": {"n_fft": 2048, "n_mels": 512},
                                           "snn": {"hidden_sizes": [40_000]}}),
        # Past what the .spk header stores (a u32 window, float32 thresholds):
        # encode would die packing it, or write a file that does not load.
        "mw_window_past_u32": (None, {"codec_params": {"mw": {"window": 2**32}}}),
        "tae_tmax_past_float32": (None, {"codec_params": {"tae": {"tae_tmax_rel": 1e39}}}),
        "tae_threshold_float32_zero": (None, {"codec_params": {"tae": {
            "threshold_rel": 1e-50, "tae_tmin_rel": 1e-50}}}),
    }

    @pytest.mark.parametrize("command, mutation", [
        (c, m) for m, (edit, _) in MUTATIONS.items()
        for c in (("bench", "encode", "train") if edit
                  else ("bench", "encode", "synth", "train"))])
    def test_bad_input_exits_with_one_line(self, tmp_path, capsys, command, mutation):
        edit, config = self.MUTATIONS[mutation]
        manifest = write_synthetic_corpus(
            SyntheticSpec(n_clips=5, duration_s=0.3), 5, tmp_path / "corpus")
        named = manifest
        if edit and edit[0] == "wav":
            _, offset, header = edit
            named = manifest.parent / read_manifest(manifest)[0].path
            wav = named.read_bytes()
            named.write_bytes(wav[:offset] + header + wav[offset + len(header):])
        elif edit:
            lines = manifest.read_bytes().split(b"\n")
            lines[2] = lines[2].replace(*edit)  # the second clip's row
            manifest.write_bytes(b"\n".join(lines))
        path = self._config_file(tmp_path, **{"dataset": str(manifest), **config})
        out = tmp_path / "out"
        capsys.readouterr()
        rc = main([command, "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == (3 if edit else 2), err
        assert err.count("\n") == 1 and "Traceback" not in err, err
        assert err.startswith("data error:" if edit else "config error:"), err
        if edit:
            assert str(named) in err
        assert not out.exists() or not [p for p in out.rglob("*") if p.is_file()]

    @pytest.mark.parametrize("command", ["synth", "encode", "bench", "train"])
    def test_negative_seed_flag_exits_2_before_writing(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, "--seed", "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: seed must be >= 0, got -1\n", err
        assert not out.exists()

    # The flags each subcommand reads; argparse rejects any other (exit 2).
    FLAGS = {
        "synth": ("--config", "--seed", "--out"),
        "encode": ("--config", "--seed", "--codec", "--out"),
        "reconstruct": ("--codec", "--out"),
        "bench": ("--config", "--seed", "--codec", "--out"),
        "train": ("--config", "--seed", "--codec", "--out"),
        "compare": ("--out",),
    }

    @pytest.mark.parametrize("flag, value", [
        ("--config", "c.json"), ("--seed", "1"), ("--codec", "sf"), ("--out", "o")])
    @pytest.mark.parametrize("command", FLAGS)
    def test_subcommand_takes_only_the_flags_it_reads(self, capsys, command, flag, value):
        positionals = {"reconstruct": ["enc"], "compare": ["a", "b"]}.get(command, [])
        argv = [command, *positionals, flag, value]
        if flag in self.FLAGS[command]:
            assert str(getattr(build_parser().parse_args(argv), flag[2:])) == value
        else:
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"codecs": ["nope"]}))
        assert main(["bench", "--config", str(bad)]) == 2
        missing = tmp_path / "absent.json"
        assert main(["bench", "--config", str(missing)]) == 2

    @pytest.mark.parametrize("data", [
        {"frontend": 5}, {"synthetic": {"classes": 5}}, {"codec_params": {"sf": 3}},
        {"codecs": 5}, {"codec_params": 5}, {"snn": {"hidden_sizes": 3}}, {"snn": []},
    ])
    def test_wrong_section_type_exits_2(self, tmp_path, capsys, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["bench", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("under", [False, True], ids=["is_file", "under_file"])
    @pytest.mark.parametrize("command", ["synth", "encode", "reconstruct", "bench",
                                         "train", "compare"])
    def test_out_at_regular_file_exits_3(self, small_bench, tmp_path, capsys,
                                         command, under):
        afile = tmp_path / "afile"
        afile.write_text("not a directory")
        cfg = self._config_file(tmp_path, codecs=["sf"],
                                synthetic={"n_clips": 5, "duration_s": 0.3})
        if command == "reconstruct":
            enc = tmp_path / "enc"
            assert main(["encode", "--config", str(cfg), "--out", str(enc)]) == 0
            argv = ["reconstruct", str(enc)]
        elif command == "compare":
            report = small_bench[0].output_dir
            argv = ["compare", report, report]
        else:
            argv = [command, "--config", str(cfg)]
        capsys.readouterr()
        assert main([*argv, "--out", str(afile / "x" if under else afile)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert "afile" in err

    @pytest.mark.parametrize("command, victim", [
        ("bench", "corpus/tone/tone_000.wav"),
        ("bench", "per_band.csv"),
        ("bench", "per_class.csv"),
        ("bench", "efficiency.csv"),
        ("bench", "run_summary.json"),
        ("train", "corpus/tone/tone_000.wav"),
        ("train", "classification.csv"),
        ("train", "training_log_sf.csv"),
        ("encode", "corpus/tone/tone_000.wav"),
        ("encode", "corpus/manifest.csv"),
        ("encode", "features/tone/tone_000.spkf"),
        ("encode", "spikes/tone/tone_000.sf.spk.json"),
        ("encode", "encode_index.json"),
        ("reconstruct", "reconstruct_scores.csv"),
        ("compare", "ordering_summary.json"),
    ])
    def test_unwritable_output_file_exits_3(self, small_bench, tmp_path, capsys,
                                            command, victim):
        # The output file is a directory: one line naming it, exit 3, and
        # no report written before it is left behind.
        cfg = self._config_file(
            tmp_path, codecs=["sf"], synthetic={"n_clips": 20, "duration_s": 0.3},
            snn={"hidden_sizes": [4, 4, 4], "epochs": 1, "batch_size": 8})
        out = tmp_path / "out"
        if command == "reconstruct":
            assert main(["encode", "--config", str(cfg), "--out", str(out)]) == 0
            argv = ["reconstruct", str(out)]
        elif command == "compare":
            report = small_bench[0].output_dir
            argv = ["compare", report, report, "--out", str(out)]
        else:
            argv = [command, "--config", str(cfg), "--out", str(out)]
        (out / victim).mkdir(parents=True)
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: cannot write") and err.count("\n") == 1
        assert victim.split("/")[-1] in err
        if command in ("bench", "train"):
            assert [p.name for p in out.iterdir() if p.is_file()] == []

    def test_data_error_exit_code(self, tmp_path):
        corpus = tmp_path / "corpus"
        manifest = write_synthetic_corpus(
            SyntheticSpec(n_clips=5, duration_s=0.3), 5, corpus)
        sorted(corpus.rglob("*.wav"))[0].write_bytes(b"junk")
        cfg = self._config_file(tmp_path, dataset=str(manifest))
        assert main(["bench", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3

    def test_zero_rate_wav_exits_3_naming_it(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        manifest = write_synthetic_corpus(
            SyntheticSpec(n_clips=5, duration_s=0.3), 5, corpus)
        victim = sorted(corpus.rglob("*.wav"))[0]
        wav = victim.read_bytes()
        victim.write_bytes(wav[:24] + bytes(8) + wav[32:])  # sample rate, byte rate
        cfg = self._config_file(tmp_path, dataset=str(manifest))
        capsys.readouterr()
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert repr(victim.relative_to(corpus).as_posix()) in err

    def test_numeric_error_exit_code(self, monkeypatch):
        import spikesound.cli as cli
        from spikesound.errors import NumericError

        def blow_up(args):
            raise NumericError("loss went NaN")

        monkeypatch.setitem(cli._COMMANDS, "bench", blow_up)
        assert main(["bench"]) == 4

    def test_codec_flag_restricts_run(self, tmp_path):
        cfg = self._config_file(tmp_path, synthetic={"n_clips": 5, "duration_s": 0.4})
        out = tmp_path / "solo"
        assert main(["bench", "--config", str(cfg), "--codec", "mw",
                     "--out", str(out)]) == 0
        lines = (out / "per_band.csv").read_text().splitlines()[1:]
        assert {l.split(",")[0] for l in lines} == {"mw"}
