"""Synthetic corpus, bench orchestration, report comparison, and the CLI."""

import json
import re
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spikesound.cli import main
from spikesound.codec import decode_matrix, encode_matrix, serialized_size
from spikesound.errors import ConfigError, DataError
from spikesound.frontend import (
    N_BANDS,
    load_features,
    mel_spectrogram,
    partition_bands,
    save_features,
)
from spikesound.harness import (
    RunConfig,
    SyntheticSpec,
    compare_report,
    generate_synthetic,
    load_corpus,
    load_run_config,
    run_bench,
    run_config_from_dict,
    write_synthetic_corpus,
)
from spikesound.ingest import read_manifest, write_manifest
from spikesound.metrics import (
    encoder_state_bytes,
    firing_rate,
    score_matrix,
    score_per_band,
    score_per_class,
    write_efficiency_csv,
    write_per_band_csv,
    write_per_class_csv,
)

from conftest import small_run_config


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
        for _, _, e, s in result.per_band_rows:
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

    def test_single_codec_selection(self, tmp_path):
        cfg = small_run_config(tmp_path / "solo", seed=11)
        cfg = RunConfig(**{**_as_kwargs(cfg), "codecs": ("tae",)})
        result = run_bench(cfg)
        assert {r[0] for r in result.per_band_rows} == {"tae"}

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
        assert result.classification_rows[-1][2] == "mean"


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


def _clip_by_clip_reports(cfg: RunConfig, out: Path) -> None:
    """The bench reports computed one clip at a time, with encode_ms 0."""
    name, clips = load_corpus(cfg, out)
    clips = list(clips)
    bands = partition_bands(clips[0][1].channel_center_hz)
    band_rows, class_rows, eff_rows = [], [], []
    for codec in sorted(cfg.codecs):
        band_errs = np.zeros(N_BANDS)
        band_counts = np.zeros(N_BANDS, dtype=np.int64)
        class_scores, rates, aux = [], [], []
        for entry, feats in clips:
            st = encode_matrix(feats, cfg.codec_params[codec], codec)
            est = decode_matrix(st)
            class_scores.append((entry.class_label, score_matrix(feats.values, est)))
            for sc in score_per_band(feats, est, bands):
                band_errs[sc.band] += sc.errdb
                band_counts[sc.band] += 1
            rates.append(firing_rate(st))
            aux.append(serialized_size(st) + encoder_state_bytes(st))
        for b in range(N_BANDS):
            mean_err = band_errs[b] / band_counts[b]
            band_rows.append((codec, b, mean_err, -mean_err))
        for label, mean_err in score_per_class(class_scores).items():
            class_rows.append((codec, label, mean_err))
        eff_rows.append((codec, name, float(np.mean(rates)), 0.0, float(np.mean(aux))))
    write_per_band_csv(out / "per_band.csv", band_rows)
    write_per_class_csv(out / "per_class.csv", class_rows)
    write_efficiency_csv(out / "efficiency.csv", eff_rows)


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
        for codec, band, e, _ in result.per_band_rows:
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
        assert main(["reconstruct", str(enc_dir)]) == 0
        scores = (enc_dir / "reconstruct_scores.csv").read_text().splitlines()
        assert scores[0] == "codec,clip,class,errdb,snr"
        assert len(scores) == 6
        errdb_val = float(scores[1].split(",")[3])
        assert -100.0 <= errdb_val < 0.0

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
            # header (.spkf 17 bytes, .spk 34), inside the payload
            for cut in (0, 3, 5, 9, 17, 34, len(whole) // 2, len(whole) - 1):
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
        ("run_summary.json", "{", "["),                          # malformed JSON
        ("run_summary.json", '"dataset": {', '"corpus": {'),     # missing key
    ], ids=["renamed_column", "dropped_column", "non_numeric", "short_row",
            "summary_json", "summary_key"])
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

    @pytest.mark.parametrize("which", ["spikes", "features", "sidecar"])
    def test_reconstruct_missing_file(self, tmp_path, capsys, which):
        enc, index = self._encode_small(tmp_path)
        rel = index[1]["spikes" if which == "spikes" else "features"]
        victim = enc / (rel + ".json" if which == "sidecar" else rel)
        victim.unlink()
        self._assert_reconstruct_data_error(enc, tmp_path, capsys)

    @pytest.mark.parametrize("sidecar", ["{", "[]", '{"frame_rate": 1.0}',
                                         '{"channel_center_hz": [], '
                                         '"norm_state": [], "frame_rate": "x"}'],
                             ids=["json", "list", "missing_keys", "bad_frame_rate"])
    def test_reconstruct_bad_feature_sidecar(self, tmp_path, capsys, sidecar):
        enc, index = self._encode_small(tmp_path)
        (enc / (index[0]["features"] + ".json")).write_text(sidecar)
        self._assert_reconstruct_data_error(enc, tmp_path, capsys)

    @pytest.mark.parametrize("mutate", [
        lambda index: [{k: v for k, v in item.items() if k != "features"}
                       for item in index],
        lambda index: [dict(item, spikes=7) for item in index],
        lambda index: {"items": index},
        lambda index: index + ["clip.wav"],
    ], ids=["no_features", "non_string", "not_a_list", "not_an_object"])
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

    def test_reconstruct_shape_mismatch(self, tmp_path, capsys):
        enc, index = self._encode_small(tmp_path)
        path = enc / index[0]["features"]
        feats = load_features(path)
        save_features(replace(feats, values=feats.values[:, :-1]), path)
        self._assert_reconstruct_data_error(enc, tmp_path, capsys)

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"codecs": ["nope"]}))
        assert main(["bench", "--config", str(bad)]) == 2
        missing = tmp_path / "absent.json"
        assert main(["bench", "--config", str(missing)]) == 2

    def test_data_error_exit_code(self, tmp_path):
        corpus = tmp_path / "corpus"
        manifest = write_synthetic_corpus(
            SyntheticSpec(n_clips=5, duration_s=0.3), 5, corpus)
        sorted(corpus.rglob("*.wav"))[0].write_bytes(b"junk")
        cfg = self._config_file(tmp_path, dataset=str(manifest))
        assert main(["bench", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3

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
