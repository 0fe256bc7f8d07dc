"""The shared container rules, and corruption of .spk, .spkf and CSV files.

Every prefix of a container and one byte past its end must raise DataError;
flipping any byte must either load or raise DataError, never another
exception; and `spikesound reconstruct` on a damaged spike or feature file
must exit 0 or 3.  A manifest or report CSV cut at any length or with any
bit flipped must load or raise DataError or ConfigError.
"""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest

from spikesound.cli import main
from spikesound.codec import CODEC_IDS, CodecConfig, encode_matrix, load_spikes, save_spikes
from spikesound.container import (
    read_container,
    read_csv,
    read_json,
    write_container,
    write_csv,
    write_json,
)
from spikesound.errors import ConfigError, DataError
from spikesound.frontend import FeatureMatrix, load_features, save_features
from spikesound.harness import _read_table, write_report
from spikesound.ingest import ManifestEntry, read_manifest, write_manifest

HEADER = struct.Struct("<HI")


def _pair_layout(fields, take):
    n_a, n_b = fields
    return take(n_a), take(n_b)


class TestContainer:
    def test_round_trip_and_layout(self, tmp_path):
        path = tmp_path / "x.bin"
        write_container(path, b"MAG", HEADER, (2, 3), [b"ab", b"cde"])
        assert path.read_bytes() == b"MAG" + HEADER.pack(2, 3) + b"abcde"
        assert read_container(path, b"MAG", HEADER, "test file",
                              _pair_layout) == (b"ab", b"cde")

    @pytest.mark.parametrize("data, message", [
        (b"MAX" + HEADER.pack(2, 3) + b"abcde", "bad magic"),
        (b"MAG" + HEADER.pack(2, 3)[:-1], "truncated header"),
        (b"MAG" + HEADER.pack(2, 3) + b"abcd", "truncated payload"),
        (b"MAG" + HEADER.pack(2, 3) + b"abcdef", "longer than its header"),
    ], ids=["magic", "header", "payload", "trailing"])
    def test_rejects_malformed(self, tmp_path, data, message):
        path = tmp_path / "x.bin"
        path.write_bytes(data)
        with pytest.raises(DataError, match=message) as info:
            read_container(path, b"MAG", HEADER, "test file", _pair_layout)
        assert str(path) in str(info.value)

    def test_layout_errors_become_data_errors(self, tmp_path):
        path = tmp_path / "x.bin"
        write_container(path, b"MAG", HEADER, (0, 0), [])

        def bad_field(fields, take):
            raise ValueError("bad width")

        with pytest.raises(DataError, match="bad width"):
            read_container(path, b"MAG", HEADER, "test file", bad_field)
        with pytest.raises(DataError, match="cannot read"):
            read_container(tmp_path / "absent", b"MAG", HEADER, "test file",
                           _pair_layout)

    def test_json_format(self, tmp_path):
        path = tmp_path / "x.json"
        write_json(path, {"b": [1.5], "a": "x"})
        assert path.read_text() == '{\n  "a": "x",\n  "b": [\n    1.5\n  ]\n}\n'
        assert read_json(path, "test") == {"a": "x", "b": [1.5]}
        path.write_text("{")
        with pytest.raises(DataError, match="x.json"):
            read_json(path, "test")
        with pytest.raises(DataError):
            read_json(tmp_path / "absent.json", "test")

    def test_csv_format(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ["a", "b"], [["x,y", 1], ["", 2.5]])
        assert path.read_bytes() == b'a,b\n"x,y",1\n,2.5\n'

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ["a", "b"], [["x,y", 1], ["", 2.5]])
        assert read_csv(path, "test file", ["a", "b"], lambda a, b: (a, float(b))) == [
            ("x,y", 1.0), ("", 2.5)]
        path.write_bytes(b"a,b\n\nx,1\n\n\ny,2\n\n")  # blank rows are skipped
        assert read_csv(path, "test file", ["a", "b"], lambda *f: f) == [("x", "1"), ("y", "2")]

    @pytest.mark.parametrize("data, message", [
        (b"", "line 0: header must be a,b"),
        (b"b,a\nx,1\n", "line 1: header must be a,b"),
        (b"a,b,c\nx,1,2\n", "line 1: header must be a,b"),
        (b"a,b\nx,1\nx,-1\n", "line 3: negative"),
        (b"a,b\nx,one\n", "line 2: could not convert"),
        (b"a,b\n\xffx,1\n", "not UTF-8"),
    ], ids=["empty", "reordered", "extra_column", "parse_data_error", "parse_value_error",
            "not_utf8"])
    def test_csv_rejects_malformed(self, tmp_path, data, message):
        def parse(a, b):
            if float(b) < 0:
                raise DataError("negative")
            return a

        path = tmp_path / "x.csv"
        path.write_bytes(data)
        with pytest.raises(DataError, match=message) as info:
            read_csv(path, "test file", ["a", "b"], parse)
        assert str(info.value).startswith(f"test file {path}")

    def test_csv_rows_need_one_field_per_column(self):
        # Fixture-free, so tests/test_mutants.py can run it on a mutant reader.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.csv"
            for body, line in [("x\n", 2), ("x,1\n\nx,1,2\n", 4), ("x,1\n,\n,,\n", 4)]:
                path.write_text("a,b\n" + body)
                try:
                    rows = read_csv(path, "test file", ["a", "b"], lambda *fields: fields)
                except DataError as exc:
                    assert f"line {line}: need the 2 fields a,b" in str(exc), exc
                else:
                    raise AssertionError(f"{body!r} read as {rows}")

    def test_csv_unopenable_raises_the_given_error(self, tmp_path):
        for error in (DataError, ConfigError):
            with pytest.raises(error, match="cannot read test file .*absent"):
                read_csv(tmp_path / "absent", "test file", ["a"], str, error)
        with pytest.raises(ConfigError, match="cannot read test file"):
            read_csv(tmp_path, "test file", ["a"], str, ConfigError)  # a directory

    def test_unwritable_path_is_data_error(self, tmp_path):
        (tmp_path / "blocker").mkdir()
        for write in (lambda p: write_json(p, {}), lambda p: write_csv(p, ["a"], []),
                      lambda p: write_container(p, b"MAG", HEADER, (0, 0), [])):
            with pytest.raises(DataError, match="cannot write .*blocker"):
                write(tmp_path / "blocker")


def _small_features(rng, channels=3, frames=11):
    return FeatureMatrix(
        values=rng.uniform(0, 1, size=(channels, frames)),
        channel_center_hz=np.linspace(100, 10000, channels),
        norm_state=np.column_stack([np.zeros(channels), np.ones(channels)]),
        frame_rate=172.265625,
    )


def _containers(tmp_path):
    """(path, loader) of a small .spk per codec and a .spkf."""
    rng = np.random.default_rng(5)
    out = []
    for codec in CODEC_IDS:
        path = tmp_path / f"clip.{codec}.spk"
        save_spikes(encode_matrix(_small_features(rng), CodecConfig(window=2), codec), path)
        out.append((path, load_spikes))
    path = tmp_path / "clip.spkf"
    save_features(_small_features(rng), path)
    out.append((path, load_features))
    return out


def _loads_or_data_error(loader, path):
    try:
        loader(path)
    except DataError:
        pass


class TestCorruption:
    def test_every_cut_and_an_appended_byte_rejected(self, tmp_path):
        for path, loader in _containers(tmp_path):
            whole = path.read_bytes()
            loader(path)
            for cut in range(len(whole)):
                path.write_bytes(whole[:cut])
                with pytest.raises(DataError):
                    loader(path)
            path.write_bytes(whole + b"\x00")
            with pytest.raises(DataError, match="longer than its header"):
                loader(path)

    @pytest.mark.parametrize("mask", [0x01, 0x80, 0xFF])
    def test_flipped_bytes_load_or_raise_data_error(self, tmp_path, mask):
        for path, loader in _containers(tmp_path):
            whole = path.read_bytes()
            for i in range(len(whole)):
                path.write_bytes(whole[:i] + bytes([whole[i] ^ mask]) + whole[i + 1:])
                _loads_or_data_error(loader, path)

    def test_reconstruct_on_damaged_headers_exits_0_or_3(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "codecs": ["mw", "tae"], "seed": 4,
            "synthetic": {"n_clips": 1, "classes": ["chirp"], "duration_s": 0.1},
        }))
        enc = tmp_path / "enc"
        assert main(["encode", "--config", str(config), "--out", str(enc)]) == 0
        index = json.loads((enc / "encode_index.json").read_text())
        victims = [(enc / item["spikes"], 5 + 29) for item in index]
        victims.append((enc / index[0]["features"], 5 + 16))
        codes = set()
        for path, header_end in victims:
            whole = path.read_bytes()
            for i in range(header_end):
                for mask in (0x01, 0xFF):
                    path.write_bytes(whole[:i] + bytes([whole[i] ^ mask]) + whole[i + 1:])
                    rc = main(["reconstruct", str(enc), "--out", str(tmp_path / "rec")])
                    assert rc in (0, 3), (path.name, i, mask)
                    if rc == 0:
                        rows = (tmp_path / "rec" / "reconstruct_scores.csv"
                                ).read_text().splitlines()[1:]
                        scores = [float(v) for r in rows for v in r.split(",")[3:]]
                        assert np.all(np.isfinite(scores)), (path.name, i, mask)
                    codes.add(rc)
            path.write_bytes(whole)
        assert codes == {0, 3}
        assert main(["reconstruct", str(enc), "--out", str(tmp_path / "rec")]) == 0


class TestCsvCorruption:
    """Every cut and every flipped bit of a manifest and of a per_band.csv."""

    @staticmethod
    def _csv_files(tmp_path):
        """(path, reader) of a small manifest and a small per_band.csv."""
        manifest = tmp_path / "manifest.csv"
        write_manifest([ManifestEntry("tone/a.wav", "tone", fold=1),
                        ManifestEntry("chirp/b.wav", "chirp", split="test")], manifest)
        write_report(tmp_path, "per_band", [("mw", 0, -12.5, 12.5), ("sf", 0, -13.25, 13.25),
                                            ("tae", 1, -14.0, 14.0)])
        return [(manifest, read_manifest),
                (tmp_path / "per_band.csv",
                 lambda p: _read_table(p.parent, "per_band", "band", "errdb"))]

    @staticmethod
    def _outcome(reader, path):
        try:
            reader(path)
        except (DataError, ConfigError):
            return "rejected"
        return "loaded"

    def test_every_cut_loads_or_is_rejected(self, tmp_path):
        for path, reader in self._csv_files(tmp_path):
            whole = path.read_bytes()
            header_end = whole.index(b"\n")
            for cut in range(len(whole) + 1):
                path.write_bytes(whole[:cut])
                outcome = self._outcome(reader, path)
                assert outcome == "rejected" or cut >= header_end, (path.name, cut)
            assert outcome == "loaded", path.name  # the whole file

    def test_every_flipped_bit_loads_or_is_rejected(self, tmp_path):
        for path, reader in self._csv_files(tmp_path):
            whole = path.read_bytes()
            outcomes = set()
            for i in range(len(whole)):
                for bit in range(8):
                    path.write_bytes(whole[:i] + bytes([whole[i] ^ 1 << bit]) + whole[i + 1:])
                    outcomes.add(self._outcome(reader, path))
            assert outcomes == {"loaded", "rejected"}, path.name
