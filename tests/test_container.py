"""The shared container rules, and corruption of .spk and .spkf files.

Every prefix of a container and one byte past its end must raise DataError;
flipping any byte must either load or raise DataError, never another
exception; and `spikesound reconstruct` on a damaged spike or feature file
must exit 0 or 3.
"""

import json
import struct

import numpy as np
import pytest

from spikesound.cli import main
from spikesound.codec import CODEC_IDS, CodecConfig, encode_matrix, load_spikes, save_spikes
from spikesound.container import (
    read_container,
    read_json,
    write_container,
    write_csv,
    write_json,
)
from spikesound.errors import DataError
from spikesound.frontend import FeatureMatrix, load_features, save_features

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
