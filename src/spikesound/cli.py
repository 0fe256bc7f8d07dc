"""Command-line entry point.

Subcommands: synth, encode, reconstruct, bench, train, compare.  Exit
codes: 0 success, 2 configuration error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .codec import (CODEC_IDS, SpikeTrain, decode_matrix, encode_matrix, load_spikes,
                    save_spikes)
from .container import make_dir, read_json, write_json
from .errors import ConfigError, DataError, NumericError
from .frontend import load_features, save_features
from .harness import (
    RunConfig,
    _stack_blocks,
    compare_report,
    load_corpus,
    load_run_config,
    run_bench,
    write_report,
    write_synthetic_corpus,
)
from .metrics import errdb

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


_FLAGS = {
    "--config": dict(type=Path, help="run configuration JSON"),
    "--seed": dict(type=int, help="override the config seed"),
    "--codec": dict(choices=CODEC_IDS, help="restrict the run to one codec"),
    "--out": dict(type=Path, help="output directory"),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per subcommand, each given only the flags it reads."""
    parser = argparse.ArgumentParser(
        prog="spikesound",
        description="Spike-encoding benchmark harness for environmental sound",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags, doc in [
        ("synth", ("--config", "--seed", "--out"),
         "generate the synthetic corpus (WAVs + manifest.csv)"),
        ("encode", tuple(_FLAGS), "encode a corpus to spike-train files"),
        ("reconstruct", ("--codec", "--out"),
         "decode spike files and score the reconstruction"),
        ("bench", tuple(_FLAGS), "full encode/decode/score benchmark with CSV reports"),
        ("train", tuple(_FLAGS), "bench with the spiking-classifier protocol on"),
        ("compare", ("--out",), "rank codecs across two bench reports"),
    ]:
        p = sub.add_parser(name, help=doc)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        if name == "reconstruct":
            p.add_argument("encoded_dir", type=Path,
                           help="directory produced by the encode subcommand")
        if name == "compare":
            p.add_argument("report_a", type=Path)
            p.add_argument("report_b", type=Path)
    return parser


def _resolve_config(args) -> RunConfig:
    cfg = load_run_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "codec", None) is not None:  # synth has no --codec
        cfg = replace(cfg, codecs=(args.codec,))
    if args.out is not None:
        cfg = replace(cfg, output_dir=str(args.out))
    return cfg


def _cmd_synth(args) -> int:
    cfg = _resolve_config(args)
    manifest = write_synthetic_corpus(cfg.synthetic, cfg.seed,
                                      Path(cfg.output_dir))
    print(f"wrote synthetic corpus with manifest {manifest}")
    return EXIT_OK


def _save_features(out_dir: Path, clip) -> tuple:
    """Save one load_corpus clip's features as its .spkf; returns (entry,
    the .spkf path under out_dir) and the features' values, the clip as
    _stack_blocks takes it."""
    e, feats = clip
    feat_rel = Path("features") / Path(e.path).with_suffix(".spkf")
    make_dir((out_dir / feat_rel).parent)
    save_features(feats, out_dir / feat_rel)
    return (e, feat_rel.as_posix()), feats.values


def _cmd_encode(args) -> int:
    cfg = _resolve_config(args)
    out_dir = make_dir(cfg.output_dir)
    n_mels, codecs = cfg.frontend.n_mels, sorted(cfg.codecs)
    index = []
    _, clips = load_corpus(cfg, out_dir)
    for members, frames, block in _stack_blocks(map(partial(_save_features, out_dir), clips)):
        spike_rels = [{c: Path("spikes") / Path(e.path).with_suffix(f".{c}.spk") for c in codecs}
                      for e, _ in members]
        for codec in codecs:
            st = encode_matrix(block, cfg.codec_params[codec], codec)
            for j, (rels, n) in enumerate(zip(spike_rels, frames)):
                rows = slice(j * n_mels, (j + 1) * n_mels)
                make_dir((out_dir / rels[codec]).parent)
                save_spikes(replace(st, spikes=st.spikes[rows, :n], side_info=st.side_info[rows]),
                            out_dir / rels[codec])
            del st
        index += [{"clip": e.path, "class_label": e.class_label, "codec": c,
                   "spikes": rels[c].as_posix(), "features": feat_rel}
                  for (e, feat_rel), rels in zip(members, spike_rels) for c in codecs]
        del block  # freed before the next block is stacked
    write_json(out_dir / "encode_index.json", index)
    print(f"encoded {len(index)} spike files under {out_dir}")
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    enc_dir = Path(args.encoded_dir)
    index_path = enc_dir / "encode_index.json"
    index = read_json(index_path, "encode index")
    fields = ("clip", "class_label", "codec", "spikes", "features")
    if not isinstance(index, list) or not all(
        isinstance(item, dict) and all(isinstance(item.get(k), str) for k in fields)
        for item in index
    ):
        raise DataError(f"{index_path} must be a list of objects with string "
                        f"fields {', '.join(fields)}")
    out_dir = make_dir(args.out or enc_dir)
    items = [item for item in index if not args.codec or item["codec"] == args.codec]

    def loaded():
        """(entry, spikes) per item: entry is (position, feature values,
        side_info, codec, params); the checks run as each file is read."""
        feats_rel = values = None  # encode writes the index clip-major: keep the last clip
        for i, item in enumerate(items):
            st = load_spikes(enc_dir / item["spikes"])
            if st.codec_id != item["codec"]:
                raise DataError(f"{item['spikes']} holds {st.codec_id}, not {item['codec']}")
            if item["features"] != feats_rel:
                feats_rel = item["features"]
                # float32, as stored, so open runs hold half the bytes; errdb
                # widens them back to the very float64 load_features gives
                values = load_features(enc_dir / feats_rel).values.astype(np.float32)
            if st.spikes.shape != values.shape:
                raise DataError(f"{item['spikes']} is {st.spikes.shape} but "
                                f"{item['features']} is {values.shape}")
            yield (i, values, st.side_info, st.codec_id, st.params), st.spikes

    # Each codec and config decodes its own runs of clips, in index order.
    rows: list = [None] * len(items)
    for members, frames, block in _stack_blocks(loaded(), key=lambda entry: entry[3:]):
        _, _, side_info, codec, params = zip(*members)
        est = decode_matrix(SpikeTrain(block, np.concatenate(side_info), codec[0], params[0]))
        row = 0
        for (i, values, *_), n in zip(members, frames):
            e = errdb(values, est[row:row + len(values), :n])
            row += len(values)
            rows[i] = [items[i]["codec"], items[i]["clip"], items[i]["class_label"], e, -e]
        del est, block, members, values  # freed before the next files load
    write_report(out_dir, "reconstruct_scores", rows)
    print(f"decoded and scored {len(rows)} spike files; scores in {out_dir}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = _resolve_config(args)
    run_bench(cfg)
    print(f"bench complete: reports in {cfg.output_dir}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = replace(_resolve_config(args), run_snn=True)
    for codec, _, fold, acc in run_bench(cfg)["classification.csv"]:
        if fold == "mean":
            print(f"{codec}: mean macro accuracy {acc:.3f}")
    print(f"train complete: reports in {cfg.output_dir}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    summary = compare_report(args.report_a, args.report_b)
    out_dir = make_dir(args.out or ".")
    dest = out_dir / "ordering_summary.json"
    write_json(dest, summary)
    for tag in ("report_a", "report_b"):
        wins = summary[tag]["band_wins"]
        print(f"{tag} band wins: {wins}")
    print(f"all ties: {summary['all_ties']}; details in {dest}")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "encode": _cmd_encode,
    "reconstruct": _cmd_reconstruct,
    "bench": _cmd_bench,
    "train": _cmd_train,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
