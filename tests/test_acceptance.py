"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines
as they complete.  Results on the real environmental-sound corpora depend on
external audio and long training runs, so these criteria are property-based
and run on the bundled deterministic synthetic corpus.
"""

import itertools
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
import siggen
from spikesound.codec import CODEC_IDS, CodecConfig
from spikesound.frontend import (
    mel_center_frequencies,
    mel_spectrogram,
    partition_bands,
    stft_power,
)
from spikesound.harness import RunConfig, run_bench
from spikesound.ingest import Waveform
from spikesound.metrics import errdb, snr_db
from spikesound.snn import SnnConfig, forward, init_net, train
from test_codec_oracle import CFG, COARSE_GRID, FINE_GRID, check_oracle
from test_snn import max_grad_rel_error, toy_two_class_set


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {name}: PASS")


# ---------------------------------------------------------------------------
# Shared reference bench over the bundled synthetic corpus (40 clips,
# 5 classes, seed 1234): run twice into the same directory with an
# identical config so criteria 8 and 9 share the work.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def double_bench(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("acceptance_bench")

    def run_once():
        cfg = RunConfig(output_dir=str(out_dir), seed=1234)
        result = run_bench(cfg)
        files = {}
        for name in ["per_band.csv", "per_class.csv", "efficiency.csv",
                     "run_summary.json"]:
            files[name] = (out_dir / name).read_bytes()
        return result, files

    result_1, files_1 = run_once()
    result_2, files_2 = run_once()
    return result_1, files_1, result_2, files_2


def test_criterion_1_codec_oracle_equivalence():
    """Exact agreement with the independent brute-force traces.

    Exhaustive where tractable: every length 1..4 signal on the 11-point
    grid and every length 5..8 signal on a 4-point grid (103,144 signals
    per codec), plus a seeded random sample of length 5..8 signals from
    the full grid.
    """
    grid = [xs for length in range(1, 5)
            for xs in itertools.product(FINE_GRID, repeat=length)]
    grid += [xs for length in range(5, 9)
             for xs in itertools.product(COARSE_GRID, repeat=length)]
    with criterion("1. codec oracle equivalence"):
        for codec in CODEC_IDS:
            assert check_oracle(grid, CFG, codec) == 103_144
            rng = np.random.default_rng(1)
            sample = []
            for _ in range(2000):
                length = int(rng.integers(5, 9))
                sample.append(tuple(FINE_GRID[i] for i in rng.integers(0, 11, size=length)))
            assert check_oracle(sample, CFG, codec) == 2000


def test_criterion_2_round_trip_bounds():
    """SF error <= 2T and TAE error <= 2*Tmax on 1000 slow signals each;
    constants reconstruct exactly for every codec."""
    cfg = CodecConfig(threshold_rel=0.05, tae_gamma=2.0,
                      tae_tmin_rel=0.01, tae_tmax_rel=0.5)
    with criterion("2. round-trip bounds"):
        rng = np.random.default_rng(101)
        signals = [siggen.slow_signal(rng, cfg.threshold_rel) for _ in range(1000)]
        for x, (_, (_, t), est) in zip(signals, siggen.code_rows(signals, cfg, "sf")):
            assert np.abs(x - est).max() <= 2 * t
        rng = np.random.default_rng(202)
        signals = [siggen.slow_signal(rng, cfg.threshold_rel) for _ in range(1000)]
        for x, (_, _, est) in zip(signals, siggen.code_rows(signals, cfg, "tae")):
            span = x.max() - x.min()
            tmax = cfg.tae_tmax_rel * span if span > 0 else cfg.tae_tmax_rel
            assert np.abs(x - est).max() <= 2 * tmax
        for c in [0.0, 0.37, 1.0]:
            x = np.full(50, c)
            for codec in CODEC_IDS:
                _, _, est = siggen.code_row(x, cfg, codec)
                assert np.abs(est - c).max() <= 1e-9


def test_criterion_3_tae_decoder_replay():
    """Encoder and decoder threshold sequences identical on 1000 signals,
    and both equal, entry for entry, the threshold each frame was decided
    with in the straight-line oracle, so an encoder that decides with any
    other threshold than the one it hands on fails here on its own."""
    cfg = CodecConfig(threshold_rel=0.05, tae_gamma=2.0,
                      tae_tmin_rel=0.01, tae_tmax_rel=0.5)
    tae = (cfg.threshold_rel, cfg.tae_gamma, cfg.tae_tmin_rel, cfg.tae_tmax_rel)
    with criterion("3. TAE decoder replay"):
        rng = np.random.default_rng(303)
        signals = [rng.uniform(0, 1, size=rng.integers(2, 120)) for _ in range(1000)]
        for x, (enc_trace, dec_trace) in zip(signals, siggen.tae_traces(signals, cfg)):
            decided = oracles.tae_encode(x.tolist(), *tae)[3]
            assert enc_trace.tolist() == dec_trace.tolist() == decided


def test_criterion_4_metric_identities():
    with criterion("4. metric identities"):
        rng = np.random.default_rng(404)
        for _ in range(500):
            s = rng.normal(size=(5, 11))
            s_hat = s + rng.normal(scale=rng.uniform(1e-8, 5.0), size=s.shape)
            assert abs(errdb(s, s_hat) + snr_db(s, s_hat)) <= 1e-9
        s = rng.normal(size=(3, 7))
        assert snr_db(s, s) == 100.0
        assert snr_db(s, np.zeros_like(s)) == 0.0


def test_criterion_5_band_partition():
    with criterion("5. band partition"):
        centers = mel_center_frequencies(128, 20.0, 20000.0)
        bands = partition_bands(centers)
        assert bands.shape == (128,)
        sizes = np.bincount(bands, minlength=8)
        assert sizes.sum() == 128
        total = sum(len(np.flatnonzero(bands == b)) for b in range(8))
        assert total == 128  # each channel in exactly one band


def test_criterion_6_frontend_checks():
    with criterion("6. frontend"):
        rng = np.random.default_rng(606)
        for _ in range(20):
            n = int(rng.integers(1024, 80000))
            w = Waveform(samples=np.zeros(n), sample_rate=44100)
            assert stft_power(w).shape[1] == 1 + (n - 1024) // 256
        t = np.arange(44100) / 44100
        tone4k = Waveform(samples=0.5 * np.sin(2 * np.pi * 4000 * t),
                          sample_rate=44100)
        assert np.all(stft_power(tone4k).argmax(axis=0) == 93)
        tone1k = Waveform(samples=0.5 * np.sin(2 * np.pi * 1000 * t),
                          sample_rate=44100)
        f = mel_spectrogram(tone1k)
        ch = int(f.denormalize().mean(axis=1).argmax())
        spacing = (f.channel_center_hz[ch + 1] - f.channel_center_hz[ch - 1]) / 2
        assert abs(f.channel_center_hz[ch] - 1000.0) <= spacing


def test_criterion_7_snn_numeric_checks():
    """Gradient consistency, the zero-input invariant, and toy training."""
    with criterion("7. SNN numeric checks"):
        for slope in (2.0, 5.0):
            for seed in (0, 1):
                rel = max_grad_rel_error(slope, weight_scale=2.0, h=1e-5,
                                         seed=seed)
                assert rel <= 1e-4
        # production slope: gradients above the FD noise floor match tightly
        rel = max_grad_rel_error(25.0, weight_scale=2.0, h=1e-5, seed=0,
                                 floor=1e-7)
        assert rel <= 1e-4

        cfg = SnnConfig(input_size=6, hidden_sizes=(5, 4, 3), output_size=2,
                        seed=7)
        net = init_net(cfg)
        counts, layer_spikes = forward(net, np.zeros((6, 25)))
        assert not counts.any()
        assert all(not s.any() for s in layer_spikes)

        ds = toy_two_class_set()
        cfg = SnnConfig(input_size=8, hidden_sizes=(16, 16, 16), output_size=2,
                        lr=0.01, batch_size=32, epochs=200, seed=42)
        _, hist = train(init_net(cfg), ds)
        assert any(row[3] == 1.0 for row in hist)


def test_criterion_8_end_to_end_determinism(double_bench):
    """Two bench runs, identical config+seed: byte-identical non-timing
    outputs (efficiency.csv compared without its encode_ms column)."""
    _, files_1, _, files_2 = double_bench
    with criterion("8. end-to-end determinism"):
        for name in ["per_band.csv", "per_class.csv", "run_summary.json"]:
            assert files_1[name] == files_2[name], name
        def strip_ms(raw):
            return [",".join(c for i, c in enumerate(line.split(",")) if i != 3)
                    for line in raw.decode().splitlines()]
        assert strip_ms(files_1["efficiency.csv"]) == strip_ms(files_2["efficiency.csv"])


# Reference values from the frozen run over the bundled corpus
# (40 clips, 5 classes, seed 1234, default parameters).  Deterministic up
# to BLAS reduction order, hence the loose-but-meaningful tolerance.
FROZEN_FIRING_RATE_PCT = {"sf": 71.607527, "mw": 73.907343, "tae": 49.803344}
FROZEN_BAND_ERRDB = {
    "mw": [-0.412358, -0.188403, -0.914714, -1.106129,
           -3.603199, -4.317451, -4.582238, -4.334890],
    "sf": [-14.804225, -14.347084, -13.957895, -13.965381,
           -13.751520, -12.393130, -12.426247, -12.339604],
    "tae": [-15.063791, -14.688418, -14.322112, -14.358265,
            -14.294710, -13.231721, -13.058043, -12.926341],
}


def test_criterion_9_trend_reproduction(double_bench):
    """On the bundled corpus with default parameters: TAE has the strictly
    lowest mean firing rate and the best mean ERRdB in at least 6 of 8
    bands; values pinned to the frozen reference run."""
    result, _, _, _ = double_bench
    with criterion("9. trend reproduction"):
        rates = {codec: rate for codec, _, rate, _, _ in result["efficiency.csv"]}
        assert rates["tae"] < rates["sf"]
        assert rates["tae"] < rates["mw"]

        band_err = {c: [None] * 8 for c in CODEC_IDS}
        for codec, band, e, _ in result["per_band.csv"]:
            band_err[codec][band] = e
        tae_wins = sum(
            1 for b in range(8)
            if band_err["tae"][b] < band_err["sf"][b]
            and band_err["tae"][b] < band_err["mw"][b]
        )
        assert tae_wins >= 6

        for codec, frozen in FROZEN_FIRING_RATE_PCT.items():
            assert rates[codec] == pytest.approx(frozen, abs=0.05)
        for codec, frozen_bands in FROZEN_BAND_ERRDB.items():
            for b in range(8):
                assert band_err[codec][b] == pytest.approx(frozen_bands[b],
                                                           abs=0.05)


@pytest.mark.skip(reason="extended acceptance needs user-supplied ESC-10 / "
                         "UrbanSound8K / TAU corpora; see README")
def test_extended_acceptance_real_datasets():
    """Firing-rate ordering and macro-accuracy checks on the real corpora;
    runnable only with locally prepared datasets."""
