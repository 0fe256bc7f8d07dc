"""Reconstruction fidelity, firing-rate, and encoding-cost metrics.

ERRdB is the relative reconstruction error energy in decibels and is
defined as the exact negation of SNR, so "most negative ERRdB" and
"highest SNR" always agree.  Both are clamped to [-100, +100] dB to keep
perfect reconstructions finite in CSV aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import SpikeTrain
from .container import write_csv
from .frontend import BandPartition, FeatureMatrix, N_BANDS

DB_CLAMP = 100.0


@dataclass(frozen=True)
class ReconScore:
    """ERRdB/SNR over one scope (a band, a whole clip, or a class)."""

    errdb: float
    snr: float
    band: int | str = "all"
    class_label: str | None = None
    n_channels: int = 0
    n_frames: int = 0

    @property
    def absent(self) -> bool:
        return self.n_channels == 0


def snr_db(s: np.ndarray, s_hat: np.ndarray) -> float:
    """10 log10(signal energy / error energy), clamped to +/-100 dB.

    Zero-energy signals score +100 with zero error and -100 otherwise.
    """
    s = np.asarray(s, dtype=np.float64)
    s_hat = np.asarray(s_hat, dtype=np.float64)
    if s.shape != s_hat.shape:
        raise ValueError(f"shape mismatch: {s.shape} vs {s_hat.shape}")
    sig = float(np.sum(s * s))
    err = float(np.sum((s - s_hat) ** 2))
    if err == 0.0:
        return DB_CLAMP
    if sig == 0.0:
        return -DB_CLAMP
    return float(np.clip(10.0 * np.log10(sig / err), -DB_CLAMP, DB_CLAMP))


def errdb(s: np.ndarray, s_hat: np.ndarray) -> float:
    """Relative error energy in dB; exactly -snr_db so the identity is free."""
    return -snr_db(s, s_hat)


def score_matrix(s: np.ndarray, s_hat: np.ndarray, band: int | str = "all",
                 class_label: str | None = None) -> ReconScore:
    e = errdb(s, s_hat)
    return ReconScore(
        errdb=e, snr=-e, band=band, class_label=class_label,
        n_channels=s.shape[0], n_frames=s.shape[1],
    )


def score_per_band(f: FeatureMatrix, f_hat: np.ndarray,
                   bands: BandPartition) -> list[ReconScore]:
    """One ReconScore per analysis band, over that band's channel rows.

    Empty bands yield an absent score (n_channels == 0, NaN metrics).
    """
    values = f.values
    if values.shape != f_hat.shape:
        raise ValueError(f"shape mismatch: {values.shape} vs {f_hat.shape}")
    scores = []
    for b in range(N_BANDS):
        idx = bands.channels_in_band(b)
        if len(idx) == 0:
            scores.append(ReconScore(errdb=float("nan"), snr=float("nan"),
                                     band=b, n_channels=0, n_frames=values.shape[1]))
            continue
        scores.append(score_matrix(values[idx], f_hat[idx], band=b))
    return scores


def score_per_class(scores: list[tuple[str, ReconScore]]) -> dict[str, float]:
    """Unweighted mean ERRdB per class label, keys sorted.

    Values are accumulated in sorted order so the result is bit-identical
    under any input permutation.
    """
    groups: dict[str, list[float]] = {}
    for label, sc in scores:
        groups.setdefault(label, []).append(sc.errdb)
    return {
        label: float(np.sum(np.sort(vals)) / len(vals))
        for label, vals in sorted(groups.items())
    }


def firing_rate(st: SpikeTrain) -> float:
    """Percent of nonzero entries over channels x frames."""
    total = st.spikes.size
    if total == 0:
        raise ValueError("empty spike train")
    return 100.0 * np.count_nonzero(st.spikes) / total


def encoder_state_bytes(st: SpikeTrain) -> int:
    """Working-state footprint of the encoder, analytic: per-channel
    baseline + threshold as float64, plus the MW window buffer."""
    per_channel = 2 * 8
    if st.codec_id == "mw":
        per_channel += st.params.window * 8
    return st.n_channels * per_channel


# ---------------------------------------------------------------------------
# Report CSVs
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.6f}"


def write_per_band_csv(path: str | Path,
                       rows: list[tuple[str, int, float, float]]) -> None:
    """Rows of (codec, band, errdb, snr), sorted by codec then band."""
    write_csv(path, ["codec", "band", "errdb", "snr"], (
        [codec, band, _fmt(e), _fmt(s)]
        for codec, band, e, s in sorted(rows, key=lambda r: (r[0], r[1]))))


def write_per_class_csv(path: str | Path,
                        rows: list[tuple[str, str, float]]) -> None:
    """Rows of (codec, class, errdb), sorted by codec then class."""
    write_csv(path, ["codec", "class", "errdb"], (
        [codec, label, _fmt(e)]
        for codec, label, e in sorted(rows, key=lambda r: (r[0], r[1]))))


def write_efficiency_csv(path: str | Path,
                         rows: list[tuple[str, str, float, float, float]]) -> None:
    """Rows of (codec, dataset, firing_rate_pct, encode_ms, aux_bytes)."""
    write_csv(path, ["codec", "dataset", "firing_rate_pct", "encode_ms", "aux_bytes"], (
        [codec, ds, _fmt(rate), _fmt(ms), _fmt(aux)]
        for codec, ds, rate, ms, aux in sorted(rows, key=lambda r: (r[0], r[1]))))
