"""Reconstruction fidelity, firing-rate, and encoding-cost metrics.

ERRdB is the relative reconstruction error energy in decibels and is
defined as the exact negation of SNR, so "most negative ERRdB" and
"highest SNR" always agree.  Both are clamped to [-100, +100] dB to keep
perfect reconstructions finite in CSV aggregation.
"""

from __future__ import annotations

import numpy as np

from .codec import SpikeTrain

DB_CLAMP = 100.0


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


def score_per_band(values: np.ndarray, estimate: np.ndarray,
                   bands: np.ndarray) -> dict[int, float]:
    """ERRdB over each band's channel rows, keyed by band in ascending order.

    bands holds the band index of each channel (partition_bands); a band
    with no channels has no key.
    """
    if values.shape != estimate.shape:
        raise ValueError(f"shape mismatch: {values.shape} vs {estimate.shape}")
    scores = {}
    for b in np.unique(bands):
        idx = np.flatnonzero(bands == b)
        scores[int(b)] = errdb(values[idx], estimate[idx])
    return scores


def score_per_class(scores: list[tuple[str, float]]) -> dict[str, float]:
    """Unweighted mean ERRdB per class label from (label, errdb) pairs,
    keys sorted.

    Values are accumulated in sorted order so the result is bit-identical
    under any input permutation.
    """
    groups: dict[str, list[float]] = {}
    for label, e in scores:
        groups.setdefault(label, []).append(e)
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
