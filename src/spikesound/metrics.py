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


def band_rows(bands: np.ndarray) -> dict[int, slice | np.ndarray]:
    """The channel rows of each band, keyed by band in ascending order: a
    slice where they are contiguous, as partition_bands makes them, else
    their indices.  A band with no channels has no key."""
    rows = {}
    for b in np.unique(bands):
        idx = np.flatnonzero(bands == b)
        rows[int(b)] = slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] < len(idx) else idx
    return rows


def sums_of_squares(x: np.ndarray, rows: dict,
                    out: np.ndarray | None = None) -> tuple[float, dict[int, float]]:
    """Sum of squares over all of x and over each band's rows (band_rows):
    the one sum every score here is made of.  The squares go to out (out=x
    squares x in place).

    A band sum over a row slice of C-ordered squares adds the same run of
    memory as one over the copy x[idx] ** 2, so the two agree bit for bit.
    """
    sq = np.square(x, out=out)
    return float(np.sum(sq)), {b: float(np.sum(sq[r])) for b, r in rows.items()}


def _snr(sig: float, err: float) -> float:
    if err == 0.0:
        return DB_CLAMP
    if sig == 0.0:
        return -DB_CLAMP
    return float(np.clip(10.0 * np.log10(sig / err), -DB_CLAMP, DB_CLAMP))


def snr_db(s: np.ndarray, s_hat: np.ndarray) -> float:
    """10 log10(signal energy / error energy), clamped to +/-100 dB.

    Zero-energy signals score +100 with zero error and -100 otherwise.
    """
    s = np.asarray(s, dtype=np.float64)
    s_hat = np.asarray(s_hat, dtype=np.float64)
    if s.shape != s_hat.shape:
        raise ValueError(f"shape mismatch: {s.shape} vs {s_hat.shape}")
    d = s - s_hat
    return _snr(sums_of_squares(s, {})[0], sums_of_squares(d, {}, out=d)[0])


def errdb(s: np.ndarray, s_hat: np.ndarray) -> float:
    """Relative error energy in dB; exactly -snr_db so the identity is free."""
    return -snr_db(s, s_hat)


def score_matrix(values: np.ndarray, estimate: np.ndarray, rows: dict,
                 signal: tuple[float, dict[int, float]]) -> tuple[float, dict[int, float]]:
    """ERRdB of a whole clip and of each band's rows (band_rows), keyed by
    band in ascending order, from the clip's signal energies
    sums_of_squares(values, rows).  The error is formed and squared in
    estimate's own buffer, which must be a C-ordered float64 array the
    caller can give up.  Each score equals errdb over the same rows."""
    d = np.subtract(values, estimate, out=estimate)
    err, err_bands = sums_of_squares(d, rows, out=d)
    sig, sig_bands = signal
    return -_snr(sig, err), {b: -_snr(sig_bands[b], e) for b, e in err_bands.items()}


def score_per_band(values: np.ndarray, estimate: np.ndarray,
                   bands: np.ndarray) -> dict[int, float]:
    """ERRdB over each band's channel rows, keyed by band in ascending order.

    bands holds the band index of each channel (partition_bands); a band
    with no channels has no key.
    """
    if values.shape != estimate.shape:
        raise ValueError(f"shape mismatch: {values.shape} vs {estimate.shape}")
    values = np.asarray(values, dtype=np.float64, order="C")
    rows = band_rows(bands)
    return score_matrix(values, np.array(estimate, dtype=np.float64, order="C"), rows,
                        sums_of_squares(values, rows))[1]


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
