"""Independent straight-line reference codecs, pure Python floats only.

These transliterate the codec recurrences directly from their definitions
(one if/elif per frame, explicit window sums) without numpy, vectorization,
or shared helpers, so they can catch indexing and update-order mistakes in
the production implementations.  Thresholds follow the same documented
contract as the decoders: the TAE clamp bounds derive from the initial
threshold, tmin = T0 * (tmin_rel / threshold_rel).

Tie rule: SF and TAE compare the distance x - base with +/-T (fire on
d > T or d < -T); MW compares x with the corridor base +/- T (fire on
x > base + T or x < base - T).  The two forms round differently when x is
T off the baseline, so each codec is held to its own.
"""


def abs_threshold(xs, threshold_rel):
    span = max(xs) - min(xs)
    return threshold_rel * span if span > 0.0 else threshold_rel


def sf_encode(xs, threshold_rel):
    t = abs_threshold(xs, threshold_rel)
    base = xs[0]
    spikes = [0]
    for i in range(1, len(xs)):
        d = xs[i] - base
        if d > t:
            spikes.append(1)
            base = base + t
        elif d < -t:
            spikes.append(-1)
            base = base - t
        else:
            spikes.append(0)
    return spikes, xs[0], t


def sf_decode(spikes, x0, t):
    out = [x0]
    for i in range(1, len(spikes)):
        out.append(out[-1] + spikes[i] * t)
    return out


def mw_encode(xs, threshold_rel, window):
    t = abs_threshold(xs, threshold_rel)
    spikes = []
    for i in range(len(xs)):
        if i == 0:
            base = xs[0]
        else:
            k = min(i, window)
            base = sum(xs[i - k : i]) / k
        if xs[i] > base + t:
            spikes.append(1)
        elif xs[i] < base - t:
            spikes.append(-1)
        else:
            spikes.append(0)
    return spikes, xs[0], t


def mw_decode(spikes, x0, t, window):
    out = [x0]
    for i in range(1, len(spikes)):
        k = min(i, window)
        base = sum(out[i - k : i]) / k
        out.append(base + spikes[i] * t)
    return out


def tae_encode(xs, threshold_rel, gamma, tmin_rel, tmax_rel):
    t0 = abs_threshold(xs, threshold_rel)
    tmin = t0 * (tmin_rel / threshold_rel)
    tmax = t0 * (tmax_rel / threshold_rel)
    base = xs[0]
    t = t0
    spikes = [0]
    thresholds = [t0]
    for i in range(1, len(xs)):
        thresholds.append(t)
        d = xs[i] - base
        if d > t:
            spikes.append(1)
            base = base + t
            t = min(t * gamma, tmax)
        elif d < -t:
            spikes.append(-1)
            base = base - t
            t = min(t * gamma, tmax)
        else:
            spikes.append(0)
            t = max(t / gamma, tmin)
    return spikes, xs[0], t0, thresholds


def tae_decode(spikes, x0, t0, threshold_rel, gamma, tmin_rel, tmax_rel):
    tmin = t0 * (tmin_rel / threshold_rel)
    tmax = t0 * (tmax_rel / threshold_rel)
    out = [x0]
    t = t0
    thresholds = [t0]
    for i in range(1, len(spikes)):
        thresholds.append(t)
        if spikes[i] != 0:
            out.append(out[-1] + spikes[i] * t)
            t = min(t * gamma, tmax)
        else:
            out.append(out[-1])
            t = max(t / gamma, tmin)
    return out, thresholds
