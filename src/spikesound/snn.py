"""Spiking classifier: four bias-free linear layers with LIF neurons.

The network integrates signed input currents frame by frame, accumulates
output-layer spike counts as class scores, and trains with backpropagation
through time using a fast-sigmoid surrogate derivative at every spike
nonlinearity (including the reset path).  Everything is plain numpy so a
fixed seed fully determines training.

The same forward/backward code also runs in a "smooth" mode where the hard
spike is replaced by the surrogate's primitive; in that mode the computed
gradients are exact, which is what the finite-difference checks verify.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .errors import ConfigError, DataError, NumericError

MAX_LAYER_WEIGHTS = 1 << 24  # entries of one layer's weight matrix, n_in x n_out
_ADAM_B1, _ADAM_B2, _ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and epsilon


@dataclass(frozen=True)
class SnnConfig:
    input_size: int = 128
    hidden_sizes: tuple[int, ...] = (128, 128, 128)
    output_size: int = 2
    beta: float = 0.9
    theta: float = 1.0
    surrogate_slope: float = 25.0
    lr: float = 0.01
    batch_size: int = 32
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if min(self.epochs, self.batch_size) < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if min((self.input_size, self.output_size, *self.hidden_sizes)) < 1:
            raise ValueError("layer sizes must be positive")
        sizes = self.layer_sizes
        if max(a * b for a, b in zip(sizes, sizes[1:])) > MAX_LAYER_WEIGHTS:
            raise ValueError(f"each layer may have at most {MAX_LAYER_WEIGHTS} weights "
                             f"(n_in x n_out), got layer sizes {list(sizes)}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must be in (0, 1)")
        for name in ("theta", "surrogate_slope", "lr"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.input_size, *self.hidden_sizes, self.output_size)


def fast_sigmoid(v: np.ndarray, slope: float) -> np.ndarray:
    """Smooth stand-in for the spike function: v / (1 + slope |v|)."""
    return v / (1.0 + slope * np.abs(v))


def surrogate_grad(v: np.ndarray, slope: float) -> np.ndarray:
    """Derivative of fast_sigmoid: 1 / (1 + slope |v|)^2."""
    return 1.0 / (1.0 + slope * np.abs(v)) ** 2


def _fire(u, theta, smooth=False, slope=25.0):
    """The spikes of pre-reset potentials u: 1.0 where u >= theta, or
    fast_sigmoid(u - theta) when smooth."""
    if smooth:
        return fast_sigmoid(u - theta, slope)
    return (u >= theta).astype(np.float64)


def _lif_update(membrane, current, beta, theta, smooth=False, slope=25.0):
    """One leaky integrate-and-fire step with reset by subtraction:
    U' = beta U + I, spikes _fire(U').  Returns the spikes, U' and the new
    membrane U' - spike*theta."""
    u = beta * membrane + current
    s = _fire(u, theta, smooth, slope)
    return s, u, u - s * theta


@dataclass
class SpikingNet:
    weights: list[np.ndarray]  # each (n_in, n_out), bias-free
    config: SnnConfig


def init_net(cfg: SnnConfig, rng: np.random.Generator | None = None) -> SpikingNet:
    """Uniform +/- sqrt(1/fan_in) initialization from the config seed."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    sizes = cfg.layer_sizes
    weights = []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(1.0 / n_in)
        weights.append(rng.uniform(-bound, bound, size=(n_in, n_out)))
    return SpikingNet(weights=weights, config=cfg)


@dataclass
class _ForwardCache:
    """One forward pass: the inputs in the dtype given and each layer's
    pre-reset potentials, from which _fire recomputes its spikes."""

    inputs: np.ndarray                # (batch, channels, frames)
    pre_reset: list[np.ndarray]       # per layer: (frames, batch, n)
    counts: np.ndarray                # (batch, n_classes)
    smooth: bool                      # the mode _fire recomputes spikes in


def _forward_batch(net: SpikingNet, x: np.ndarray, smooth: bool = False,
                   buffers: list[np.ndarray] | None = None) -> _ForwardCache:
    cfg = net.config
    batch, channels, frames = x.shape
    if channels != cfg.input_size:
        raise ValueError(f"expected {cfg.input_size} input channels, got {channels}")
    mems = [np.zeros((batch, w.shape[1])) for w in net.weights]
    buffers = buffers or [np.empty((frames, batch, w.shape[1])) for w in net.weights]
    pre = [b[:, :batch] for b in buffers]
    counts = np.zeros((batch, net.weights[-1].shape[1]))
    for t in range(frames):
        cur = x[:, :, t]
        for l, w in enumerate(net.weights):
            cur, pre[l][t], mems[l] = _lif_update(
                mems[l], cur @ w, cfg.beta, cfg.theta, smooth, cfg.surrogate_slope
            )
        counts += cur
    return _ForwardCache(inputs=x, pre_reset=pre, counts=counts, smooth=smooth)


def forward(net: SpikingNet, spike_input: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run one clip through the network.

    spike_input is (channels, frames) with signed values fed directly as
    input currents.  Returns (output spike counts per class, per-layer spike
    records of shape (frames, n_neurons)).
    """
    spike_input = np.asarray(spike_input, dtype=np.float64)
    if not np.all(np.isfinite(spike_input)):
        raise ValueError("non-finite spike input")
    cache = _forward_batch(net, spike_input[None])
    return cache.counts[0], [_fire(u[:, 0, :], net.config.theta) for u in cache.pre_reset]


def _backward_batch(net: SpikingNet, cache: _ForwardCache,
                    d_counts: np.ndarray) -> list[np.ndarray]:
    """Gradients of the loss w.r.t. every weight matrix.

    Applies the surrogate derivative at each spike nonlinearity and through
    the subtraction reset; for a smooth-mode forward these gradients are
    exact.
    """
    cfg = net.config
    frames = cache.inputs.shape[2]
    n_layers = len(net.weights)
    grads = [np.zeros_like(w) for w in net.weights]
    carry = [np.zeros_like(cache.pre_reset[l][0]) for l in range(n_layers)]
    d_pre = [None] * n_layers
    for t in range(frames - 1, -1, -1):
        for l in range(n_layers - 1, -1, -1):
            d_spike = d_counts if l == n_layers - 1 else d_pre[l + 1] @ net.weights[l + 1].T
            g = surrogate_grad(cache.pre_reset[l][t] - cfg.theta, cfg.surrogate_slope)
            d_pre[l] = d_spike * g + carry[l] * (1.0 - cfg.theta * g)
            prev = (_fire(cache.pre_reset[l - 1][t], cfg.theta, cache.smooth,
                          cfg.surrogate_slope) if l > 0 else cache.inputs[:, :, t])
            grads[l] += prev.T @ d_pre[l]
            carry[l] = cfg.beta * d_pre[l]
    return grads


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(counts: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy on spike counts as logits, and its gradient."""
    p = _softmax(counts)
    n = counts.shape[0]
    loss = float(-np.mean(np.log(p[np.arange(n), labels] + 1e-300)))
    d = p.copy()
    d[np.arange(n), labels] -= 1.0
    return loss, d / n


def smooth_loss_and_grads(net: SpikingNet, x: np.ndarray,
                          labels: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """Loss and analytic gradients of the smooth-mode network.

    Used by the finite-difference consistency checks: with the spike
    replaced by the surrogate's primitive, the backward pass is exact.
    """
    cache = _forward_batch(net, x, smooth=True)
    loss, d_counts = cross_entropy(cache.counts, labels)
    return loss, _backward_batch(net, cache, d_counts)


@dataclass
class _AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0


def _adam_update(net: SpikingNet, grads: list[np.ndarray], state: _AdamState,
                 lr: float) -> None:
    state.step += 1
    for w, g, m, v in zip(net.weights, grads, state.m, state.v):
        m *= _ADAM_B1
        m += (1 - _ADAM_B1) * g
        v *= _ADAM_B2
        v += (1 - _ADAM_B2) * g * g
        m_hat = m / (1 - _ADAM_B1**state.step)
        v_hat = v / (1 - _ADAM_B2**state.step)
        w -= lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


@dataclass
class ClipDataset:
    """Fixed-shape clips ready for the network, in the dtype they were
    given (run_bench passes the codecs' int8 spikes)."""

    inputs: np.ndarray  # (n_clips, channels, frames)
    labels: np.ndarray  # (n_clips,) int class indices
    class_names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.labels)


def train(net: SpikingNet, train_set: ClipDataset, *,
          buffers=None) -> tuple[SpikingNet, list[tuple]]:
    """Adam + BPTT training on cross-entropy over output spike counts;
    returns the net and one (epoch, "train", loss, macro_acc) row per epoch.
    The inputs are read in the dtype they are given.  buffers, as
    run_protocol makes them, hold each batch's pre-reset potentials, the
    only per-layer record the forward pass stores.

    Deterministic given net.config, which holds every setting (shuffling
    and init both derive from its seed).  Raises NumericError if the loss
    goes non-finite and DataError if some class has no training samples.
    """
    cfg = net.config
    labels = np.asarray(train_set.labels)
    if len(labels) == 0:
        raise DataError("empty training set")
    present = np.unique(labels)
    if len(present) < len(train_set.class_names):
        missing = set(range(len(train_set.class_names))) - set(present.tolist())
        names = [train_set.class_names[i] for i in sorted(missing)]
        raise DataError(f"classes with no training samples: {names}")
    rng = np.random.default_rng([cfg.seed, 1])
    opt = _AdamState(m=[np.zeros_like(w) for w in net.weights],
                     v=[np.zeros_like(w) for w in net.weights])
    history = []
    n = len(train_set)
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        total_loss = 0.0
        preds = np.empty(n, dtype=np.int64)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x = train_set.inputs[idx]
            y = labels[idx]
            cache = _forward_batch(net, x, buffers=buffers)
            loss, d_counts = cross_entropy(cache.counts, y)
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch starting {start}"
                )
            grads = _backward_batch(net, cache, d_counts)
            _adam_update(net, grads, opt, cfg.lr)
            if not all(np.all(np.isfinite(w)) for w in net.weights):
                raise NumericError(
                    f"non-finite weights at epoch {epoch}, batch starting {start}"
                )
            total_loss += loss * len(idx)
            preds[idx] = np.argmax(cache.counts, axis=1)
        recalls = _recalls(labels, preds, train_set.class_names)
        acc = float(np.mean(list(recalls.values())))
        history.append((epoch, "train", total_loss / n, acc))
    return net, history


def _recalls(labels: np.ndarray, preds: np.ndarray,
             class_names: tuple[str, ...]) -> dict[str, float]:
    """Recall of each class that has samples, by name, in class order."""
    return {name: float(np.mean(preds[labels == c] == c))
            for c, name in enumerate(class_names) if np.any(labels == c)}


def evaluate_macro(net: SpikingNet, test_set: ClipDataset, *,
                   buffers=None) -> tuple[float, dict[str, float]]:
    """Macro accuracy (mean per-class recall) and the per-class recalls.

    Prediction is the argmax of output spike counts; ties resolve to the
    lowest class index.
    """
    if len(test_set) == 0:
        raise DataError("empty test set")
    labels = np.asarray(test_set.labels)
    preds = np.empty(len(labels), dtype=np.int64)
    bs = net.config.batch_size
    for start in range(0, len(labels), bs):
        cache = _forward_batch(net, test_set.inputs[start : start + bs], buffers=buffers)
        preds[start : start + len(cache.counts)] = np.argmax(cache.counts, axis=1)
    recalls = _recalls(labels, preds, test_set.class_names)
    for name in test_set.class_names:
        if name not in recalls:
            raise DataError(f"test class {name!r} is empty")
    return float(np.mean(list(recalls.values()))), recalls


# ---------------------------------------------------------------------------
# Evaluation protocol
# ---------------------------------------------------------------------------

def run_protocol(inputs: np.ndarray, labels, folds, splits,
                 cfg: SnnConfig) -> tuple[list[tuple], list[list[tuple]]]:
    """Cross-validation when folds are present, otherwise train/test holdout.

    inputs is (clips, channels, frames), kept in the dtype given (no float64
    copy is made of int8 spikes); labels, folds and splits give each clip's
    class name, fold (int or None) and split ("train" or "test").
    With k folds, model i trains on the other folds and tests on the i-th
    smallest; the holdout is one model testing on the "test" split.  Model i
    starts from init_net seeded with (cfg.seed, i).  Returns one (fold,
    macro_acc, per-class recalls) per model, fold None for the holdout, and
    train's rows per model.  Raises DataError before any training if a
    model's train or test part lacks a class, and ConfigError if a layer
    would pass MAX_LAYER_WEIGHTS at these input and class counts.
    """
    if len(labels) == 0:
        raise DataError("no samples provided")
    class_names = tuple(sorted(set(labels)))
    index = {name: i for i, name in enumerate(class_names)}
    y = np.array([index[label] for label in labels], dtype=np.int64)
    try:
        cfg = SnnConfig(**{**asdict(cfg), "output_size": len(class_names),
                           "input_size": inputs.shape[1]})
    except ValueError as exc:
        raise ConfigError(f"snn with {inputs.shape[1]} inputs and {len(class_names)} "
                          f"classes: {exc}") from exc
    fold_ids = sorted({f for f in folds if f is not None})
    if fold_ids:
        if None in folds:
            raise DataError("mixed fold/no-fold samples: manifest does not match protocol")
        parts = [(f, np.asarray(folds) == f) for f in fold_ids]
    else:
        test = np.asarray(splits) == "test"
        if test.all() or not test.any():
            raise DataError("holdout protocol needs both train and test samples")
        parts = [(None, test)]
    for fold, test in parts:
        for part, mask in (("train", ~test), ("test", test)):
            counts = np.bincount(y[mask], minlength=len(class_names))
            if not counts.all():
                model = "holdout" if fold is None else f"fold {fold}"
                raise DataError(f"{model}: {part} part has no clips of class "
                                f"{class_names[counts.argmin()]!r}")
    # Each model's forward passes reuse these, one float64 buffer of
    # pre-reset potentials per layer, not tens of MB faulted in per batch.
    shape = (inputs.shape[2], min(cfg.batch_size, len(inputs)))
    buffers = [np.empty((*shape, n)) for n in cfg.layer_sizes[1:]]
    results, histories = [], []
    for i, (fold, test) in enumerate(parts):
        net = init_net(cfg, np.random.default_rng([cfg.seed, i]))
        train_set = ClipDataset(inputs[~test], y[~test], class_names)
        net, hist = train(net, train_set, buffers=buffers)
        test_set = ClipDataset(inputs[test], y[test], class_names)
        acc, recalls = evaluate_macro(net, test_set, buffers=buffers)
        results.append((fold, acc, recalls))
        histories.append(hist)
    return results, histories

