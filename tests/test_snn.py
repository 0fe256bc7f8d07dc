"""LIF dynamics, surrogate-gradient BPTT, training, and the eval protocol."""

import tracemalloc
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from spikesound import snn
from spikesound.errors import ConfigError, DataError, NumericError
from spikesound.snn import (
    MAX_LAYER_WEIGHTS,
    ClipDataset,
    SnnConfig,
    SpikingNet,
    _lif_update,
    evaluate_macro,
    forward,
    init_net,
    run_protocol,
    smooth_loss_and_grads,
    train,
)


def toy_two_class_set(seed=0, n=32, channels=8, frames=16):
    """Two classes with disjoint active channels: a linear readout on spike
    counts separates them by construction."""
    rng = np.random.default_rng(seed)
    x = np.zeros((n, channels, frames))
    y = np.zeros(n, dtype=np.int64)
    for i in range(n):
        cls = i % 2
        y[i] = cls
        active = range(0, channels // 2) if cls == 0 else range(channels // 2, channels)
        for c in active:
            x[i, c, rng.random(frames) < 0.5] = 1.0
    return ClipDataset(inputs=x, labels=y, class_names=("low", "high"))


class TestLifStep:
    """_lif_update, the LIF law _forward_batch runs at every frame."""

    def test_integrate_and_fire_arithmetic(self):
        spikes, _, membrane = _lif_update(np.array([0.5]), np.array([0.6]), 0.9, 1.0)
        # U' = 0.9*0.5 + 0.6 = 1.05 >= 1 -> spike, reset to 0.05
        assert spikes.tolist() == [1.0]
        assert membrane[0] == pytest.approx(0.05)

    def test_silent_decay_never_spikes(self):
        membrane = np.array([0.99])
        for k in range(1, 30):
            spikes, _, membrane = _lif_update(membrane, np.array([0.0]), 0.9, 1.0)
            assert spikes[0] == 0.0
            assert membrane[0] == pytest.approx(0.99 * 0.9**k)

    def test_threshold_boundary_fires(self):
        spikes, _, membrane = _lif_update(np.array([0.0]), np.array([1.0]), 0.9, 1.0)
        assert spikes.tolist() == [1.0]
        assert membrane[0] == 0.0


class TestForward:
    def test_zero_input_zero_output_any_weights(self):
        # bias-free layers: no current means no spikes anywhere
        rng = np.random.default_rng(1)
        cfg = SnnConfig(input_size=6, hidden_sizes=(5, 4, 3), output_size=2,
                        seed=7)
        net = init_net(cfg)
        for w in net.weights:
            w += rng.normal(scale=3.0, size=w.shape)
        counts, layer_spikes = forward(net, np.zeros((6, 20)))
        assert not counts.any()
        assert all(not s.any() for s in layer_spikes)

    def test_deterministic(self):
        cfg = SnnConfig(input_size=4, hidden_sizes=(4, 4, 4), output_size=3,
                        seed=3)
        net = init_net(cfg)
        rng = np.random.default_rng(4)
        x = rng.choice([-1.0, 0.0, 1.0], size=(4, 30))
        a, _ = forward(net, x)
        b, _ = forward(net, x)
        assert a.tolist() == b.tolist()

    def test_hand_traced_propagation_2222(self):
        # Doubled-identity weights: a +1 spike on channel 0 at t=0 drives
        # every layer over threshold in the same frame (I=2 -> spike,
        # residual membrane 1), then residuals decay silently: 0.9 < 1.
        cfg = SnnConfig(input_size=2, hidden_sizes=(2, 2), output_size=2,
                        beta=0.9, theta=1.0, seed=0)
        net = init_net(cfg)
        net.weights = [np.eye(2) * 2.0 for _ in range(3)]
        x = np.zeros((2, 3))
        x[0, 0] = 1.0
        counts, layer_spikes = forward(net, x)
        assert counts.tolist() == [1.0, 0.0]
        for s in layer_spikes:
            assert s[0].tolist() == [1.0, 0.0]  # frame 0 propagates
            assert not s[1:].any()              # decay keeps U = 0.9 < theta

    def test_spike_records_are_the_spikes_fired(self, monkeypatch):
        # forward recomputes each layer's spikes from its pre-reset
        # potentials; they must be the very spikes _lif_update returned
        fired = []

        def recording(*args):
            out = _lif_update(*args)
            fired.append(out[0].copy())
            return out

        monkeypatch.setattr(snn, "_lif_update", recording)
        cfg = SnnConfig(input_size=6, hidden_sizes=(7, 5, 4), output_size=3, seed=2)
        net = init_net(cfg)
        for w in net.weights:
            w *= 4.0
        x = np.random.default_rng(8).choice([-1.0, 0.0, 1.0], size=(6, 40))
        counts, records = forward(net, x)
        assert len(fired) == 40 * 4
        for l, record in enumerate(records):
            expected = np.stack([fired[t * 4 + l][0] for t in range(40)])
            assert record.dtype == np.float64
            assert record.tobytes() == expected.tobytes()
        assert all(r.any() for r in records)  # every layer fires somewhere
        assert counts.tolist() == records[-1].sum(axis=0).tolist()

    def test_membranes_stay_finite_on_bounded_input(self):
        cfg = SnnConfig(input_size=8, hidden_sizes=(8, 8, 8), output_size=2,
                        seed=5)
        net = init_net(cfg)
        rng = np.random.default_rng(6)
        x = rng.choice([-1.0, 1.0], size=(8, 500))
        counts, _ = forward(net, x)
        assert np.all(np.isfinite(counts))


def max_grad_rel_error(slope, weight_scale, h, seed, floor=1e-12):
    """Worst relative error between analytic BPTT gradients and central
    finite differences on a smooth-mode 2-2-2-2 network."""
    cfg = SnnConfig(input_size=2, hidden_sizes=(2, 2), output_size=2,
                    seed=seed, surrogate_slope=slope)
    net = init_net(cfg)
    for w in net.weights:
        w *= weight_scale
    rng = np.random.default_rng(seed + 100)
    x = rng.choice([-1.0, 0.0, 1.0], size=(3, 2, 6))
    y = rng.integers(0, 2, size=3)
    _, grads = smooth_loss_and_grads(net, x, y)
    worst = 0.0
    for li, w in enumerate(net.weights):
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                orig = w[i, j]
                w[i, j] = orig + h
                lp, _ = smooth_loss_and_grads(net, x, y)
                w[i, j] = orig - h
                lm, _ = smooth_loss_and_grads(net, x, y)
                w[i, j] = orig
                fd = (lp - lm) / (2 * h)
                an = grads[li][i, j]
                if max(abs(fd), abs(an)) < floor:
                    continue
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an)))
    return worst


class TestSurrogateGradients:
    """Analytic BPTT vs central finite differences on the smooth network."""

    @pytest.mark.parametrize("slope", [2.0, 5.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradcheck_2222_net(self, slope, seed):
        rel = max_grad_rel_error(slope, weight_scale=2.0, h=1e-5, seed=seed)
        assert rel <= 1e-4

    def test_gradcheck_production_slope_above_noise_floor(self):
        # At slope 25 the deepest-layer gradients sit at ~1e-10, below what
        # double-precision central differences can certify; elements above
        # the FD noise floor must still match tightly.
        rel = max_grad_rel_error(25.0, weight_scale=2.0, h=1e-5, seed=0,
                                 floor=1e-7)
        assert rel <= 1e-4


class TestTraining:
    def test_zero_learning_rate_leaves_weights_unchanged(self):
        # SnnConfig rejects lr 0, so a plain namespace as net.config carries
        # it to train: every weight change goes through the lr-scaled Adam step
        ds = toy_two_class_set()
        cfg = SnnConfig(input_size=8, hidden_sizes=(8, 8, 8), output_size=2,
                        epochs=3, batch_size=16, seed=9)
        net = init_net(cfg)
        before = [w.copy() for w in net.weights]
        net.config = SimpleNamespace(**{**asdict(cfg), "lr": 0.0})
        net, _ = train(net, ds)
        for w, w0 in zip(net.weights, before):
            assert w.tolist() == w0.tolist()

    def test_initial_loss_near_log_n_classes(self):
        # symmetric small init produces (almost) no output spikes, so the
        # first-epoch loss starts at ln(n_classes); one batch per epoch, so
        # the loss is taken before the first update
        ds = toy_two_class_set()
        cfg = SnnConfig(input_size=8, hidden_sizes=(8, 8, 8), output_size=2,
                        epochs=1, batch_size=32, seed=10)
        net = init_net(cfg)
        _, hist = train(net, ds)
        assert hist[0][2] == pytest.approx(np.log(2), rel=0.1)

    def test_separable_toy_set_reaches_perfect_accuracy(self):
        ds = toy_two_class_set()
        cfg = SnnConfig(input_size=8, hidden_sizes=(16, 16, 16), output_size=2,
                        lr=0.01, batch_size=32, epochs=200, seed=42)
        net, hist = train(init_net(cfg), ds)
        accs = [row[3] for row in hist]
        assert max(accs) == 1.0
        assert accs[-1] == 1.0

    def test_training_deterministic_given_seed(self):
        ds = toy_two_class_set()
        cfg = SnnConfig(input_size=8, hidden_sizes=(8, 8, 8), output_size=2,
                        lr=0.01, batch_size=8, epochs=5, seed=11)
        net_a, hist_a = train(init_net(cfg), ds)
        net_b, hist_b = train(init_net(cfg), ds)
        for wa, wb in zip(net_a.weights, net_b.weights):
            assert wa.tolist() == wb.tolist()
        assert hist_a == hist_b

    def test_missing_class_rejected(self):
        ds = toy_two_class_set()
        only_zero = ClipDataset(inputs=ds.inputs[ds.labels == 0],
                                labels=ds.labels[ds.labels == 0],
                                class_names=("low", "high"))
        cfg = SnnConfig(input_size=8, hidden_sizes=(8,), output_size=2,
                        epochs=1, seed=1)
        with pytest.raises(DataError):
            train(init_net(cfg), only_zero)

    def test_int8_inputs_train_the_same_weights_as_float64(self):
        # ternary inputs make every product of the layer-0 matmuls exact, so
        # keeping the codec's int8 changes no weight bit
        rng = np.random.default_rng(15)
        x = rng.integers(-1, 2, size=(20, 8, 24)).astype(np.int8)
        y = np.arange(20) % 2
        cfg = SnnConfig(input_size=8, hidden_sizes=(8, 8, 8), output_size=2,
                        epochs=3, batch_size=8, seed=16)
        nets = [train(init_net(cfg), ClipDataset(xs, y, ("a", "b")))
                for xs in (x, x.astype(np.float64))]
        (net_a, hist_a), (net_b, hist_b) = nets
        assert hist_a == hist_b
        for wa, wb in zip(net_a.weights, net_b.weights):
            assert wa.tobytes() == wb.tobytes()

    def test_non_finite_weights_abort_with_diagnostic(self):
        # binary spikes launder inf into {0, 1}, so corruption is caught by
        # the per-batch weight finiteness check rather than the loss value
        ds = toy_two_class_set()
        cfg = SnnConfig(input_size=8, hidden_sizes=(8, 8, 8), output_size=2,
                        lr=0.01, epochs=2, batch_size=8, seed=14)
        net = init_net(cfg)
        net.weights[0][0, 0] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="epoch"):
                train(net, ds)


class TestEvaluateMacro:
    def _constant_net(self, n_classes, channels=4):
        # negative first-layer weights: no spikes ever -> counts all zero ->
        # argmax ties resolve to class 0
        cfg = SnnConfig(input_size=channels, hidden_sizes=(4, 4, 4),
                        output_size=n_classes, seed=0)
        net = init_net(cfg)
        net.weights[0] = -np.abs(net.weights[0])
        return net, cfg

    def test_macro_is_mean_of_recalls(self):
        # recalls {1.0, 0.5} -> 0.75
        assert np.mean([1.0, 0.5]) == 0.75

    def test_constant_predictor_on_balanced_three_classes(self):
        net, cfg = self._constant_net(3)
        rng = np.random.default_rng(12)
        x = np.abs(rng.choice([0.0, 1.0], size=(30, 4, 10)))
        labels = np.repeat([0, 1, 2], 10)
        ds = ClipDataset(inputs=x, labels=labels, class_names=("a", "b", "c"))
        macro, recalls = evaluate_macro(net, ds)
        assert recalls == {"a": 1.0, "b": 0.0, "c": 0.0}
        assert macro == pytest.approx(1.0 / 3.0)

    def test_perfect_classifier_scores_one(self):
        ds = toy_two_class_set()
        cfg = SnnConfig(input_size=8, hidden_sizes=(16, 16, 16), output_size=2,
                        lr=0.01, batch_size=32, epochs=60, seed=42)
        net, _ = train(init_net(cfg), ds)
        macro, _ = evaluate_macro(net, ds)
        assert macro == 1.0

    def test_macro_invariant_under_relabeling(self):
        ds = toy_two_class_set()
        cfg = SnnConfig(input_size=8, hidden_sizes=(16, 16, 16), output_size=2,
                        lr=0.01, batch_size=32, epochs=40, seed=13)
        net, _ = train(init_net(cfg), ds)
        macro, _ = evaluate_macro(net, ds)
        # swap the two classes everywhere: inputs, labels, readout weights
        swapped = ClipDataset(inputs=ds.inputs,
                              labels=1 - ds.labels,
                              class_names=("high", "low"))
        net_swapped = SpikingNet(weights=[w.copy() for w in net.weights],
                                 config=net.config)
        net_swapped.weights[-1] = net.weights[-1][:, ::-1].copy()
        macro_swapped, _ = evaluate_macro(net_swapped, swapped)
        assert macro_swapped == macro

    def test_empty_test_set_rejected(self):
        net, _ = self._constant_net(2)
        ds = ClipDataset(inputs=np.zeros((0, 4, 5)), labels=np.zeros(0, dtype=int),
                         class_names=("a", "b"))
        with pytest.raises(DataError):
            evaluate_macro(net, ds)


class TestRunProtocol:
    def _samples(self, folds=None, n_per_class=6, channels=8, frames=12, seed=0):
        """(inputs, labels, folds, splits) of two separable classes."""
        rng = np.random.default_rng(seed)
        inputs, labels, fold_ids, splits = [], [], [], []
        for cls, name in enumerate(("low", "high")):
            for j in range(n_per_class):
                x = np.zeros((channels, frames))
                active = range(0, 4) if cls == 0 else range(4, 8)
                for c in active:
                    x[c, rng.random(frames) < 0.6] = 1.0
                inputs.append(x)
                labels.append(name)
                fold_ids.append(None if folds is None else folds[j % len(folds)])
                splits.append("test" if j >= n_per_class - 2 else "train")
        return np.stack(inputs), labels, fold_ids, splits

    def _cfg(self, epochs=40):
        return SnnConfig(input_size=8, hidden_sizes=(12, 12, 12), output_size=2,
                         lr=0.01, batch_size=8, epochs=epochs, seed=21)

    def test_five_fold_protocol_runs_five_times(self):
        # the mean row is run_bench's; TestRunBench::test_fold_path_reports
        # checks it against these per-fold accuracies
        results, histories = run_protocol(*self._samples(folds=[0, 1, 2, 3, 4],
                                                         n_per_class=10),
                                          self._cfg(epochs=25))
        assert [fold for fold, _, _ in results] == [0, 1, 2, 3, 4]
        assert all(0.0 <= acc <= 1.0 and set(recalls) == {"low", "high"}
                   for _, acc, recalls in results)
        assert [len(h) for h in histories] == [25] * 5

    def test_separable_folds_reach_perfect_mean(self):
        results, _ = run_protocol(*self._samples(folds=[0, 1], n_per_class=8),
                                  self._cfg(epochs=60))
        assert [acc for _, acc, _ in results] == [1.0, 1.0]

    def test_fold_mean_arithmetic(self):
        assert np.mean([0.6, 0.8]) == pytest.approx(0.7)

    def test_holdout_protocol(self):
        results, histories = run_protocol(*self._samples(folds=None, n_per_class=8),
                                          self._cfg(epochs=60))
        assert len(results) == len(histories) == 1
        fold, acc, _ = results[0]
        assert fold is None
        assert acc == 1.0

    def test_int8_and_float64_spikes_give_identical_results(self):
        rng = np.random.default_rng(17)
        x = rng.integers(-1, 2, size=(24, 8, 30)).astype(np.int8)
        labels = ["low", "high", "mid"] * 8
        folds = [(i // 3) % 4 for i in range(24)]
        runs = [run_protocol(xs, labels, folds, ["train"] * 24, self._cfg(epochs=4))
                for xs in (x, x.astype(np.float64))]
        assert runs[0] == runs[1]
        assert len(runs[0][0]) == 4

    def test_peak_memory_is_the_pre_reset_buffers(self):
        # One float64 buffer of pre-reset potentials per layer, 15.9 MiB
        # here, and the int8 spikes as given: a float64 copy of the inputs
        # (6.6 MiB) or a second buffer set (15.9 MiB) passes the bound.
        rng = np.random.default_rng(18)
        x = rng.integers(-1, 2, size=(40, 128, 169)).astype(np.int8)
        cfg = SnnConfig(epochs=1)
        pre_reset = 169 * cfg.batch_size * (3 * 128 + 2) * 8
        tracemalloc.start()
        try:
            run_protocol(x, ["a", "b"] * 20, [None] * 40,
                         ["train"] * 30 + ["test"] * 10, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pre_reset < peak < pre_reset + (4 << 20)

    def test_layer_bound_checked_at_the_real_layer_sizes(self):
        # 2^24 x 1 weights fit the configured output layer; the two classes
        # need 2^24 x 2, which is refused before any weight is allocated.
        cfg = SnnConfig(input_size=8, hidden_sizes=(1, 1, MAX_LAYER_WEIGHTS), output_size=1)
        with pytest.raises(ConfigError, match="2 classes"):
            run_protocol(*self._samples(), cfg)
        with pytest.raises(ValueError, match="at most"):
            SnnConfig(hidden_sizes=(MAX_LAYER_WEIGHTS // 128 + 1,))

    def test_mixed_fold_none_rejected(self):
        inputs, labels, folds, splits = self._samples(folds=[0, 1])
        folds[0] = None
        with pytest.raises(DataError):
            run_protocol(inputs, labels, folds, splits, self._cfg())

    @pytest.mark.parametrize("folds, splits, message", [
        ([0, 1, 2, 0, 1, 0], None, "fold 2: test part has no clips of class 'high'"),
        ([0] * 6, None, "fold 0: train part has no clips of class 'high'"),
        (None, ["train", "test", "test", "train", "train", "train"],
         "holdout: test part has no clips of class 'high'"),
        (None, ["train", "test", "test", "test", "test", "test"],
         "holdout: train part has no clips of class 'high'"),
    ], ids=["fold_test", "fold_train", "holdout_test", "holdout_train"])
    def test_class_missing_from_a_part_rejected_before_training(
            self, monkeypatch, folds, splits, message):
        def no_train(*args):
            raise AssertionError("train called")

        monkeypatch.setattr(snn, "train", no_train)
        # classes sort as ("high", "low"); "low" is clips 0-2, "high" clips 3-5
        inputs, labels, no_folds, default_splits = self._samples(n_per_class=3)
        with pytest.raises(DataError, match=message):
            run_protocol(inputs, labels, folds or no_folds, splits or default_splits,
                         self._cfg())

