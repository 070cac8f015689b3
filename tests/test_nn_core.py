"""Dense-network numerics: the inference pass, losses, the training pass's
gradients (ChainWorkspace and both models' loss_and_gradients), optimizer
steps and the finite-difference oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_anon.models import Classifier, VaeModel, loss_and_gradients
from latent_anon.nn import (
    MLP,
    Adam,
    Dense,
    cross_entropy_from_labels,
    grad_check,
    softmax,
    squared_error,
)
from reference_nn import forward, workspace


def make_dense(w, b, activation="identity"):
    w = np.asarray(w, dtype=float)
    b = np.asarray(b, dtype=float)
    layer = Dense(w.shape[1], w.shape[0], activation, rng=np.random.default_rng(0))
    layer.W[...] = w
    layer.b[...] = b
    return layer


class TestDenseForward:
    def test_identity_weights(self):
        layer = make_dense(np.eye(2), [0.0, 0.0])
        assert np.allclose(layer.infer(np.array([[3.0, -1.0]])), [[3.0, -1.0]])

    def test_zero_weights_return_bias(self):
        layer = make_dense(np.zeros((2, 3)), [1.0, 2.0])
        y = layer.infer(np.array([[0.0, 0.0, 0.0], [5.0, -2.0, 7.0]]))
        assert np.allclose(y, [[1.0, 2.0], [1.0, 2.0]])

    def test_relu_hand_computed(self):
        layer = make_dense([[1.0, 2.0], [0.0, 1.0]], [0.5, -0.5], "relu")
        # pre-activation [-0.5, -1.5], both clipped
        assert np.allclose(layer.infer(np.array([[1.0, -1.0]])), [[0.0, 0.0]])

    def test_shape_mismatch(self):
        # Dense.infer trusts its caller; MLP checks the batch at its boundary
        mlp = MLP([2, 2], ["identity"], np.random.default_rng(0))
        with pytest.raises(ValueError):
            mlp.infer([[1.0, 2.0, 3.0]])

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        layer = Dense(4, 3, "tanh", rng)
        xs = rng.standard_normal((5, 4))
        batch = layer.infer(xs)
        for k in range(5):
            # a batch's product is a matmul, a row's a matrix-vector product
            assert np.allclose(batch[k], layer.infer(xs[k]), rtol=0, atol=1e-12)

    def test_outputs_finite_on_finite_inputs(self):
        rng = np.random.default_rng(2)
        for act in ("identity", "relu", "tanh", "softmax"):
            layer = Dense(6, 4, act, rng)
            x = rng.standard_normal((8, 6)) * 50
            assert np.all(np.isfinite(layer.infer(x)))
            ws, (dw, db) = workspace([layer], 8)
            dx = ws.backward(rng.standard_normal(ws.forward(x).shape), input_grad=True)
            assert np.all(np.isfinite(dx)) and np.all(np.isfinite(dw)) and np.all(np.isfinite(db))

    @given(
        alpha=st.floats(-3, 3), beta=st.floats(-3, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_linearity_identity_zero_bias(self, alpha, beta, seed):
        rng = np.random.default_rng(seed)
        layer = Dense(5, 3, "identity", rng)
        layer.b[...] = 0.0
        x, y = rng.standard_normal((1, 5)), rng.standard_normal((1, 5))
        lhs = layer.infer(alpha * x + beta * y)
        rhs = alpha * layer.infer(x) + beta * layer.infer(y)
        assert np.allclose(lhs, rhs, atol=1e-10)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_direct_evaluation(self):
        # e^x / sum(e^x) computed independently with math.exp
        exps = [math.exp(v) for v in (1.0, 2.0, 3.0)]
        expected = [e / sum(exps) for e in exps]
        assert np.allclose(softmax([1.0, 2.0, 3.0]), expected, atol=1e-12)
        assert np.allclose(softmax([1.0, 2.0, 3.0]), [0.09003, 0.24473, 0.66524], atol=1e-5)

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = softmax(rng.standard_normal(rng.integers(1, 9)) * 10)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p > 0)

    @given(c=st.floats(-100, 100), seed=st.integers(0, 2**16), n=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, c, seed, n):
        x = np.random.default_rng(seed).standard_normal(n) * 5
        assert np.allclose(softmax(x + c), softmax(x), atol=1e-12)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            softmax([])

    def test_huge_logits_stable(self):
        p = softmax([1000.0, 1000.0, 0.0])
        assert np.all(np.isfinite(p)) and abs(p.sum() - 1.0) <= 1e-12


class TestCrossEntropy:
    """cross_entropy_from_labels: per-row -log p[label] over a (B, M) batch."""

    def test_perfect_prediction(self):
        assert cross_entropy_from_labels([[1.0, 0.0]], [0])[0] == 0.0

    def test_uniform_two_classes(self):
        value = cross_entropy_from_labels([[0.5, 0.5]], [0])[0]
        assert value == pytest.approx(math.log(2), abs=1e-12)

    def test_direct_evaluation(self):
        values = cross_entropy_from_labels([[0.1, 0.7, 0.2], [0.1, 0.7, 0.2]], [1, 2])
        assert values.shape == (2,)
        assert values[0] == pytest.approx(-math.log(0.7), abs=1e-12)
        assert values[1] == pytest.approx(-math.log(0.2), abs=1e-12)

    def test_non_one_hot_rejected(self):
        # targets are class indices, one per row; target rows are rejected
        for target in ([[0.5, 0.5]], [[1.0, 1.0]], [[0.0, 0.0]], [[1.0, 0.0]]):
            with pytest.raises(ValueError):
                cross_entropy_from_labels([[0.5, 0.5]], target)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy_from_labels([[0.5, 0.5], [0.5, 0.5]], [0])
        with pytest.raises(ValueError):
            cross_entropy_from_labels([0.5, 0.5], [0])

    def test_out_of_range_label_rejected(self):
        for label in (2, -1):
            with pytest.raises(ValueError):
                cross_entropy_from_labels([[0.5, 0.5]], [label])

    def test_fractional_label_rejected(self):
        for label in (0.7, 1.9, -0.5, np.nan):
            with pytest.raises(ValueError, match="whole numbers"):
                cross_entropy_from_labels([[0.5, 0.5]], [label])
        assert cross_entropy_from_labels([[0.25, 0.75]], [1.0])[0] == -math.log(0.75)

    def test_nonnegative_zero_iff_certain(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = softmax(rng.standard_normal(4))
            label = int(rng.integers(0, 4))
            value = cross_entropy_from_labels(p[None, :], [label])[0]
            assert value >= 0.0
            assert (value == 0.0) == (p[label] == 1.0)

    def test_zero_probability_clamped(self):
        value = cross_entropy_from_labels([[0.0, 1.0]], [0])[0]
        assert value == pytest.approx(-math.log(1e-12))


class TestBackward:
    """ChainWorkspace.backward, the trainers' reverse pass."""

    def test_linear(self):
        # loss = w * x with x = 2: dloss/dw = 2
        ws, (d_w, _) = workspace([make_dense([[1.5]], [0.0])], 1)
        ws.forward(np.array([[2.0]]))
        ws.backward(np.array([[1.0]]))
        assert d_w[0, 0] == pytest.approx(2.0)

    def test_quadratic(self):
        # loss = (w - 3)^2 at w = 1 has gradient -4; realized as a dense layer
        # with input 1 feeding the squared-error loss against target 3
        ws, (d_w, _) = workspace([make_dense([[1.0]], [0.0])], 1)
        y = ws.forward(np.array([[1.0]]))
        # d/dy of 0.5*(y-3)^2, doubled below
        ws.backward(y - np.array([[3.0]]))
        assert 2.0 * d_w[0, 0] == pytest.approx(-4.0)

    def test_gradient_shapes_match_parameters(self):
        rng = np.random.default_rng(5)
        mlp = MLP([4, 6, 3], ["tanh", "identity"], rng)
        ws, grads = workspace(mlp.layers, 2)
        ws.backward(np.ones_like(ws.forward(rng.standard_normal((2, 4)))))
        assert [g.shape for g in grads] == [p.shape for p in mlp.parameters()]

    def test_mlp_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        mlp = MLP([3, 5, 2], ["tanh", "identity"], rng)
        x = rng.standard_normal((4, 3))
        target = rng.standard_normal((4, 2))
        ws, grads = workspace(mlp.layers, 4)
        ws.backward(ws.forward(x) - target)
        report = grad_check(
            lambda: float(squared_error(mlp.infer(x), target).sum()), mlp.parameters(), grads, eps=1e-5
        )
        assert report.max_rel_error < 1e-6


def relu_margins(layers, x):
    """The pre-activations of the relu layers on x: a probe that changes the
    sign of one straddles a kink."""
    caches = zip(layers, forward(layers, x))
    return np.concatenate([z.ravel() for layer, (_, z, _) in caches if layer.activation == "relu"])


def _mlp_loss_setup(seed, activations):
    """A squared-error loss on an MLP: the loss through the inference pass,
    its gradients through ChainWorkspace, and the relu margins."""
    rng = np.random.default_rng(seed)
    mlp = MLP([4, 8, 5, 2], activations, rng)
    x = rng.standard_normal((3, 4))
    target = rng.standard_normal((3, 2))
    ws, grads = workspace(mlp.layers, 3)
    ws.backward(ws.forward(x) - target)

    def loss():
        return float(squared_error(mlp.infer(x), target).sum())

    return mlp, loss, grads, lambda: relu_margins(mlp.layers, x)


class TestGradCheck:
    def test_quadratic_nearly_exact(self):
        w = np.array([3.0])
        report = grad_check(lambda: float(w[0] ** 2), [w], [np.array([6.0])], eps=1e-5)
        assert report.max_rel_error < 1e-9

    def test_hundred_random_smooth_points(self):
        # the package-wide gradient contract: every differentiable loss built
        # from these primitives matches central differences to 1e-6
        worst = 0.0
        for seed in range(100):
            mlp, loss, grads, _ = _mlp_loss_setup(seed, ["tanh", "tanh", "identity"])
            report = grad_check(loss, mlp.parameters(), grads, eps=1e-5)
            worst = max(worst, report.max_rel_error)
        # the VAE's loss, at every fifth point
        for seed in range(0, 100, 5):
            rng = np.random.default_rng(seed)
            vae = VaeModel(4, 2, 2, hidden=(5,), rng=rng)
            x, y, noise = rng.standard_normal((3, 4)), rng.integers(0, 2, size=3), rng.standard_normal((3, 2))
            alpha, beta = rng.uniform(0.2, 3.0, size=2)
            loss = lambda: loss_and_gradients(vae, x, y, alpha, beta, noise)
            report = grad_check(lambda: loss()[0].total, vae.parameters(), loss()[1], eps=1e-5)
            worst = max(worst, report.max_rel_error)
        assert worst < 1e-6

    def test_relu_kinks_are_skipped_and_counted(self):
        # force pre-activations onto the kink so probes straddle it
        rng = np.random.default_rng(8)
        layer = Dense(2, 2, "relu", rng)
        layer.W[...] = np.eye(2)
        layer.b[...] = 0.0
        x = np.array([[0.0, 1.0]])  # first unit sits exactly on the kink

        ws, (_, d_b) = workspace([layer], 1)
        ws.forward(x)
        ws.backward(np.ones((1, 2)))
        report = grad_check(
            lambda: float(layer.infer(x).sum()),
            [layer.b],
            [d_b],
            eps=1e-5,
            kink_margins=lambda: relu_margins([layer], x),
        )
        assert report.n_skipped >= 1
        assert report.max_rel_error < 1e-6

    def test_relu_mlp_with_masking(self):
        worst = 0.0
        for seed in range(20):
            mlp, loss, grads, margins = _mlp_loss_setup(seed, ["relu", "relu", "identity"])
            report = grad_check(loss, mlp.parameters(), grads, eps=1e-5, kink_margins=margins)
            worst = max(worst, report.max_rel_error)
            # the classifier: relu hidden layers, fused softmax + cross entropy
            rng = np.random.default_rng(seed)
            clf = Classifier(4, 3, hidden=(8, 5), rng=rng)
            x, y = rng.standard_normal((3, 4)), rng.integers(0, 3, size=3)
            _, grads = clf.loss_and_gradients(x, y)
            report = grad_check(
                lambda: float(cross_entropy_from_labels(clf.predict_proba(x), y).sum()),
                clf.parameters(),
                grads,
                eps=1e-5,
                kink_margins=lambda: relu_margins(clf.mlp.layers, x),
            )
            worst = max(worst, report.max_rel_error)
        assert worst < 1e-6

    def test_eps_bounds(self):
        w = np.array([1.0])
        with pytest.raises(ValueError):
            grad_check(lambda: float(w[0]), [w], [np.array([1.0])], eps=1e-2)

    def test_non_finite_probe_rejected(self):
        w = np.array([0.0])

        def loss():
            return float("nan")

        with pytest.raises(ValueError):
            grad_check(loss, [w], [np.array([0.0])], eps=1e-5)


class TestOptimizers:
    def test_zero_gradient_leaves_parameters_bitwise(self):
        opt = Adam(0.1)
        p = np.array([1.2345, -0.5])
        before = p.tobytes()
        for _ in range(3):
            opt.step([p], [np.zeros(2)])
        assert p.tobytes() == before

    def test_adam_converges_on_quadratic(self):
        # f(w) = (w - 5)^2 from w = 0; 200 adaptive steps at lr 0.1 land
        # within 0.05 (convergence run gives |w - 5| ~ 1e-4)
        w = np.array([0.0])
        opt = Adam(learning_rate=0.1)
        for _ in range(200):
            opt.step([w], [2.0 * (w - 5.0)])
        assert abs(w[0] - 5.0) < 0.05

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Adam(0.1).step([np.zeros(2)], [np.zeros(3)])

    def test_adam_moves_against_gradient(self):
        p = np.array([0.0, 0.0])
        Adam(learning_rate=0.01).step([p], [np.array([1.0, -1.0])])
        assert p[0] < 0.0 < p[1]
