"""The flat parameter vector, the one-pass Adam step and the skipped input
gradient, each against a reference copy of the per-tensor code it replaced.

Every comparison is bitwise: the new code runs the same floating-point
operations in the same order. No hash of trained parameters is pinned, since
BLAS kernels differ between CPUs; both sides of each comparison run here.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_anon.data import Embedding
from latent_anon.models import (
    Classifier,
    TrainConfig,
    VaeModel,
    load_model,
    loss_and_gradients,
    save_model,
    train_classifier,
    train_vae,
)
from latent_anon.models.classifier import ClassifierWorkspace
from latent_anon.models.training import _fit
from latent_anon.models.vae import VaeWorkspace
from latent_anon.nn import ACTIVATIONS, MLP, Adam, Dense
from reference_nn import classifier_loss, workspace


class ReferenceAdam:
    """The per-tensor Adam loop the one-pass step replaced, kept verbatim."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, learning_rate=1e-3):
        self.learning_rate = learning_rate
        self.step_count = 0
        self._m = None
        self._v = None

    def step(self, params, grads):
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.BETA1, self.BETA2
        for k, (p, g) in enumerate(zip(params, grads)):
            m = self._m[k]
            v = self._v[k]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            p -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.EPS)


def reference_fit(params, loss_and_grads, n, config, rng):
    """The trainer loop before the flat vector: ReferenceAdam over the
    per-tensor parameter list."""
    opt = ReferenceAdam(learning_rate=config.learning_rate)
    history = []
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        epoch_total = 0.0
        for start in range(0, n, config.batch_size):
            loss, grads = loss_and_grads(perm[start : start + config.batch_size])
            opt.step(params, grads)
            epoch_total += loss
        history.append(epoch_total / n)
    return history


def dataset(n=45, dim=10, n_public=1, n_private=3, seed=0):
    rng = np.random.default_rng(seed)
    return [
        Embedding(
            x=rng.standard_normal(dim) + (k % n_private),
            true_public=(k % n_public),
            true_private=(k % n_private),
        )
        for k in range(n)
    ]


def as_bytes(params):
    return [p.tobytes() for p in params]


shape_lists = st.lists(
    st.one_of(
        st.tuples(st.integers(1, 6)),
        st.tuples(st.integers(1, 5), st.integers(1, 5)),
    ),
    min_size=1,
    max_size=5,
)


class TestAdamAgainstPerTensorLoop:
    @given(
        shapes=shape_lists,
        scale=st.sampled_from([1e-9, 1e-3, 1.0, 1e4]),
        lr=st.sampled_from([1e-3, 0.1]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_per_tensor_and_flat(self, shapes, scale, lr, seed):
        rng = np.random.default_rng(seed)
        initial = [rng.standard_normal(s) for s in shapes]
        steps = [[scale * rng.standard_normal(s) for s in shapes] for _ in range(6)]

        ref = [p.copy() for p in initial]
        per_tensor = [p.copy() for p in initial]
        # the trainer's layout: one flat vector and views of it per tensor
        flat = np.concatenate([p.ravel() for p in initial])
        views, offset = [], 0
        for p in initial:
            views.append(flat[offset : offset + p.size].reshape(p.shape))
            offset += p.size

        ref_opt, opt, flat_opt = ReferenceAdam(lr), Adam(lr), Adam(lr)
        for grads in steps:
            ref_opt.step(ref, grads)
            opt.step(per_tensor, grads)
            flat_opt.step([flat], [np.concatenate([g.ravel() for g in grads])])
            assert as_bytes(per_tensor) == as_bytes(ref)
            assert as_bytes(views) == as_bytes(ref)

    def test_parameter_list_must_keep_its_size(self):
        opt = Adam(0.1)
        opt.step([np.zeros(2)], [np.ones(2)])
        with pytest.raises(ValueError, match="changed size"):
            opt.step([np.zeros(2), np.zeros(2)], [np.ones(2), np.ones(2)])


class TestTrainersAgainstReferenceLoop:
    # 45 rows in batches of 8: the last batch of each epoch holds 5
    CONFIG = TrainConfig(epochs=4, batch_size=8, learning_rate=1e-2, seed=3, hidden=(7, 5))

    def test_classifier_bitwise(self):
        embeddings = dataset()
        config = self.CONFIG
        model, history = train_classifier(embeddings, "private", config, n_classes=3)

        x = np.stack([e.x for e in embeddings])
        y = np.array([e.true_private for e in embeddings])
        rng = np.random.default_rng(config.seed)
        ref = Classifier(x.shape[1], 3, attribute="private", hidden=config.hidden, rng=rng)
        ref_history = reference_fit(
            ref.parameters(),
            lambda idx: classifier_loss(ref, x[idx], y[idx], input_grad=True),
            x.shape[0],
            config,
            rng,
        )
        assert history == ref_history
        assert as_bytes(model.parameters()) == as_bytes(ref.parameters())

    def test_vae_bitwise(self):
        embeddings = dataset()
        config = self.CONFIG
        model, history = train_vae(embeddings, config, n_private=3)

        x = np.stack([e.x for e in embeddings])
        y = np.array([e.true_private for e in embeddings])
        rng = np.random.default_rng(config.seed)
        ref = VaeModel(
            input_dim=x.shape[1], latent_dim=config.latent_dim, n_private=3,
            public_class=0, hidden=config.hidden, rng=rng, alpha=config.alpha, beta=config.beta,
        )

        def loss_and_grads(idx):
            noise = rng.standard_normal((idx.size, config.latent_dim))
            breakdown, grads = loss_and_gradients(ref, x[idx], y[idx], config.alpha, config.beta, noise)
            return breakdown.total, grads

        ref_history = reference_fit(ref.parameters(), loss_and_grads, x.shape[0], config, rng)
        assert history == ref_history
        assert as_bytes(model.parameters()) == as_bytes(ref.parameters())


class TestSkippedInputGradient:
    @given(
        sizes=st.lists(st.integers(1, 6), min_size=2, max_size=4),
        activation=st.sampled_from(ACTIVATIONS),
        batch=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_mlp_parameter_gradients_bitwise_equal(self, sizes, activation, batch, seed):
        rng = np.random.default_rng(seed)
        mlp = MLP(sizes, [activation] * (len(sizes) - 1), rng)
        ws, grads = workspace(mlp.layers, batch)
        x = rng.standard_normal((batch, sizes[0]))
        d_out = rng.standard_normal(ws.forward(x).shape)
        d_x = ws.backward(d_out.copy(), input_grad=True)
        full = as_bytes(grads)
        ws.forward(x)
        skipped = ws.backward(d_out.copy())
        assert skipped is None and d_x.shape == (batch, sizes[0])
        assert as_bytes(grads) == full

    def test_dense_returns_no_input_gradient(self):
        rng = np.random.default_rng(1)
        ws, grads = workspace([Dense(4, 3, "tanh", rng)], 2)
        x = rng.standard_normal((2, 4))
        d = rng.standard_normal(ws.forward(x).shape)
        full = ws.backward(d.copy(), input_grad=True), as_bytes(grads)
        ws.forward(x)
        skipped = ws.backward(d.copy(), input_grad=False), as_bytes(grads)
        assert full[0] is not None and skipped[0] is None
        assert skipped[1] == full[1]

    @pytest.mark.parametrize("hidden", [(), (6,), (6, 4)])
    def test_classifier_gradients_equal_the_full_backward(self, hidden):
        rng = np.random.default_rng(2)
        model = Classifier(5, 3, hidden=hidden, rng=rng)
        x = rng.standard_normal((7, 5))
        y = rng.integers(0, 3, size=7)
        loss, grads = model.loss_and_gradients(x, y)
        ref_loss, ref_grads = classifier_loss(model, x, y, input_grad=True)
        assert loss == ref_loss
        assert as_bytes(grads) == as_bytes(ref_grads)


def dense_layers(model):
    if isinstance(model, Classifier):
        return model.mlp.layers
    return [
        *model.encoder.layers, model.mu_head, model.logvar_head,
        *model.decoder.layers, model.class_head,
    ]


def make_models(seed=4):
    rng = np.random.default_rng(seed)
    return [
        Classifier(6, 3, hidden=(5, 4), rng=rng),
        VaeModel(input_dim=6, latent_dim=2, n_private=3, hidden=(5, 4), rng=rng),
    ]


class TestFlatLayout:
    def assert_flat(self, model):
        flat = model.parameter_vector
        params = model.parameters()
        assert flat.dtype == np.float64 and flat.flags.c_contiguous
        assert flat.ctypes.data % 64 == 0
        assert flat.size == sum(p.size for p in params)
        assert all(np.shares_memory(p, flat) for p in params)
        assert np.concatenate([p.ravel() for p in params]).tobytes() == flat.tobytes()

    @pytest.mark.parametrize("kind", ["classifier", "vae"])
    def test_every_parameter_is_a_view_in_order(self, kind):
        model = make_models()[kind == "vae"]
        self.assert_flat(model)
        flat_before = model.parameter_vector.copy()
        model.parameters()[-1][0] += 1.0
        changed = np.flatnonzero(model.parameter_vector != flat_before)
        assert changed.tolist() == [model.parameter_vector.size - model.parameters()[-1].size]

    def test_initial_values_drawn_as_per_tensor_layers(self):
        # same rng order as layers that each own their arrays: W uniform in
        # +-sqrt(6 / (n_in + n_out)), then the next layer; biases zero
        models = make_models()
        rng = np.random.default_rng(4)
        for model in models:
            for layer in dense_layers(model):
                limit = np.sqrt(6.0 / (layer.n_in + layer.n_out))
                expected = rng.uniform(-limit, limit, size=(layer.n_out, layer.n_in))
                assert layer.W.tobytes() == expected.tobytes()
                assert not layer.b.any()

    @pytest.mark.parametrize("kind", ["classifier", "vae"])
    def test_loaded_model_trains_through_its_vector(self, kind, tmp_path):
        model = make_models()[kind == "vae"]
        path = tmp_path / "model.lann"
        save_model(path, model)
        loaded, _ = load_model(path)
        self.assert_flat(loaded)
        assert as_bytes(loaded.parameters()) == as_bytes(model.parameters())

        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 6))
        y = np.array([0, 1, 2, 0])
        # _fit's step writes the batch gradient into _fit's flat vector
        # through a workspace that views it
        if kind == "vae":
            noise = rng.standard_normal((4, loaded.latent_dim))
            step = lambda idx, grad: loss_and_gradients(
                loaded, x[idx], y[idx], 1.0, 1.0, noise[idx], VaeWorkspace(loaded, idx.size, grad)
            )[0].total
        else:
            step = lambda idx, grad: loaded.loss_and_gradients(
                x[idx], y[idx], ClassifierWorkspace(loaded, idx.size, grad)
            )[0]
        before = as_bytes(loaded.parameters())
        _fit(loaded, step, 4, TrainConfig(epochs=1, batch_size=4), rng)
        after = as_bytes(loaded.parameters())
        assert after != before
        self.assert_flat(loaded)


class TestTrainingInputValidation:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("epochs", -3, "epochs"),
            ("epochs", -1, "epochs"),
            ("batch_size", -5, "batch_size"),
            ("batch_size", 0, "batch_size"),
            ("learning_rate", float("nan"), "learning_rate"),
            ("learning_rate", float("inf"), "learning_rate"),
            ("learning_rate", 0.0, "learning_rate"),
            ("learning_rate", -1e-3, "learning_rate"),
            # these failed deep inside training, or trained a negated term
            ("alpha", float("nan"), "alpha must be finite and >= 0"),
            ("alpha", float("inf"), "alpha must be finite and >= 0"),
            ("alpha", -2.0, "alpha must be finite and >= 0"),
            ("beta", float("inf"), "beta must be finite and >= 0"),
            ("beta", -1.0, "beta must be finite and >= 0"),
            ("latent_dim", 0, "latent_dim must be >= 1"),
            ("latent_dim", 2.0, "latent_dim must be an integer"),
            ("epochs", 2.5, "epochs must be an integer"),
            ("batch_size", 3.5, "batch_size must be an integer"),
            ("seed", -1, "seed must be >= 0"),
            ("hidden", (8.5,), "hidden must be a tuple of integers >= 1"),
            ("hidden", (8, 0), "hidden must be a tuple of integers >= 1"),
            ("hidden", [64, 32], "hidden must be a tuple of integers >= 1"),
        ],
    )
    def test_config_rejects(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{field: value})

    def test_replace_is_checked(self):
        # grid_search derives its configs with replace
        with pytest.raises(ValueError, match="beta must be finite"):
            replace(TrainConfig(), alpha=1.0, beta=-1.0)

    def test_zero_epochs_and_batch_of_one_accepted(self):
        config = TrainConfig(epochs=0, batch_size=1)
        assert (config.epochs, config.batch_size) == (0, 1)

    def test_zero_weights_and_numpy_integers_accepted(self):
        config = TrainConfig(
            alpha=0.0, beta=0, epochs=np.int64(2), latent_dim=np.int32(3), seed=np.uint32(7), hidden=()
        )
        assert (config.alpha, config.beta, config.latent_dim) == (0.0, 0, 3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("trainer", ["classifier", "vae"])
    def test_non_finite_row_named(self, bad, trainer):
        embeddings = dataset(n=12)
        embeddings[7].x[3] = bad
        embeddings[9].x[0] = bad
        with pytest.raises(ValueError, match=r"^embedding 7 has a non-finite value"):
            if trainer == "vae":
                train_vae(embeddings, TrainConfig(epochs=1), n_private=3)
            else:
                train_classifier(embeddings, "private", TrainConfig(epochs=1), n_classes=3)
