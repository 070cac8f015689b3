"""The training step through preallocated workspaces, against the cache-based
pass it replaced (reference_nn).

Every comparison is bitwise: the workspace path runs the same floating-point
operations in the same order, only into buffers allocated once per (model,
batch size) and into views of one flat gradient. Both sides run here, so no
hash is pinned. The trainers are also run concurrently, since the attack
trains its attackers in worker threads.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_anon.data import Embedding
from latent_anon.models import (
    Classifier,
    LatentDistribution,
    LossBreakdown,
    TrainConfig,
    VaeModel,
    kl_gaussian,
    loss_and_gradients,
    train_classifier,
    train_vae,
)
from latent_anon.models.classifier import ClassifierWorkspace
from latent_anon.models.vae import VaeWorkspace
from latent_anon.nn import Adam, cross_entropy_from_labels, squared_error
from latent_anon.nn.layers import check_batch
from latent_anon.nn.losses import as_labels
from reference_nn import backward, classifier_loss, forward


# -- the replaced loss and trainer loop ----------------------------------------


def reference_vae_loss(model, x, labels, alpha, beta, noise):
    """loss_and_gradients before the workspace."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"expected a nonempty (B, n) batch, got shape {x.shape}")
    y = as_labels(labels)
    if y.shape != (x.shape[0],):
        raise ValueError(f"expected {x.shape[0]} labels, got shape {y.shape}")
    if y.min() < 0 or y.max() >= model.n_private:
        raise ValueError(f"private label out of range [0, {model.n_private})")
    noise = np.asarray(noise, dtype=float)
    if noise.shape != (x.shape[0], model.latent_dim):
        raise ValueError(f"noise shape {noise.shape} does not match (batch, latent_dim)")
    check_batch(x, model.input_dim)

    enc_caches = forward(model.encoder.layers, x)
    h = enc_caches[-1][2]
    mu_cache = forward([model.mu_head], h)
    lv_cache = forward([model.logvar_head], h)
    mu, logvar = mu_cache[0][2], lv_cache[0][2]
    sigma = np.exp(0.5 * logvar)
    z = mu + sigma * noise
    dec_caches = forward(model.decoder.layers, z)
    cls_cache = forward([model.class_head], z)
    x_hat, probs = dec_caches[-1][2], cls_cache[0][2]

    recon = float(squared_error(x, x_hat).sum())
    kl = float(kl_gaussian(LatentDistribution(mu, logvar)).sum())
    ce = float(cross_entropy_from_labels(probs, y).sum())
    breakdown = LossBreakdown(
        reconstruction=recon,
        kl=kl,
        classification=ce,
        total=float(recon + beta * kl + alpha * ce),
        alpha=alpha,
        beta=beta,
    )

    d_z, dec_grads = backward(model.decoder.layers, dec_caches, x_hat - x)
    # fused softmax + cross entropy; exact while probs stay above the log floor
    g = probs.copy()
    g[np.arange(y.size), y] -= 1.0
    g *= alpha
    d_z_cls, cls_grads = backward([model.class_head], cls_cache, g)
    d_z = d_z + d_z_cls

    d_mu = d_z + beta * mu
    d_logvar = d_z * noise * 0.5 * sigma + beta * 0.5 * (np.exp(logvar) - 1.0)
    d_h, mu_grads = backward([model.mu_head], mu_cache, d_mu)
    d_h_lv, lv_grads = backward([model.logvar_head], lv_cache, d_logvar)
    d_h = d_h + d_h_lv
    _, enc_grads = backward(model.encoder.layers, enc_caches, d_h, input_grad=False)
    # same order as VaeModel.parameters()
    return breakdown, enc_grads + mu_grads + lv_grads + dec_grads + cls_grads


def reference_fit(model, loss_and_grads, n, config, rng):
    """The trainer loop before the workspace: the step's gradients are
    gathered into the flat gradient with one concatenate."""
    params = [model.parameter_vector]
    flat_grad = np.empty_like(model.parameter_vector)
    opt = Adam(learning_rate=config.learning_rate)
    history = []
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        epoch_total = 0.0
        for start in range(0, n, config.batch_size):
            loss, grads = loss_and_grads(perm[start : start + config.batch_size])
            np.concatenate([g.ravel() for g in grads], out=flat_grad)
            opt.step(params, [flat_grad])
            epoch_total += loss
        history.append(epoch_total / n)
    return history


def reference_train_vae(x, y, config, n_private):
    rng = np.random.default_rng(config.seed)
    model = VaeModel(
        input_dim=x.shape[1], latent_dim=config.latent_dim, n_private=n_private, public_class=0,
        hidden=config.hidden, rng=rng, alpha=config.alpha, beta=config.beta,
    )

    def loss_and_grads(idx):
        noise = rng.standard_normal((idx.size, config.latent_dim))
        breakdown, grads = reference_vae_loss(model, x[idx], y[idx], config.alpha, config.beta, noise)
        return breakdown.total, grads

    return model, reference_fit(model, loss_and_grads, x.shape[0], config, rng)


def reference_train_classifier(x, y, config, n_classes):
    rng = np.random.default_rng(config.seed)
    model = Classifier(x.shape[1], n_classes, attribute="private", hidden=config.hidden, rng=rng)
    loss_and_grads = lambda idx: classifier_loss(model, x[idx], y[idx])
    return model, reference_fit(model, loss_and_grads, x.shape[0], config, rng)


# -- helpers ------------------------------------------------------------------


def as_bytes(arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def breakdown_tuple(b):
    return (b.reconstruction, b.kl, b.classification, b.total, b.alpha, b.beta)


def dataset(n, dim, n_private, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return [
        Embedding(
            x=scale * (rng.standard_normal(dim) + (k % n_private)), true_public=0, true_private=k % n_private
        )
        for k in range(n)
    ]


def stacked(embeddings):
    return np.stack([e.x for e in embeddings]), np.array([e.true_private for e in embeddings])


hidden_layers = st.lists(st.integers(1, 40), min_size=1, max_size=2).map(tuple)
scales = st.sampled_from([1e-3, 0.1, 1.0, 30.0])
weights = st.sampled_from([0.0, 0.5, 1.0, 2.0])


# -- one step -----------------------------------------------------------------


class TestVaeStepAgainstReference:
    @given(
        dim=st.integers(1, 129),
        hidden=hidden_layers,
        batch=st.integers(1, 69),
        latent=st.integers(1, 11),
        n_private=st.integers(1, 4),
        alpha=weights,
        beta=weights,
        scale=scales,
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_bitwise_equal(self, dim, hidden, batch, latent, n_private, alpha, beta, scale, seed):
        rng = np.random.default_rng(seed)
        model = VaeModel(dim, latent, n_private, hidden=hidden, rng=rng)
        x = scale * rng.standard_normal((batch, dim))
        y = rng.integers(0, n_private, size=batch)
        noise = rng.standard_normal((batch, latent))
        ref_breakdown, ref_grads = reference_vae_loss(model, x, y, alpha, beta, noise)

        fresh_breakdown, fresh_grads = loss_and_gradients(model, x, y, alpha, beta, noise)
        assert breakdown_tuple(fresh_breakdown) == breakdown_tuple(ref_breakdown)
        assert as_bytes(fresh_grads) == as_bytes(ref_grads)

        # a workspace reused after another batch, as the trainer reuses it
        ws = VaeWorkspace(model, batch)
        loss_and_gradients(model, -x, y[::-1], alpha, beta, noise[::-1], ws)
        ws.x[...] = x
        ws.labels[...] = y
        ws.noise[...] = noise
        breakdown, grads = loss_and_gradients(model, ws.x, ws.labels, alpha, beta, ws.noise, ws)
        assert breakdown_tuple(breakdown) == breakdown_tuple(ref_breakdown)
        assert as_bytes(grads) == as_bytes(ref_grads)
        assert ws.grad.tobytes() == np.concatenate([g.ravel() for g in ref_grads]).tobytes()
        assert x.tobytes() == ws.x.tobytes() and noise.tobytes() == ws.noise.tobytes()

    def test_gradients_are_fresh_without_a_workspace_and_views_with_one(self):
        rng = np.random.default_rng(1)
        model = VaeModel(5, 2, 2, hidden=(4,), rng=rng)
        x, y, noise = rng.standard_normal((3, 5)), np.array([0, 1, 1]), rng.standard_normal((3, 2))
        _, first = loss_and_gradients(model, x, y, 1.0, 1.0, noise)
        _, second = loss_and_gradients(model, x, y, 1.0, 1.0, noise)
        assert not any(np.shares_memory(a, b) for a in first for b in second)
        ws = VaeWorkspace(model, 3)
        _, grads = loss_and_gradients(model, x, y, 1.0, 1.0, noise, ws)
        assert all(np.shares_memory(g, ws.grad) for g in grads)
        assert [g.shape for g in grads] == [p.shape for p in model.parameters()]


class TestClassifierStepAgainstReference:
    @given(
        dim=st.integers(1, 129),
        hidden=st.lists(st.integers(1, 40), max_size=2).map(tuple),
        batch=st.integers(1, 69),
        n_classes=st.integers(1, 6),
        scale=scales,
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_bitwise_equal(self, dim, hidden, batch, n_classes, scale, seed):
        rng = np.random.default_rng(seed)
        model = Classifier(dim, n_classes, hidden=hidden, rng=rng)
        x = scale * rng.standard_normal((batch, dim))
        y = rng.integers(0, n_classes, size=batch)
        ref_loss, ref_grads = classifier_loss(model, x, y)

        loss, grads = model.loss_and_gradients(x, y)
        assert loss == ref_loss
        assert as_bytes(grads) == as_bytes(ref_grads)

        ws = ClassifierWorkspace(model, batch)
        model.loss_and_gradients(-x, y[::-1], ws)
        ws.x[...] = x
        ws.labels[...] = y
        loss, grads = model.loss_and_gradients(ws.x, ws.labels, ws)
        assert loss == ref_loss
        assert as_bytes(grads) == as_bytes(ref_grads)
        assert all(np.shares_memory(g, ws.grad) for g in grads)


class TestErrorsUnchanged:
    """Each bad input raises the error the replaced pass raised."""

    def assert_same_error(self, reference, call):
        with pytest.raises(Exception) as expected:
            reference()
        with pytest.raises(type(expected.value)) as actual:
            call()
        assert str(actual.value) == str(expected.value)

    @pytest.mark.parametrize(
        "case",
        ["label_high", "label_negative", "label_fraction", "label_count", "noise_shape",
         "noise_vector", "vector_input", "empty", "width", "nan_input", "inf_logit", "minus_inf_logit"],
    )
    def test_vae(self, case):
        rng = np.random.default_rng(3)
        model = VaeModel(6, 3, 2, hidden=(5,), rng=rng)
        x, y, noise = rng.standard_normal((4, 6)), np.array([0, 1, 1, 0]), rng.standard_normal((4, 3))
        if case == "label_high":
            y = np.array([0, 2, 1, 0])
        elif case == "label_negative":
            y = np.array([0, -1, 1, 0])
        elif case == "label_fraction":
            y = [0, 0.5, 1, 0]
        elif case == "label_count":
            y = y[:3]
        elif case == "noise_shape":
            noise = noise[:, :2]
        elif case == "noise_vector":
            noise = noise[0]
        elif case == "vector_input":
            x = x[0]
        elif case == "empty":
            x, y, noise = x[:0], y[:0], noise[:0]
        elif case == "width":
            x = x[:, :5]
        elif case == "nan_input":
            x[2, 3] = np.nan
        elif case == "inf_logit":
            model.class_head.b[1] = np.inf
        else:
            model.class_head.b[0] = -np.inf
        self.assert_same_error(
            lambda: reference_vae_loss(model, x, y, 1.0, 1.0, noise),
            lambda: loss_and_gradients(model, x, y, 1.0, 1.0, noise),
        )

    @pytest.mark.parametrize(
        "case",
        ["label_high", "label_negative", "label_fraction", "label_count", "width", "nan_input",
         "inf_logit", "minus_inf_logit", "empty"],
    )
    def test_classifier(self, case):
        rng = np.random.default_rng(4)
        model = Classifier(6, 3, hidden=(5, 4), rng=rng)
        x, y = rng.standard_normal((4, 6)), np.array([0, 1, 2, 0])
        if case == "label_high":
            y = np.array([0, 3, 1, 0])
        elif case == "label_negative":
            y = np.array([0, -1, 1, 0])
        elif case == "label_fraction":
            y = [0, 0.5, 1, 0]
        elif case == "label_count":
            y = y[:3]
        elif case == "width":
            x = x[:, :5]
        elif case == "nan_input":
            x[1, 1] = np.nan
        elif case == "inf_logit":
            model.mlp.layers[-1].b[2] = np.inf
        elif case == "minus_inf_logit":
            model.mlp.layers[-1].b[0] = -np.inf
        else:
            x, y = x[:0], y[:0]
        self.assert_same_error(
            lambda: classifier_loss(model, x, y),
            lambda: model.loss_and_gradients(x, y),
        )

    def test_workspace_of_another_batch_size_rejected(self):
        rng = np.random.default_rng(5)
        clf = Classifier(6, 3, hidden=(5,), rng=rng)
        vae = VaeModel(6, 3, 2, hidden=(5,), rng=rng)
        x = rng.standard_normal((4, 6))
        with pytest.raises(ValueError, match="workspace for batch"):
            clf.loss_and_gradients(x, [0, 1, 2, 0], ClassifierWorkspace(clf, 5))
        with pytest.raises(ValueError, match="workspace for batch"):
            loss_and_gradients(vae, x, [0, 1, 1, 0], 1.0, 1.0, np.zeros((4, 3)), VaeWorkspace(vae, 3))


def test_noise_drawn_into_a_buffer_equals_the_shaped_draw():
    for shape in [(1, 1), (64, 8), (7, 3), (5, 11)]:
        shaped = np.random.default_rng(9).standard_normal(shape)
        buffer = np.empty(shape)
        np.random.default_rng(9).standard_normal(out=buffer)
        assert buffer.tobytes() == shaped.tobytes()


# -- whole trainings ------------------------------------------------------------


class TestTrainersAgainstReference:
    @pytest.mark.parametrize(
        "n, batch_size", [(45, 8), (50, 16), (50, 64), (9, 1), (64, 64)]
    )
    @pytest.mark.parametrize("alpha, beta", [(2.0, 1.0), (0.0, 0.0), (0.5, 0.0)])
    def test_vae_bitwise(self, n, batch_size, alpha, beta):
        # full batches plus a partial last one (except 64 of 64)
        embeddings = dataset(n, 10, 3, seed=n)
        config = TrainConfig(
            alpha=alpha, beta=beta, epochs=3, batch_size=batch_size, learning_rate=1e-2, seed=7,
            latent_dim=3, hidden=(7, 5),
        )
        model, history = train_vae(embeddings, config, n_private=3)
        ref, ref_history = reference_train_vae(*stacked(embeddings), config, 3)
        assert history == ref_history
        assert model.parameter_vector.tobytes() == ref.parameter_vector.tobytes()

    @pytest.mark.parametrize(
        "n, batch_size, hidden", [(45, 8, (7, 5)), (50, 16, (6,)), (50, 64, ()), (9, 1, (4,))]
    )
    def test_classifier_bitwise(self, n, batch_size, hidden):
        embeddings = dataset(n, 10, 3, seed=n + 1, scale=30.0)
        config = TrainConfig(epochs=3, batch_size=batch_size, learning_rate=1e-2, seed=8, hidden=hidden)
        model, history = train_classifier(embeddings, "private", config, n_classes=3)
        ref, ref_history = reference_train_classifier(*stacked(embeddings), config, 3)
        assert history == ref_history
        assert model.parameter_vector.tobytes() == ref.parameter_vector.tobytes()


class TestConcurrentTraining:
    """Workspaces belong to one training call, so trainings in threads do not
    share buffers: the attack trains its attackers this way."""

    def jobs(self):
        configs = [TrainConfig(epochs=4, batch_size=8, seed=s, hidden=(9, 6)) for s in (1, 2)]
        data = [dataset(45, 12, 2, seed=s) for s in (3, 4)]
        return [
            lambda: train_classifier(data[0], "private", configs[0], n_classes=2),
            lambda: train_classifier(data[1], "private", configs[1], n_classes=2),
            lambda: train_vae(data[0], configs[0], n_private=2),
            lambda: train_vae(data[1], configs[1], n_private=2),
        ]

    def test_two_threads_equal_sequential(self):
        jobs = self.jobs()
        sequential = [job() for job in jobs]
        results = [None] * len(jobs)
        start = threading.Barrier(2, timeout=30)

        def worker(indices):
            start.wait()
            for k in indices:
                results[k] = jobs[k]()

        # one classifier and one VAE per thread, interleaved as often as the
        # interpreter allows
        threads = [threading.Thread(target=worker, args=(ks,)) for ks in ((0, 2), (1, 3))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for (model, history), (ref, ref_history) in zip(results, sequential):
            assert history == ref_history
            assert model.parameter_vector.tobytes() == ref.parameter_vector.tobytes()
