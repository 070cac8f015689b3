"""VAE math: encoding, reparameterized sampling, the KL closed form, the
augmented loss and its gradients, the latent classification head, and the
attribute classifier's gradients."""

import math

import numpy as np
import pytest

from latent_anon.models import (
    Classifier,
    LatentDistribution,
    VaeModel,
    kl_gaussian,
    loss_and_gradients,
    reconstruction_loss,
    sample_latent,
)
from latent_anon.nn import cross_entropy_from_labels, grad_check
from reference_nn import forward


def tiny_vae(seed=0, input_dim=6, latent_dim=3, n_private=2, hidden=(8,)):
    return VaeModel(
        input_dim=input_dim,
        latent_dim=latent_dim,
        n_private=n_private,
        hidden=hidden,
        rng=np.random.default_rng(seed),
    )


def zero_weights(model):
    for p in model.parameters():
        p[...] = 0.0


class TestEncode:
    def test_zero_weights_return_biases(self):
        model = tiny_vae()
        zero_weights(model)
        model.mu_head.b[...] = [1.0, 2.0, 3.0]
        model.logvar_head.b[...] = [-1.0, 0.0, 1.0]
        dist = model.encode(np.ones(6) * 7.0)
        assert np.allclose(dist.mu, [1.0, 2.0, 3.0])
        assert np.allclose(dist.logvar, [-1.0, 0.0, 1.0])

    def test_deterministic(self):
        model = tiny_vae(1)
        x = np.random.default_rng(2).standard_normal(6)
        d1, d2 = model.encode(x), model.encode(x)
        assert np.array_equal(d1.mu, d2.mu)
        assert np.array_equal(d1.logvar, d2.logvar)

    def test_matches_hand_rolled_matmul(self):
        # independent re-implementation with explicit loops
        model = tiny_vae(3)
        x = np.random.default_rng(4).standard_normal(6)

        def manual_dense(v, w, b, act):
            out = []
            for r in range(w.shape[0]):
                acc = b[r]
                for c in range(w.shape[1]):
                    acc += w[r, c] * v[c]
                out.append(acc)
            out = np.array(out)
            return np.tanh(out) if act == "tanh" else out

        h = x
        for layer in model.encoder.layers:
            h = manual_dense(h, layer.W, layer.b, layer.activation)
        mu = manual_dense(h, model.mu_head.W, model.mu_head.b, "identity")
        logvar = manual_dense(h, model.logvar_head.W, model.logvar_head.b, "identity")

        dist = model.encode(x)
        assert np.allclose(dist.mu, mu, atol=1e-12)
        assert np.allclose(dist.logvar, logvar, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tiny_vae().encode(np.zeros(5))

    def test_finite_on_finite_input(self):
        model = tiny_vae(5)
        dist = model.encode(np.random.default_rng(6).standard_normal(6) * 100)
        assert np.all(np.isfinite(dist.mu)) and np.all(np.isfinite(dist.logvar))


class TestSampleLatent:
    def test_zero_noise_gives_mu(self):
        dist = LatentDistribution(mu=np.array([1.0, -2.0]), logvar=np.array([0.3, -0.7]))
        assert np.array_equal(sample_latent(dist, np.zeros(2)), dist.mu)

    def test_unit_sigma_unit_noise(self):
        dist = LatentDistribution(mu=np.array([1.0, 2.0]), logvar=np.zeros(2))
        assert np.allclose(sample_latent(dist, np.ones(2)), [2.0, 3.0])

    def test_length_mismatch(self):
        dist = LatentDistribution(mu=np.zeros(3), logvar=np.zeros(3))
        with pytest.raises(ValueError):
            sample_latent(dist, np.zeros(2))

    def test_monte_carlo_mean(self):
        n = 100_000
        rng = np.random.default_rng(7)
        mu = np.array([0.5, -1.5, 2.0])
        logvar = np.array([-0.2, 0.4, 0.0])
        dist = LatentDistribution(mu=mu, logvar=logvar)
        sigma = np.exp(0.5 * logvar)
        samples = sample_latent(
            LatentDistribution(np.tile(mu, (n, 1)), np.tile(logvar, (n, 1))),
            rng.standard_normal((n, 3)),
        )
        bound = 3.0 * sigma / math.sqrt(n)
        assert np.all(np.abs(samples.mean(axis=0) - mu) < bound)
        # spot check a few single-vector draws against the batched form
        single = sample_latent(dist, np.ones(3))
        assert np.allclose(single, mu + sigma)


class TestKlGaussian:
    def test_standard_normal_is_zero(self):
        assert kl_gaussian(LatentDistribution(np.zeros(4), np.zeros(4))) == 0.0

    def test_closed_form_single_dim(self):
        assert kl_gaussian(LatentDistribution(np.array([1.0]), np.array([0.0]))) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_nonnegative_and_zero_iff_standard(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            mu = rng.standard_normal(4) * 2
            logvar = rng.standard_normal(4)
            value = kl_gaussian(LatentDistribution(mu, logvar))
            assert value >= 0.0
            if abs(value) <= 1e-12:
                assert np.allclose(mu, 0, atol=1e-6) and np.allclose(logvar, 0, atol=1e-6)

    def test_monte_carlo_oracle(self):
        # E_q[log q(z) - log p(z)] over 1e6 samples within 1%
        rng = np.random.default_rng(9)
        mu = np.array([0.7, -0.3])
        logvar = np.array([0.5, -0.8])
        sigma = np.exp(0.5 * logvar)
        z = mu + sigma * rng.standard_normal((1_000_000, 2))
        log_q = -0.5 * (((z - mu) / sigma) ** 2 + np.log(2 * np.pi) + logvar).sum(axis=1)
        log_p = -0.5 * (z**2 + np.log(2 * np.pi)).sum(axis=1)
        estimate = float((log_q - log_p).mean())
        closed = kl_gaussian(LatentDistribution(mu, logvar))
        assert abs(closed - estimate) / closed < 0.01

    def test_batched_rows(self):
        mu = np.array([[0.0, 0.0], [1.0, 0.0]])
        logvar = np.zeros((2, 2))
        values = kl_gaussian(LatentDistribution(mu, logvar))
        assert values.shape == (2,)
        assert values[0] == 0.0 and values[1] == pytest.approx(0.5)


class TestReconstructionLoss:
    def test_identity(self):
        x = np.array([1.0, 2.0])
        assert reconstruction_loss(x, x) == 0.0

    def test_half_square(self):
        assert reconstruction_loss(np.array([1.0, 0.0]), np.zeros(2)) == pytest.approx(0.5)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(10)
        x, x_hat = rng.standard_normal(20), rng.standard_normal(20)
        oracle = 0.5 * sum((float(a) - float(b)) ** 2 for a, b in zip(x, x_hat))
        assert reconstruction_loss(x, x_hat) == pytest.approx(oracle, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            reconstruction_loss(np.zeros(3), np.zeros(4))


class TestClassifyFromLatent:
    def test_zero_head_is_uniform(self):
        model = tiny_vae(11, n_private=4, latent_dim=3)
        model.class_head.W[...] = 0.0
        model.class_head.b[...] = 0.0
        probs = model.classify_latent(np.array([0.3, -0.2, 0.9]))
        assert np.allclose(probs, 0.25)

    def test_sums_to_one(self):
        model = tiny_vae(12)
        probs = model.classify_latent(np.random.default_rng(13).standard_normal(3))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_identity_weights_softmax(self):
        model = tiny_vae(14, latent_dim=2, n_private=2)
        model.class_head.W[...] = np.eye(2)
        model.class_head.b[...] = 0.0
        probs = model.classify_latent(np.array([2.0, 0.0]))
        assert np.allclose(probs, [0.8808, 0.1192], atol=1e-4)


class TestAugmentedLoss:
    def test_alpha_zero_beta_one_is_negative_elbo(self):
        model = tiny_vae(15)
        rng = np.random.default_rng(16)
        x = rng.standard_normal((5, 6))
        y = rng.integers(0, 2, size=5)
        noise = rng.standard_normal((5, 3))
        breakdown = loss_and_gradients(model, x, y, alpha=0.0, beta=1.0, noise=noise)[0]
        dist = model.encode(x)
        z = sample_latent(dist, noise)
        recon = reconstruction_loss(x, model.decode(z)).sum()
        kl = kl_gaussian(dist).sum()
        assert breakdown.total == pytest.approx(recon + kl, abs=1e-10)

    def test_alpha_beta_zero_is_pure_reconstruction(self):
        model = tiny_vae(17)
        rng = np.random.default_rng(18)
        x = rng.standard_normal((4, 6))
        y = rng.integers(0, 2, size=4)
        noise = rng.standard_normal((4, 3))
        breakdown = loss_and_gradients(model, x, y, alpha=0.0, beta=0.0, noise=noise)[0]
        assert breakdown.total == pytest.approx(breakdown.reconstruction, abs=1e-12)

    def test_term_by_term_scalar_oracle(self):
        # plain-Python recomputation of every term for a fixed tiny net
        model = tiny_vae(19, input_dim=3, latent_dim=2, n_private=2, hidden=(4,))
        rng = np.random.default_rng(20)
        x = rng.standard_normal((2, 3))
        y = np.array([1, 0])
        noise = rng.standard_normal((2, 2))
        alpha, beta = 1.3, 0.9

        def dense(v, layer, act):
            out = [
                sum(layer.W[r, c] * v[c] for c in range(layer.W.shape[1])) + layer.b[r]
                for r in range(layer.W.shape[0])
            ]
            if act == "tanh":
                return [math.tanh(o) for o in out]
            if act == "softmax":
                mx = max(out)
                exps = [math.exp(o - mx) for o in out]
                s = sum(exps)
                return [e / s for e in exps]
            return out

        total = recon_sum = kl_sum = ce_sum = 0.0
        for k in range(2):
            h = dense(x[k], model.encoder.layers[0], "tanh")
            mu = dense(h, model.mu_head, "identity")
            logvar = dense(h, model.logvar_head, "identity")
            z = [mu[j] + math.exp(0.5 * logvar[j]) * noise[k, j] for j in range(2)]
            xh = z
            for layer, act in zip(model.decoder.layers, ("tanh", "identity")):
                xh = dense(xh, layer, act)
            probs = dense(z, model.class_head, "softmax")
            recon = 0.5 * sum((x[k, d] - xh[d]) ** 2 for d in range(3))
            kl = -0.5 * sum(1 + logvar[j] - math.exp(logvar[j]) - mu[j] ** 2 for j in range(2))
            ce = -math.log(probs[y[k]])
            recon_sum += recon
            kl_sum += kl
            ce_sum += ce
            total += recon + beta * kl + alpha * ce

        breakdown = loss_and_gradients(model, x, y, alpha, beta, noise)[0]
        assert breakdown.reconstruction == pytest.approx(recon_sum, abs=1e-10)
        assert breakdown.kl == pytest.approx(kl_sum, abs=1e-10)
        assert breakdown.classification == pytest.approx(ce_sum, abs=1e-10)
        assert breakdown.total == pytest.approx(total, abs=1e-10)

    def test_breakdown_decomposes_exactly(self):
        model = tiny_vae(21)
        rng = np.random.default_rng(22)
        x = rng.standard_normal((6, 6))
        y = rng.integers(0, 2, size=6)
        noise = rng.standard_normal((6, 3))
        b = loss_and_gradients(model, x, y, alpha=2.5, beta=1.5, noise=noise)[0]
        assert b.total == pytest.approx(
            b.reconstruction + b.beta * b.kl + b.alpha * b.classification, abs=1e-10
        )

    def test_label_out_of_range(self):
        model = tiny_vae(23)
        with pytest.raises(ValueError):
            loss_and_gradients(model, np.zeros((1, 6)), [2], 1.0, 1.0, np.zeros((1, 3)))

    def test_empty_batch(self):
        model = tiny_vae(24)
        with pytest.raises(ValueError):
            loss_and_gradients(model, np.zeros((0, 6)), [], 1.0, 1.0, np.zeros((0, 3)))

    def test_vector_label_and_noise_shapes_checked(self):
        model = tiny_vae(24)
        x, y, noise = np.zeros((2, 6)), [0, 1], np.zeros((2, 3))
        for args in (
            (np.zeros(6), [0], np.zeros((1, 3))),  # a vector, not a batch
            (x, [0], noise),
            (x, y, np.zeros((2, 2))),
            (x, y, np.zeros(3)),
        ):
            with pytest.raises(ValueError):
                loss_and_gradients(model, args[0], args[1], 1.0, 1.0, args[2])

    def test_fractional_label_rejected(self):
        model = tiny_vae(25)
        with pytest.raises(ValueError, match="whole numbers"):
            loss_and_gradients(model, np.zeros((2, 6)), [0, 0.5], 1.0, 1.0, np.zeros((2, 3)))


class TestAugmentedLossGradients:
    def test_matches_finite_differences(self):
        model = tiny_vae(25)
        rng = np.random.default_rng(26)
        x = rng.standard_normal((4, 6))
        y = rng.integers(0, 2, size=4)
        noise = rng.standard_normal((4, 3))
        alpha, beta = 1.7, 0.8
        breakdown, grads = loss_and_gradients(model, x, y, alpha, beta, noise)
        report = grad_check(
            lambda: loss_and_gradients(model, x, y, alpha, beta, noise)[0].total,
            model.parameters(),
            grads,
            eps=1e-5,
        )
        assert report.max_rel_error < 1e-5

    def test_alpha_zero_head_gradient_is_zero(self):
        model = tiny_vae(27)
        rng = np.random.default_rng(28)
        x = rng.standard_normal((4, 6))
        y = rng.integers(0, 2, size=4)
        noise = rng.standard_normal((4, 3))
        _, grads = loss_and_gradients(model, x, y, alpha=0.0, beta=1.0, noise=noise)
        d_w, d_b = grads[-2:]  # class_head comes last in parameters()
        assert np.all(d_w == 0.0)
        assert np.all(d_b == 0.0)

    def test_reparameterized_sample_is_deterministic_in_noise(self):
        model = tiny_vae(29)
        x = np.random.default_rng(30).standard_normal(6)
        noise = np.random.default_rng(31).standard_normal(3)
        z1 = sample_latent(model.encode(x), noise)
        z2 = sample_latent(model.encode(x), noise)
        assert np.array_equal(z1, z2)

    def test_gradient_flows_through_reparameterization(self):
        # with beta = 0 and alpha = 0 the only path to the encoder is through
        # z, so nonzero encoder gradients prove the sample is differentiable
        model = tiny_vae(32)
        rng = np.random.default_rng(33)
        x = rng.standard_normal((2, 6))
        y = rng.integers(0, 2, size=2)
        noise = rng.standard_normal((2, 3))
        _, grads = loss_and_gradients(model, x, y, alpha=0.0, beta=0.0, noise=noise)
        assert np.any(grads[0] != 0.0)  # encoder.layers[0].W


class TestVectorAtModelBoundary:
    """The models lift one vector to a one-row batch; the layers see batches only."""

    def calls(self):
        rng = np.random.default_rng(40)
        clf = Classifier(6, 3, hidden=(5, 4), rng=rng)
        vae = tiny_vae(41)
        return {
            "predict_proba": (clf.predict_proba, rng.standard_normal((7, 6))),
            "encode.mu": (lambda x: vae.encode(x).mu, rng.standard_normal((7, 6))),
            "encode.logvar": (lambda x: vae.encode(x).logvar, rng.standard_normal((7, 6))),
            "decode": (vae.decode, rng.standard_normal((7, 3))),
            "classify_latent": (vae.classify_latent, rng.standard_normal((7, 3))),
        }

    def test_vector_equals_one_row_batch_bitwise(self):
        for name, (fn, xs) in self.calls().items():
            single = fn(xs[0])
            assert single.ndim == 1, name
            assert single.tobytes() == fn(xs[:1])[0].tobytes(), name

    def test_batch_matches_per_row_calls(self):
        for name, (fn, xs) in self.calls().items():
            batch = fn(xs)
            assert batch.shape[0] == xs.shape[0], name
            for k in range(xs.shape[0]):
                # batched and one-row matmuls may take different BLAS paths
                assert np.allclose(batch[k], fn(xs[k]), rtol=0, atol=1e-12), name

    def test_predict_keeps_the_input_rank(self):
        clf = Classifier(6, 3, hidden=(5,), rng=np.random.default_rng(42))
        xs = np.random.default_rng(43).standard_normal((4, 6))
        assert isinstance(clf.predict(xs[0]), int)
        assert clf.predict(xs).tolist() == [clf.predict(x) for x in xs]


class TestClassifierGradients:
    def test_matches_finite_differences(self):
        # fused softmax + cross entropy at the output, relu hidden layers
        rng = np.random.default_rng(34)
        clf = Classifier(5, 3, hidden=(6, 4), rng=rng)
        x = rng.standard_normal((4, 5))
        y = rng.integers(0, 3, size=4)
        _, grads = clf.loss_and_gradients(x, y)

        def margins():
            return np.concatenate([z.ravel() for _, z, _ in forward(clf.mlp.layers, x)[:-1]])

        report = grad_check(
            lambda: float(cross_entropy_from_labels(clf.predict_proba(x), y).sum()),
            clf.parameters(),
            grads,
            eps=1e-5,
            kink_margins=margins,
        )
        assert report.n_checked > 0
        assert report.max_rel_error < 1e-6

    def test_fractional_label_rejected(self):
        clf = Classifier(5, 3, hidden=(4,), rng=np.random.default_rng(35))
        with pytest.raises(ValueError, match="whole numbers"):
            clf.loss_and_gradients(np.zeros((1, 5)), [1.9])
