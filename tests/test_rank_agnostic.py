"""Rank-agnostic inference: every inference method run on one vector (n,) is
bitwise row 0 of the same method on the one-row batch (1, n), and bitwise
equal to a verbatim copy of the lifted path it replaced, which ran each
vector as a one-row batch. Widths reach the deployed shapes (96 and 768
inputs, hidden (64, 32), latent 8), whose products run other matmul kernels
than the small dims of test_inference.py. The digest tests run streams and
batches through the pipeline with the models' methods swapped for the lifted
copies, and require the same outputs and records."""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_anon.models import Classifier, LatentDistribution, VaeModel
from latent_anon.nn import ACTIVATIONS, MLP, Dense
from latent_anon.nn.layers import _activate_inplace, check_batch
from latent_anon.pipeline import ModelRegistry, anonymize_batch, anonymize_stream
from latent_anon.transform import MeanLatentTable, ModifyPolicy, SequenceCoin

widths = st.integers(1, 800)
hidden_widths = st.integers(1, 64)
seeds = st.integers(0, 2**32 - 1)
scales = st.sampled_from([1e-3, 0.1, 1.0, 30.0])
DEPLOYED = [(96, (64, 32), 8), (768, (64, 32), 8)]


# --- the lifted path, verbatim from before the change -----------------------


def as_batch(x):
    """x as a float (B, n) batch, and whether it came as one (n,) vector."""
    x = np.asarray(x, dtype=float)
    return (x[None, :], True) if x.ndim == 1 else (x, False)


def lifted_dense_infer(layer, x):
    z = x @ layer.W.T
    z += layer.b
    return _activate_inplace(layer.activation, z)


def lifted_logits(mlp, x):
    x = check_batch(x, mlp.sizes[0])
    for layer in mlp.layers[:-1]:
        x = lifted_dense_infer(layer, x)
    last = mlp.layers[-1]
    z = x @ last.W.T
    z += last.b
    return z


def lifted_activate(name, z):
    if name == "identity":
        return z
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    if name == "softmax":
        # the out-of-place softmax arithmetic of the time
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)
    raise ValueError(f"unknown activation {name!r}")


def lifted_mlp_infer(mlp, x):
    return lifted_activate(mlp.activations[-1], lifted_logits(mlp, x))


def lifted_predict_proba(clf, x):
    xb, single = as_batch(x)
    probs = lifted_mlp_infer(clf.mlp, xb)
    return probs[0] if single else probs


def lifted_predict(clf, x):
    xb, single = as_batch(x)
    logits = lifted_logits(clf.mlp, xb)
    if logits.size == 0:
        raise ValueError("predict of an empty batch")
    if not math.isfinite(logits.sum()) and not np.isfinite(logits).all():
        raise ValueError("predict requires finite logits")
    labels = logits.argmax(axis=-1)
    return int(labels[0]) if single else labels


def lifted_encode(vae, x):
    xb, single = as_batch(x)
    h = lifted_mlp_infer(vae.encoder, xb)
    mu = lifted_dense_infer(vae.mu_head, h)
    logvar = lifted_dense_infer(vae.logvar_head, h)
    if single:
        mu, logvar = mu[0], logvar[0]
    return LatentDistribution(mu=mu, logvar=logvar)


def lifted_decode(vae, z):
    zb, single = as_batch(z)
    x_hat = lifted_mlp_infer(vae.decoder, zb)
    return x_hat[0] if single else x_hat


def lifted_classify_latent(vae, z):
    zb, single = as_batch(z)
    probs = lifted_dense_infer(vae.class_head, check_batch(zb, vae.latent_dim))
    return probs[0] if single else probs


# -----------------------------------------------------------------------------


def lifted(fn):
    """fn, which takes batches, run on a row or a batch as the lifted path
    ran the models' methods."""

    def run(x):
        xb, single = as_batch(x)
        out = fn(xb)
        return out[0] if single else out

    return run


def randomize(params, rng, scale):
    for p in params:
        p[...] = rng.normal(scale=scale, size=p.shape)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_row_is_row_zero(method, reference, x):
    """method(x) on a row is row 0 of method on the one-row batch, and both
    equal the lifted reference."""
    row, batch = method(x), method(x[None, :])
    assert same_bits(row, batch[0]) and same_bits(row, reference(x))
    assert same_bits(batch, reference(x[None, :]))


def assert_encode_row_is_row_zero(vae, x):
    one, batch, ref = vae.encode(x), vae.encode(x[None, :]), lifted_encode(vae, x)
    for name in ("mu", "logvar"):
        row = getattr(one, name)
        assert row.shape == (vae.latent_dim,)
        assert same_bits(row, getattr(batch, name)[0]) and same_bits(row, getattr(ref, name))


def check_classifier(clf, x):
    assert_row_is_row_zero(clf.predict_proba, lambda v: lifted_predict_proba(clf, v), x)
    label = clf.predict(x)
    assert type(label) is int and label == lifted_predict(clf, x)
    assert label == int(clf.predict(x[None, :])[0])


def check_vae(vae, x, z):
    assert_encode_row_is_row_zero(vae, x)
    assert_row_is_row_zero(vae.decode, lambda v: lifted_decode(vae, v), z)
    assert_row_is_row_zero(vae.classify_latent, lambda v: lifted_classify_latent(vae, v), z)


class TestLayers:
    @settings(max_examples=80, deadline=None)
    @given(widths, hidden_widths, st.sampled_from(ACTIVATIONS), seeds, scales)
    def test_dense_infer(self, n_in, n_out, activation, seed, scale):
        rng = np.random.default_rng(seed)
        layer = Dense(n_in, n_out, activation, rng)
        randomize(layer.parameters(), rng, scale)
        x = rng.normal(scale=scale, size=n_in)
        assert_row_is_row_zero(layer.infer, lifted(lambda v: lifted_dense_infer(layer, v)), x)

    @settings(max_examples=80, deadline=None)
    @given(widths, st.lists(hidden_widths, min_size=1, max_size=3), st.data(), seeds, scales)
    def test_mlp_logits_and_infer(self, n_in, rest, data, seed, scale):
        sizes = [n_in, *rest]
        activations = data.draw(
            st.lists(st.sampled_from(ACTIVATIONS), min_size=len(rest), max_size=len(rest))
        )
        rng = np.random.default_rng(seed)
        mlp = MLP(sizes, activations, rng)
        randomize(mlp.parameters(), rng, scale)
        x = rng.normal(scale=scale, size=n_in)
        assert_row_is_row_zero(mlp.logits, lifted(lambda v: lifted_logits(mlp, v)), x)
        assert_row_is_row_zero(mlp.infer, lifted(lambda v: lifted_mlp_infer(mlp, v)), x)


class TestShapeCheck:
    """One check at the model boundary takes (n,) or (B, n) and nothing else,
    even where the last axis has the right width."""

    @pytest.mark.parametrize("shape", [(), (1, 1, 4), (2, 3, 4), (3,), (2, 5)])
    def test_other_shapes_are_rejected(self, shape):
        rng = np.random.default_rng(0)
        mlp = MLP([4, 3, 2], ["relu", "softmax"], rng)
        vae = VaeModel(6, 4, 2, hidden=(5,), rng=rng)
        message = r"expected a \(B, 4\) batch or a \(4,\) row, got shape " + re.escape(str(shape))
        for method in (mlp.logits, mlp.infer, vae.classify_latent, vae.decode):
            with pytest.raises(ValueError, match=message):
                method(np.zeros(shape))


class TestModels:
    @settings(max_examples=60, deadline=None)
    @given(widths, st.integers(1, 8), st.lists(hidden_widths, max_size=2), seeds, scales)
    def test_classifier(self, input_dim, n_classes, hidden, seed, scale):
        rng = np.random.default_rng(seed)
        clf = Classifier(input_dim, n_classes, hidden=hidden, rng=rng)
        randomize(clf.parameters(), rng, scale)
        check_classifier(clf, rng.normal(scale=scale, size=input_dim))

    @settings(max_examples=60, deadline=None)
    @given(
        widths,
        st.integers(1, 16),
        st.integers(1, 8),
        st.lists(hidden_widths, min_size=1, max_size=2),
        seeds,
        scales,
    )
    def test_vae(self, input_dim, latent_dim, n_private, hidden, seed, scale):
        rng = np.random.default_rng(seed)
        vae = VaeModel(input_dim, latent_dim, n_private, hidden=hidden, rng=rng)
        randomize(vae.parameters(), rng, scale)
        x = rng.normal(scale=scale, size=input_dim)
        z = rng.normal(scale=scale, size=latent_dim)
        check_vae(vae, x, z)

    @pytest.mark.parametrize("input_dim, hidden, latent", DEPLOYED)
    @pytest.mark.parametrize("seed", range(4))
    def test_deployed_shapes(self, input_dim, hidden, latent, seed):
        rng = np.random.default_rng(seed)
        clf = Classifier(input_dim, 4, hidden=hidden, rng=rng)
        vae = VaeModel(input_dim, latent, 2, hidden=hidden, rng=rng)
        for x in rng.normal(size=(8, input_dim)):
            check_classifier(clf, x)
            check_vae(vae, x, vae.encode(x).mu)


def registry(input_dim, hidden, latent, mode, seed, n_public=3, n_private=2):
    rng = np.random.default_rng(seed)
    cells = {
        (u, i): (rng.normal(size=latent), 1) for u in range(n_public) for i in range(n_private)
    }
    return ModelRegistry(
        vaes={
            u: VaeModel(input_dim, latent, n_private, public_class=u, hidden=hidden, rng=rng)
            for u in range(n_public)
        },
        public_classifier=Classifier(input_dim, n_public, "public", hidden=hidden, rng=rng),
        private_classifier=Classifier(input_dim, n_private, "private", hidden=hidden, rng=rng),
        mean_table=MeanLatentTable(n_public, n_private, latent, cells),
        policy=ModifyPolicy(mode=mode, n_classes=n_private),
    )


def digest(results):
    h = hashlib.sha256()
    for x_hat, record in results:
        h.update(x_hat.tobytes())
        h.update(repr(record).encode())
    return h.hexdigest()


def run_pipeline(reg, seed, channels=3, window=32, stride=10, n_sources=4, n_rows=330):
    """The digest of the stream windows of n_sources seeded sources and of a
    40-row batch, in the registry's mode with seeded noise and coin."""
    rng = np.random.default_rng(seed)
    results = []
    for source in range(n_sources):
        rows = rng.normal(size=(n_rows, channels))
        flips = rng.integers(0, 2, size=n_rows).tolist()
        results += anonymize_stream(
            rows, window, stride, reg,
            noise_rng=np.random.default_rng(seed + source), coin=SequenceCoin(flips),
        )
    xs = rng.normal(size=(40, reg.public_classifier.input_dim))
    outputs, records = anonymize_batch(
        xs, reg, noise_rng=np.random.default_rng(seed), coin=SequenceCoin([True, False] * 20)
    )
    return digest(results + list(zip(outputs, records)))


@pytest.mark.parametrize(
    "channels, window, hidden, latent", [(3, 32, (64, 32), 8), (3, 4, (5,), 3)]
)
@pytest.mark.parametrize("seed", [0, 1])
def test_pipeline_digest_equals_the_lifted_path(monkeypatch, channels, window, hidden, latent, seed):
    reg = registry(channels * window, hidden, latent, "probabilistic", seed)
    got = run_pipeline(reg, seed, channels=channels, window=window)
    with monkeypatch.context() as m:
        m.setattr(Classifier, "predict", lifted_predict)
        m.setattr(VaeModel, "encode", lifted_encode)
        m.setattr(VaeModel, "decode", lifted_decode)
        expected = run_pipeline(reg, seed, channels=channels, window=window)
    assert got == expected
