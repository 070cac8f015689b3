"""The cacheless inference pass: Dense.infer, MLP.logits/infer and the model
methods built on them, checked bitwise against the training pass's forward
(ChainWorkspace) and, for logits, the reference pass; and the named errors
that non-finite, empty or misshapen input raises through predict and the
pipeline."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_anon.models import Classifier, VaeModel
from latent_anon.nn import ACTIVATIONS, MLP, Dense
from latent_anon.pipeline import ModelRegistry, PipelineError, anonymize_batch, anonymize_embedding
from latent_anon.transform import MeanLatentTable, ModifyPolicy
from reference_nn import forward, workspace

dims = st.integers(1, 8)
batches = st.integers(1, 6)
seeds = st.integers(0, 2**32 - 1)
scales = st.sampled_from([1e-3, 1.0, 30.0])


def randomize(params, rng, scale):
    for p in params:
        p[...] = rng.normal(scale=scale, size=p.shape)


def chain_forward(layers, x):
    """ChainWorkspace.forward of layers on the batch x."""
    return workspace(layers, len(x))[0].forward(x)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestLayers:
    @settings(max_examples=60, deadline=None)
    @given(dims, dims, batches, st.sampled_from(ACTIVATIONS), seeds, scales)
    def test_dense_infer_is_forward(self, n_in, n_out, batch, activation, seed, scale):
        rng = np.random.default_rng(seed)
        layer = Dense(n_in, n_out, activation, rng)
        randomize(layer.parameters(), rng, scale)
        x = rng.normal(scale=scale, size=(batch, n_in))
        y = chain_forward([layer], x)
        assert same_bits(layer.infer(x), y)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(dims, min_size=2, max_size=5),
        st.data(),
        batches,
        seeds,
        scales,
    )
    def test_mlp_infer_and_logits_are_forward(self, sizes, data, batch, seed, scale):
        activations = data.draw(
            st.lists(st.sampled_from(ACTIVATIONS), min_size=len(sizes) - 1, max_size=len(sizes) - 1)
        )
        rng = np.random.default_rng(seed)
        mlp = MLP(sizes, activations, rng)
        randomize(mlp.parameters(), rng, scale)
        x = rng.normal(scale=scale, size=(batch, sizes[0]))
        y = chain_forward(mlp.layers, x)
        assert same_bits(mlp.infer(x), y)
        assert same_bits(mlp.logits(x), forward(mlp.layers, x)[-1][1])

    @pytest.mark.parametrize("shape", [(3,), (2, 5), (2, 4, 1)])
    def test_logits_check_the_batch_once(self, shape):
        mlp = MLP([4, 3, 2], ["relu", "softmax"], np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"expected a \(B, 4\) batch"):
            mlp.logits(np.zeros(shape))


class TestModels:
    @settings(max_examples=40, deadline=None)
    @given(dims, dims, st.integers(1, 4), st.lists(dims, min_size=1, max_size=3), batches, seeds, scales)
    def test_vae_methods_equal_forward_reference(
        self, input_dim, latent_dim, n_private, hidden, batch, seed, scale
    ):
        rng = np.random.default_rng(seed)
        vae = VaeModel(input_dim, latent_dim, n_private, hidden=hidden, rng=rng)
        randomize(vae.parameters(), rng, scale)
        x = rng.normal(scale=scale, size=(batch, input_dim))
        z = rng.normal(scale=scale, size=(batch, latent_dim))

        for xs, zs in ((x, z), (x[:1], z[:1])):
            h = chain_forward(vae.encoder.layers, xs)
            mu = chain_forward([vae.mu_head], h)
            logvar = chain_forward([vae.logvar_head], h)
            x_hat = chain_forward(vae.decoder.layers, zs)
            probs = chain_forward([vae.class_head], zs)

            dist = vae.encode(xs)
            assert same_bits(dist.mu, mu) and same_bits(dist.logvar, logvar)
            assert same_bits(vae.decode(zs), x_hat)
            assert same_bits(vae.classify_latent(zs), probs)
        # a vector is the one-row batch
        one = vae.encode(x[0])
        assert same_bits(one.mu, mu[0]) and same_bits(one.logvar, logvar[0])
        assert same_bits(vae.decode(z[0]), x_hat[0])
        assert same_bits(vae.classify_latent(z[0]), probs[0])

    @settings(max_examples=60, deadline=None)
    @given(dims, st.integers(1, 5), st.lists(dims, max_size=3), st.integers(1, 12), seeds, scales)
    def test_predict_is_argmax_of_proba_off_ties(self, input_dim, n_classes, hidden, batch, seed, scale):
        rng = np.random.default_rng(seed)
        clf = Classifier(input_dim, n_classes, hidden=hidden, rng=rng)
        randomize(clf.parameters(), rng, scale)
        x = rng.normal(scale=scale, size=(batch, input_dim))
        probs = clf.predict_proba(x)
        assert same_bits(probs, chain_forward(clf.mlp.layers, x))
        pred = clf.predict(x)
        logits = clf.mlp.logits(x)
        for k in range(batch):
            top = np.sort(probs[k])[::-1]
            tied = n_classes > 1 and top[0] == top[1]
            assert pred[k] == np.argmax(logits[k] if tied else probs[k])
        assert clf.predict(x[0]) == np.argmax(clf.mlp.logits(x[:1])[0])

    def test_exact_probability_tie_goes_to_the_larger_logit(self):
        clf = Classifier(2, 2, hidden=(), rng=np.random.default_rng(0))
        layer = clf.mlp.layers[-1]
        layer.W[...] = 0.0
        layer.b[...] = [0.0, 1e-20]
        x = np.ones((1, 2))
        probs = clf.predict_proba(x)
        assert probs[0, 0] == probs[0, 1] and np.argmax(probs[0]) == 0
        assert clf.predict(x)[0] == 1 and clf.predict(x[0]) == 1


D, U, M, J = 6, 2, 2, 3


def make_registry(seed=0):
    rng = np.random.default_rng(seed)
    cells = {(u, i): (rng.normal(size=J), 1) for u in range(U) for i in range(M)}
    return ModelRegistry(
        vaes={u: VaeModel(D, J, M, public_class=u, hidden=(5,), rng=rng) for u in range(U)},
        public_classifier=Classifier(D, U, "public", hidden=(5, 4), rng=rng),
        private_classifier=Classifier(D, M, "private", hidden=(5, 4), rng=rng),
        mean_table=MeanLatentTable(U, M, J, cells),
        policy=ModifyPolicy(mode="deterministic", n_classes=M),
    )


BAD_VALUES = [np.nan, np.inf, -np.inf]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", BAD_VALUES)
    def test_predict_raises_on_a_bad_row(self, bad):
        clf = make_registry().public_classifier
        x = np.random.default_rng(1).normal(size=(5, D))
        x[3, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            clf.predict(x[3])
        with pytest.raises(ValueError, match="finite"):
            clf.predict(x)

    @pytest.mark.parametrize("bad", BAD_VALUES)
    def test_anonymize_embedding_raises(self, bad):
        x = np.random.default_rng(1).normal(size=D)
        x[0] = bad
        with pytest.raises(ValueError, match="finite"):
            anonymize_embedding(x, make_registry(), noise_rng=np.random.default_rng(0))

    @pytest.mark.parametrize("bad", BAD_VALUES)
    def test_anonymize_batch_names_the_index(self, bad):
        x = np.random.default_rng(1).normal(size=(5, D))
        x[3, 4] = bad
        with pytest.raises(PipelineError, match=r"^embedding 3: .*finite"):
            anonymize_batch(x, make_registry(), noise_rng=np.random.default_rng(0))

    def test_clean_rows_still_pass(self):
        x = np.random.default_rng(1).normal(size=(5, D))
        outputs, records = anonymize_batch(x, make_registry(), noise_rng=np.random.default_rng(0))
        assert outputs.shape == (5, D) and np.all(np.isfinite(outputs)) and len(records) == 5

    @pytest.mark.parametrize("method", ["predict", "predict_proba"])
    def test_empty_batch_raises(self, method):
        clf = make_registry().private_classifier
        with pytest.raises(ValueError, match="empty"):
            getattr(clf, method)(np.empty((0, D)))


class TestBadShape:
    """Input that is neither a (D,) row nor a nonempty (B, D) batch fails at
    the top of the pipeline with a ValueError naming the caller's shape. A
    (1, D) input is a one-row batch; as an item of anonymize_batch it is a
    misshapen row, named by its index."""

    @pytest.mark.parametrize(
        "shape", [(D - 1,), (D + 1,), (), (D, 1), (0, D), (3, D - 1), (2, 1, D)]
    )
    def test_anonymize_embedding_names_the_shape(self, shape):
        expected = f"expected a ({D},) row or a (B, {D}) batch, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(expected)):
            anonymize_embedding(np.zeros(shape), make_registry(), noise_rng=np.random.default_rng(0))

    def test_one_row_batch_is_a_batch(self):
        outputs, records = anonymize_embedding(
            np.zeros((1, D)), make_registry(), index=4, noise_rng=np.random.default_rng(0)
        )
        assert outputs.shape == (1, D) and [r.index for r in records] == [4]

    @pytest.mark.parametrize("shape", [(1, D), (D - 1,)])
    def test_anonymize_batch_names_the_index(self, shape):
        rows = [np.zeros(D), np.zeros(D), np.zeros(shape)]
        with pytest.raises(PipelineError, match=re.escape(f"embedding 2: expected a ({D},) row, got shape {shape}")):
            anonymize_batch(rows, make_registry(), noise_rng=np.random.default_rng(0))
