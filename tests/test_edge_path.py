"""Differential tests of the N = 1 edge path against its plain reference:
the stream's contiguous ring against windows cut explicitly from the rows
(every form a row may arrive in, and the rows it must reject),
predict's one-dot-product finiteness check, and the in-place sample_latent and
apply_transfer against their textbook formulas. Also the calls one stream
window makes, as a tracer that wraps them counts them."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latent_anon import pipeline
from latent_anon.models import Classifier, LatentDistribution, VaeModel, sample_latent
from latent_anon.pipeline import ModelRegistry, PipelineError, anonymize_embedding, anonymize_stream
from latent_anon.transform import (
    MeanLatentTable,
    ModifyPolicy,
    SecureCoin,
    SequenceCoin,
    apply_transfer,
)
from reference_nn import forward

seeds = st.integers(0, 2**32 - 1)


def registry(dim, mode, seed, n_public=2, n_private=2, latent=2):
    rng = np.random.default_rng(seed)
    cells = {
        (u, i): (rng.normal(size=latent), 1) for u in range(n_public) for i in range(n_private)
    }
    return ModelRegistry(
        vaes={
            u: VaeModel(dim, latent, n_private, public_class=u, hidden=(4,), rng=rng)
            for u in range(n_public)
        },
        public_classifier=Classifier(dim, n_public, "public", hidden=(3,), rng=rng),
        private_classifier=Classifier(dim, n_private, "private", hidden=(3,), rng=rng),
        mean_table=MeanLatentTable(n_public, n_private, latent, cells),
        policy=ModifyPolicy(mode=mode, n_classes=n_private),
    )


# every form a row may arrive in; the stream converts each as
# np.asarray(row, dtype=float) flattened to 1-D
ROW_FORMS = {
    "ndarray": lambda row: row,
    "strided view": lambda row: np.repeat(row, 2)[::2],
    "list": lambda row: row.tolist(),
    "tuple": lambda row: tuple(row.tolist()),
    "one-row batch": lambda row: row[None, :],
    "column": lambda row: row[:, None],
    "int": lambda row: np.rint(10.0 * row).astype(int),
    "float32": lambda row: row.astype(np.float32),
    "big-endian": lambda row: row.astype(">f8"),
}
# one channel only: a row given as a scalar
SCALAR_FORMS = {
    "float": lambda row: float(row[0]),
    "numpy scalar": lambda row: row[0],
    "0-d array": lambda row: np.asarray(row[0]),
}


def converted(row):
    return np.asarray(row, dtype=float).reshape(-1)


class TestStreamRing:
    @settings(max_examples=150, deadline=None)
    @given(
        window=st.integers(1, 10),
        stride=st.integers(1, 15),
        n_rows=st.integers(0, 80),
        channels=st.integers(1, 4),
        mode=st.sampled_from(["deterministic", "probabilistic"]),
        form=st.sampled_from(sorted(ROW_FORMS) + sorted(SCALAR_FORMS)),
        seed=seeds,
    )
    def test_equals_explicit_windows(self, window, stride, n_rows, channels, mode, form, seed):
        as_form = ROW_FORMS.get(form) or SCALAR_FORMS[form]
        if form in SCALAR_FORMS:
            channels = 1
        rng = np.random.default_rng(seed)
        reg = registry(window * channels, mode, seed)
        given_rows = [as_form(row) for row in rng.normal(size=(n_rows, channels))]
        rows = np.array([converted(row) for row in given_rows]).reshape(n_rows, channels)
        starts = range(0, n_rows - window + 1, stride)
        flips = rng.integers(0, 2, size=len(starts)).tolist()

        noise, coin = np.random.default_rng(seed), SequenceCoin(flips)
        expected = [
            anonymize_embedding(
                rows[s : s + window].reshape(-1), reg, index=k, noise_rng=noise, coin=coin
            )
            for k, s in enumerate(starts)
        ]
        got = list(
            anonymize_stream(
                iter(given_rows),
                window,
                stride,
                reg,
                noise_rng=np.random.default_rng(seed),
                coin=SequenceCoin(flips),
            )
        )
        assert len(got) == len(expected)
        for (x_hat, record), (ref_x, ref_record) in zip(got, expected):
            assert x_hat.tobytes() == ref_x.tobytes()
            assert record == ref_record

    # a width-1 row would broadcast silently into a 3-channel buffer row
    @pytest.mark.parametrize(
        "bad", [np.zeros(1), [0.0], 0.0, np.float64(0.0), np.asarray(0.0), np.zeros((1, 1))]
    )
    def test_width_one_row_is_rejected(self, bad):
        rows = [np.zeros(3), np.zeros(3), bad]
        with pytest.raises(PipelineError, match=r"channel count changed mid-stream: 1 after 3"):
            list(anonymize_stream(iter(rows), 2, 1, registry(6, "deterministic", 0)))

    @pytest.mark.parametrize("bad", [["a", "b", "c"], np.array(["1", "2", "x"])])
    def test_unconvertible_row_raises_as_asarray_does(self, bad):
        with pytest.raises(ValueError) as expected:
            np.asarray(bad, dtype=float)
        rows = [np.zeros(3), bad]
        with pytest.raises(ValueError) as got:
            list(anonymize_stream(iter(rows), 2, 1, registry(6, "deterministic", 0)))
        assert str(got.value) == str(expected.value)


class TestPredict:
    def classifier(self, bias):
        clf = Classifier(3, len(bias), hidden=(), rng=np.random.default_rng(0))
        clf.mlp.layers[-1].W[...] = 0.0
        clf.mlp.layers[-1].b[...] = bias
        return clf

    # numpy warns about the overflowing sum; predict then checks each logit
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_finite_logits_whose_sum_overflows_pass(self):
        clf = self.classifier([1e308, 1e308])
        x = np.ones((4, 3))
        assert not np.isfinite(clf.mlp.logits(x).sum())
        assert clf.predict(x[0]) == 0
        assert clf.predict(x).tolist() == [0, 0, 0, 0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits_raise(self, bad):
        clf = self.classifier([0.5, bad, 1.0])
        with pytest.raises(ValueError, match="finite logits"):
            clf.predict(np.ones(3))
        with pytest.raises(ValueError, match="finite logits"):
            clf.predict(np.ones((2, 3)))

    # predict checks the sum of squares, one dot product; squares of 1e160
    # overflow, and each logit is then checked
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_finite_logits_whose_squares_overflow_pass(self):
        clf = self.classifier([1e160, -1e160])
        x = np.ones((4, 3))
        flat = clf.mlp.logits(x).ravel()
        assert np.isfinite(flat.sum()) and not np.isfinite(flat.dot(flat))
        assert clf.predict(x[0]) == 0
        assert clf.predict(x).tolist() == [0, 0, 0, 0]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logit_beside_overflowing_squares_raises(self, bad):
        clf = self.classifier([1e160, bad, -1e160])
        with pytest.raises(ValueError, match="finite logits"):
            clf.predict(np.ones(3))
        with pytest.raises(ValueError, match="finite logits"):
            clf.predict(np.ones((2, 3)))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 8),
        st.integers(1, 5),
        st.lists(st.integers(1, 8), max_size=3),
        st.integers(1, 12),
        seeds,
    )
    def test_labels_are_argmax_of_forward_logits(self, dim, n_classes, hidden, batch, seed):
        rng = np.random.default_rng(seed)
        clf = Classifier(dim, n_classes, hidden=hidden, rng=rng)
        x = rng.normal(size=(batch, dim))
        logits = forward(clf.mlp.layers, x)[-1][1]
        labels = clf.predict(x)
        assert labels.tolist() == np.argmax(logits, axis=-1).tolist()
        single = clf.predict(x[0])
        assert type(single) is int and single == int(np.argmax(logits[0]))


finite = st.floats(-1e6, 1e6, allow_nan=False)
shapes = st.sampled_from([(1,), (3,), (8,), (2, 3), (5, 4)])


class TestSampleLatent:
    @settings(max_examples=100, deadline=None)
    @given(shapes.flatmap(lambda s: st.tuples(
        arrays(float, s, elements=finite),
        arrays(float, s, elements=st.floats(-60.0, 60.0)),
        arrays(float, s, elements=st.floats(-10.0, 10.0)),
    )))
    def test_bitwise_reference_and_inputs_untouched(self, inputs):
        mu, logvar, noise = inputs
        before = [a.tobytes() for a in inputs]
        z = sample_latent(LatentDistribution(mu, logvar), noise)
        assert z.tobytes() == (mu + np.exp(0.5 * logvar) * noise).tobytes()
        assert [a.tobytes() for a in inputs] == before
        assert not any(np.shares_memory(z, a) for a in inputs)


class TestApplyTransfer:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(2, 4),
        st.integers(1, 6),
        st.data(),
        seeds,
    )
    def test_bitwise_reference(self, n_public, n_private, latent, data, seed):
        rng = np.random.default_rng(seed)
        table = MeanLatentTable(
            n_public,
            n_private,
            latent,
            {
                (u, i): (rng.normal(scale=100.0, size=latent), 1)
                for u in range(n_public)
                for i in range(n_private)
            },
        )
        u = data.draw(st.integers(0, n_public - 1))
        i, i_prime = data.draw(st.tuples(*[st.integers(0, n_private - 1)] * 2))
        z = rng.normal(scale=10.0, size=latent)
        before = z.tobytes()
        z_hat = apply_transfer(z, table, u, i, i_prime)
        # i' == i is the identity, not a round trip through the two means
        expected = z if i_prime == i else z - table.mean(u, i) + table.mean(u, i_prime)
        assert z_hat.tobytes() == expected.tobytes()
        assert z.tobytes() == before and not np.shares_memory(z_hat, z)


class TestTracedCalls:
    """perfbench's tracer wraps methods on their classes and the core as a
    module attribute. One probabilistic window must make exactly one Modify
    call, one secure coin flip and four model calls, and reach the core
    through the module global, so per-window coin and model counts keep
    their meaning."""

    def test_each_window_makes_one_modify_one_flip_and_four_model_calls(self, monkeypatch):
        calls = Counter()

        def count(owner, attr):
            original = owner.__dict__[attr]

            def wrapper(*args, **kwargs):
                calls[attr] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)

        for owner, attr in [
            (ModifyPolicy, "modify"),
            (SecureCoin, "flip"),
            (Classifier, "predict"),
            (VaeModel, "encode"),
            (VaeModel, "decode"),
            (pipeline, "anonymize_embedding"),
        ]:
            count(owner, attr)
        reg = registry(6, "probabilistic", 0)
        rows = np.random.default_rng(1).normal(size=(43, 2))
        windows = list(anonymize_stream(rows, 3, 2, reg, noise_rng=np.random.default_rng(2)))
        n = len(windows)
        assert n == 21
        assert calls == {
            "modify": n, "flip": n, "predict": 2 * n, "encode": n, "decode": n,
            "anonymize_embedding": n,
        }
