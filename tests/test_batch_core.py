"""Differential tests of the batch core against the per-row path: a (B, D)
call of anonymize_embedding against the same rows run one by one through
the replaced row path (reference_pipeline) over one noise generator and one
coin. Summation order in the batched matmuls may
differ, so outputs must agree within 1e-8; predicted classes, targets and
applied flags must be equal on every row. A one-row batch at the deployed
widths equals the row call bitwise, its latent CRC included. A batch whose
model calls run as row blocks on several cores equals the one-block call:
within 1e-8 with the same records at any width, bitwise at the deployed
ones."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_anon.models import Classifier, VaeModel
from latent_anon.pipeline import (
    ModelRegistry,
    PipelineError,
    STAGES,
    StageTimings,
    anonymize_batch,
    anonymize_embedding,
    anonymize_stream,
)
from latent_anon.transform import MeanLatentTable, ModifyPolicy, SequenceCoin, apply_transfer
from reference_nn import row_blocks
from reference_pipeline import reference_anonymize_embedding

seeds = st.integers(0, 2**32 - 1)
ATOL = 1e-8


class ZeroNoise:
    """A noise source of zeros: the sampled latent is the posterior mean."""

    def standard_normal(self, size):
        return np.zeros(size)


def noise_source(zeros, seed):
    return ZeroNoise() if zeros else np.random.default_rng(seed)


def registry(dim, n_public, n_private, mode, seed, hidden=(6, 4), latent=3, unpredicted=True):
    """Random models over every (u, i) cell. With unpredicted and more than
    one public class, the last public class gets a logit bias no row can
    overcome, so its group stays empty."""
    rng = np.random.default_rng(seed)
    cells = {
        (u, i): (rng.normal(size=latent), 1) for u in range(n_public) for i in range(n_private)
    }
    public = Classifier(dim, n_public, "public", hidden=hidden, rng=rng)
    if unpredicted and n_public > 1:
        public.mlp.layers[-1].b[-1] = -1e6
    return ModelRegistry(
        vaes={
            u: VaeModel(dim, latent, n_private, public_class=u, hidden=hidden, rng=rng)
            for u in range(n_public)
        },
        public_classifier=public,
        private_classifier=Classifier(dim, n_private, "private", hidden=hidden, rng=rng),
        mean_table=MeanLatentTable(n_public, n_private, latent, cells),
        policy=ModifyPolicy(mode=mode, n_classes=n_private),
    )


def per_row(x, reg, seed, flips, zeros=False, index=0):
    noise, coin = noise_source(zeros, seed), SequenceCoin(flips)
    results = [
        reference_anonymize_embedding(row, reg, index=index + k, noise_rng=noise, coin=coin)
        for k, row in enumerate(x)
    ]
    return np.stack([x_hat for x_hat, _ in results]), [record for _, record in results]


def without_crc(records):
    return [dataclasses.replace(r, zhat_crc32=0) for r in records]


@settings(max_examples=150, deadline=None)
@given(
    n_rows=st.integers(1, 40),
    dim=st.integers(1, 120),
    n_public=st.integers(1, 4),
    n_private=st.integers(2, 3),
    mode=st.sampled_from(["deterministic", "probabilistic", "identity"]),
    zeros=st.booleans(),
    index=st.integers(0, 1000),
    seed=seeds,
)
def test_batch_equals_per_row(n_rows, dim, n_public, n_private, mode, zeros, index, seed):
    reg = registry(dim, n_public, n_private, mode, seed)
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=2.0, size=(n_rows, dim))
    flips = rng.integers(0, 2, size=n_rows).tolist()
    expected, expected_records = per_row(x, reg, seed, flips, zeros, index)
    outputs, records = anonymize_embedding(
        x, reg, index=index, noise_rng=noise_source(zeros, seed), coin=SequenceCoin(flips)
    )
    assert outputs.shape == (n_rows, dim)
    np.testing.assert_allclose(outputs, expected, rtol=0, atol=ATOL)
    assert without_crc(records) == without_crc(expected_records)
    if n_public > 1:
        assert n_public - 1 not in {r.predicted_public for r in records}


@settings(max_examples=30, deadline=None)
@given(n_rows=st.integers(1, 30), mode=st.sampled_from(["deterministic", "probabilistic"]), seed=seeds)
def test_anonymize_batch_is_the_batch_core(n_rows, mode, seed):
    """anonymize_batch over a list of rows is one batch call: the same bits
    and records as anonymize_embedding on the stacked rows."""
    reg = registry(24, 3, 2, mode, seed, unpredicted=False)
    rng = np.random.default_rng(seed)
    rows = list(rng.normal(size=(n_rows, 24)))
    flips = rng.integers(0, 2, size=n_rows).tolist()
    got, got_records = anonymize_batch(
        rows, reg, noise_rng=np.random.default_rng(seed), coin=SequenceCoin(flips)
    )
    expected, records = anonymize_embedding(
        np.stack(rows), reg, noise_rng=np.random.default_rng(seed), coin=SequenceCoin(flips)
    )
    assert got.tobytes() == expected.tobytes() and got_records == records


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 50), latent=st.integers(1, 16), seed=seeds)
def test_one_noise_draw_equals_per_row_draws(n, latent, seed):
    whole = np.random.default_rng(seed).standard_normal((n, latent))
    rng = np.random.default_rng(seed)
    rows = np.stack([rng.standard_normal(latent) for _ in range(n)])
    assert whole.tobytes() == rows.tobytes()


@pytest.mark.parametrize("dim", [96, 768])
@pytest.mark.parametrize("mode", ["deterministic", "probabilistic"])
def test_one_row_batch_equals_the_row_call_bitwise(dim, mode):
    reg = registry(dim, 3, 2, mode, dim, hidden=(64, 32), latent=8, unpredicted=False)
    rng = np.random.default_rng(dim)
    for draw in range(50):
        x = rng.normal(size=dim)
        flip = [draw % 2 == 0]
        row, row_record = anonymize_embedding(
            x, reg, index=draw, noise_rng=np.random.default_rng(draw), coin=SequenceCoin(flip)
        )
        batch, records = anonymize_embedding(
            x[None, :], reg, index=draw, noise_rng=np.random.default_rng(draw), coin=SequenceCoin(flip)
        )
        assert batch.shape == (1, dim)
        assert batch[0].tobytes() == row.tobytes()
        assert records == [row_record]


@pytest.mark.parametrize("mode", ["deterministic", "identity"])
def test_zero_noise_gives_the_posterior_mean_bitwise(mode):
    """A source of zeros makes the sampled latent the posterior mean: the
    row path gives decode(apply_transfer(encode(x).mu, ...)) bit for bit,
    and the batch path the same per group of rows with one predicted u."""
    reg = registry(12, 3, 2, mode, 4, unpredicted=False)
    x = np.random.default_rng(4).normal(scale=2.0, size=(30, 12))
    u = reg.public_classifier.predict(x)
    i = reg.private_classifier.predict(x)
    targets = [reg.policy.modify(i_k)[0] for i_k in i.tolist()]
    expected = np.empty_like(x)
    for c in np.unique(u).tolist():
        rows = np.flatnonzero(u == c)
        mu = reg.vaes[c].encode(x[rows]).mu
        z_hat = [apply_transfer(mu[j], reg.mean_table, c, i[k], targets[k]) for j, k in enumerate(rows)]
        expected[rows] = reg.vaes[c].decode(np.stack(z_hat))
    for k, row in enumerate(x):
        vae = reg.vaes[int(u[k])]
        z_hat = apply_transfer(vae.encode(row).mu, reg.mean_table, u[k], i[k], targets[k])
        x_hat, _ = anonymize_embedding(row, reg, noise_rng=ZeroNoise())
        assert x_hat.tobytes() == vae.decode(z_hat).tobytes()
    outputs, _ = anonymize_embedding(x, reg, noise_rng=ZeroNoise())
    assert len(np.unique(u)) > 1
    assert outputs.tobytes() == expected.tobytes()


def test_anonymize_batch_rejects_other_latent_modes():
    reg = registry(5, 1, 2, "deterministic", 0)
    with pytest.raises(ValueError, match="unknown latent mode 'mean'"):
        anonymize_batch([np.zeros(5)], reg, latent_mode="mean")


class TestBatchErrors:
    """A batch failure names the lowest row that causes it."""

    def rows(self, n=8, dim=5):
        return np.random.default_rng(3).normal(size=(n, dim))

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_names_the_lowest_row(self):
        x = self.rows()
        x[6, 0], x[2, 4] = np.inf, np.nan
        reg = registry(5, 2, 2, "deterministic", 0)
        with pytest.raises(ValueError, match=r"^embedding 12: .*finite"):
            anonymize_embedding(x, reg, index=10, noise_rng=np.random.default_rng(0))
        with pytest.raises(PipelineError, match=r"^embedding 2: .*finite"):
            anonymize_batch(list(x), reg, noise_rng=np.random.default_rng(0))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_logit_overflow_names_the_lowest_row(self):
        # finite rows whose logits overflow pass the input check and fail
        # in the classifier, which sees the whole batch
        x = self.rows()
        x[5], x[3] = 1.7e308, -1.7e308
        reg = registry(5, 2, 2, "deterministic", 0)
        with pytest.raises(PipelineError, match=r"^embedding 3: predict requires finite logits$"):
            anonymize_batch(list(x), reg, noise_rng=np.random.default_rng(0))

    def test_missing_vae_names_the_lowest_row(self):
        # rows predict 2, 2, 1, ... and the first 0 comes later: with the
        # VAEs of 0 and 1 gone, row 2 is the lowest that fails
        reg = registry(5, 3, 2, "deterministic", 3, unpredicted=False)
        x = self.rows(40)
        u = reg.public_classifier.predict(x)
        for c in set(range(3)) - {int(u[0])}:
            del reg.vaes[c]
        first = int(np.flatnonzero(u != u[0])[0])
        assert 0 < first < np.flatnonzero(u == 0)[0]
        with pytest.raises(PipelineError, match=rf"^embedding {first}: .*public class {u[first]}$"):
            anonymize_batch(list(x), reg, noise_rng=np.random.default_rng(0))

    def test_missing_cell_names_the_first_row_that_needs_it(self):
        reg = registry(5, 1, 2, "deterministic", 0)
        # deterministic Modify moves every row between cells (0, 0) and (0, 1)
        reg.mean_table = MeanLatentTable(1, 2, 3, {(0, 0): (np.zeros(3), 1)})
        missing = r"no mean latent recorded for cell \(u=0, i=1\)$"
        x = self.rows()
        with pytest.raises(PipelineError, match=rf"^embedding 0: {missing}"):
            anonymize_batch(list(x), reg, noise_rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match=rf"^embedding 7: {missing}"):
            anonymize_embedding(x[3], reg, index=7, noise_rng=np.random.default_rng(0))
        # a one-channel stream whose windows are the rows of x; the coin
        # keeps the first two windows where they are and moves the third
        reg.policy = ModifyPolicy(mode="probabilistic", n_classes=2)
        stream = anonymize_stream(
            x.reshape(-1), 5, 5, reg, noise_rng=np.random.default_rng(0),
            coin=SequenceCoin([False, False, True]),
        )
        assert len([next(stream), next(stream)]) == 2
        with pytest.raises(PipelineError, match=rf"^window 2: {missing}"):
            next(stream)

    def test_latent_width_mismatch_names_the_lowest_row(self):
        reg = registry(5, 2, 2, "deterministic", 0, unpredicted=False)
        x = self.rows(40)
        u = reg.public_classifier.predict(x)
        reg.vaes[1] = VaeModel(5, 4, 2, public_class=1, hidden=(6, 4), rng=np.random.default_rng(1))
        first = int(np.flatnonzero(u == 1)[0])
        expected = r"latent has shape \(4,\), table expects \(3,\)$"
        with pytest.raises(ValueError, match=rf"^embedding {first + 10}: {expected}"):
            anonymize_embedding(x, reg, index=10, noise_rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match=rf"^embedding 7: {expected}"):
            anonymize_embedding(x[first], reg, index=7, noise_rng=np.random.default_rng(0))

    def test_modify_error_names_the_row(self):
        reg = registry(5, 1, 2, "deterministic", 0)
        x = self.rows(40)
        i = reg.private_classifier.predict(x)
        x = x[np.argsort(i, kind="stable")]
        # a policy over fewer classes than the classifier emits
        reg.policy = ModifyPolicy(mode="identity", n_classes=1)
        first = int(np.sum(i == 0))
        with pytest.raises(PipelineError, match=rf"^embedding {first}: class 1 outside"):
            anonymize_batch(list(x), reg, noise_rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"^embedding 7: class 1 outside"):
            anonymize_embedding(x[first], reg, index=7, noise_rng=np.random.default_rng(0))
        # a one-channel stream whose windows are the rows of x
        stream = anonymize_stream(x.reshape(-1), 5, 5, reg, noise_rng=np.random.default_rng(0))
        assert len([next(stream) for _ in range(first)]) == first
        with pytest.raises(PipelineError, match=rf"^window {first}: class 1 outside"):
            next(stream)



def test_batch_records_one_sample_per_stage():
    """The stage timings bracket the one body of the six steps, so a batch
    call adds one sample to each stage, as a row call does."""
    reg = registry(5, 2, 2, "deterministic", 0)
    timings = StageTimings()
    anonymize_embedding(np.ones((8, 5)), reg, noise_rng=np.random.default_rng(0), timings=timings)
    anonymize_embedding(np.ones(5), reg, noise_rng=np.random.default_rng(0), timings=timings)
    assert {name: len(samples) for name, samples in timings.samples.items()} == dict.fromkeys(STAGES, 2)
    assert all(t >= 0 for samples in timings.samples.values() for t in samples)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestNonFiniteLatent:
    """A VAE whose log-variance overflows exp(logvar / 2) samples an inf or
    NaN latent; every path fails on it before decoding instead of releasing
    the row."""

    def runaway(self, n_public=1, u=0):
        reg = registry(5, n_public, 2, "deterministic", 0, unpredicted=False)
        reg.vaes[u].logvar_head.b[:] = 2000.0
        return reg

    def test_row_raises(self):
        reg = self.runaway()
        with pytest.raises(ValueError, match=r"^embedding 0: non-finite value in the sampled latent$"):
            anonymize_embedding(np.ones(5), reg, noise_rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"^embedding 7: .*sampled latent$"):
            anonymize_embedding(np.ones(5), reg, index=7, noise_rng=ZeroNoise())

    def test_stream_names_the_window(self):
        reg = self.runaway()
        rows = [np.full(1, 0.5)] * 7
        with pytest.raises(PipelineError, match=r"^window 0: non-finite value in the sampled latent$"):
            next(anonymize_stream(rows, 5, 2, reg, noise_rng=np.random.default_rng(0)))

    def test_batch_names_the_lowest_row(self):
        x = np.random.default_rng(3).normal(size=(40, 5))
        u = self.runaway(n_public=2).public_classifier.predict(x)
        # only the VAE of the class row 0 does not predict runs away
        reg = self.runaway(n_public=2, u=1 - u[0])
        first = int(np.flatnonzero(u != u[0])[0])
        with pytest.raises(ValueError, match=rf"^embedding {first + 10}: non-finite value in the sampled latent$"):
            anonymize_embedding(x, reg, index=10, noise_rng=np.random.default_rng(0))
        with pytest.raises(PipelineError, match=rf"^embedding {first}: .*sampled latent$"):
            anonymize_batch(list(x), reg, noise_rng=np.random.default_rng(0))


@settings(max_examples=60, deadline=None)
@given(
    n_rows=st.integers(2, 40),
    dim=st.integers(1, 60),
    n_public=st.integers(1, 3),
    mode=st.sampled_from(["deterministic", "probabilistic"]),
    n_cores=st.integers(2, 4),
    seed=seeds,
)
def test_row_blocks_equal_one_block(n_rows, dim, n_public, mode, n_cores, seed):
    reg = registry(dim, n_public, 2, mode, seed, unpredicted=False)
    x = np.random.default_rng(seed).normal(scale=2.0, size=(n_rows, dim))
    flips = np.random.default_rng(seed).integers(0, 2, size=n_rows).tolist()

    def run():
        return anonymize_embedding(x, reg, noise_rng=np.random.default_rng(seed), coin=SequenceCoin(flips))

    with row_blocks(1):
        expected, expected_records = run()
    with row_blocks(n_cores, floor=1) as spy:
        outputs, records = run()
    assert spy.call_count >= 2  # both classifiers, and each group of two or more rows
    np.testing.assert_allclose(outputs, expected, rtol=0, atol=ATOL)
    # the latent CRC is of z_hat's bits, which agree only within ATOL here
    assert without_crc(records) == without_crc(expected_records)


def test_row_blocks_are_bitwise_at_the_deployed_shapes():
    """D = 768, hidden (64, 32), latent 8, 1,320 rows over six public
    classes, so each VAE sees a group of about 220 rows: the blocked batch
    gives the one-block outputs and records bit for bit."""
    reg = registry(768, 6, 2, "deterministic", 7, hidden=(64, 32), latent=8, unpredicted=False)
    x = np.random.default_rng(7).normal(size=(1320, 768))
    with row_blocks(1):
        expected, expected_records = anonymize_batch(list(x), reg, noise_rng=np.random.default_rng(7))
    with row_blocks(4) as spy:
        outputs, records = anonymize_batch(list(x), reg, noise_rng=np.random.default_rng(7))
    assert spy.call_count >= 4
    assert outputs.tobytes() == expected.tobytes()
    assert records == expected_records
