"""A (D,) row through the six-step core against the replaced row path
(reference_pipeline), bitwise: the output bytes, every record field and the
latent CRC. A run of rows shares one noise generator and one SequenceCoin on
both sides, so the order in which the core draws noise and flips the coin is
pinned as well."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_anon.pipeline import anonymize_embedding
from latent_anon.transform import SequenceCoin
from reference_pipeline import reference_anonymize_embedding
from test_batch_core import noise_source, registry


def run(anonymize, x, reg, zeros, seed, flips, index):
    noise, coin = noise_source(zeros, seed), SequenceCoin(flips)
    return [
        anonymize(row, reg, index=index + k, noise_rng=noise, coin=coin) for k, row in enumerate(x)
    ]


@settings(max_examples=150, deadline=None)
@given(
    n_rows=st.integers(1, 6),
    dim=st.integers(1, 120),
    n_public=st.integers(1, 4),
    n_private=st.integers(2, 4),
    mode=st.sampled_from(["deterministic", "probabilistic", "identity"]),
    zeros=st.booleans(),
    index=st.integers(0, 1000),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_equals_the_reference_bitwise(n_rows, dim, n_public, n_private, mode, zeros, index, seed):
    reg = registry(dim, n_public, n_private, mode, seed, unpredicted=False)
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=2.0, size=(n_rows, dim))
    flips = rng.integers(0, 2, size=n_rows).tolist()
    got = run(anonymize_embedding, x, reg, zeros, seed, flips, index)
    expected = run(reference_anonymize_embedding, x, reg, zeros, seed, flips, index)
    for (x_hat, record), (ref_hat, ref_record) in zip(got, expected):
        assert x_hat.shape == (dim,)
        assert x_hat.tobytes() == ref_hat.tobytes()
        assert record == ref_record
