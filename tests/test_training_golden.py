"""A fixed-seed train_classifier and train_vae run, and the mean table the
trained VAE encodes, against committed results
(tests/data/training_golden.jsonl, written by make_training_golden.py), so
that trained bytes are checked across commits and not only against a
reference run in the same process.

Parameters and table means must agree within 1e-9, table counts exactly,
and each epoch's loss within a relative 1e-9: another BLAS or SIMD target
may round differently. A one-ulp change to every input value moved no
parameter by more than 3e-16 and no loss by more than a relative 4e-16 (30
random perturbations), so the tolerance leaves six orders of magnitude.
Where the environment tag equals the one the file was written under, the
SHA-256 over every bit must be equal too.
"""

import json

import numpy as np
import pytest

import make_training_golden as golden

LINES = [json.loads(line) for line in golden.PATH.read_text().splitlines()]
HEADER, *MODEL_LINES, TABLE = LINES
EXPECTED = {line["model"]: line for line in MODEL_LINES}


@pytest.fixture(scope="module")
def trained():
    return golden.run_models()


@pytest.mark.parametrize("name", ["classifier", "vae"])
def test_model_matches_the_committed_values(trained, name):
    parameters, history = trained[0][name]
    np.testing.assert_allclose(parameters, EXPECTED[name]["parameters"], rtol=0, atol=1e-9)
    np.testing.assert_allclose(history, EXPECTED[name]["history"], rtol=1e-9, atol=0)
    # the run trains: the loss falls
    assert history[-1] < history[0]


def test_mean_table_matches_the_committed_values(trained):
    table = trained[1]
    np.testing.assert_allclose(table.means, TABLE["means"], rtol=0, atol=1e-9)
    np.testing.assert_array_equal(table.counts, TABLE["counts"])
    # every row lands in one of the N_PRIVATE cells of public class 0
    assert table.counts.tolist() == [[15, 15, 15]]


def test_bitwise_digest(trained):
    here = golden.environment()
    if here != HEADER["environment"]:
        pytest.skip(f"digest recorded under {HEADER['environment']!r}, running under {here!r}")
    assert golden.digest(*trained) == HEADER["sha256"]
