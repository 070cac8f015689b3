"""A fixed-seed train_classifier and train_vae run against committed results
(tests/data/training_golden.jsonl, written by make_training_golden.py), so
that trained bytes are checked across commits and not only against a
reference run in the same process.

Parameters must agree within 1e-9 and each epoch's loss within a relative
1e-9: another BLAS or SIMD target may round differently. A one-ulp change to
every input value moved no parameter by more than 3e-16 and no loss by more
than a relative 4e-16 (30 random perturbations), so the tolerance leaves six
orders of magnitude. Where the environment tag equals the one the file was
written under, the SHA-256 over every bit must be equal too.
"""

import json

import numpy as np
import pytest

import make_training_golden as golden

LINES = [json.loads(line) for line in golden.PATH.read_text().splitlines()]
HEADER = LINES[0]
EXPECTED = {line["model"]: line for line in LINES[1:]}


@pytest.fixture(scope="module")
def models():
    return golden.run_models()


@pytest.mark.parametrize("name", ["classifier", "vae"])
def test_model_matches_the_committed_values(models, name):
    parameters, history = models[name]
    np.testing.assert_allclose(parameters, EXPECTED[name]["parameters"], rtol=0, atol=1e-9)
    np.testing.assert_allclose(history, EXPECTED[name]["history"], rtol=1e-9, atol=0)
    # the run trains: the loss falls
    assert history[-1] < history[0]


def test_bitwise_digest(models):
    here = golden.environment()
    if here != HEADER["environment"]:
        pytest.skip(f"digest recorded under {HEADER['environment']!r}, running under {here!r}")
    assert golden.digest(models) == HEADER["sha256"]
