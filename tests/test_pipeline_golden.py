"""The row, batch and stream paths against committed outputs
(tests/data/pipeline_golden.jsonl, written by make_pipeline_golden.py).

Predicted classes, targets, applied flags and record indices must be equal;
outputs must agree within 1e-8, since another BLAS or SIMD target may round
differently. Where the environment tag equals the one the file was written
under, the SHA-256 over every output bit and every record (latent CRCs
included) must be equal too.
"""

import json

import numpy as np
import pytest

import make_pipeline_golden as golden

LINES = [json.loads(line) for line in golden.PATH.read_text().splitlines()]
HEADER = LINES[0]
EXPECTED = {case["case"]: case for case in LINES[1:]}
EXACT = ("index", "predicted_public", "predicted_private", "target_private", "applied")


@pytest.fixture(scope="module")
def cases():
    return {name: (outputs, records) for name, outputs, records in golden.run_cases()}


def test_every_case_is_pinned(cases):
    assert list(cases) == list(EXPECTED)


def test_the_inputs_reach_every_branch(cases):
    """Every public and private class is predicted, and probabilistic mode
    both applies and skips the shift, so the golden pins each branch."""
    records = [r for _, case in cases.items() for r in case[1]]
    assert {r.predicted_public for r in records} == set(range(golden.N_PUBLIC))
    assert {r.predicted_private for r in records} == set(range(golden.N_PRIVATE))
    assert {r.applied for r in cases["batch/probabilistic"][1]} == {True, False}


@pytest.mark.parametrize("name", list(EXPECTED))
def test_case_matches_the_committed_values(cases, name):
    outputs, records = cases[name]
    columns = golden.record_columns(records)
    for field in EXACT:
        assert columns[field] == EXPECTED[name][field], field
    np.testing.assert_allclose(outputs, EXPECTED[name]["outputs"], rtol=0, atol=1e-8)


def test_bitwise_digest(cases):
    here = golden.environment()
    if here != HEADER["environment"]:
        pytest.skip(f"digest recorded under {HEADER['environment']!r}, running under {here!r}")
    triples = [(name, *case) for name, case in cases.items()]
    assert golden.digest(triples) == HEADER["sha256"]
