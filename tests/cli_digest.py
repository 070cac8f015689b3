"""SHA-256 of every file a synthetic run of the CLI writes.

Runs prepare, train, gridsearch, means, anonymize (det, on an archive and on
a stream), eval (det, identity, none) and attack (det) in a fresh directory
on a small synthetic dataset, then prints one line per output file: its
digest and its path relative to that directory. Every command is
deterministic under its seed, so two commits whose CLI behaves the same
print the same lines. bench, whose bench.json holds wall-clock timings, and
the probabilistic mode, whose coin is the OS secure source, do not run.

    PYTHONPATH=src python tests/cli_digest.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from latent_anon.cli import main
from latent_anon.data import SynthConfig, synth_generate

SYNTH = {
    "n_public": 2, "n_private": 2, "n_subjects": 6, "trials_per_class": 1,
    "samples_per_trial": 200, "n_channels": 2,
}
COMMON = ["--archive", "data", "--models", "models", "--table", "table/table.zbar"]
RUNS = [
    ["prepare", "--schema", "synth", "--synth-config", "synth.json", "--out", "data",
     "--window", "32", "--stride", "16", "--split", "subject", "--seed", "5"],
    ["train", "--archive", "data", "--out", "models", "--epochs", "20", "--seed", "1"],
    ["gridsearch", "--archive", "data", "--out", "grid", "--alphas", "1", "--betas", "1,2",
     "--epochs", "2", "--seed", "2"],
    ["means", "--archive", "data", "--models", "models", "--out", "table"],
    ["anonymize", *COMMON, "--mode", "det", "--seed", "3", "--out", "anon"],
    ["anonymize", "--archive", "stream.txt", "--stream", "--window", "32", "--stride", "16",
     *COMMON[2:], "--mode", "det", "--seed", "3", "--out", "stream"],
    ["eval", *COMMON, "--mode", "det", "--seed", "4", "--out", "eval_det"],
    ["eval", *COMMON, "--mode", "identity", "--seed", "4", "--out", "eval_identity"],
    ["eval", "--archive", "data", "--models", "models", "--mode", "none", "--out", "eval_none"],
    ["attack", *COMMON, "--mode", "det", "--runs", "2", "--epochs", "10", "--seed", "6",
     "--out", "attack"],
]


def digests(root):
    """(relative path, SHA-256) of every file under root, in path order."""
    return [
        (p.relative_to(root).as_posix(), hashlib.sha256(p.read_bytes()).hexdigest())
        for p in sorted(root.rglob("*"))
        if p.is_file()
    ]


def run_all(root):
    (root / "synth.json").write_text(json.dumps(SYNTH), encoding="utf-8")
    rows = synth_generate(SynthConfig(n_channels=2, seed=9))[0].samples[:96]
    (root / "stream.txt").write_text(
        "".join(" ".join(f"{v:.6f}" for v in row) + "\n" for row in rows), encoding="utf-8"
    )
    # relative paths keep each config.json echo free of the temporary directory
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in RUNS:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            if code != 0:
                raise SystemExit(f"{argv[0]} exited {code}")
    finally:
        os.chdir(cwd)


def main_digest():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        run_all(root)
        for name, digest in digests(root):
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
