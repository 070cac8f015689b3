"""End-to-end CLI workflow on a small synthetic dataset, plus error paths."""

import csv
import json
import re
import shutil
import struct
from dataclasses import replace

import numpy as np
import pytest

from latent_anon import cli, cores
from latent_anon.cli import build_parser, main
from latent_anon.container import unframe, write_framed
from latent_anon.data import load_embeddings, save_embeddings
from latent_anon.models import ContainerError, persist
from latent_anon.transform import compute_mean_table, load_table, save_table


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """prepare -> train -> means, shared by the command tests below."""
    root = tmp_path_factory.mktemp("cli")
    synth_cfg = root / "synth.json"
    synth_cfg.write_text(json.dumps({
        "n_public": 2, "n_private": 2, "n_subjects": 6, "trials_per_class": 1,
        "samples_per_trial": 200, "n_channels": 2, "noise_std": 0.05,
    }))
    data = root / "data"
    models = root / "models"
    table_dir = root / "table"
    assert main([
        "prepare", "--schema", "synth", "--synth-config", str(synth_cfg),
        "--out", str(data), "--window", "32", "--stride", "16",
        "--split", "subject", "--seed", "5",
    ]) == 0
    assert main([
        "train", "--archive", str(data), "--out", str(models),
        "--epochs", "40", "--seed", "1",
    ]) == 0
    assert main([
        "means", "--archive", str(data), "--models", str(models), "--out", str(table_dir),
    ]) == 0
    return {
        "root": root,
        "data": data,
        "models": models,
        "table": table_dir / "table.zbar",
    }


class TestPrepare:
    def test_archive_has_declared_shape(self, workspace):
        _, meta = load_embeddings(workspace["data"] / "train.emba")
        assert (meta.window, meta.stride, meta.n_channels) == (32, 16, 2)
        assert (meta.n_public, meta.n_private) == (2, 2)
        manifest = json.loads((workspace["data"] / "manifest.json").read_text())
        assert manifest["n_train"] > 0 and manifest["n_test"] > 0
        assert not set(manifest["train_subjects"]) & set(manifest["test_subjects"])
        assert manifest["normalization"] is not None

    def test_config_echo_written(self, workspace):
        echo = json.loads((workspace["data"] / "config.json").read_text())
        assert echo["window"] == 32 and echo["seed"] == 5

    def test_missing_column_fails_with_name(self, tmp_path, capsys):
        (tmp_path / "walk_1").mkdir()
        (tmp_path / "walk_1" / "sub_1.csv").write_text("a,b\n1,2\n")
        (tmp_path / "subjects.csv").write_text("code,gender\n1,0\n")
        schema = {
            "channels": ["a", "b", "c"],
            "sampling_rate_hz": 10.0,
            "path_pattern": r"(?P<public>[a-z]+)_(?P<trial>\d+)/sub_(?P<subject>\d+)\.csv$",
            "public_classes": ["walk"],
            "private_classes": ["0", "1"],
            "subjects_table": "subjects.csv",
            "subjects_key": "code",
            "private_column": "gender",
        }
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps(schema))
        out = tmp_path / "out"
        code = main([
            "prepare", "--schema", str(schema_path), "--data", str(tmp_path),
            "--out", str(out), "--window", "2", "--stride", "1",
        ])
        assert code == 1
        assert "'c'" in capsys.readouterr().err
        # failed runs leave no partial outputs behind
        assert not (out / "train.emba").exists()

    def test_test_trials_flag_overrides_the_schema(self, tmp_path):
        # three trials of different lengths for two subjects: window 2 and
        # stride 2 give n // 2 windows per subject from a trial of n rows
        for trial, n in ((1, 12), (2, 8), (3, 6)):
            (tmp_path / f"walk_{trial}").mkdir()
            for subject in (1, 2):
                rows = "".join(f"{k},{k * subject}\n" for k in range(n))
                (tmp_path / f"walk_{trial}" / f"sub_{subject}.csv").write_text("a,b\n" + rows)
        (tmp_path / "subjects.csv").write_text("code,gender\n1,0\n2,1\n")
        schema = {
            "channels": ["a", "b"],
            "sampling_rate_hz": 10.0,
            "path_pattern": r"(?P<public>[a-z]+)_(?P<trial>\d+)/sub_(?P<subject>\d+)\.csv$",
            "public_classes": ["walk"],
            "private_classes": ["0", "1"],
            "subjects_table": "subjects.csv",
            "subjects_key": "code",
            "private_column": "gender",
            "test_trials": [3],
        }
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps(schema))

        def n_test(name, *flags):
            out = tmp_path / name
            assert main([
                "prepare", "--schema", str(schema_path), "--data", str(tmp_path),
                "--out", str(out), "--window", "2", "--stride", "2", *flags,
            ]) == 0
            return json.loads((out / "manifest.json").read_text())["n_test"]

        assert n_test("schema") == 2 * 3
        assert n_test("auto", "--test-trials", "1") == 2 * 6
        assert n_test("trial", "--split", "trial", "--test-trials", "1,2") == 2 * (6 + 4)


class TestTrain:
    def test_model_files_exist(self, workspace):
        names = {p.name for p in workspace["models"].iterdir()}
        assert {"public_classifier.lann", "private_classifier.lann",
                "vae_u0.lann", "vae_u1.lann", "losses.csv", "metrics.json",
                "config.json"} <= names

    def test_metrics_reasonable(self, workspace):
        metrics = json.loads((workspace["models"] / "metrics.json").read_text())
        assert metrics["public_test_accuracy"] > 0.9
        assert metrics["private_test_accuracy"] > 0.9

    def test_zero_epochs_keeps_the_initial_models(self, workspace, tmp_path):
        out = tmp_path / "models0"
        assert main([
            "train", "--archive", str(workspace["data"]), "--out", str(out), "--epochs", "0",
        ]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["vae_final_loss"] == {"0": None, "1": None}
        assert (out / "losses.csv").read_bytes() == b"model,epoch,loss\r\n"
        assert (out / "vae_u1.lann").stat().st_size > 0

    def test_alpha_zero_logs_classification_as_zero(self, workspace, tmp_path):
        out = tmp_path / "models0"
        assert main([
            "train", "--archive", str(workspace["data"]), "--out", str(out),
            "--epochs", "2", "--alpha", "0", "--seed", "3",
        ]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["classification_loss_logged_zero"] is True


class TestMeans:
    def test_table_covers_all_cells_in_train_split(self, workspace):
        table = load_table(workspace["table"])
        train, meta = load_embeddings(workspace["data"] / "train.emba")
        present = {(e.true_public, e.true_private) for e in train}
        for cell in present:
            assert table.has(*cell)

    def test_rerun_bit_identical(self, workspace, tmp_path):
        out = tmp_path / "table2"
        assert main([
            "means", "--archive", str(workspace["data"]),
            "--models", str(workspace["models"]), "--out", str(out),
        ]) == 0
        assert (out / "table.zbar").read_bytes() == workspace["table"].read_bytes()


class TestAnonymize:
    def test_deterministic_same_seed_identical(self, workspace, tmp_path):
        outs = []
        for name in ("a1", "a2"):
            out = tmp_path / name
            assert main([
                "anonymize", "--archive", str(workspace["data"]),
                "--models", str(workspace["models"]), "--table", str(workspace["table"]),
                "--mode", "det", "--seed", "3", "--out", str(out),
            ]) == 0
            outs.append(out)
        assert (outs[0] / "anonymized.emba").read_bytes() == (outs[1] / "anonymized.emba").read_bytes()
        assert (outs[0] / "records.csv").read_text() == (outs[1] / "records.csv").read_text()

    def test_probabilistic_applied_rate_near_half(self, workspace, tmp_path):
        out = tmp_path / "prob"
        assert main([
            "anonymize", "--archive", str(workspace["data"]),
            "--models", str(workspace["models"]), "--table", str(workspace["table"]),
            "--mode", "prob", "--seed", "3", "--out", str(out),
        ]) == 0
        with open(out / "records.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        rate = np.mean([int(r["applied"]) for r in rows])
        # only ~22 test embeddings here, so the bound is loose
        assert 0.15 <= rate <= 0.85

    def test_missing_cell_fails_naming_it(self, workspace, tmp_path, capsys):
        table = load_table(workspace["table"])
        cells = table.cells()
        cells.pop((0, 1))
        partial = tmp_path / "partial.zbar"
        from latent_anon.transform import MeanLatentTable

        save_table(MeanLatentTable(2, 2, table.latent_dim, cells), partial)
        out = tmp_path / "anon_partial"
        code = main([
            "anonymize", "--archive", str(workspace["data"]),
            "--models", str(workspace["models"]), "--table", str(partial),
            "--mode", "det", "--seed", "3", "--out", str(out),
        ])
        assert code == 1
        assert "(u=0, i=1)" in capsys.readouterr().err

    def test_stream_mode(self, workspace, tmp_path):
        rng = np.random.default_rng(0)
        samples = tmp_path / "samples.txt"
        lines = [" ".join(f"{v:.6f}" for v in rng.standard_normal(2)) for _ in range(64)]
        samples.write_text("\n".join(lines) + "\n")
        out = tmp_path / "stream"
        assert main([
            "anonymize", "--archive", str(samples), "--stream",
            "--window", "32", "--stride", "16",
            "--models", str(workspace["models"]), "--table", str(workspace["table"]),
            "--mode", "det", "--seed", "3", "--out", str(out),
        ]) == 0
        produced = (out / "anonymized.txt").read_text().strip().splitlines()
        assert len(produced) == 3  # offsets 0, 16, 32
        assert len(produced[0].split()) == 64

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "lines, expected",
        [
            (["0.1 0.2 0.3"] * 40, r"error: window 32 x 3 channels = 96 values, the models expect 64"),
            (["0.1 0.2"] * 20 + ["nan 0.2"] + ["0.1 0.2"] * 19, r"error: window 0: non-finite value in the row$"),
            (["0.1 0.2", "", "0.1 x"] + ["0.1 0.2"] * 40,
             r"^error: line 3: could not convert string to float: 'x'$"),
        ],
    )
    def test_stream_errors_name_the_window(self, workspace, tmp_path, capsys, lines, expected):
        samples = tmp_path / "bad.txt"
        samples.write_text("\n".join(lines) + "\n")
        code = main([
            "anonymize", "--archive", str(samples), "--stream",
            "--window", "32", "--stride", "16",
            "--models", str(workspace["models"]), "--table", str(workspace["table"]),
            "--mode", "det", "--seed", "3", "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert re.search(expected, capsys.readouterr().err)


class TestEvalAttackBench:
    def test_eval_none_mode_before_equals_after(self, workspace, tmp_path):
        out = tmp_path / "eval_none"
        assert main([
            "eval", "--archive", str(workspace["data"]), "--models", str(workspace["models"]),
            "--mode", "none", "--out", str(out),
        ]) == 0
        payload = json.loads((out / "eval.json").read_text())
        w = payload["weighted"]
        assert w["public_before"] == w["public_after"]
        assert w["private_before"] == w["private_after"]

    def test_eval_deterministic_flips_private(self, workspace, tmp_path):
        out = tmp_path / "eval_det"
        assert main([
            "eval", "--archive", str(workspace["data"]), "--models", str(workspace["models"]),
            "--table", str(workspace["table"]), "--mode", "det", "--seed", "2",
            "--out", str(out),
        ]) == 0
        w = json.loads((out / "eval.json").read_text())["weighted"]
        assert w["private_after"] < w["private_before"]
        assert w["public_after"] >= 0.8

    def test_eval_config_echo_reparses(self, workspace, tmp_path):
        out = tmp_path / "eval_identity"
        assert main([
            "eval", "--archive", str(workspace["data"]), "--models", str(workspace["models"]),
            "--table", str(workspace["table"]), "--mode", "identity", "--out", str(out),
        ]) == 0
        echo = json.loads((out / "config.json").read_text())
        assert echo["mode"] == "identity"
        args = build_parser().parse_args([
            "eval", "--archive", echo["archive"], "--models", echo["models"],
            "--table", echo["table"], "--mode", echo["mode"], "--out", echo["out"],
        ])
        assert args.mode == "identity"

    def test_attack_reproducible(self, workspace, tmp_path):
        reports = []
        for name in ("k1", "k2"):
            out = tmp_path / name
            assert main([
                "attack", "--archive", str(workspace["data"]), "--models", str(workspace["models"]),
                "--table", str(workspace["table"]), "--mode", "det",
                "--runs", "2", "--epochs", "30", "--seed", "11", "--out", str(out),
            ]) == 0
            reports.append(json.loads((out / "summary.json").read_text()))
        assert reports[0]["accuracies"] == reports[1]["accuracies"]
        assert reports[0]["config"] == {"sample_fraction": 0.2, "n_runs": 2, "seed": 11}

    def test_attack_runs_do_not_depend_on_the_core_count(self, workspace, tmp_path, monkeypatch):
        runs = []
        for n_cores in (1, 2):
            monkeypatch.setattr(cores, "CORES", n_cores)
            out = tmp_path / f"cores{n_cores}"
            assert main([
                "attack", "--archive", str(workspace["data"]), "--models", str(workspace["models"]),
                "--table", str(workspace["table"]), "--mode", "det",
                "--runs", "3", "--epochs", "5", "--seed", "4", "--out", str(out),
            ]) == 0
            runs.append((out / "runs.csv").read_bytes())
        assert runs[0] == runs[1]

    def test_bench_prints_budget(self, workspace, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main([
            "bench", "--models", str(workspace["models"]), "--table", str(workspace["table"]),
            "--rate", "50", "--stride", "10", "--count", "32",
            "--warmup", "8", "--reps", "1", "--out", str(out),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "200.0 ms" in stdout
        payload = json.loads((out / "bench.json").read_text())
        assert payload["budget_ms"] == 200.0
        assert payload["realtime"]["passed"] is True

    def test_bench_budget_20hz(self, workspace, tmp_path, capsys):
        out = tmp_path / "bench20"
        assert main([
            "bench", "--models", str(workspace["models"]), "--table", str(workspace["table"]),
            "--rate", "20", "--stride", "10", "--count", "8",
            "--warmup", "2", "--reps", "1", "--out", str(out),
        ]) == 0
        assert "500.0 ms" in capsys.readouterr().out

    def test_bench_zero_reps_is_an_error(self, workspace, tmp_path, capsys):
        out = tmp_path / "bench0"
        assert main([
            "bench", "--models", str(workspace["models"]), "--table", str(workspace["table"]),
            "--count", "4", "--warmup", "0", "--reps", "0", "--out", str(out),
        ]) == 1
        assert "error: repetitions must be >= 1" in capsys.readouterr().err
        assert not (out / "bench.json").exists()


class TestOutputFormats:
    # the first line of each CSV, line ending included: csv.writer ends rows
    # in CRLF, the report writers in LF
    CSV_HEADERS = {
        "losses.csv": "model,epoch,loss\r\n",
        "records.csv": "index,predicted_public,predicted_private,target_private,applied,zhat_crc32\r\n",
        "grid.csv": "alpha,beta,avg_loss\r\n",
        "runs.csv": "run,accuracy\n",
        "eval.csv": "public_class,n,public_before,public_after,private_before,private_after\n",
    }

    def test_json_and_csv_layouts(self, workspace, tmp_path):
        common = ["--archive", str(workspace["data"]), "--models", str(workspace["models"]),
                  "--table", str(workspace["table"])]
        for argv in (
            ["anonymize", *common, "--mode", "det"],
            ["gridsearch", "--archive", str(workspace["data"]), "--alphas", "1", "--betas", "1",
             "--epochs", "1"],
            ["eval", *common, "--mode", "det"],
            ["attack", *common, "--runs", "1", "--epochs", "1"],
            ["bench", *common, "--count", "4", "--warmup", "0", "--reps", "1"],
        ):
            assert main([*argv, "--out", str(tmp_path / argv[0])]) == 0
        dirs = [workspace["data"], workspace["models"], workspace["table"].parent,
                *tmp_path.iterdir()]
        outputs = [p for d in dirs for p in d.iterdir()]
        assert set(self.CSV_HEADERS) | {"config.json", "manifest.json", "metrics.json",
                                        "best.json", "summary.json", "eval.json",
                                        "bench.json"} <= {p.name for p in outputs}
        for p in outputs:
            if p.suffix == ".json":
                text = p.read_bytes().decode("utf-8")
                assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", p
            elif p.suffix == ".csv":
                assert p.read_bytes().decode("utf-8").startswith(self.CSV_HEADERS[p.name]), p


class TestErrorPaths:
    def test_archives_with_disagreeing_headers(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        shutil.copy(workspace["data"] / "train.emba", data / "train.emba")
        test, meta = load_embeddings(workspace["data"] / "test.emba")
        save_embeddings(data / "test.emba", test, replace(meta, n_private=3))
        out = tmp_path / "table"
        code = main(["means", "--archive", str(data), "--models", str(workspace["models"]),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: train and test archives disagree on their headers\n"
        )
        assert list(out.iterdir()) == []

    def test_unexpected_error_is_raised_and_leaves_nothing(self, workspace, tmp_path, monkeypatch):
        # fails after every model file is written
        def broken(*args):
            raise RuntimeError("broken")

        monkeypatch.setattr(cli, "evaluate_accuracy", broken)
        out = tmp_path / "models"
        with pytest.raises(RuntimeError, match="broken"):
            main(["train", "--archive", str(workspace["data"]), "--out", str(out), "--epochs", "1"])
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "copies, message",
        [
            ({"vae_u0.lann": "public_classifier.lann"},
             "vae_u0.lann holds the public classifier, expected the VAE of public class 0"),
            ({"public_classifier.lann": "vae_u0.lann"},
             "public_classifier.lann holds the VAE of public class 0, "
             "expected the public classifier"),
            ({"public_classifier.lann": "private_classifier.lann",
              "private_classifier.lann": "public_classifier.lann"},
             "public_classifier.lann holds the private classifier, "
             "expected the public classifier"),
            ({"vae_u1.lann": "vae_u0.lann"},
             "vae_u1.lann holds the VAE of public class 0, expected the VAE of public class 1"),
        ],
        ids=["classifier-as-vae", "vae-as-classifier", "swapped-classifiers", "vae-of-other-class"],
    )
    def test_model_file_holding_another_model(self, workspace, tmp_path, capsys, copies, message):
        # U == M here, so swapped classifiers pass validate_registry
        models = tmp_path / "models"
        shutil.copytree(workspace["models"], models)
        for name, source in copies.items():
            (models / name).write_bytes((workspace["models"] / source).read_bytes())
        out = tmp_path / "anon"
        code = main([
            "anonymize", "--archive", str(workspace["data"]), "--models", str(models),
            "--table", str(workspace["table"]), "--mode", "det", "--seed", "3", "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {models}") and err.endswith(f"{message}\n")
        assert list(out.iterdir()) == []

    def test_model_file_with_a_huge_dimension(self, workspace, tmp_path, capsys):
        # a CRC-valid file whose JSON claims 10**12 inputs: a named error,
        # not an allocation of terabytes
        models = tmp_path / "models"
        shutil.copytree(workspace["models"], models)
        path = models / "vae_u0.lann"
        (meta_len,), body = unframe(
            path.read_bytes(), persist.MAGIC, persist.VERSION, struct.Struct("<Q"), ContainerError,
            lambda header, body: (header, body),
        )
        meta = dict(json.loads(bytes(body[:meta_len])), input_dim=10**12)
        blob = json.dumps(meta).encode()
        write_framed(path, persist.MAGIC, persist.VERSION, struct.pack("<Q", len(blob)), blob, body[meta_len:])
        out = tmp_path / "anon"
        code = main([
            "anonymize", "--archive", str(workspace["data"]), "--models", str(models),
            "--table", str(workspace["table"]), "--mode", "det", "--seed", "3", "--out", str(out),
        ])
        assert code == 1
        assert re.match(
            rf"error: {re.escape(str(path))}: body has \d+ bytes, expected \d+ records of 8\n$",
            capsys.readouterr().err,
        )
        assert list(out.iterdir()) == []

    def test_model_file_with_a_short_body_is_named(self, workspace, tmp_path, capsys):
        # reframed with a valid CRC, so only the body's size check fails
        models = tmp_path / "models"
        shutil.copytree(workspace["models"], models)
        path = models / "vae_u0.lann"
        header, body = unframe(
            path.read_bytes(), persist.MAGIC, persist.VERSION, struct.Struct("<Q"), ContainerError,
            lambda header, body: (header, body),
        )
        write_framed(path, persist.MAGIC, persist.VERSION, struct.pack("<Q", *header), body[:-8])
        out = tmp_path / "anon"
        code = main([
            "anonymize", "--archive", str(workspace["data"]), "--models", str(models),
            "--table", str(workspace["table"]), "--mode", "det", "--seed", "3", "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: body has ") and "vae_u0.lann" in err
        assert list(out.iterdir()) == []

    def test_unreadable_archive(self, tmp_path, capsys):
        code = main([
            "train", "--archive", str(tmp_path / "nope"), "--out", str(tmp_path / "models"),
            "--epochs", "1",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_synth_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"n_subjectz": 3}))
        out = tmp_path / "out"
        code = main([
            "prepare", "--schema", "synth", "--synth-config", str(cfg), "--out", str(out),
            "--window", "8", "--stride", "4",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "n_subjectz" in err
        assert list(out.iterdir()) == []

    def test_removed_synth_config_key_is_named(self, tmp_path, capsys):
        # the amplitude base is the constant 1.0, no longer a setting
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"amp_base": 1.0}))
        out = tmp_path / "out"
        code = main([
            "prepare", "--schema", "synth", "--synth-config", str(cfg), "--out", str(out),
            "--window", "8", "--stride", "4",
        ])
        assert code == 1
        assert "['amp_base']" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "raw, message",
        [
            (5, "synth config {path} is not a JSON object"),
            (["seed"], "synth config {path} is not a JSON object"),
            ({"n_public": "x"}, "n_public must be an integer, got 'x'"),
        ],
        ids=["number", "list", "wrong-type"],
    )
    def test_malformed_synth_config_is_an_error(self, tmp_path, capsys, raw, message):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        code = main([
            "prepare", "--schema", "synth", "--synth-config", str(cfg), "--out", str(out),
            "--window", "8", "--stride", "4",
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message.format(path=cfg)}\n"
        assert list(out.iterdir()) == []

    def test_trial_split_with_an_empty_side_fails(self, tmp_path, capsys):
        # synthetic trials are numbered 0 and 1, so the default held-out
        # trials 11-16 leave the test side empty
        out = tmp_path / "out"
        code = main([
            "prepare", "--schema", "synth", "--split", "trial", "--out", str(out),
            "--window", "32", "--stride", "16",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: test trials [11, 12, 13, 14, 15, 16] leave the test side")
        assert "trials are [0, 1]" in err
        assert list(out.iterdir()) == []

    def test_unknown_schema_key(self, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({
            "channels": ["a"], "sampling_rate_hz": 10.0,
            "path_pattern": r"sub_(?P<subject>\d+)\.csv$", "channelz": ["b"],
        }))
        out = tmp_path / "out"
        code = main([
            "prepare", "--schema", str(schema), "--data", str(tmp_path), "--out", str(out),
            "--window", "2", "--stride", "1",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "channelz" in err
        assert list(out.iterdir()) == []

    def test_missing_schema_key(self, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"channels": ["a"], "sampling_rate_hz": 10.0}))
        out = tmp_path / "out"
        code = main([
            "prepare", "--schema", str(schema), "--data", str(tmp_path), "--out", str(out),
            "--window", "2", "--stride", "1",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "path_pattern" in err
        assert list(out.iterdir()) == []

    def test_train_rejects_negative_epochs(self, workspace, tmp_path, capsys):
        out = tmp_path / "models"
        argv = ["train", "--archive", str(workspace["data"]), "--out", str(out), "--epochs", "-1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: epochs must be >= 0")
        assert list(out.iterdir()) == []

    def test_train_rejects_negative_beta(self, workspace, tmp_path, capsys):
        out = tmp_path / "models"
        argv = ["train", "--archive", str(workspace["data"]), "--out", str(out), "--beta", "-1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: beta must be finite and >= 0")
        assert list(out.iterdir()) == []

    def test_gridsearch_smoke(self, workspace, tmp_path):
        out = tmp_path / "grid"
        assert main([
            "gridsearch", "--archive", str(workspace["data"]), "--out", str(out),
            "--alphas", "1", "--betas", "1,2", "--epochs", "3", "--seed", "2",
        ]) == 0
        with open(out / "grid.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        best = json.loads((out / "best.json").read_text())
        losses = {float(r["beta"]): float(r["avg_loss"]) for r in rows}
        assert losses[best["beta"]] == min(losses.values())
