"""End-to-end runs of the command-line front end (in process)."""

import csv

import numpy as np
import pytest

from jsalearn import jsa
from jsalearn.cli import main
from jsalearn.models import build_architecture

ARCH = "enc: 784-8s~B8; dec: B8-784s"


@pytest.fixture(autouse=True)
def no_ambient_data_root(monkeypatch):
    monkeypatch.delenv("JSA_DATA_ROOT", raising=False)


def train_args(out, **over):
    opts = {"task": "generative-bernoulli", "arch": ARCH, "algo": "jsa",
            "particles": 2, "batch": 20, "lr": 1e-3, "total-epochs": 3,
            "stage1-epochs": 2, "eval-every": 2, "seed": 0,
            "val-samples": 10, "test-samples": 20, "limit-train": 60,
            "limit-valid": 20, "limit-test": 10, "out": str(out)}
    opts.update(over)
    argv = ["train", "--surrogate"]
    for k, v in opts.items():
        argv.extend([f"--{k}", str(v)])
    return argv


def read_metrics(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


class TestTrainCommand:
    def test_full_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(train_args(out)) == 0
        for name in ("config.json", "metrics.csv", "best.ckpt", "last.ckpt"):
            assert (out / name).exists()
        rows = read_metrics(out / "metrics.csv")
        assert rows[0] == ["epoch", "split", "nll", "accept_rate", "seconds"]
        body = rows[1:]
        assert [r[1] for r in body].count("train") == 3
        assert [r[1] for r in body].count("valid") == 1  # epoch 2 only
        for r in body:
            float(r[2])
            assert r[4] == "0.000"   # no --timing: deterministic file
            if r[1] == "train":
                assert 0.0 <= float(r[3]) <= 1.0
            else:
                assert r[3] == ""
        msg = capsys.readouterr().out
        assert "test NLL (20 samples, best checkpoint):" in msg

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(train_args(a)) == 0
        assert main(train_args(b)) == 0
        assert (a / "metrics.csv").read_bytes() == \
            (b / "metrics.csv").read_bytes()
        lam_a = jsa.load_checkpoint(a / "best.ckpt")["lam"]
        lam_b = jsa.load_checkpoint(b / "best.ckpt")["lam"]
        assert np.array_equal(lam_a, lam_b)

    def test_zero_epochs_writes_initial_checkpoint(self, tmp_path):
        out = tmp_path / "init"
        assert main(train_args(out, **{"total-epochs": 0,
                                       "stage1-epochs": 0})) == 0
        assert read_metrics(out / "metrics.csv") == [
            ["epoch", "split", "nll", "accept_rate", "seconds"]]
        payload = jsa.load_checkpoint(out / "best.ckpt")
        assert payload["epoch"] == 0

    def test_task_architecture_mismatch(self, tmp_path, capsys):
        code = main(train_args(tmp_path / "x", task="structured"))
        assert code == 2
        assert "conditional" in capsys.readouterr().err

    def test_categorical_task_needs_categorical_layer(self, tmp_path, capsys):
        code = main(train_args(tmp_path / "x",
                               task="generative-categorical"))
        assert code == 2
        assert "categorical" in capsys.readouterr().err

    def test_no_data_source(self, tmp_path, capsys):
        argv = [a for a in train_args(tmp_path / "x") if a != "--surrogate"]
        assert main(argv) == 2
        assert "no data root" in capsys.readouterr().err

    def test_zero_test_samples_rejected_before_training(self, tmp_path,
                                                       capsys):
        out = tmp_path / "x"
        assert main(train_args(out, **{"test-samples": 0})) == 2
        assert "test_samples" in capsys.readouterr().err
        assert not out.exists()

    def test_numeric_abort_keeps_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "blowup"
        code = main(train_args(out, lr=1e6, **{"total-epochs": 5,
                                               "stage1-epochs": 5}))
        assert code == 3
        err = capsys.readouterr().err
        assert "aborted" in err and "last.ckpt" in err
        assert (out / "last.ckpt").exists()
        assert not (out / "best.ckpt").exists()
        payload = jsa.load_checkpoint(out / "last.ckpt")
        assert np.isfinite(payload["lam"]).all()


class TestEvalCommand:
    def test_eval_reports_nll(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(train_args(out)) == 0
        capsys.readouterr()
        code = main(["eval", "--ckpt", str(out / "best.ckpt"), "--surrogate",
                     "--split", "valid", "--limit", "10",
                     "--n-samples", "5"])
        assert code == 0
        msg = capsys.readouterr().out
        assert "valid NLL (10 points, 5 samples):" in msg
        nll = float(msg.strip().rsplit(" ", 1)[1])
        assert np.isfinite(nll)

    def test_conditional_run_evaluates_its_checkpoint(self, tmp_path,
                                                      capsys):
        out = tmp_path / "cond"
        arch = "ctx: 392-8t-4s~B4; enc: 392-8t-4s~B4; dec: B4-8t-392s"
        assert main(train_args(out, task="structured", arch=arch)) == 0
        capsys.readouterr()
        code = main(["eval", "--ckpt", str(out / "best.ckpt"), "--surrogate",
                     "--split", "valid", "--limit", "10",
                     "--n-samples", "5"])
        assert code == 0
        nll = float(capsys.readouterr().out.strip().rsplit(" ", 1)[1])
        assert np.isfinite(nll)

    @pytest.mark.parametrize("flag", ["--n-samples", "--limit"])
    def test_zero_count_rejected(self, tmp_path, capsys, flag):
        ckpt = tmp_path / "init.ckpt"
        jsa.save_checkpoint(ckpt, build_architecture(ARCH))
        code = main(["eval", "--ckpt", str(ckpt), "--surrogate",
                     "--limit", "5", "--n-samples", "5", flag, "0"])
        assert code == 2
        assert "at least 1" in capsys.readouterr().err

    def test_missing_checkpoint(self, tmp_path, capsys):
        code = main(["eval", "--ckpt", str(tmp_path / "nope.ckpt"),
                     "--surrogate"])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_corrupt_checkpoint(self, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint at all")
        code = main(["eval", "--ckpt", str(bad), "--surrogate"])
        assert code == 2
        assert "magic" in capsys.readouterr().err


class TestVarianceCommand:
    def test_report(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(train_args(out)) == 0
        capsys.readouterr()
        code = main(["variance", "--ckpt", str(out / "last.ckpt"),
                     "--surrogate", "--reps", "5", "--batch", "5",
                     "--particles", "2"])
        assert code == 0
        msg = capsys.readouterr().out
        assert msg.count("log-variance theta") == 2
        assert "lower phi-gradient variance:" in msg
        assert msg.strip().endswith(("jsa", "rws"))

    @pytest.fixture(scope="class")
    def ckpt(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("variance") / "run"
        assert main(train_args(out)) == 0
        return str(out / "last.ckpt")

    @pytest.mark.parametrize("reps", [0, 1])
    def test_too_few_reps_rejected(self, ckpt, capsys, reps):
        capsys.readouterr()
        code = main(["variance", "--ckpt", ckpt, "--surrogate",
                     "--reps", str(reps), "--batch", "5"])
        assert code == 2
        captured = capsys.readouterr()
        assert "reps must be at least 2" in captured.err
        assert "log-variance" not in captured.out

    def test_batch_larger_than_training_split_rejected(self, ckpt, capsys):
        capsys.readouterr()
        code = main(["variance", "--ckpt", ckpt, "--surrogate",
                     "--reps", "5", "--batch", "6000"])
        assert code == 2
        captured = capsys.readouterr()
        assert "--batch 6000 exceeds" in captured.err
        assert "log-variance" not in captured.out


class TestOracleSuiteCommand:
    def test_quick_battery_passes(self, capsys):
        assert main(["oracle-suite", "--quick"]) == 0
        msg = capsys.readouterr().out
        assert "FAIL" not in msg
        assert "checks passed" in msg
