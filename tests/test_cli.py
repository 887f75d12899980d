import csv
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lmbart.cli import main
from lmbart.data import REGRESSION, load_csv, standardize
from lmbart.sampler import Hyperparams, predict, run_regression


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def friedman_csv(tmp_path):
    path = tmp_path / "sim.csv"
    assert run_cli("simulate", "--n", 120, "--p", 5, "--seed", 4,
                   "--out", path) == 0
    return path


@pytest.fixture()
def trained_run(tmp_path, friedman_csv):
    prefix = tmp_path / "run"
    code = run_cli("train", "--data", friedman_csv, "--target", "y",
                   "--leaf", "linear", "--trees", 4, "--burnin", 15,
                   "--iters", 25, "--seed", 7, "--store-trees",
                   "--out", prefix)
    assert code == 0
    return prefix


class TestSimulate:
    def test_writes_expected_shape(self, tmp_path):
        path = tmp_path / "f.csv"
        assert run_cli("simulate", "--n", 200, "--p", 5, "--seed", 1,
                       "--out", path) == 0
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 201
        assert lines[0] == "x1,x2,x3,x4,x5,y"
        assert all(len(line.split(",")) == 6 for line in lines[1:])

    def test_small_p_rejected(self, tmp_path, capsys):
        code = run_cli("simulate", "--n", 10, "--p", 4, "--out",
                       tmp_path / "f.csv")
        assert code == 1
        assert "p must be >= 5" in capsys.readouterr().err

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("simulate", "--n", 50, "--p", 6, "--seed", 9, "--out", a)
        run_cli("simulate", "--n", 50, "--p", 6, "--seed", 9, "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestTrain:
    def test_writes_three_outputs(self, trained_run):
        assert (trained_run.parent / "run.draws.jsonl").exists()
        assert (trained_run.parent / "run.meta.json").exists()
        assert (trained_run.parent / "run.sigma2.csv").exists()

    def test_metadata_config_round_trips(self, trained_run):
        meta = json.loads((trained_run.parent / "run.meta.json").read_text())
        hp = Hyperparams.from_dict(meta["config"])
        assert hp.to_dict() == meta["config"]
        assert meta["config"]["leaf_model"] == "linear"
        assert meta["version"].startswith("lmbart")

    def test_draws_lines_parse(self, trained_run):
        lines = (trained_run.parent / "run.draws.jsonl").read_text().splitlines()
        assert len(lines) == 25
        record = json.loads(lines[0])
        assert {"iteration", "sigma2", "terminal_counts", "param_counts",
                "tau_beta0", "tau_beta", "trees"} <= set(record)

    def test_classification_trace_is_constant_one(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "cls.csv"
        rows = ["a,b,y"]
        for _ in range(80):
            a, b = rng.normal(), rng.normal()
            rows.append(f"{a},{b},{int(a + rng.normal() > 0)}")
        path.write_text("\n".join(rows), encoding="utf-8")
        prefix = tmp_path / "cls_run"
        code = run_cli("train", "--data", path, "--target", "y",
                       "--task", "classification", "--leaf", "constant",
                       "--trees", 3, "--burnin", 10, "--iters", 15,
                       "--out", prefix)
        assert code == 0
        trace = (tmp_path / "cls_run.sigma2.csv").read_text().splitlines()
        assert trace[0] == "iteration,sigma2"
        assert all(line.split(",")[1] == "1.0" for line in trace[1:])

    def test_bad_data_path_exits_nonzero(self, tmp_path, capsys):
        code = run_cli("train", "--data", tmp_path / "nope.csv", "--target",
                       "y", "--out", tmp_path / "r")
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_is_an_error(self, friedman_csv, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("train", "--data", friedman_csv, "--target", "y",
                    "--out", tmp_path / "r", "--bogus-flag", 3)


class TestDeterminism:
    def test_identical_config_produces_byte_identical_draws(self, tmp_path,
                                                            friedman_csv):
        args = ("train", "--data", friedman_csv, "--target", "y", "--leaf",
                "linear", "--trees", 3, "--burnin", 10, "--iters", 20,
                "--seed", 11, "--store-trees")
        assert run_cli(*args, "--out", tmp_path / "one") == 0
        assert run_cli(*args, "--out", tmp_path / "two") == 0
        assert ((tmp_path / "one.draws.jsonl").read_bytes()
                == (tmp_path / "two.draws.jsonl").read_bytes())
        assert ((tmp_path / "one.sigma2.csv").read_bytes()
                == (tmp_path / "two.sigma2.csv").read_bytes())


class TestPredict:
    def test_replay_on_training_data(self, tmp_path, friedman_csv, trained_run):
        out = tmp_path / "preds.csv"
        assert run_cli("predict", "--run", trained_run, "--data", friedman_csv,
                       "--out", out) == 0
        meta = json.loads((trained_run.parent / "run.meta.json").read_text())
        recorded = np.asarray(meta["train_yhat_mean"])
        got = np.loadtxt(out, delimiter=",", skiprows=1)[:, 0]
        assert_allclose(got, recorded, atol=1e-8)

    def test_matches_in_memory_predict_exactly(self, tmp_path, friedman_csv,
                                               trained_run):
        # same fit in memory as the trained_run fixture; JSON and repr floats
        # round-trip exactly, so the persisted replay must agree to the bit
        data = load_csv(friedman_csv, "y", REGRESSION)
        scaled, scaling = standardize(data)
        hp = Hyperparams(m=4, burn_in=15, post_burn_in=25, leaf_model="linear",
                         seed=7, store_trees=True)
        expected = predict(run_regression(scaled, hp, scaling), data.features)
        out = tmp_path / "preds.csv"
        assert run_cli("predict", "--run", trained_run, "--data", friedman_csv,
                       "--out", out) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["mean", "q05", "q95"]
        got = np.array([[float(v) for v in row] for row in rows[1:]])
        assert got[:, 0].tolist() == expected.mean.tolist()
        assert got[:, 1].tolist() == expected.lower.tolist()
        assert got[:, 2].tolist() == expected.upper.tolist()

    def test_missing_trees_advises_store_trees(self, tmp_path, friedman_csv,
                                               capsys):
        prefix = tmp_path / "notrees"
        run_cli("train", "--data", friedman_csv, "--target", "y", "--trees", 3,
                "--burnin", 5, "--iters", 10, "--out", prefix)
        code = run_cli("predict", "--run", prefix, "--data", friedman_csv,
                       "--out", tmp_path / "p.csv")
        assert code == 1
        assert "--store-trees" in capsys.readouterr().err

    def test_reordered_column_named(self, tmp_path, friedman_csv, trained_run,
                                    capsys):
        lines = friedman_csv.read_text().splitlines()
        header = lines[0].split(",")
        header[0], header[1] = header[1], header[0]
        swapped = tmp_path / "swapped.csv"
        swapped.write_text("\n".join([",".join(header)] + lines[1:]),
                           encoding="utf-8")
        code = run_cli("predict", "--run", trained_run, "--data", swapped,
                       "--out", tmp_path / "p.csv")
        assert code == 1
        err = capsys.readouterr().err
        assert "x2" in err and "x1" in err


class TestBenchmarkCommand:
    def make_grid(self, tmp_path):
        grid = {
            "master_seed": 3,
            "replicates": 2,
            "test_fraction": 0.2,
            "scenarios": [{"n": 60, "p": 5}],
            "algorithms": [
                {"name": "c2", "leaf_model": "constant", "m": 2,
                 "burn_in": 5, "post_burn_in": 10},
                {"name": "l2", "leaf_model": "linear", "m": 2,
                 "burn_in": 5, "post_burn_in": 10},
            ],
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid), encoding="utf-8")
        return path

    def test_tables_one_row_per_cell(self, tmp_path, capsys):
        grid = self.make_grid(tmp_path)
        out = tmp_path / "bench"
        assert run_cli("benchmark", "--grid", grid, "--out", out) == 0
        rmse_rows = (out / "rmse_table.csv").read_text().strip().splitlines()
        param_rows = (out / "param_counts.csv").read_text().strip().splitlines()
        assert len(rmse_rows) == 3 and len(param_rows) == 3
        assert "rmse median" in capsys.readouterr().out

    def test_replicates_override_and_determinism(self, tmp_path):
        grid = self.make_grid(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("benchmark", "--grid", grid, "--out", a,
                       "--replicates", 1) == 0
        assert run_cli("benchmark", "--grid", grid, "--out", b,
                       "--replicates", 1) == 0
        assert ((a / "rmse_table.csv").read_bytes()
                == (b / "rmse_table.csv").read_bytes())
        import csv
        with open(a / "rmse_table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["replicates"] == "1" for row in rows)

    def test_bundled_desk_grid_parses(self):
        from lmbart.benchmark import load_grid_config
        from pathlib import Path

        cfg = load_grid_config(Path(__file__).parent.parent
                               / "configs" / "desk_grid.json")
        assert cfg["replicates"] == 5
        assert [a.name for a in cfg["algorithms"]] == ["linear-10", "constant-10"]
        assert cfg["scenarios"][0].n == 500


class TestDiagnostics:
    def test_regression_summary(self, trained_run, capsys):
        assert run_cli("diagnostics", "--run", trained_run) == 0
        out = capsys.readouterr().out
        assert "sigma2 post-burn-in mean" in out
        assert "acceptance rates per move kind" in out
        assert "mean terminal nodes per tree" in out
        assert "mean parameters per tree" in out

    def test_classification_reports_fixed_sigma(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        path = tmp_path / "cls.csv"
        rows = ["a,y"] + [f"{rng.normal()},{rng.integers(2)}" for _ in range(60)]
        path.write_text("\n".join(rows), encoding="utf-8")
        prefix = tmp_path / "cr"
        run_cli("train", "--data", path, "--target", "y", "--task",
                "classification", "--trees", 2, "--burnin", 5, "--iters", 10,
                "--out", prefix)
        capsys.readouterr()
        assert run_cli("diagnostics", "--run", prefix) == 0
        assert "sigma2: fixed at 1" in capsys.readouterr().out

    def test_trace_copy(self, tmp_path, trained_run, capsys):
        dest = tmp_path / "trace_copy.csv"
        assert run_cli("diagnostics", "--run", trained_run, "--out", dest) == 0
        assert dest.read_bytes() == (trained_run.parent
                                     / "run.sigma2.csv").read_bytes()
