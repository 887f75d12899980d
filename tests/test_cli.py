import csv
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lmbart import leaves
from lmbart.cli import main
from lmbart.data import REGRESSION, ScalingInfo, load_csv, standardize
from lmbart.sampler import (Hyperparams, predict, predict_stored, read_draws_jsonl,
                            run_regression)
from oracles import replay_every_tree


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def friedman_csv(tmp_path):
    path = tmp_path / "sim.csv"
    assert run_cli("simulate", "--n", 120, "--p", 5, "--seed", 4,
                   "--out", path) == 0
    return path


@pytest.fixture()
def nan_csv(tmp_path, friedman_csv):
    """`friedman_csv` with 'nan' in file row 4, column 'x2'."""
    lines = friedman_csv.read_text().splitlines()
    cells = lines[3].split(",")
    cells[1] = "nan"
    lines[3] = ",".join(cells)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines), encoding="utf-8")
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

    def test_vars_inter_slope_with_constant_leaves_is_an_error(
            self, friedman_csv, tmp_path, capsys):
        code = run_cli("train", "--data", friedman_csv, "--target", "y",
                       "--leaf", "constant", "--vars-inter-slope", "true",
                       "--out", tmp_path / "r")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "vars_inter_slope" in err

    def test_non_finite_cell_is_an_error(self, tmp_path, nan_csv, capsys):
        code = run_cli("train", "--data", nan_csv, "--target", "y",
                       "--out", tmp_path / "r")
        assert code == 1
        assert (f"error: {nan_csv}: row 4, column 'x2': non-finite value 'nan'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("leaf, patch, message", [
        ("linear", "cholesky", "posterior precision factorization failed at leaf"),
        ("constant", "bart_log_marginal", "move has a NaN log acceptance ratio"),
    ])
    def test_mid_chain_failure_writes_nothing(self, friedman_csv, tmp_path, capsys,
                                              monkeypatch, leaf, patch, message):
        def fail(*args, **kwargs):
            if patch == "cholesky":
                raise np.linalg.LinAlgError("not positive definite")
            return float("nan")

        monkeypatch.setattr(leaves, patch, fail)
        code = run_cli("train", "--data", friedman_csv, "--target", "y",
                       "--leaf", leaf, "--trees", 2, "--burnin", 5, "--iters", 5,
                       "--out", tmp_path / "r")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not list(tmp_path.glob("r.*"))

    def test_thinning_that_keeps_no_draw_is_an_error(self, friedman_csv, tmp_path, capsys):
        code = run_cli("train", "--data", friedman_csv, "--target", "y",
                       "--trees", 2, "--burnin", 5, "--iters", 5, "--thin", 10,
                       "--store-trees", "--out", tmp_path / "r")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "post_burn_in=5" in err and "thin=10" in err
        assert not list(tmp_path.glob("r.*"))

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

    def test_persisted_replay_matches_the_reference(self, tmp_path, friedman_csv,
                                                    trained_run):
        meta = json.loads((trained_run.parent / "run.meta.json").read_text())
        trees = [r["trees"] for r in read_draws_jsonl(trained_run.parent / "run.draws.jsonl")]
        scaling = ScalingInfo.from_dict(meta["scaling"])
        X = load_csv(friedman_csv, "y", REGRESSION).features
        draws, mean, lower, upper = replay_every_tree(trees, meta["task"], scaling, X)
        result = predict_stored(trees, meta["task"], scaling, X)
        for got, want in ((result.draws, draws), (result.mean, mean),
                          (result.lower, lower), (result.upper, upper)):
            assert np.array_equal(got, want)
        out = tmp_path / "preds.csv"
        assert run_cli("predict", "--run", trained_run, "--data", friedman_csv,
                       "--out", out) == 0
        got = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(got, np.column_stack([mean, lower, upper]))

    def test_non_finite_cell_is_an_error(self, tmp_path, nan_csv, trained_run, capsys):
        code = run_cli("predict", "--run", trained_run, "--data", nan_csv,
                       "--out", tmp_path / "p.csv")
        assert code == 1
        assert (f"error: {nan_csv}: row 4, column 'x2': non-finite value 'nan'"
                in capsys.readouterr().err)

    def test_truncated_draws_file_is_an_error(self, tmp_path, friedman_csv, trained_run,
                                              capsys):
        path = trained_run.parent / "run.draws.jsonl"
        text = path.read_text(encoding="utf-8")
        path.write_text(text[:-40], encoding="utf-8")
        code = run_cli("predict", "--run", trained_run, "--data", friedman_csv,
                       "--out", tmp_path / "p.csv")
        assert code == 1
        assert "run.draws.jsonl: line 25 is not valid JSON" in capsys.readouterr().err

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


def read_csv_with(command, path, run, tmp_path):
    """Exit code of `train` or `predict` (replaying `run`) on the CSV at `path`."""
    if command == "train":
        return run_cli("train", "--data", path, "--target", "y", "--trees", 2,
                       "--burnin", 5, "--iters", 5, "--out", tmp_path / "r")
    return run_cli("predict", "--run", run, "--data", path,
                   "--out", tmp_path / "p.csv")


def predictions(run, path, tmp_path):
    out = tmp_path / f"{path.stem}.pred.csv"
    assert run_cli("predict", "--run", run, "--data", path, "--out", out) == 0
    return out.read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["train", "predict"])
class TestCsvRules:
    """`train` and `predict` read a CSV file by the same rules."""

    def test_empty_file(self, command, tmp_path, trained_run, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        assert read_csv_with(command, path, trained_run, tmp_path) == 1
        assert capsys.readouterr().err == f"error: {path}: file is empty\n"

    @pytest.mark.parametrize("cells", [5, 7])
    def test_ragged_row(self, command, cells, tmp_path, friedman_csv, trained_run,
                        capsys):
        lines = friedman_csv.read_text().splitlines()
        row = lines[1].split(",")
        lines[1] = ",".join(row[:5] if cells == 5 else row + ["1.0"])
        path = tmp_path / "ragged.csv"
        path.write_text("\n".join(lines), encoding="utf-8")
        assert read_csv_with(command, path, trained_run, tmp_path) == 1
        assert (capsys.readouterr().err
                == f"error: {path}: row 2 has {cells} cells, expected 6\n")

    @pytest.mark.parametrize("blank", ["", " , , , , , "])
    def test_blank_header_row(self, command, blank, tmp_path, friedman_csv, trained_run,
                              capsys):
        lines = friedman_csv.read_text().splitlines()
        path = tmp_path / "no-header.csv"
        path.write_text("\n".join([blank] + lines), encoding="utf-8")
        assert read_csv_with(command, path, trained_run, tmp_path) == 1
        assert capsys.readouterr().err == f"error: {path}: row 1 (header) is blank\n"

    def test_header_only(self, command, tmp_path, friedman_csv, trained_run, capsys):
        path = tmp_path / "header.csv"
        path.write_text(friedman_csv.read_text().splitlines()[0] + "\n",
                        encoding="utf-8")
        assert read_csv_with(command, path, trained_run, tmp_path) == 1
        assert capsys.readouterr().err == f"error: {path}: no data rows\n"
        assert not (tmp_path / "p.csv").exists()

    def test_row_of_blank_cells_is_skipped(self, command, tmp_path, friedman_csv,
                                           trained_run):
        lines = friedman_csv.read_text().splitlines()
        path = tmp_path / "blank.csv"
        path.write_text("\n".join(lines[:3] + [" , , , , , "] + lines[3:]),
                        encoding="utf-8")
        if command == "predict":
            assert (predictions(trained_run, path, tmp_path)
                    == predictions(trained_run, friedman_csv, tmp_path))
            return
        for name, data in (("full", friedman_csv), ("blank", path)):
            assert run_cli("train", "--data", data, "--target", "y", "--trees", 2,
                           "--burnin", 5, "--iters", 5, "--out", tmp_path / name) == 0
        assert ((tmp_path / "full.draws.jsonl").read_bytes()
                == (tmp_path / "blank.draws.jsonl").read_bytes())


def test_bad_label_is_named_by_its_file_row(tmp_path, capsys):
    path = tmp_path / "cls.csv"
    path.write_text("a,y\n0.1,0\n0.2,1\n0.3,0\n\n\n0.4,2\n", encoding="utf-8")
    code = run_cli("train", "--data", path, "--target", "y", "--task",
                   "classification", "--out", tmp_path / "r")
    assert code == 1
    assert (capsys.readouterr().err
            == f"error: {path}: row 7, column 'y': response not in {{0,1}}: 2.0\n")


@pytest.mark.parametrize("target", ["empty", "missing"])
def test_predict_ignores_the_target_column(target, tmp_path, friedman_csv, trained_run):
    rows = [line.split(",") for line in friedman_csv.read_text().splitlines()]
    if target == "empty":
        rows = [rows[0]] + [row[:-1] + [""] for row in rows[1:]]
    else:
        rows = [row[:-1] for row in rows]
    path = tmp_path / f"{target}.csv"
    path.write_text("\n".join(",".join(row) for row in rows), encoding="utf-8")
    assert (predictions(trained_run, path, tmp_path)
            == predictions(trained_run, friedman_csv, tmp_path))


class TestBenchmarkCommand:
    def make_grid(self, tmp_path, **extra):
        grid = {
            "master_seed": 3,
            "replicates": 2,
            "test_fraction": 0.2,
            "scenarios": [{"n": 60, "p": 5}],
            "algorithms": [
                {"name": "c2", "leaf_model": "constant", "m": 2,
                 "burn_in": 5, "post_burn_in": 10},
                {"name": "l2", "leaf_model": "linear", "m": 2,
                 "burn_in": 5, "post_burn_in": 10, **extra},
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

    def test_unknown_algorithm_key_is_an_error(self, tmp_path, capsys):
        grid = self.make_grid(tmp_path, proposal_correction=True)
        code = run_cli("benchmark", "--grid", grid, "--out", tmp_path / "bench")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown hyperparameter(s): proposal_correction")

    @pytest.mark.parametrize("key", ["scenarios", "algorithms", "n", "name"])
    def test_missing_key_is_named(self, tmp_path, capsys, key):
        grid = self.make_grid(tmp_path)
        cfg = json.loads(grid.read_text())
        if key == "n":
            del cfg["scenarios"][0]["n"]
        elif key == "name":
            del cfg["algorithms"][1]["name"]
        else:
            del cfg[key]
        grid.write_text(json.dumps(cfg), encoding="utf-8")
        code = run_cli("benchmark", "--grid", grid, "--out", tmp_path / "bench")
        assert code == 1
        assert capsys.readouterr().err == f"error: {grid}: missing key {key!r}\n"

    def test_invalid_json_is_named(self, tmp_path, capsys):
        grid = self.make_grid(tmp_path)
        grid.write_text(grid.read_text()[:40], encoding="utf-8")
        code = run_cli("benchmark", "--grid", grid, "--out", tmp_path / "bench")
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {grid}: not valid JSON (")
        assert not (tmp_path / "bench").exists()

    def test_bundled_desk_grid_parses(self):
        from lmbart.benchmark import load_grid_config
        from pathlib import Path

        cfg = load_grid_config(Path(__file__).parent.parent
                               / "configs" / "desk_grid.json")
        assert cfg["replicates"] == 5
        assert [a.name for a in cfg["algorithms"]] == ["linear-10", "constant-10"]
        assert cfg["scenarios"][0].n == 500


@pytest.mark.parametrize("command", ["predict", "diagnostics"])
class TestRunMetadata:
    """A damaged or foreign `meta.json` fails with the file named."""

    def run_on(self, command, run, friedman_csv, tmp_path):
        if command == "predict":
            return run_cli("predict", "--run", run, "--data", friedman_csv,
                           "--out", tmp_path / "p.csv")
        return run_cli("diagnostics", "--run", run)

    def test_invalid_json(self, command, tmp_path, friedman_csv, trained_run, capsys):
        path = trained_run.parent / "run.meta.json"
        path.write_text(path.read_text()[:-10], encoding="utf-8")
        assert self.run_on(command, trained_run, friedman_csv, tmp_path) == 1
        assert f"error: {path}: not valid JSON" in capsys.readouterr().err

    def test_not_an_object(self, command, tmp_path, friedman_csv, trained_run, capsys):
        path = trained_run.parent / "run.meta.json"
        path.write_text("5", encoding="utf-8")
        assert self.run_on(command, trained_run, friedman_csv, tmp_path) == 1
        assert capsys.readouterr().err == f"error: {path}: not a JSON object\n"

    @pytest.mark.parametrize("key", ["version", "task", "feature_names", "scaling",
                                     "acceptance", "retained"])
    def test_missing_key(self, command, key, tmp_path, friedman_csv, trained_run,
                         capsys):
        path = trained_run.parent / "run.meta.json"
        meta = json.loads(path.read_text())
        del meta[key]
        path.write_text(json.dumps(meta), encoding="utf-8")
        assert self.run_on(command, trained_run, friedman_csv, tmp_path) == 1
        assert f"error: {path}: missing key(s) {key}\n" in capsys.readouterr().err

    def test_foreign_version(self, command, tmp_path, friedman_csv, trained_run,
                             capsys):
        path = trained_run.parent / "run.meta.json"
        meta = json.loads(path.read_text())
        meta["version"] = "lmbart 9.9"
        path.write_text(json.dumps(meta), encoding="utf-8")
        assert self.run_on(command, trained_run, friedman_csv, tmp_path) == 1
        assert (f"error: {path}: written by 'lmbart 9.9', expected 'lmbart 0.1.0'"
                in capsys.readouterr().err)

    def test_draws_cut_at_a_line_boundary(self, command, tmp_path, friedman_csv,
                                          trained_run, capsys):
        path = trained_run.parent / "run.draws.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) == 25
        path.write_text("".join(lines[:7]), encoding="utf-8")
        assert self.run_on(command, trained_run, friedman_csv, tmp_path) == 1
        assert not (tmp_path / "p.csv").exists()
        assert (f"error: {path}: 7 draws, but {trained_run.parent / 'run.meta.json'} "
                "records 25; the file may be truncated") in capsys.readouterr().err


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

    def test_one_draw_prints_no_sd(self, tmp_path, friedman_csv, capsys):
        prefix = tmp_path / "one"
        assert run_cli("train", "--data", friedman_csv, "--target", "y", "--trees", 2,
                       "--burnin", 5, "--iters", 1, "--out", prefix) == 0
        capsys.readouterr()
        assert run_cli("diagnostics", "--run", prefix) == 0
        out = capsys.readouterr().out
        assert "sigma2 post-burn-in mean" in out and "sd:" not in out

    def test_trace_copy(self, tmp_path, trained_run, capsys):
        dest = tmp_path / "trace_copy.csv"
        assert run_cli("diagnostics", "--run", trained_run, "--out", dest) == 0
        assert dest.read_bytes() == (trained_run.parent
                                     / "run.sigma2.csv").read_bytes()
