import csv
import json
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lmbart import benchmark, leaves
from lmbart.benchmark import FriedmanSpec, friedman_generate
from lmbart.cli import build_parser, main
from lmbart.data import REGRESSION, ScalingInfo, load_csv, standardize, write_csv
from lmbart.sampler import Hyperparams, predict, predict_stored, read_run, run_regression
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


def read_header(prefix):
    """The header line of the run at `prefix`, parsed."""
    with open(f"{prefix}.draws.jsonl", encoding="utf-8") as fh:
        return json.loads(fh.readline())


def rewrite_header(prefix, edit):
    """Replace the header line of the run at `prefix` by `edit(line)`."""
    path = prefix.parent / f"{prefix.name}.draws.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0] = edit(lines[0])
    path.write_text("".join(lines), encoding="utf-8")
    return path


def trace_via_diagnostics(prefix, dest):
    """Bytes of the sigma2 trace CSV that `diagnostics --out` writes for `prefix`."""
    assert run_cli("diagnostics", "--run", prefix, "--out", dest) == 0
    return dest.read_bytes()


@pytest.fixture()
def trained_run(tmp_path, friedman_csv):
    prefix = tmp_path / "run"
    code = run_cli("train", "--data", friedman_csv, "--target", "y",
                   "--leaf", "linear", "--trees", 4, "--burnin", 15,
                   "--iters", 25, "--seed", 7, "--store-trees",
                   "--out", prefix)
    assert code == 0
    return prefix


@pytest.fixture(scope="module", params=["constant", "linear"])
def stored_run(request, tmp_path_factory):
    """(leaf model, training CSV, text of the draws file) of a small run with
    stored trees, one per leaf model."""
    base = tmp_path_factory.mktemp(f"stored-{request.param}")
    data = base / "sim.csv"
    assert run_cli("simulate", "--n", 120, "--p", 5, "--seed", 4, "--out", data) == 0
    assert run_cli("train", "--data", data, "--target", "y", "--leaf", request.param,
                   "--trees", 4, "--burnin", 15, "--iters", 25, "--seed", 7,
                   "--store-trees", "--out", base / "run") == 0
    return request.param, data, (base / "run.draws.jsonl").read_text(encoding="utf-8")


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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise_sd_is_named(self, tmp_path, capsys, value):
        path = tmp_path / "f.csv"
        code = run_cli("simulate", "--n", 10, "--noise-sd", value, "--out", path)
        assert code == 1
        assert (capsys.readouterr().err
                == f"error: noise_sd must be a finite real, got {value}\n")
        assert not path.exists()

    def test_a_negative_seed_is_named(self, tmp_path, capsys):
        path = tmp_path / "f.csv"
        assert run_cli("simulate", "--n", 10, "--seed", -1, "--out", path) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not path.exists()

    def test_reads_back_as_the_generated_data_bit_for_bit(self, tmp_path):
        path = tmp_path / "f.csv"
        assert run_cli("simulate", "--n", 200, "--p", 6, "--seed", 3, "--noise-sd", 0.5,
                       "--out", path) == 0
        expected = friedman_generate(FriedmanSpec(n=200, p=6, noise_sd=0.5, seed=3))
        data = load_csv(path, "y", REGRESSION)
        assert data.feature_names == expected.feature_names
        assert data.features.tobytes() == expected.features.tobytes()
        assert data.response.tobytes() == expected.response.tobytes()

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("simulate", "--n", 50, "--p", 6, "--seed", 9, "--out", a)
        run_cli("simulate", "--n", 50, "--p", 6, "--seed", 9, "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestTrain:
    def test_writes_exactly_one_file(self, trained_run, friedman_csv):
        assert sorted(p.name for p in trained_run.parent.iterdir()) == sorted(
            ["run.draws.jsonl", friedman_csv.name])

    def test_metadata_config_round_trips(self, trained_run):
        header = read_header(trained_run)
        hp = Hyperparams.from_dict(header["config"])
        assert hp.to_dict() == header["config"]
        assert header["config"]["leaf_model"] == "linear"
        assert header["version"].startswith("lmbart")

    def test_draws_lines_parse(self, trained_run):
        lines = (trained_run.parent / "run.draws.jsonl").read_text().splitlines()
        assert len(lines) == 26
        header = json.loads(lines[0])
        assert {"version", "task", "target_column", "feature_names", "config",
                "resolved_lambda", "scaling", "acceptance", "retained",
                "train_yhat_mean", "sigma2_chain", "inputs"} == set(header)
        assert header["retained"] == 25 and len(header["sigma2_chain"]) == 40
        for line in lines[1:]:
            record = json.loads(line)
            assert {"iteration", "sigma2", "terminal_counts", "param_counts",
                    "tau_beta0", "tau_beta", "trees"} == set(record)

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
        trace = trace_via_diagnostics(prefix, tmp_path / "trace.csv").decode().splitlines()
        assert trace[0] == "iteration,sigma2"
        assert len(trace) == 26
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

    @pytest.mark.parametrize("flag, value, name", [
        ("--nu", "nan", "nu"), ("--nu", "inf", "nu"), ("--lambda", "nan", "lam"),
        ("--beta-depth", "nan", "beta_depth"), ("--seed", "-1", "seed"),
    ])
    def test_bad_value_is_named_and_writes_nothing(self, friedman_csv, tmp_path, capsys,
                                                   flag, value, name):
        code = run_cli("train", "--data", friedman_csv, "--target", "y",
                       flag, value, "--out", tmp_path / "r")
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {name} must be ")
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
        assert (trace_via_diagnostics(tmp_path / "one", tmp_path / "one.csv")
                == trace_via_diagnostics(tmp_path / "two", tmp_path / "two.csv"))


class TestPredict:
    def test_replay_on_training_data(self, tmp_path, friedman_csv, trained_run):
        out = tmp_path / "preds.csv"
        assert run_cli("predict", "--run", trained_run, "--data", friedman_csv,
                       "--out", out) == 0
        recorded = np.asarray(read_header(trained_run)["train_yhat_mean"])
        got = np.loadtxt(out, delimiter=",", skiprows=1)[:, 0]
        assert_allclose(got, recorded, atol=1e-8)

    def test_the_header_scaling_is_built_once(self, tmp_path, friedman_csv, trained_run,
                                              monkeypatch):
        # read_run builds and checks the scaling; the replay takes that object
        built, from_dict = [], ScalingInfo.from_dict.__func__

        def counting(cls, d):
            built.append(d)
            return from_dict(cls, d)

        monkeypatch.setattr(ScalingInfo, "from_dict", classmethod(counting))
        assert run_cli("predict", "--run", trained_run, "--data", friedman_csv,
                       "--out", tmp_path / "preds.csv") == 0
        assert len(built) == 1

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
        header, records = read_run(trained_run.parent / "run.draws.jsonl")
        trees = [r["trees"] for r in records]
        scaling = header["scaling"]          # built and checked by read_run
        X = load_csv(friedman_csv, "y", REGRESSION).features
        draws, mean, lower, upper = replay_every_tree(trees, header["task"], scaling, X)
        result = predict_stored(trees, header["task"], scaling, X)
        for got, want in ((result.draws, draws), (result.mean, mean),
                          (result.lower, lower), (result.upper, upper)):
            assert np.array_equal(got, want)
        out = tmp_path / "preds.csv"
        assert run_cli("predict", "--run", trained_run, "--data", friedman_csv,
                       "--out", out) == 0
        got = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(got, np.column_stack([mean, lower, upper]))

    @pytest.mark.parametrize("field, index", [("feature_centers", 2), ("feature_scales", 1),
                                              ("response_center", None),
                                              ("response_scale", None)])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_a_non_finite_scaling_in_the_header_is_an_error(self, field, index, value,
                                                            tmp_path, friedman_csv,
                                                            trained_run, capsys):
        # json writes and reads NaN and Infinity, so only the check stops them
        def edit(line):
            header = json.loads(line)
            if index is None:
                header["scaling"][field] = value
            else:
                header["scaling"][field][index] = value
            return json.dumps(header) + "\n"

        path = rewrite_header(trained_run, edit)
        out = tmp_path / "p.csv"
        assert run_cli("predict", "--run", trained_run, "--data", friedman_csv,
                       "--out", out) == 1
        assert not out.exists()
        # read_run builds the scaling, so the file is named
        assert capsys.readouterr().err.startswith(f"error: {path}: {field} must be finite")

    def test_non_finite_cell_is_an_error(self, tmp_path, nan_csv, trained_run, capsys):
        code = run_cli("predict", "--run", trained_run, "--data", nan_csv,
                       "--out", tmp_path / "p.csv")
        assert code == 1
        assert (f"error: {nan_csv}: row 4, column 'x2': non-finite value 'nan'"
                in capsys.readouterr().err)

    def test_malformed_stored_tree_is_a_one_line_error(self, tmp_path, friedman_csv,
                                                       trained_run, capsys):
        path = trained_run.parent / "run.draws.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(lines[3])          # line 1 is the header: draw 2
        record["trees"][1] = {"kind": "internal", "feature": 9, "threshold": 0.0,
                              "left": {"kind": "leaf", "mu": 0.0},
                              "right": {"kind": "leaf", "mu": 0.0}}
        lines[3] = json.dumps(record) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        code = run_cli("predict", "--run", trained_run, "--data", friedman_csv,
                       "--out", tmp_path / "p.csv")
        assert code == 1
        assert capsys.readouterr().err == (f"error: {path}: draw 2, tree 1: split feature 9 "
                                           "is not a feature index in [0, 5)\n")
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("value", [True, "0.5", float("nan"), float("inf")],
                             ids=["bool", "string", "nan", "inf"])
    @pytest.mark.parametrize("where", ["first-tree", "carried-splits"])
    def test_non_numeric_leaf_value_is_named(self, tmp_path, stored_run, capsys, value,
                                             where):
        leaf_model, data, text = stored_run
        lines = text.splitlines(keepends=True)
        records = [json.loads(line) for line in lines[1:]]
        if where == "first-tree":
            k, t = 0, 0
        else:
            # a "same" record of a split tree, whose splits equal the previous
            # draw's, so the in-memory replay would reuse its routing
            k, t = next((k, t) for k in range(1, len(records))
                        for t, d in enumerate(records[k]["trees"])
                        if d["kind"] == "same" and len(d["leaves"]) > 1)
        node = records[k]["trees"][t]
        while node["kind"] == "internal":
            node = node["left"]
        if node["kind"] == "same":
            node = node["leaves"][0]          # the leftmost leaf's payload
        if leaf_model == "constant":
            node["mu"], problem = value, f"leaf mean {value!r}"
        else:
            node["beta"][-1], problem = value, f"leaf coefficient {value!r}"
        lines[k + 1] = json.dumps(records[k]) + "\n"
        path = tmp_path / "run.draws.jsonl"
        path.write_text("".join(lines), encoding="utf-8")
        code = run_cli("predict", "--run", tmp_path / "run", "--data", data,
                       "--out", tmp_path / "p.csv")
        assert code == 1
        assert capsys.readouterr().err == (f"error: {path}: draw {k}, tree {t}: "
                                           f"{problem} is not a finite number\n")
        assert not (tmp_path / "p.csv").exists()

    def test_truncated_draws_file_is_an_error(self, tmp_path, friedman_csv, trained_run,
                                              capsys):
        path = trained_run.parent / "run.draws.jsonl"
        text = path.read_text(encoding="utf-8")
        path.write_text(text[:-40], encoding="utf-8")
        code = run_cli("predict", "--run", trained_run, "--data", friedman_csv,
                       "--out", tmp_path / "p.csv")
        assert code == 1
        # line 1 is the header, so the 25th draw is on line 26
        assert "run.draws.jsonl: line 26 is not valid JSON" in capsys.readouterr().err

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

    def test_a_column_named_twice(self, command, tmp_path, friedman_csv, trained_run,
                                  capsys):
        # x1,x1,x3,...: the second x1 would read the first one's values
        lines = friedman_csv.read_text().splitlines()
        assert lines[0] == "x1,x2,x3,x4,x5,y"
        path = tmp_path / "twice.csv"
        path.write_text("\n".join(["x1,x1,x3,x4,x5,y"] + lines[1:]), encoding="utf-8")
        assert read_csv_with(command, path, trained_run, tmp_path) == 1
        assert (capsys.readouterr().err
                == f"error: {path}: row 1 (header) names column 'x1' twice\n")
        assert not (tmp_path / "p.csv").exists() and not list(tmp_path.glob("r.*"))

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
        # the draw lines are byte-identical; the header differs in the data path only
        full, blank = ((tmp_path / f"{name}.draws.jsonl").read_text(encoding="utf-8")
                       .split("\n", 1) for name in ("full", "blank"))
        assert full[1] == blank[1]
        full_header, blank_header = json.loads(full[0]), json.loads(blank[0])
        assert blank_header.pop("inputs")["data"] == str(path)
        assert full_header.pop("inputs")["data"] == str(friedman_csv)
        assert full_header == blank_header


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

    def test_wrongly_typed_algorithm_value_is_an_error(self, tmp_path, capsys):
        grid = self.make_grid(tmp_path, vars_inter_slope="false")
        code = run_cli("benchmark", "--grid", grid, "--out", tmp_path / "bench")
        assert code == 1
        assert (capsys.readouterr().err == f"error: {grid}: algorithm 'l2': "
                                           "vars_inter_slope must be a bool, got 'false'\n")

    def test_a_huge_int_real_is_an_error(self, tmp_path, capsys):
        # a 400-digit int overflows math.isfinite, so it is refused as NaN is
        grid = self.make_grid(tmp_path, nu=10**400)
        code = run_cli("benchmark", "--grid", grid, "--out", tmp_path / "bench")
        assert code == 1
        assert (capsys.readouterr().err
                == f"error: {grid}: algorithm 'l2': nu must be a finite real, got {10**400!r}\n")
        assert not (tmp_path / "bench").exists()

    def test_unknown_algorithm_key_is_an_error(self, tmp_path, capsys):
        grid = self.make_grid(tmp_path, proposal_correction=True)
        code = run_cli("benchmark", "--grid", grid, "--out", tmp_path / "bench")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {grid}: algorithm 'l2': unknown hyperparameter(s): "
                              "proposal_correction")

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

    @pytest.mark.parametrize("where, key, value, expected", [
        ("scenario", "n", "sixty", "an integer"),
        ("scenario", "n", 60.9, "an integer"),
        ("scenario", "p", True, "an integer"),
        ("scenario", "noise_sd", float("nan"), "a finite real"),
        ("scenario", "noise_sd", float("inf"), "a finite real"),
        pytest.param("scenario", "noise_sd", 10**400, "a finite real",
                     id="scenario-noise_sd-huge-int"),
        ("grid", "replicates", 1.7, "an integer"),
        ("grid", "master_seed", "3", "an integer"),
        ("grid", "test_fraction", float("nan"), "a finite real"),
        ("algorithm", "nu", -1, "> 0"),
    ])
    def test_wrongly_typed_grid_value_is_named(self, tmp_path, capsys, where, key, value,
                                               expected):
        grid = self.make_grid(tmp_path)
        cfg = json.loads(grid.read_text())
        {"scenario": cfg["scenarios"][0], "algorithm": cfg["algorithms"][1]}.get(
            where, cfg)[key] = value
        grid.write_text(json.dumps(cfg), encoding="utf-8")   # nan and inf as NaN, Infinity
        code = run_cli("benchmark", "--grid", grid, "--out", tmp_path / "bench")
        assert code == 1
        # a value is refused by FriedmanSpec, Hyperparams or run_benchmark, in their
        # words, after the scenario's index or the algorithm's name
        named = {"scenario": f"scenario 0: {key}", "algorithm": f"algorithm 'l2': {key}"}.get(
            where, key)
        assert (capsys.readouterr().err
                == f"error: {grid}: {named} must be {expected}, got {value!r}\n")
        assert not (tmp_path / "bench").exists()

    @pytest.mark.parametrize("flag, value", [("--replicates", 0), ("--replicates", -2),
                                             ("--jobs", 0)])
    def test_count_flag_below_one_exits_1_and_writes_nothing(self, tmp_path, capsys,
                                                              flag, value):
        grid = self.make_grid(tmp_path)
        out = tmp_path / "bench"
        assert run_cli("benchmark", "--grid", grid, "--out", out, flag, value) == 1
        assert (capsys.readouterr().err
                == f"error: {flag[2:]} must be >= 1, got {value}\n")
        assert not out.exists()

    @pytest.mark.parametrize("where, key, value, problem", [
        ("scenario", "p", 3,
         "scenario 0: p must be >= 5 (first five covariates drive the signal), got 3"),
        ("scenario", "seed", -1, "scenario 0: seed must be >= 0, got -1"),
        ("grid", "master_seed", -1, "master_seed must be >= 0, got -1"),
        ("grid", "test_fraction", 1.5, "test_fraction must be in (0, 1), got 1.5"),
    ])
    def test_a_grid_value_out_of_range_is_named_before_any_fit(self, monkeypatch, tmp_path,
                                                               capsys, where, key, value,
                                                               problem):
        fits = []
        monkeypatch.setattr(benchmark, "_run_cell", lambda *args: fits.append(args))
        grid = self.make_grid(tmp_path)
        cfg = json.loads(grid.read_text())
        (cfg["scenarios"][0] if where == "scenario" else cfg)[key] = value
        grid.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "bench"
        assert run_cli("benchmark", "--grid", grid, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {grid}: {problem}\n"
        assert not out.exists() and fits == []

    def test_a_negative_seed_flag_is_named_before_any_fit(self, monkeypatch, tmp_path,
                                                          capsys):
        fits = []
        monkeypatch.setattr(benchmark, "_run_cell", lambda *args: fits.append(args))
        out = tmp_path / "bench"
        assert run_cli("benchmark", "--grid", self.make_grid(tmp_path), "--out", out,
                       "--seed", -1) == 1
        assert capsys.readouterr().err == "error: master_seed must be >= 0, got -1\n"
        assert not out.exists() and fits == []

    def test_grid_replicates_below_one_is_named(self, tmp_path, capsys):
        grid = self.make_grid(tmp_path)
        cfg = json.loads(grid.read_text())
        cfg["replicates"] = 0
        grid.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "bench"
        assert run_cli("benchmark", "--grid", grid, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {grid}: replicates must be >= 1, got 0\n"
        assert not out.exists()

    def test_a_scenario_too_small_to_split_is_named_before_any_fit(self, monkeypatch, tmp_path,
                                                                   capsys):
        fits = []
        monkeypatch.setattr(benchmark, "_run_cell", lambda *args: fits.append(args))
        grid = self.make_grid(tmp_path)
        cfg = json.loads(grid.read_text())
        cfg["scenarios"].append({"n": 3, "p": 5})
        grid.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "bench"
        assert run_cli("benchmark", "--grid", grid, "--out", out) == 1
        assert capsys.readouterr().err == (
            "error: scenario 'n=3,p=5': test_fraction 0.2 splits its 3 rows into 2 train and "
            "1 test rows; each part needs at least 2\n")
        assert not out.exists() and fits == []

    def test_failed_cells_exit_1_after_writing_both_tables(self, monkeypatch, tmp_path, capsys):
        grid = self.make_grid(tmp_path)
        cfg = json.loads(grid.read_text())
        cfg["scenarios"].append({"n": 30, "p": 5})
        grid.write_text(json.dumps(cfg), encoding="utf-8")
        run_cell = benchmark._run_cell

        def failing(spec, *rest):      # every fit of the second scenario fails
            if spec.n == 30:
                raise RuntimeError("injected")
            return run_cell(spec, *rest)

        monkeypatch.setattr(benchmark, "_run_cell", failing)
        out = tmp_path / "bench"
        assert run_cli("benchmark", "--grid", grid, "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.err == "4 grid cell(s) failed; see tables for coverage\n"
        assert "wrote" in captured.out
        import csv
        with open(out / "rmse_table.csv", newline="") as fh:
            rows = {(r["scenario"], r["algorithm"]): r for r in csv.DictReader(fh)}
        assert len(rows) == 4
        for algorithm in ("c2", "l2"):
            assert rows[("n=30,p=5", algorithm)]["failures"] == "2"
            assert rows[("n=30,p=5", algorithm)]["median_rmse"] == ""
            assert rows[("n=60,p=5", algorithm)]["failures"] == "0"
        assert len((out / "param_counts.csv").read_text().strip().splitlines()) == 5

    @pytest.mark.parametrize("edit, problem", [
        pytest.param(lambda g: 5, "the grid must be an object, got 5", id="grid-not-object"),
        pytest.param(lambda g: {**g, "replicate": 5}, "unknown key(s) replicate",
                     id="unknown-grid-key"),
        pytest.param(lambda g: {**g, "scenarios": {"n": 100}},
                     "'scenarios' must be a non-empty list, got {'n': 100}", id="scenarios-object"),
        pytest.param(lambda g: {**g, "scenarios": []},
                     "'scenarios' must be a non-empty list, got []", id="no-scenarios"),
        pytest.param(lambda g: {**g, "scenarios": [5]}, "scenario 0 must be an object, got 5",
                     id="scenario-not-object"),
        pytest.param(lambda g: {**g, "scenarios": [{"n": 60, "noise-sd": 5.0}]},
                     "scenario 0: unknown key(s) noise-sd", id="unknown-scenario-key"),
        pytest.param(lambda g: {**g, "algorithms": []},
                     "'algorithms' must be a non-empty list, got []", id="no-algorithms"),
        pytest.param(lambda g: {**g, "algorithms": g["algorithms"] + ["c3"]},
                     "algorithm 2 must be an object, got 'c3'", id="algorithm-not-object"),
        pytest.param(lambda g: {**g, "algorithms": [g["algorithms"][0], {"name": 7}]},
                     "algorithm 1: 'name' must be a non-empty string, got 7", id="name-int"),
        pytest.param(lambda g: {**g, "algorithms": [{"name": "", "m": 2}]},
                     "algorithm 0: 'name' must be a non-empty string, got ''", id="name-empty"),
    ])
    def test_a_malformed_grid_is_named_before_any_fit(self, tmp_path, capsys, edit, problem):
        grid = self.make_grid(tmp_path)
        grid.write_text(json.dumps(edit(json.loads(grid.read_text()))), encoding="utf-8")
        out = tmp_path / "bench"
        assert run_cli("benchmark", "--grid", grid, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {grid}: {problem}\n"
        assert not out.exists()

    @pytest.mark.parametrize("edit, problem", [
        pytest.param(lambda g: g["scenarios"].append({"n": 60, "noise_sd": 5.0}),
                     "two scenarios share the label 'n=60,p=5'", id="scenario-label"),
        pytest.param(lambda g: g["algorithms"][1].update(name="c2"),
                     "two algorithms share the name 'c2'", id="algorithm-name"),
    ])
    def test_cells_that_would_pool_are_refused_before_any_fit(self, tmp_path, capsys, edit,
                                                              problem):
        grid = self.make_grid(tmp_path)
        cfg = json.loads(grid.read_text())
        edit(cfg)
        grid.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "bench"
        assert run_cli("benchmark", "--grid", grid, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {problem}\n"
        assert not out.exists()

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
    """A damaged, foreign or missing run header fails with the draws file named."""

    def run_on(self, command, run, friedman_csv, tmp_path):
        if command == "predict":
            return run_cli("predict", "--run", run, "--data", friedman_csv,
                           "--out", tmp_path / "p.csv")
        return run_cli("diagnostics", "--run", run)

    def test_invalid_json(self, command, tmp_path, friedman_csv, trained_run, capsys):
        path = rewrite_header(trained_run, lambda line: line[:-10] + "\n")
        assert self.run_on(command, trained_run, friedman_csv, tmp_path) == 1
        assert f"error: {path}: line 1 is not valid JSON" in capsys.readouterr().err

    def test_not_an_object(self, command, tmp_path, friedman_csv, trained_run, capsys):
        path = rewrite_header(trained_run, lambda line: "5\n")
        assert self.run_on(command, trained_run, friedman_csv, tmp_path) == 1
        assert (capsys.readouterr().err
                == f"error: {path}: the header line is not a JSON object\n")

    @pytest.mark.parametrize("key", ["version", "task", "feature_names", "scaling",
                                     "acceptance", "retained", "sigma2_chain"])
    def test_missing_key(self, command, key, tmp_path, friedman_csv, trained_run,
                         capsys):
        def drop(line):
            header = json.loads(line)
            del header[key]
            return json.dumps(header) + "\n"

        path = rewrite_header(trained_run, drop)
        assert self.run_on(command, trained_run, friedman_csv, tmp_path) == 1
        assert f"error: {path}: header missing key(s) {key}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("scaling, problem", [
        pytest.param({}, "scaling missing key(s) feature_centers, feature_scales, "
                     "response_center, response_scale, response_scaled", id="empty"),
        pytest.param([0.0, 1.0], "scaling [0.0, 1.0] is not an object", id="list"),
        pytest.param("short", "scaling holds 3 feature centers and 3 scales, but the "
                     "header names 5 features", id="short"),
        pytest.param("nan", "feature_scales must be finite, got ", id="nan-scale"),
    ])
    def test_a_malformed_scaling(self, command, scaling, problem, tmp_path, friedman_csv,
                                 trained_run, capsys):
        def edit(line):
            header = json.loads(line)
            if scaling == "short":
                for key in ("feature_centers", "feature_scales"):
                    del header["scaling"][key][3:]
            elif scaling == "nan":
                header["scaling"]["feature_scales"] = [1.0, float("nan"), 1.0, 1.0, 1.0]
            else:
                header["scaling"] = scaling
            return json.dumps(header) + "\n"

        path = rewrite_header(trained_run, edit)
        assert self.run_on(command, trained_run, friedman_csv, tmp_path) == 1
        assert not (tmp_path / "p.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {problem}") and err.count("\n") == 1

    @pytest.mark.parametrize("key, value", [
        pytest.param("response_scaled", "false", id="scaled-string"),
        pytest.param("response_center", "14.3", id="center-string"),
        pytest.param("response_scale", True, id="scale-bool"),
        pytest.param("feature_centers", ["1", "2", "3", "4", "5"], id="centers-strings"),
    ])
    def test_a_scaling_value_is_checked_not_converted(self, command, key, value, tmp_path,
                                                      friedman_csv, trained_run, capsys):
        # float() and bool() would read these: "false" as True, "14.3" as 14.3
        def edit(line):
            header = json.loads(line)
            header["scaling"][key] = value
            return json.dumps(header) + "\n"

        path = rewrite_header(trained_run, edit)
        assert self.run_on(command, trained_run, friedman_csv, tmp_path) == 1
        assert not (tmp_path / "p.csv").exists()
        expected = "a bool" if key == "response_scaled" else "finite"
        assert (capsys.readouterr().err
                == f"error: {path}: {key} must be {expected}, got {value!r}\n")

    @pytest.mark.parametrize("key, value, problem", [
        pytest.param("task", "clustering",
                     "task 'clustering' is not 'regression' or 'classification'",
                     id="task-unknown"),
        pytest.param("task", None, "task None is not 'regression' or 'classification'",
                     id="task-null"),
        pytest.param("feature_names", 5, "feature_names 5 is not a list of distinct strings",
                     id="feature-names-int"),
        pytest.param("feature_names", ["x1", "x1", "x3", "x4", "x5"],
                     "feature_names ['x1', 'x1', 'x3', 'x4', 'x5'] is not a list of "
                     "distinct strings", id="feature-names-repeated"),
        pytest.param("feature_names", ["x1", 2, "x3", "x4", "x5"],
                     "feature_names ['x1', 2, 'x3', 'x4', 'x5'] is not a list of "
                     "distinct strings", id="feature-names-not-strings"),
        pytest.param("retained", "25", "retained '25' is not an int", id="retained-string"),
        pytest.param("retained", 25.0, "retained 25.0 is not an int", id="retained-float"),
        pytest.param("acceptance", [], "acceptance [] does not map each move kind to int "
                     "accepted, rejected, invalid counts", id="acceptance-list"),
        pytest.param("acceptance", {"grow": {"accepted": 1}},
                     "acceptance {'grow': {'accepted': 1}} does not map each move kind to "
                     "int accepted, rejected, invalid counts", id="acceptance-one-count"),
        pytest.param("acceptance", lambda acc: {**acc, "grow": {**acc["grow"], "invalid": 2.0}},
                     "does not map each move kind to int accepted, rejected, invalid counts",
                     id="acceptance-float-count"),
        pytest.param("sigma2_chain", None, "sigma2_chain is not a list of finite numbers",
                     id="sigma2-chain-null"),
        pytest.param("sigma2_chain", lambda chain: chain[:3] + [float("nan")] + chain[4:],
                     "sigma2_chain is not a list of finite numbers", id="sigma2-chain-nan"),
    ])
    def test_a_value_of_the_wrong_type(self, command, key, value, problem, tmp_path,
                                       friedman_csv, trained_run, capsys):
        def edit(line):
            header = json.loads(line)
            header[key] = value(header[key]) if callable(value) else value
            return json.dumps(header) + "\n"

        path = rewrite_header(trained_run, edit)
        assert self.run_on(command, trained_run, friedman_csv, tmp_path) == 1
        assert not (tmp_path / "p.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.endswith(f"{problem}\n")
        assert err.count("\n") == 1

    def test_foreign_version(self, command, tmp_path, friedman_csv, trained_run,
                             capsys):
        path = rewrite_header(trained_run, lambda line: json.dumps(
            {**json.loads(line), "version": "lmbart 9.9"}) + "\n")
        assert self.run_on(command, trained_run, friedman_csv, tmp_path) == 1
        assert (f"error: {path}: written by 'lmbart 9.9', expected 'lmbart 0.2.0'"
                in capsys.readouterr().err)

    def test_draws_cut_at_a_line_boundary(self, command, tmp_path, friedman_csv,
                                          trained_run, capsys):
        path = trained_run.parent / "run.draws.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) == 26
        path.write_text("".join(lines[:8]), encoding="utf-8")
        assert self.run_on(command, trained_run, friedman_csv, tmp_path) == 1
        assert not (tmp_path / "p.csv").exists()
        assert (f"error: {path}: 7 draws, but the header records 25; "
                "the file may be truncated") in capsys.readouterr().err

    def test_empty_file(self, command, tmp_path, friedman_csv, trained_run, capsys):
        path = trained_run.parent / "run.draws.jsonl"
        path.write_text("", encoding="utf-8")
        assert self.run_on(command, trained_run, friedman_csv, tmp_path) == 1
        assert capsys.readouterr().err == f"error: {path}: empty file, no run header\n"

    def test_run_written_before_the_header(self, command, tmp_path, friedman_csv,
                                           trained_run, capsys):
        # the earlier layout: draw records only, with the metadata in run.meta.json
        path = trained_run.parent / "run.draws.jsonl"
        header, *records = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(records), encoding="utf-8")
        (trained_run.parent / "run.meta.json").write_text(
            json.dumps(json.loads(header), indent=2), encoding="utf-8")
        assert self.run_on(command, trained_run, friedman_csv, tmp_path) == 1
        assert not (tmp_path / "p.csv").exists()
        assert (capsys.readouterr().err
                == f"error: {path}: no run header (the first line is a draw); runs "
                   "written with a separate metadata file must be trained again\n")


@pytest.mark.parametrize("command", ["predict", "diagnostics"])
class TestDrawRecords:
    """A draw record that a command would crash on or misread fails with the
    draws file and the draw named, and no predictions are written."""

    def edit_draw(self, prefix, k, edit):
        """Apply `edit` to draw k of the run at `prefix`; returns the file's path."""
        path = prefix.parent / f"{prefix.name}.draws.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(lines[k + 1])
        edit(record)
        lines[k + 1] = json.dumps(record) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        return path

    def refused(self, command, run, friedman_csv, tmp_path, capsys):
        """The one-line error of `command` on `run`, after checking it exits 1."""
        argv = (["predict", "--run", run, "--data", friedman_csv, "--out", tmp_path / "p.csv"]
                if command == "predict" else ["diagnostics", "--run", run])
        assert run_cli(*argv) == 1
        assert not (tmp_path / "p.csv").exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("key", ["iteration", "sigma2", "terminal_counts",
                                     "param_counts"])
    def test_missing_key(self, command, key, tmp_path, friedman_csv, trained_run, capsys):
        path = self.edit_draw(trained_run, 2, lambda record: record.pop(key))
        assert (self.refused(command, trained_run, friedman_csv, tmp_path, capsys)
                == f"error: {path}: draw 2: missing key(s) {key}\n")

    def test_missing_trees(self, command, tmp_path, friedman_csv, trained_run, capsys):
        path = self.edit_draw(trained_run, 2, lambda record: record.pop("trees"))
        assert (self.refused(command, trained_run, friedman_csv, tmp_path, capsys)
                == f"error: {path}: draw 2: no stored trees, but draw 0 has 4 stored trees\n")

    def test_a_tree_short(self, command, tmp_path, friedman_csv, trained_run, capsys):
        path = self.edit_draw(trained_run, 2, lambda record: record["trees"].pop())
        assert (self.refused(command, trained_run, friedman_csv, tmp_path, capsys)
                == f"error: {path}: draw 2: 3 stored trees, but draw 0 has 4 stored trees\n")

    def test_empty_tree_lists(self, command, tmp_path, friedman_csv, trained_run, capsys):
        for k in range(25):
            path = self.edit_draw(trained_run, k, lambda record: record["trees"].clear())
        assert (self.refused(command, trained_run, friedman_csv, tmp_path, capsys)
                == f"error: {path}: draw 0: an empty list of stored trees\n")

    def test_a_first_tree_that_mixes_leaf_models(self, command, tmp_path, friedman_csv,
                                                 trained_run, capsys):
        # the leftmost leaf of the first tree sets the leaf model, for that tree too
        def mix(record):
            linear_leaf = {"kind": "leaf", "beta": [0.5, 1.0], "covariates": [2]}
            record["trees"][0] = {"kind": "internal", "feature": 0, "threshold": 0.0,
                                  "left": linear_leaf, "right": {"kind": "leaf", "mu": 0.5}}

        path = self.edit_draw(trained_run, 0, mix)
        problem = "draw 0, tree 0: constant leaf among stored trees whose leaves are linear"
        with pytest.raises(ValueError) as info:
            read_run(path)
        assert str(info.value) == f"{path}: {problem}"
        assert (self.refused(command, trained_run, friedman_csv, tmp_path, capsys)
                == f"error: {path}: {problem}\n")

    def test_trees_where_draw_0_has_none(self, command, tmp_path, friedman_csv,
                                         trained_run, capsys):
        path = self.edit_draw(trained_run, 0, lambda record: record.pop("trees"))
        assert (self.refused(command, trained_run, friedman_csv, tmp_path, capsys)
                == f"error: {path}: draw 1: 4 stored trees, but draw 0 has no stored trees\n")

    @pytest.mark.parametrize("key, value, problem", [
        pytest.param("sigma2", "0.5", "sigma2 '0.5' is not a finite number", id="sigma2-string"),
        pytest.param("sigma2", True, "sigma2 True is not a finite number", id="sigma2-bool"),
        pytest.param("sigma2", float("nan"), "sigma2 nan is not a finite number",
                     id="sigma2-nan"),
        pytest.param("sigma2", None, "sigma2 None is not a finite number", id="sigma2-null"),
        pytest.param("iteration", 17.0, "iteration 17.0 is not an int", id="iteration-float"),
        pytest.param("iteration", "17", "iteration '17' is not an int", id="iteration-string"),
        pytest.param("terminal_counts", "4", "terminal_counts is not a non-empty list of ints",
                     id="terminal-counts-string"),
        pytest.param("terminal_counts", [], "terminal_counts is not a non-empty list of ints",
                     id="terminal-counts-empty"),
        pytest.param("terminal_counts", [2, 2.5, 1, 1],
                     "terminal_counts is not a non-empty list of ints",
                     id="terminal-counts-float"),
        pytest.param("param_counts", [2, True, 1, 1],
                     "param_counts is not a non-empty list of ints", id="param-counts-bool"),
        pytest.param("param_counts", [2, 2, 1],
                     "param_counts holds 3 counts, but draw 0's terminal_counts holds 4",
                     id="param-counts-short"),
        pytest.param("terminal_counts", [1, 1, 1, 1, 1],
                     "terminal_counts holds 5 counts, but draw 0's terminal_counts holds 4",
                     id="terminal-counts-long"),
    ])
    def test_a_value_of_the_wrong_type(self, command, key, value, problem, tmp_path,
                                       friedman_csv, trained_run, capsys):
        path = self.edit_draw(trained_run, 2, lambda record: record.update({key: value}))
        assert (self.refused(command, trained_run, friedman_csv, tmp_path, capsys)
                == f"error: {path}: draw 2: {problem}\n")

    def test_draw_0_sets_the_tree_count(self, command, tmp_path, friedman_csv, trained_run,
                                        capsys):
        path = self.edit_draw(trained_run, 0, lambda record: record["param_counts"].pop())
        assert (self.refused(command, trained_run, friedman_csv, tmp_path, capsys)
                == f"error: {path}: draw 0: param_counts holds 3 counts, but draw 0's "
                   "terminal_counts holds 4\n")


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
        assert f"wrote sigma2 trace to {dest}" in capsys.readouterr().out
        chain = read_header(trained_run)["sigma2_chain"]
        rows = dest.read_text(encoding="utf-8").splitlines()
        assert rows[0] == "iteration,sigma2" and len(rows) == 1 + 15 + 25
        assert [row.split(",") for row in rows[1:]] == [
            [str(i), repr(s2)] for i, s2 in enumerate(chain, start=1)]

    def test_trace_matches_the_in_memory_fit(self, tmp_path, friedman_csv, trained_run):
        # same fit in memory as the trained_run fixture
        data = load_csv(friedman_csv, "y", REGRESSION)
        scaled, scaling = standardize(data)
        hp = Hyperparams(m=4, burn_in=15, post_burn_in=25, leaf_model="linear",
                         seed=7, store_trees=True)
        expected = tmp_path / "expected.csv"
        chain = run_regression(scaled, hp, scaling).sigma2_chain
        write_csv(expected, ["iteration", "sigma2"], enumerate(chain, start=1))
        assert (trace_via_diagnostics(trained_run, tmp_path / "trace.csv")
                == expected.read_bytes())


def test_train_flags_cover_every_hyperparameter_but_six():
    # these six are set through the Python API or a grid file; a new field
    # must get a flag or join this list, and the docs say which
    train = next(action for action in build_parser()._actions
                 if action.dest == "command").choices["train"]
    dests = {action.dest for action in train._actions}
    assert {f.name for f in fields(Hyperparams)} - dests == {
        "tau_b", "a0", "b0", "a1", "b1", "dirichlet_mass"}
