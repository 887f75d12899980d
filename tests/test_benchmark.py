import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from lmbart import benchmark
from lmbart.benchmark import (EngineConfig, FriedmanSpec, friedman_generate,
                              friedman_signal, load_grid_config, parameter_accounting,
                              rmse, run_benchmark, write_param_table, write_rmse_table)
from lmbart.data import split_sizes, standardize
from lmbart.sampler import Hyperparams, PosteriorDraws, run_regression
from lmbart.data import ScalingInfo
from oracles import recount_parameters


class TestFriedmanGenerate:
    def test_analytic_points(self):
        mid = friedman_signal(np.full((1, 5), 0.5))[0]
        assert_allclose(mid, 10 * np.sin(np.pi * 0.25) + 5 + 2.5, rtol=1e-12)
        assert_allclose(mid, 14.5711, atol=1e-4)
        assert_allclose(friedman_signal(np.zeros((1, 5)))[0], 5.0, rtol=1e-12)
        assert_allclose(friedman_signal(np.ones((1, 5)))[0], 20.0, atol=1e-12)

    def test_noiseless_rows_satisfy_closed_form(self):
        d = friedman_generate(FriedmanSpec(n=300, p=8, noise_sd=0.0, seed=4))
        assert_allclose(d.response, friedman_signal(d.features), rtol=0, atol=0)

    def test_extra_covariates_unused(self):
        a = friedman_generate(FriedmanSpec(n=50, p=5, noise_sd=0.0, seed=9))
        b = friedman_generate(FriedmanSpec(n=50, p=12, noise_sd=0.0, seed=9))
        # same seed: the first five columns coincide only by construction of
        # the generator order, so check the signal law instead
        assert_allclose(b.response, friedman_signal(b.features), atol=0)
        assert a.p == 5 and b.p == 12

    def test_rejects_small_p(self):
        with pytest.raises(ValueError, match="p must be >= 5"):
            FriedmanSpec(n=10, p=4)

    @pytest.mark.parametrize("noise_sd, shown", [(float("nan"), "nan"), (float("inf"), "inf"),
                                                 (-0.5, "-0.5")])
    def test_rejects_non_finite_or_negative_noise(self, noise_sd, shown):
        with pytest.raises(ValueError) as err:
            FriedmanSpec(n=10, noise_sd=noise_sd)
        expected = ">= 0" if noise_sd < 0 else "a finite real"
        assert str(err.value) == f"noise_sd must be {expected}, got {shown}"

    @pytest.mark.parametrize("name, value, expected", [
        ("n", 60.9, "an integer"), ("p", 5.0, "an integer"), ("seed", True, "an integer"),
        ("noise_sd", "1", "a finite real"),
    ])
    def test_a_field_of_the_wrong_type_is_a_value_error(self, name, value, expected):
        # not truncated, and not left for numpy to refuse with a TypeError
        with pytest.raises(ValueError) as err:
            FriedmanSpec(**{"n": 60, name: value})
        assert str(err.value) == f"{name} must be {expected}, got {value!r}"

    def test_noise_matches_irreducible_error(self):
        d = friedman_generate(FriedmanSpec(n=50_000, p=5, noise_sd=1.0, seed=5))
        achieved = rmse(friedman_signal(d.features), d.response)
        assert_allclose(achieved, 1.0, atol=0.02)

    def test_constant_predictor_hits_signal_sd(self):
        # predicting the train mean of the noiseless signal scores close to
        # the population sd of the signal, estimated by brute-force MC
        rng = np.random.default_rng(12)
        mc = friedman_signal(rng.uniform(size=(1_000_000, 5)))
        pop_mean, pop_sd = mc.mean(), mc.std()
        d = friedman_generate(FriedmanSpec(n=20_000, p=5, noise_sd=0.0, seed=6))
        train_mean = d.response.mean()
        value = rmse(np.full(d.n, train_mean), d.response)
        assert_allclose(train_mean, pop_mean, atol=0.1)
        assert_allclose(value, pop_sd, rtol=0.02)


class TestRmse:
    def test_identical(self):
        assert rmse(np.ones(5), np.ones(5)) == 0.0

    def test_three_four_five(self):
        assert_allclose(rmse(np.zeros(2), np.array([3.0, 4.0])),
                        np.sqrt(25 / 2), rtol=1e-12)
        assert_allclose(rmse(np.zeros(2), np.array([3.0, 4.0])), 3.5355, atol=1e-4)

    def test_constant_offset(self):
        obs = np.array([1.0, 2.0, 3.0])
        assert_allclose(rmse(obs + 0.7, obs), 0.7, rtol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse(np.ones(3), np.ones(4))


def fake_draws(param_counts, terminal_counts=None, trees=None):
    param_counts = np.asarray(param_counts, dtype=int)
    k, m = param_counts.shape
    if terminal_counts is None:
        terminal_counts = param_counts
    return PosteriorDraws(
        task="regression", hyperparams=Hyperparams(m=m, burn_in=1, post_burn_in=k),
        scaling=ScalingInfo.identity(1), feature_names=["x1"], lam=1.0,
        iterations=np.arange(1, k + 1), sigma2=np.ones(k),
        tau_beta0=None, tau_beta=None, yhat_train=np.zeros((k, 1)),
        terminal_counts=np.asarray(terminal_counts, dtype=int),
        param_counts=param_counts, acceptance={}, sigma2_chain=np.ones(k),
        trees=trees,
    )


class TestParameterAccounting:
    def test_constant_count_chain(self):
        # 5000 iterations of 10 single-leaf trees: run total 50,000
        draws = fake_draws(np.ones((5000, 10), dtype=int))
        acc = parameter_accounting(draws)
        assert acc.total == 50_000
        assert acc.mean_params_per_tree == 1.0

    def test_fifteen_parameter_single_iteration(self):
        draws = fake_draws(np.array([[15]]), terminal_counts=np.array([[5]]))
        acc = parameter_accounting(draws)
        assert acc.total == 15
        assert acc.mean_params_per_tree == 15.0
        assert acc.mean_terminal_per_tree == 5.0

    def test_per_tree_identity(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(1, 9, size=(40, 7))
        acc = parameter_accounting(fake_draws(counts))
        assert_allclose(acc.mean_params_per_tree, acc.total / (40 * 7), rtol=0)

    def test_recount_from_stored_trees_matches_records(self):
        data = friedman_generate(FriedmanSpec(n=120, p=5, seed=11))
        scaled, info = standardize(data)
        for leaf_model in ("constant", "linear"):
            hp = Hyperparams(m=4, burn_in=15, post_burn_in=25, seed=2,
                             leaf_model=leaf_model, store_trees=True)
            draws = run_regression(scaled, hp, info)
            assert_array_equal(recount_parameters(draws), draws.param_counts)


def run_tiny_grid(jobs=1):
    scenarios = [FriedmanSpec(n=80, p=5, seed=0)]
    algorithms = [
        EngineConfig("constant-3", Hyperparams(m=3, burn_in=10,
                                               post_burn_in=15)),
        EngineConfig("linear-3", Hyperparams(m=3, burn_in=10, post_burn_in=15,
                                             leaf_model="linear")),
    ]
    return run_benchmark(scenarios, algorithms, replicates=2,
                         test_fraction=0.2, master_seed=7, jobs=jobs)


@pytest.fixture(scope="module")
def tiny_grid():
    return run_tiny_grid()


class TestRunBenchmark:
    def test_shape_contract(self, tiny_grid):
        assert len(tiny_grid.cells) == 2
        for cell in tiny_grid.cells.values():
            assert len(cell.rmses) == 2
            assert not cell.failures

    def test_quartile_ordering(self, tiny_grid):
        for cell in tiny_grid.cells.values():
            q1, q3 = cell.quartiles
            assert q1 <= cell.median <= q3

    def test_deterministic_given_master_seed(self, tiny_grid):
        again = run_benchmark([FriedmanSpec(n=80, p=5, seed=0)],
                              [EngineConfig("constant-3",
                                            Hyperparams(m=3, burn_in=10,
                                                        post_burn_in=15))],
                              replicates=2, test_fraction=0.2, master_seed=7)
        key = ("n=80,p=5", "constant-3")
        assert again.cells[key].rmses == tiny_grid.cells[key].rmses

    @pytest.mark.parametrize("name, value", [("replicates", 0), ("replicates", -2),
                                             ("jobs", 0)])
    def test_counts_below_one_are_rejected(self, name, value):
        counts = {"replicates": 1, "jobs": 1, name: value}
        with pytest.raises(ValueError) as err:
            run_benchmark([FriedmanSpec(n=80, p=5, seed=0)],
                          [EngineConfig("constant-3", Hyperparams(m=3))], **counts)
        assert str(err.value) == f"{name} must be >= 1, got {value}"

    @pytest.mark.parametrize("name, value, expected", [
        ("test_fraction", 0, "in (0, 1)"), ("test_fraction", 1.5, "in (0, 1)"),
        ("master_seed", -1, ">= 0"), ("replicates", 2.0, "an integer"),
    ])
    def test_a_setting_is_refused_before_any_fit(self, monkeypatch, name, value, expected):
        fits = []
        monkeypatch.setattr(benchmark, "_run_cell", lambda *args: fits.append(args))
        with pytest.raises(ValueError) as err:
            run_benchmark([FriedmanSpec(n=60)], [EngineConfig("a", Hyperparams(m=2))],
                          **{"replicates": 1, name: value})
        assert str(err.value) == f"{name} must be {expected}, got {value!r}"
        assert fits == []

    @pytest.mark.parametrize("n, n_train, n_test", [(2, 1, 1), (5, 4, 1)])
    def test_a_scenario_too_small_to_split_is_refused_before_any_fit(self, monkeypatch, n,
                                                                     n_train, n_test):
        fits = []
        monkeypatch.setattr(benchmark, "_run_cell", lambda *args: fits.append(args))
        with pytest.raises(ValueError) as err:
            run_benchmark([FriedmanSpec(n=60), FriedmanSpec(n=n)],
                          [EngineConfig("a", Hyperparams(m=2))], replicates=1)
        assert str(err.value) == (f"scenario 'n={n},p=5': test_fraction 0.2 splits its {n} rows "
                                  f"into {n_train} train and {n_test} test rows; "
                                  f"each part needs at least 2")
        assert fits == []

    def test_the_smallest_scenario_that_splits_runs(self):
        assert split_sizes(8, 0.2) == (6, 2)
        result = run_benchmark([FriedmanSpec(n=8)],
                               [EngineConfig("a", Hyperparams(m=2, burn_in=2, post_burn_in=2))],
                               replicates=1)
        cell = result.cells[("n=8,p=5", "a")]
        assert cell.failures == [] and len(cell.rmses) == 1

    def test_a_process_pool_gives_the_cells_of_one_process(self, tiny_grid):
        assert run_tiny_grid(jobs=2).cells == tiny_grid.cells

    @pytest.mark.parametrize("scenarios, names, problem", [
        pytest.param([FriedmanSpec(n=60, noise_sd=0.1), FriedmanSpec(n=60, noise_sd=5.0)], ["a"],
                     "two scenarios share the label 'n=60,p=5'", id="noise_sd"),
        pytest.param([FriedmanSpec(n=60, seed=1), FriedmanSpec(n=60, seed=2)], ["a"],
                     "two scenarios share the label 'n=60,p=5'", id="seed"),
        pytest.param([FriedmanSpec(n=60)], ["a", "b", "a"],
                     "two algorithms share the name 'a'", id="name"),
    ])
    def test_cells_that_would_pool_are_refused_before_any_fit(self, monkeypatch, scenarios,
                                                              names, problem):
        # the cell key is (label, name), and a label names only n and p
        fits = []
        monkeypatch.setattr(benchmark, "_run_cell", lambda *args: fits.append(args))
        algorithms = [EngineConfig(name, Hyperparams(m=2)) for name in names]
        with pytest.raises(ValueError) as err:
            run_benchmark(scenarios, algorithms, replicates=1)
        assert str(err.value) == problem
        assert fits == []

    def test_tables_written(self, tiny_grid, tmp_path):
        write_rmse_table(tiny_grid, tmp_path / "rmse.csv")
        write_param_table(tiny_grid, tmp_path / "params.csv")
        rmse_lines = (tmp_path / "rmse.csv").read_text().strip().splitlines()
        assert len(rmse_lines) == 3   # header + 2 cells
        assert rmse_lines[0].startswith("scenario,algorithm,median_rmse")

    def test_failure_recorded_without_aborting(self):
        scenarios = [FriedmanSpec(n=30, p=5, seed=0)]
        bad = EngineConfig("bad", Hyperparams(m=2, burn_in=5, post_burn_in=5))
        object.__setattr__(bad.hyperparams, "leaf_model", "bogus")
        good = EngineConfig("good", Hyperparams(m=2, burn_in=5, post_burn_in=5))
        result = run_benchmark(scenarios, [bad, good], replicates=1,
                               master_seed=1)
        assert result.cells[("n=30,p=5", "bad")].failures
        assert result.cells[("n=30,p=5", "good")].rmses


class TestGridConfig:
    def test_load(self, tmp_path):
        cfg = {
            "master_seed": 5,
            "replicates": 3,
            "test_fraction": 0.25,
            "scenarios": [{"n": 100, "p": 5}, {"n": 200, "p": 10, "noise_sd": 2.0}],
            "algorithms": [
                {"name": "lin", "leaf_model": "linear", "m": 10,
                 "burn_in": 5, "post_burn_in": 10},
                {"name": "con", "leaf_model": "constant", "m": 10,
                 "burn_in": 5, "post_burn_in": 10},
            ],
        }
        import json
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        parsed = load_grid_config(path)
        assert parsed["replicates"] == 3
        assert parsed["scenarios"][1].noise_sd == 2.0
        assert parsed["algorithms"][0].hyperparams.leaf_model == "linear"
