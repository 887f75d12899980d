"""Acceptance suite: one test per exit criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`. The Friedman desk-scale
fits (criteria 3-5) run once in a module fixture and take a few minutes;
everything else is fast.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import norm, spearmanr

from lmbart.benchmark import (EngineConfig, FriedmanSpec, friedman_generate,
                              parameter_accounting, run_benchmark)
from lmbart.cli import main as cli_main
from lmbart.data import CLASSIFICATION, Dataset, standardize
from lmbart.leaves import (ConstantStats, LeafPrior, LeafStats, bart_log_marginal,
                           bart_sample_mu, leaf_parameter_count, linear_log_marginal,
                           linear_sample_beta)
from lmbart.sampler import (Hyperparams, partial_residual, run_classification,
                            run_regression, sample_sigma2,
                            sample_tau_intercept, sample_tau_slopes)
from lmbart.trees import Tree
from oracles import (bart_marginal_restore_constants,
                     linear_marginal_restore_constants, quad_constant_leaf,
                     quad_linear_leaf, recount_parameters)

LINEAR_CONFIG = EngineConfig(
    "linear-10",
    Hyperparams(m=10, burn_in=500, post_burn_in=1000, leaf_model="linear",
                branching="dirichlet", vars_inter_slope=True))
BART10_CONFIG = EngineConfig(
    "constant-10",
    Hyperparams(m=10, burn_in=500, post_burn_in=1000, leaf_model="constant"))


def report(number, description, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def friedman_runs():
    """Criterion-3 protocol: n=500, p=5, 5 replicates, both engines."""
    t0 = time.time()
    result = run_benchmark([FriedmanSpec(n=500, p=5, noise_sd=1.0, seed=0)],
                           [LINEAR_CONFIG, BART10_CONFIG],
                           replicates=5, test_fraction=0.2,
                           master_seed=20250810)
    elapsed = time.time() - t0
    print(f"\n  friedman desk-scale grid: {elapsed:.0f}s")
    assert elapsed < 600, "criterion 3 runtime target exceeded"
    return result


def test_criterion_1_marginal_likelihood_oracle_equivalence():
    """Both log marginals match brute-force integration on 200 random leaves."""
    t0 = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):   # constant-leaf marginal, 1-D quadrature
        n = int(rng.integers(1, 4))
        r = rng.normal(0, 2, n)
        sigma2 = rng.uniform(0.3, 2.0)
        sigma_mu2 = rng.uniform(0.3, 2.0)
        impl = bart_log_marginal(
            ConstantStats([0], [None], [n], [float(r.sum())], None), sigma2, sigma_mu2)
        restored = math.exp(bart_marginal_restore_constants(impl, r, sigma2))
        oracle = quad_constant_leaf(r, sigma2, sigma_mu2)
        worst = max(worst, abs(restored - oracle) / oracle)
    for trial in range(100):   # linear-leaf marginal, q = 1 and q = 2
        n = int(rng.integers(1, 4))
        q = 1 + trial % 2
        cols = [np.ones(n)] + [rng.normal(0, 1, n) for _ in range(q - 1)]
        X = np.column_stack(cols)
        r = rng.normal(0, 2, n)
        sigma2 = rng.uniform(0.3, 2.0)
        v = rng.uniform(0.3, 2.0, q)
        st = LeafStats(0, n, float(r @ r), xtx=X.T @ X,
                       xtr=X.T @ r, prior=LeafPrior(v))
        impl = linear_log_marginal([st], sigma2)
        restored = math.exp(linear_marginal_restore_constants(impl, n))
        oracle = quad_linear_leaf(X, r, sigma2, v)
        worst = max(worst, abs(restored - oracle) / oracle)
    elapsed = time.time() - t0
    report(1, f"200-leaf oracle equivalence, worst rel err {worst:.2e} "
              f"(tol 1e-6), {elapsed:.0f}s (target < 60s)",
           worst <= 1e-6 and elapsed < 60)


def test_criterion_2_conjugate_sampler_moments():
    """1e5 draws of mu, beta, sigma2, tau_b0, tau_b match analytic moments."""
    t0 = time.time()
    n_draws = 100_000
    checks = []

    def moment_check(name, draws, mean, var):
        draws = np.asarray(draws)
        mean_ok = abs(draws.mean() - mean) <= 4 * math.sqrt(var / draws.size)
        var_ok = abs(draws.var() - var) <= 0.05 * var
        checks.append((name, mean_ok, var_ok))

    rng = np.random.default_rng(2002)
    stats = ConstantStats(list(range(n_draws)), [None] * n_draws, [2] * n_draws,
                          [4.0] * n_draws, None)
    mus = np.fromiter(bart_sample_mu(stats, 1.0, 1.0, rng), dtype=float, count=n_draws)
    moment_check("mu", mus, 4.0 / 3.0, 1.0 / 3.0)

    X = np.array([[1.0, 1.0], [1.0, -1.0]])
    beta_stats = [LeafStats(0, 2, 4.0, xtx=X.T @ X,
                            xtr=X.T @ np.array([2.0, 0.0]), prior=LeafPrior(np.ones(2)))]
    betas = np.array([linear_sample_beta(beta_stats, 1.0, rng)[0]
                      for _ in range(n_draws)])
    moment_check("beta0", betas[:, 0], 2.0 / 3.0, 1.0 / 3.0)
    moment_check("beta1", betas[:, 1], 2.0 / 3.0, 1.0 / 3.0)

    # the n=4 example IG(3.5, 2.5): mean check only, its fourth moment is
    # infinite so a 5% variance band is not statistically meaningful
    s2_example = np.array([sample_sigma2(2.0, 4, 3.0, 1.0, rng)
                           for _ in range(n_draws)])
    mean_ok = abs(s2_example.mean() - 1.0) <= 4 * math.sqrt((2 / 3) / n_draws)
    checks.append(("sigma2 IG(3.5,2.5) mean", mean_ok, True))
    # well-conditioned posterior IG(21.5, 16.25): mean and variance both
    s2 = np.array([sample_sigma2(29.5, 40, 3.0, 1.0, rng)
                   for _ in range(n_draws)])
    a, b = (40 + 3) / 2, (29.5 + 3) / 2
    moment_check("sigma2", s2, b / (a - 1), b ** 2 / ((a - 1) ** 2 * (a - 2)))

    tau0 = np.array([sample_tau_intercept(np.array([1.0, -1.0]), 1.0, 1.0, 1.0,
                                          rng) for _ in range(n_draws)])
    moment_check("tau_beta0", tau0, 1.0, 0.5)      # Gamma(2, rate 2)

    tau1 = np.array([sample_tau_slopes(np.ones(3), 1.0, 1.0, 1.0, rng)
                     for _ in range(n_draws)])
    moment_check("tau_beta", tau1, 1.0, 2.5 / 2.5 ** 2)   # Gamma(2.5, rate 2.5)

    elapsed = time.time() - t0
    ok = all(m and v for _, m, v in checks) and elapsed < 120
    detail = ", ".join(f"{name}:{'ok' if m and v else 'BAD'}"
                       for name, m, v in checks)
    report(2, f"conjugate moments ({detail}), {elapsed:.0f}s (target < 120s)", ok)


def test_criterion_3_friedman_desk_scale_rmse(friedman_runs):
    """Median test RMSE bands: linear in [0.95, 1.45], constant-10 in
    [1.25, 1.75], linear strictly better."""
    linear_cell = friedman_runs.cell("n=500,p=5", "linear-10")
    bart = friedman_runs.cell("n=500,p=5", "constant-10")
    ok = (0.95 <= linear_cell.median <= 1.45
          and 1.25 <= bart.median <= 1.75
          and linear_cell.median < bart.median
          and len(linear_cell.rmses) == 5 and len(bart.rmses) == 5)
    report(3, f"linear-leaf median {linear_cell.median:.3f} in [0.95, 1.45]; "
              f"constant-10 median {bart.median:.3f} in [1.25, 1.75]; "
              f"linear < constant", ok)


def test_criterion_4_irreducible_noise_floor(friedman_runs):
    """No replicate beats the N(0,1) noise floor: every test RMSE >= 0.85."""
    all_rmses = (friedman_runs.cell("n=500,p=5", "linear-10").rmses
                 + friedman_runs.cell("n=500,p=5", "constant-10").rmses)
    low = min(all_rmses)
    report(4, f"all 10 test RMSEs >= 0.85 (min {low:.3f})", low >= 0.85)


def test_criterion_5_per_tree_size_accounting(friedman_runs):
    """Tree-size bands plus the exact parameter-count identity."""
    linear_cell = friedman_runs.cell("n=500,p=5", "linear-10")
    bart = friedman_runs.cell("n=500,p=5", "constant-10")
    bart_terminal = float(np.mean(bart.terminal_per_tree))
    linear_params = float(np.mean(linear_cell.params_per_tree))

    # identity on a tree-storing run at the criterion-3 configuration
    data = friedman_generate(FriedmanSpec(n=500, p=5, noise_sd=1.0, seed=0))
    scaled, scaling = standardize(data)
    hp = Hyperparams(**{**LINEAR_CONFIG.hyperparams.to_dict(),
                        "burn_in": 50, "post_burn_in": 100,
                        "store_trees": True, "seed": 5})
    draws = run_regression(scaled, hp, scaling)
    identity_ok = bool(np.array_equal(recount_parameters(draws),
                                      draws.param_counts))
    acc = parameter_accounting(draws)
    identity_ok &= acc.total == int(draws.param_counts.sum())

    ok = (2.0 <= bart_terminal <= 6.0 and 4.0 <= linear_params <= 10.0
          and identity_ok)
    report(5, f"constant-10 terminal/tree {bart_terminal:.2f} in [2, 6]; "
              f"linear params/tree {linear_params:.2f} in [4, 10]; "
              f"count identity exact: {identity_ok}", ok)


def test_criterion_6_fifteen_parameter_example():
    """5 terminal nodes, 2 split covariates, linear leaves -> 15 parameters."""
    t = Tree()
    l0, r0 = t.grow(t.root, 0, 0.0)
    l1, _ = t.grow(l0, 1, 0.5)
    t.grow(r0, 0, -0.5)
    t.grow(l1, 1, 0.25)
    count = leaf_parameter_count(t, "linear", "tree-splits")
    ok = (t.n_leaves() == 5
          and len({nd.feature for nd in t.nodes.values() if not nd.is_leaf}) == 2
          and count == 15)
    report(6, f"5-leaf tree with 2 split covariates counts {count} == 15", ok)


def test_criterion_7_classification_sanity():
    """Probit-simulated data: monotone probabilities, sigma2 pinned at 1."""
    t0 = time.time()
    rng = np.random.default_rng(777)
    n = 500
    x = rng.uniform(-1.5, 1.5, n)
    y = (rng.uniform(size=n) < norm.cdf(2.0 * x)).astype(float)
    d = Dataset(x[:, None], y, ["x1"], CLASSIFICATION)
    scaled, scaling = standardize(d, scale_response=False)
    hp = Hyperparams(m=10, burn_in=300, post_burn_in=500, seed=17,
                     leaf_model="linear")
    draws = run_classification(scaled, hp, scaling)
    phat = draws.yhat_train.mean(axis=0)
    rank_corr = float(spearmanr(x, phat).statistic)
    # predicted probabilities are the per-row posterior means; individual
    # draws may touch the float64 saturation points of the Normal cdf
    in_unit = bool(phat.min() > 0.0 and phat.max() < 1.0
                   and draws.yhat_train.min() >= 0.0
                   and draws.yhat_train.max() <= 1.0)
    sigma_fixed = bool(np.all(draws.sigma2 == 1.0)
                       and np.all(draws.sigma2_chain == 1.0))
    elapsed = time.time() - t0
    ok = rank_corr > 0.9 and in_unit and sigma_fixed and elapsed < 180
    report(7, f"rank corr {rank_corr:.3f} > 0.9; probabilities in (0,1): "
              f"{in_unit}; sigma2 == 1: {sigma_fixed}; {elapsed:.0f}s "
              f"(target < 180s)", ok)


def test_criterion_8_cli_determinism(tmp_path):
    """Identical train config and seed produce byte-identical draws files."""
    sim = tmp_path / "sim.csv"
    assert cli_main(["simulate", "--n", "120", "--p", "5", "--seed", "3",
                     "--out", str(sim)]) == 0
    base = ["train", "--data", str(sim), "--target", "y", "--leaf", "linear",
            "--trees", "5", "--burnin", "30", "--iters", "60", "--seed", "13",
            "--store-trees"]
    assert cli_main(base + ["--out", str(tmp_path / "one")]) == 0
    assert cli_main(base + ["--out", str(tmp_path / "two")]) == 0
    same = ((tmp_path / "one.draws.jsonl").read_bytes()
            == (tmp_path / "two.draws.jsonl").read_bytes())
    report(8, "byte-identical draws files from identical config and seed", same)


def test_criterion_9_residual_identity_invariant():
    """y == R_t + sum of other trees' fits to 1e-8, every sweep, every tree."""
    data = friedman_generate(FriedmanSpec(n=150, p=5, noise_sd=1.0, seed=31))
    scaled, scaling = standardize(data)
    y = scaled.response
    worst = [0.0]
    sweeps = [0]

    def check(state):
        sweeps[0] += 1
        for t in range(len(state.trees)):
            others = np.zeros_like(y)
            for j, ts in enumerate(state.trees):
                if j != t:
                    others += ts.fit
            gap = np.abs(y - (partial_residual(state, t) + others)).max()
            worst[0] = max(worst[0], float(gap))

    hp = Hyperparams(m=5, burn_in=100, post_burn_in=100, seed=23,
                     leaf_model="linear")
    run_regression(scaled, hp, scaling, on_sweep=check)
    ok = worst[0] < 1e-8 and sweeps[0] == 200
    report(9, f"residual identity over {sweeps[0]} sweeps, worst gap "
              f"{worst[0]:.2e} (tol 1e-8)", ok)
