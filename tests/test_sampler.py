import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import ndtr
from scipy.stats import chi2, kstest, norm, truncnorm

import lmbart
from lmbart.data import (CLASSIFICATION, REGRESSION, Dataset, ScalingInfo,
                         standardize)
from lmbart.sampler import (Hyperparams, PosteriorDraws, calibrate_lambda,
                            dirichlet_update_splitprobs,
                            eval_tree_dict, mh_accept, partial_residual, predict,
                            read_run, run_classification, run_regression,
                            sample_latent_z, sample_sigma2,
                            sample_tau_intercept, sample_tau_slopes, write_run)
from lmbart.benchmark import FriedmanSpec, friedman_generate
from oracles import (SENTINEL_SUM, changed_leaves, explicit_partial_residual,
                     leaf_index_of, with_sentinel_sums)


def hp_small(**kwargs):
    defaults = dict(m=5, burn_in=30, post_burn_in=50, seed=3)
    defaults.update(kwargs)
    return Hyperparams(**defaults)


class TestSampleSigma2:
    def test_posterior_moments(self):
        rng = np.random.default_rng(0)
        draws = np.array([sample_sigma2(2.0, 4, 3.0, 1.0, rng)
                          for _ in range(20_000)])
        # IG(3.5, 2.5): mean 1.0, var 2.5^2 / (2.5^2 * 1.5) = 2/3
        assert_allclose(draws.mean(), 1.0, atol=4 * math.sqrt((2 / 3) / draws.size))
        assert_allclose(draws.var(), 2 / 3, rtol=0.07)

    def test_no_data_recovers_prior(self):
        from scipy.stats import invgamma

        rng = np.random.default_rng(1)
        draws = np.array([sample_sigma2(0.0, 0, 3.0, 1.0, rng)
                          for _ in range(20_000)])
        # prior IG(1.5, scale 1.5); compare medians (the mean has fat tails)
        assert_allclose(np.median(draws), invgamma(1.5, scale=1.5).median(),
                        rtol=0.05)


class TestTauDraws:
    def test_intercepts_example(self):
        rng = np.random.default_rng(2)
        draws = np.array([sample_tau_intercept(np.array([1.0, -1.0]), 1.0, 1.0,
                                               1.0, rng) for _ in range(20_000)])
        # Gamma(2, rate 2): mean 1, var 0.5
        assert_allclose(draws.mean(), 1.0, atol=4 * math.sqrt(0.5 / draws.size))
        assert_allclose(draws.var(), 0.5, rtol=0.07)

    def test_zero_intercepts_reduce_rate_to_prior(self):
        rng = np.random.default_rng(3)
        draws = np.array([sample_tau_intercept(np.zeros(4), 1.0, 1.0, 1.0, rng)
                          for _ in range(20_000)])
        # Gamma(shape 3, rate 1): mean 3
        assert_allclose(draws.mean(), 3.0, atol=4 * math.sqrt(3.0 / draws.size))

    def test_large_sigma2_kills_data_term(self):
        rng = np.random.default_rng(4)
        draws = np.array([sample_tau_intercept(np.array([5.0, 5.0]), 1e12,
                                               1.0, 1.0, rng)
                          for _ in range(20_000)])
        # rate collapses to b0 = 1: Gamma(2, 1), mean 2
        assert_allclose(draws.mean(), 2.0, atol=4 * math.sqrt(2.0 / draws.size))

    def test_slopes_prior_recovery_with_all_stumps(self):
        rng = np.random.default_rng(5)
        draws = np.array([sample_tau_slopes(np.array([]), 1.0, 1.0, 1.0, rng)
                          for _ in range(20_000)])
        # Gamma(1, 1): mean 1, var 1
        assert_allclose(draws.mean(), 1.0, atol=4 * math.sqrt(1.0 / draws.size))
        assert_allclose(draws.var(), 1.0, rtol=0.07)

    def test_slopes_example(self):
        rng = np.random.default_rng(6)
        draws = np.array([sample_tau_slopes(np.ones(3), 1.0, 1.0, 1.0, rng)
                          for _ in range(20_000)])
        # Gamma(2.5, 2.5): mean 1
        assert_allclose(draws.mean(), 1.0, atol=4 * math.sqrt(0.4 / draws.size))

    def test_doubling_sigma2_halves_data_rate(self):
        slopes = np.array([2.0, 2.0])
        for sigma2 in (1.0, 2.0):
            rate_expected = 4.0 / sigma2 + 1.0
            rng = np.random.default_rng(7)
            draws = np.array([sample_tau_slopes(slopes, sigma2, 1.0, 1.0, rng)
                              for _ in range(20_000)])
            assert_allclose(draws.mean(), 2.0 / rate_expected, rtol=0.05)


class TestDirichletBranching:
    def test_count_update_mean(self):
        rng = np.random.default_rng(8)
        draws = np.array([dirichlet_update_splitprobs(np.array([2.0, 0.0, 1.0]),
                                                      1.0, rng)
                          for _ in range(20_000)])
        # Dirichlet(7/3, 1/3, 4/3): mean proportional to parameters
        assert_allclose(draws.mean(axis=0), [7 / 12, 1 / 12, 4 / 12], atol=0.01)

    def test_zero_counts_recover_prior(self):
        rng = np.random.default_rng(9)
        draws = np.array([dirichlet_update_splitprobs(np.zeros(4), 1.0, rng)
                          for _ in range(20_000)])
        assert_allclose(draws.mean(axis=0), 0.25, atol=0.01)

    def test_dominant_feature_has_largest_mean(self):
        rng = np.random.default_rng(10)
        draws = np.array([dirichlet_update_splitprobs(np.array([1.0, 9.0, 2.0]),
                                                      1.0, rng)
                          for _ in range(5_000)])
        means = draws.mean(axis=0)
        assert means[1] == means.max()
        assert_allclose(draws.sum(axis=1), 1.0, rtol=1e-12)


class TestMhAccept:
    def test_equal_terms_always_accepted(self):
        rng = np.random.default_rng(11)
        assert all(mh_accept(0.0, rng) for _ in range(1000))

    def test_draws_what_uniform_draws(self):
        # mh_accept reads rng.random(); it must draw the value rng.uniform()
        # draws, decide as log(rng.uniform()) < log_alpha does, right at the
        # boundary too, and leave the generator where uniform leaves it
        def copy_of(rng):
            copy = np.random.Generator(type(rng.bit_generator)())
            copy.bit_generator.state = rng.bit_generator.state
            return copy

        setup = np.random.default_rng(31)
        for seed in range(1200):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(int(setup.integers(1, 6))):
                u = copy_of(ref).uniform()
                assert copy_of(ours).random() == u
                log_u = math.log(u)
                log_alpha = [log_u, math.nextafter(log_u, math.inf),
                             float(setup.normal(0, 2))][int(setup.integers(3))]
                assert mh_accept(log_alpha, ours) == (math.log(ref.uniform()) < log_alpha)
                assert ours.bit_generator.state == ref.bit_generator.state

    def test_log_half_accepts_half_the_time(self):
        rng = np.random.default_rng(12)
        trials = 10_000
        hits = sum(mh_accept(-math.log(2.0), rng) for _ in range(trials))
        se = math.sqrt(0.25 / trials)
        assert abs(hits / trials - 0.5) < 3 * se


class TestLatentZ:
    def test_half_normal_means(self):
        rng = np.random.default_rng(13)
        n = 40_000
        fit = np.zeros(n)
        z_pos = sample_latent_z(np.ones(n), fit, rng)
        z_neg = sample_latent_z(np.zeros(n), fit, rng)
        target = math.sqrt(2 / math.pi)
        assert z_pos.min() > 0 and z_neg.max() <= 0
        assert_allclose(z_pos.mean(), target, atol=0.01)
        assert_allclose(z_neg.mean(), -target, atol=0.01)

    def test_far_from_boundary_is_plain_normal(self):
        rng = np.random.default_rng(14)
        n = 20_000
        z = sample_latent_z(np.ones(n), np.full(n, 10.0), rng)
        assert_allclose(z.mean(), 10.0, atol=0.03)
        assert_allclose(z.std(), 1.0, atol=0.03)

    def test_matches_truncnorm_from_deep_tail_to_deep_tail(self):
        # one call over every (fit, label) cell, 5000 rows each, so each
        # cell's rows also check that the labels pick their own truncation
        fits = np.array([-40.0, -8.0, -1.0, 0.0, 1.0, 8.0, 40.0])
        n = 5000
        cell_fit = np.repeat(np.tile(fits, 2), n)
        cell_y = np.repeat([1.0, 0.0], fits.size * n)
        z = sample_latent_z(cell_y, cell_fit, np.random.default_rng(16))
        assert np.all(np.isfinite(z))
        assert np.all(z[cell_y == 1] > 0) and np.all(z[cell_y == 0] <= 0)
        for k, (y, fit) in enumerate((y, f) for y in (1, 0) for f in fits):
            lo, hi = (-fit, np.inf) if y == 1 else (-np.inf, -fit)
            reference = truncnorm(lo, hi, loc=fit)
            assert kstest(z[k * n:(k + 1) * n], reference.cdf).pvalue > 1e-3, (fit, y)

    def test_deep_tail_does_not_stall_or_overflow(self):
        rng = np.random.default_rng(15)
        z = sample_latent_z(np.ones(100), np.full(100, -12.0), rng)
        assert np.all(np.isfinite(z)) and np.all(z > 0)
        assert z.mean() < 0.2   # mass hugs the boundary


def handmade_state(fits, target):
    """Minimal SamplerState with fixed per-tree fit vectors."""
    from lmbart.sampler import SamplerState, TreeState
    from lmbart.trees import Tree, log_tree_prior

    trees = []
    for fit in fits:
        t = Tree()
        trees.append(TreeState(t, [0.0], {t.root: np.arange(len(fit))},
                               np.asarray(fit, dtype=float), log_tree_prior(t, 0.95, 2.0),
                               rows_by_split={}, index=np.zeros(len(fit), dtype=int)))
    total_fit = np.sum(fits, axis=0).astype(float)
    target = np.asarray(target, dtype=float)
    return SamplerState(trees=trees, sigma2=1.0, tau_beta0=1.0, tau_beta=1.0,
                        split_probs=np.array([1.0]), total_fit=total_fit, target=target,
                        resid=target - total_fit)


class TestPartialResiduals:
    def test_single_tree_residual_is_target(self):
        target = np.array([3.0, -1.0, 2.0])
        state = handmade_state([np.array([0.5, 0.5, 0.5])], target)
        assert_allclose(partial_residual(state, 0), target, rtol=0, atol=0)

    def test_zero_fit_second_tree_leaves_target(self):
        target = np.array([3.0, -1.0, 2.0])
        state = handmade_state([np.array([0.7, -0.2, 0.1]), np.zeros(3)], target)
        assert_allclose(partial_residual(state, 1), target - [0.7, -0.2, 0.1])
        assert_allclose(partial_residual(state, 0), target)

    def test_incremental_matches_explicit_sum_over_100_sweeps(self):
        data = friedman_generate(FriedmanSpec(n=100, p=5, seed=1))
        scaled, info = standardize(data)
        worst = [0.0]

        def check(state):
            for t in range(len(state.trees)):
                gap = np.abs(partial_residual(state, t)
                             - explicit_partial_residual(state, t)).max()
                worst[0] = max(worst[0], gap)

        hp = hp_small(m=5, burn_in=50, post_burn_in=50, leaf_model="linear")
        run_regression(scaled, hp, info, on_sweep=check)
        assert worst[0] < 1e-10


@pytest.mark.parametrize("task", [REGRESSION, CLASSIFICATION])
def test_the_first_state_carries_each_stumps_routing_index_and_residual(task):
    from lmbart.sampler import _init_state

    rng = np.random.default_rng(12)
    y = rng.normal(size=30) if task == REGRESSION else (rng.random(30) < 0.5).astype(float)
    train = Dataset(rng.normal(size=(30, 3)), y, ["a", "b", "c"], task)
    hp = hp_small(m=4)
    state = _init_state(train, hp, y - 0.25, 1.0)
    for ts in state.trees:
        assert ts.tree.n_leaves() == 1
        assert ts.rows_by_leaf.keys() == {ts.tree.root} and ts.rows_by_split == {}
        assert ts.index.dtype == np.intp
        assert np.array_equal(ts.index, leaf_index_of(ts.rows_by_leaf, train.n))
    # each tree step rewrites its own tree's index in place
    assert len({id(ts.index) for ts in state.trees}) == hp.m
    assert np.array_equal(state.resid, state.target - state.total_fit)


class TestRunRegression:
    def test_constant_response_collapses(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(40, 2))
        d = Dataset(X, np.full(40, 7.0), ["a", "b"], REGRESSION)
        scaled, info = standardize(d)
        draws = run_regression(scaled, hp_small(), info)
        assert_allclose(draws.yhat_train.mean(axis=0), 7.0, atol=1e-3)
        assert draws.sigma2.mean() < 1e-6

    def test_fixed_seed_reproduces_draws(self):
        data = friedman_generate(FriedmanSpec(n=80, p=5, seed=3))
        scaled, info = standardize(data)
        hp = hp_small(leaf_model="linear", store_trees=True)
        a = run_regression(scaled, hp, info)
        b = run_regression(scaled, hp, info)
        assert_array_equal(a.sigma2, b.sigma2)
        assert_array_equal(a.yhat_train, b.yhat_train)
        assert_array_equal(a.param_counts, b.param_counts)
        assert a.trees == b.trees

    def test_residual_identity_every_sweep(self):
        # y == R_t + sum_{j != t} fit_j must hold after every sweep, for all t
        data = friedman_generate(FriedmanSpec(n=90, p=5, seed=4))
        scaled, info = standardize(data)
        y = scaled.response
        worst = [0.0]

        def check(state):
            for t in range(len(state.trees)):
                others = state.total_fit - state.trees[t].fit
                recon = partial_residual(state, t) + others
                worst[0] = max(worst[0], np.abs(y - recon).max())

        run_regression(scaled, hp_small(m=4, burn_in=10, post_burn_in=10),
                       info, on_sweep=check)
        assert worst[0] < 1e-8

    def test_acceptance_bookkeeping_sums_to_proposals(self):
        data = friedman_generate(FriedmanSpec(n=80, p=5, seed=5))
        scaled, info = standardize(data)
        hp = hp_small(m=3, burn_in=20, post_burn_in=30)
        draws = run_regression(scaled, hp, info)
        total = sum(sum(rec.values()) for rec in draws.acceptance.values())
        assert total == (hp.burn_in + hp.post_burn_in) * hp.m

    def test_sigma2_draws_positive(self):
        data = friedman_generate(FriedmanSpec(n=80, p=5, seed=6))
        scaled, info = standardize(data)
        draws = run_regression(scaled, hp_small(), info)
        assert np.all(draws.sigma2 > 0)
        assert np.all(draws.sigma2_chain > 0)

    def test_retained_count_respects_thinning(self):
        data = friedman_generate(FriedmanSpec(n=70, p=5, seed=7))
        scaled, info = standardize(data)
        draws = run_regression(scaled, hp_small(post_burn_in=50, thin=7), info)
        assert draws.retained == 50 // 7

    def test_shrinkage_toward_center_with_tight_leaf_prior(self):
        # with n too small for any valid split and the tightest allowed leaf
        # prior, the ensemble cannot chase the extreme responses and the
        # posterior predictions collapse toward the response center
        rng = np.random.default_rng(17)
        X = rng.normal(size=(9, 2))
        y = np.array([0.0] * 5 + [10.0] * 4)
        d = Dataset(X, y, ["a", "b"], REGRESSION)
        scaled, info = standardize(d)
        hp = hp_small(m=10, c=3.0, burn_in=100, post_burn_in=100, n_min=5)
        draws = run_regression(scaled, hp, info)
        yhat = draws.yhat_train.mean(axis=0)
        assert np.all(np.abs(yhat - 5.0) < 2.0)   # nowhere near 0 or 10

    def test_stationarity_band_on_stump_truth(self):
        rng = np.random.default_rng(18)
        n = 500
        X = rng.normal(size=(n, 3))
        y = 2.0 + rng.standard_normal(n)   # single-stump truth, sigma2 = 1
        d = Dataset(X, y, ["a", "b", "c"], REGRESSION)
        scaled, info = standardize(d)
        hp = Hyperparams(m=10, burn_in=300, post_burn_in=400, seed=9)
        draws = run_regression(scaled, hp, info)
        assert 0.7 <= draws.sigma2.mean() <= 1.4

    def test_rejects_wrong_task(self):
        d = Dataset(np.zeros((4, 1)) + np.arange(4)[:, None],
                    np.array([0.0, 1.0, 0.0, 1.0]), ["a"], CLASSIFICATION)
        with pytest.raises(ValueError):
            run_regression(d, hp_small())

    def test_invalid_proposal_keeps_tree_but_redraws_leaves(self):
        # a 6-row stump with n_min=5 admits no valid move of any kind, so
        # every step must leave the structure alone and only redraw the leaf
        from lmbart.data import split_dictionary
        from lmbart.sampler import SamplerState, TreeState, leaf_model, mh_tree_step
        from lmbart.trees import Tree, log_tree_prior, split_cdf

        rng = np.random.default_rng(33)
        X = rng.normal(size=(6, 2))
        d = Dataset(X, rng.normal(size=6), ["a", "b"], REGRESSION)
        sd = split_dictionary(d)
        hp = Hyperparams(m=1, n_min=5, burn_in=1, post_burn_in=1)
        t = Tree()
        ts = TreeState(t, [0.0], {t.root: np.arange(6)}, np.zeros(6),
                       log_tree_prior(t, hp.alpha, hp.beta_depth), rows_by_split={},
                       index=np.zeros(6, dtype=int))
        state = SamplerState(trees=[ts], sigma2=1.0, tau_beta0=1.0,
                             tau_beta=1.0, split_probs=np.full(2, 0.5),
                             total_fit=np.zeros(6), target=d.response.copy(),
                             resid=d.response.copy())
        mus = []
        for _ in range(30):
            kind, outcome = mh_tree_step(state, 0, d.features, sd,
                                         split_cdf(state.split_probs, sd.splittable()), hp,
                                         leaf_model(hp, (1.0, 1.0)), rng)
            assert outcome == "invalid"
            assert state.trees[0].tree.n_leaves() == 1
            mus.append(state.trees[0].leaf_params[0])   # the stump's one mean
        assert len(set(mus)) == len(mus)   # leaf mean redrawn every step
        counts = state.acceptance
        assert sum(rec["invalid"] for rec in counts.values()) == 30

    def test_nan_log_acceptance_ratio_raises(self, monkeypatch):
        # from a stump only a grow can be valid; a NaN marginal must stop the
        # chain at that grow instead of counting it as a rejection
        from lmbart import leaves
        from lmbart.data import split_dictionary
        from lmbart.sampler import SamplerState, TreeState, leaf_model, mh_tree_step
        from lmbart.trees import Tree, log_tree_prior, split_cdf

        monkeypatch.setattr(leaves, "bart_log_marginal",
                            lambda stats, sigma2, sigma_mu2: math.nan)
        rng = np.random.default_rng(34)
        X = rng.normal(size=(20, 2))
        d = Dataset(X, rng.normal(size=20), ["a", "b"], REGRESSION)
        sd = split_dictionary(d)
        hp = Hyperparams(m=2, n_min=1, burn_in=1, post_burn_in=1)
        stumps = [Tree(), Tree()]
        state = SamplerState(
            trees=[TreeState(t, [0.0], {t.root: np.arange(20)}, np.zeros(20),
                             log_tree_prior(t, hp.alpha, hp.beta_depth), rows_by_split={},
                             index=np.zeros(20, dtype=int)) for t in stumps],
            sigma2=1.0, tau_beta0=1.0, tau_beta=1.0, split_probs=np.full(2, 0.5),
            total_fit=np.zeros(20), target=d.response.copy(), resid=d.response.copy())
        with pytest.raises(FloatingPointError, match="tree 1: grow move has a NaN"):
            for _ in range(50):
                mh_tree_step(state, 1, d.features, sd,
                             split_cdf(state.split_probs, sd.splittable()), hp,
                             leaf_model(hp, (1.0, 1.0)), rng)
        assert sum(rec["rejected"] for rec in state.acceptance.values()) == 0

    def test_fixed_precision_records_tau_b(self, tmp_path):
        data = friedman_generate(FriedmanSpec(n=60, p=5, seed=6))
        scaled, info = standardize(data)
        hp = hp_small(m=4, leaf_model="linear", vars_inter_slope=False)
        assert hp.tau_b == 4.0
        draws = run_regression(scaled, hp, info)
        assert np.all(draws.tau_beta0 == hp.tau_b)
        assert np.all(draws.tau_beta == hp.tau_b)
        write_run(draws, tmp_path / "run.draws.jsonl")
        header, records = read_run(tmp_path / "run.draws.jsonl")
        assert header["config"]["tau_b"] == hp.tau_b
        assert all(r["tau_beta0"] == r["tau_beta"] == hp.tau_b for r in records)


REPLAY_CONFIGS = {
    "constant": dict(leaf_model="constant"),
    "linear-tree-splits": dict(leaf_model="linear", covariate_rule="tree-splits"),
    "linear-ancestors": dict(leaf_model="linear", covariate_rule="ancestors"),
    "linear-fixed-precision": dict(leaf_model="linear", vars_inter_slope=False),
}


@pytest.mark.parametrize("config", list(REPLAY_CONFIGS))
def test_stored_trees_replay_the_chain_fit_exactly(config):
    # the stored leaf payloads must evaluate to exactly the fit the chain used
    data = friedman_generate(FriedmanSpec(n=80, p=5, seed=8))
    scaled, info = standardize(data)
    hp = hp_small(store_trees=True, **REPLAY_CONFIGS[config])
    last_fits = []

    def capture(state):
        if state.iteration == hp.burn_in + hp.post_burn_in:
            last_fits.extend(ts.fit.copy() for ts in state.trees)

    draws = run_regression(scaled, hp, info, on_sweep=capture)
    assert len(last_fits) == hp.m
    assert draws.terminal_counts[-1].max() > 1
    for tree_dict, fit in zip(draws.trees[-1], last_fits):
        assert np.array_equal(eval_tree_dict(tree_dict, scaled.features), fit)


STEP_CONFIGS = {
    "constant": dict(leaf_model="constant"),
    "linear-tree-splits": dict(leaf_model="linear", covariate_rule="tree-splits"),
    "linear-ancestors": dict(leaf_model="linear", covariate_rule="ancestors"),
}


def traced_chain(monkeypatch, hp):
    """Run a small chain; record per tree step the tree, its routing, the
    proposal, its outcome and, per stats build, how many stats it built
    rather than took from its `prev`: for linear leaves the stats that are
    no `prev` stat object, for constant leaves the leaves whose sum a second
    build, from the same `prev` with sentinel sums, does not keep.

    Also returns the number of calls of `log_tree_prior` and `build_leaf_design`.
    """
    from lmbart import leaves, sampler, trees

    steps, calls = [], {"log_tree_prior": 0, "build_leaf_design": 0}

    def wrap(owner, name, after):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            after(out)
            return out
        monkeypatch.setattr(owner, name, wrapper)

    def recording_step(state, tree_index, *args):
        ts = state.trees[tree_index]
        steps.append({"index": tree_index, "tree": ts.tree, "rows": ts.rows_by_leaf,
                      "built": []})
        kind, outcome = step(state, tree_index, *args)
        steps[-1]["outcome"] = outcome
        return kind, outcome

    def count(name):
        def after(_):
            calls[name] += 1
        return after

    step = sampler.mh_tree_step
    monkeypatch.setattr(sampler, "mh_tree_step", recording_step)
    wrap(trees, "propose_move", lambda prop: steps[-1].update(proposal=prop))
    build_constant, build_linear = leaves.constant_leaf_stats, leaves.linear_leaf_stats

    def constant_build(rows, resid, index=None, prev=None):
        probe = build_constant(rows, resid, index,
                               None if prev is None else with_sentinel_sums(prev))
        steps[-1]["built"].append(sum(r != SENTINEL_SUM for r in probe.r_sum))
        return build_constant(rows, resid, index, prev)

    def linear_build(rows, features, resid, covs, prev=None):
        out = build_linear(rows, features, resid, covs, prev)
        steps[-1]["built"].append(sum(all(st is not old for old in prev or ()) for st in out))
        return out

    monkeypatch.setattr(leaves, "constant_leaf_stats", constant_build)
    monkeypatch.setattr(leaves, "linear_leaf_stats", linear_build)
    wrap(trees, "log_tree_prior", count("log_tree_prior"))
    wrap(leaves, "build_leaf_design", count("build_leaf_design"))
    data = friedman_generate(FriedmanSpec(n=80, p=5, seed=8))
    scaled, info = standardize(data)
    run_regression(scaled, hp, info)
    return steps, calls


class TestIncrementalTreeStep:
    @pytest.mark.parametrize("config", list(STEP_CONFIGS))
    def test_candidate_builds_stats_only_for_changed_leaves(self, monkeypatch, config):
        from lmbart.trees import ancestor_covariates, split_covariates

        hp = hp_small(**STEP_CONFIGS[config])
        steps, _ = traced_chain(monkeypatch, hp)
        valid = rebuilt_all = 0
        for rec in steps:
            current, prop = rec["tree"], rec["proposal"]
            assert rec["built"][0] == current.n_leaves()
            if not prop.valid:
                assert len(rec["built"]) == 1
                continue
            valid += 1
            cand, affected = prop.tree, changed_leaves(prop.rows_by_leaf, rec["rows"])
            if config == "linear-tree-splits" and split_covariates(cand) != split_covariates(current):
                expected = cand.n_leaves()
                rebuilt_all += 1
            elif config == "linear-ancestors":
                # a re-routed leaf with unchanged rows but a new path is rebuilt too
                expected = len(affected) + sum(
                    ancestor_covariates(cand, leaf) != ancestor_covariates(current, leaf)
                    for leaf in set(cand.leaves()) - affected)
            else:
                expected = len(affected)
            assert rec["built"][1] == expected
        assert valid > 50
        if config == "linear-tree-splits":
            assert 0 < rebuilt_all < valid

    @pytest.mark.parametrize("config", list(STEP_CONFIGS))
    def test_tree_prior_is_computed_once_per_valid_proposal(self, monkeypatch, config):
        from lmbart.trees import log_tree_prior

        hp = hp_small(**STEP_CONFIGS[config])
        checked = []

        def check(state):
            for ts in state.trees:
                assert ts.log_prior == log_tree_prior(ts.tree, hp.alpha, hp.beta_depth)
            checked.append(state.iteration)

        data = friedman_generate(FriedmanSpec(n=80, p=5, seed=8))
        scaled, info = standardize(data)
        run_regression(scaled, hp, info, on_sweep=check)
        assert len(checked) == hp.burn_in + hp.post_burn_in

        steps, calls = traced_chain(monkeypatch, hp)
        # one call for the stumps' shared prior, then one per valid candidate
        assert calls["log_tree_prior"] == 1 + sum(rec["proposal"].valid for rec in steps)

    def test_split_cdf_is_built_once_per_sweep(self, monkeypatch):
        from lmbart import trees

        built, same = [], []
        split_cdf, propose_move = trees.split_cdf, trees.propose_move

        def building(split_probs, splittable):
            built.append(split_cdf(split_probs, splittable))
            return built[-1]

        def proposing(tree, features, split_dict, cdf, *args, **kwargs):
            same.append(cdf is built[-1])
            return propose_move(tree, features, split_dict, cdf, *args, **kwargs)

        monkeypatch.setattr(trees, "split_cdf", building)
        monkeypatch.setattr(trees, "propose_move", proposing)
        hp = hp_small(branching="dirichlet")
        scaled, info = standardize(friedman_generate(FriedmanSpec(n=80, p=5, seed=8)))
        run_regression(scaled, hp, info)
        assert len(built) == hp.burn_in + hp.post_burn_in
        assert len(same) == hp.m * len(built) and all(same)

    def test_linear_fit_reuses_the_stats_design(self, monkeypatch):
        from lmbart.leaves import leaf_covariate_sets

        hp = hp_small(leaf_model="linear")
        steps, calls = traced_chain(monkeypatch, hp)

        def side(tree, rows_by_leaf):
            return rows_by_leaf, leaf_covariate_sets(tree, hp.covariate_rule)

        def differing(now, before):
            """Leaves of `now` whose rows array or covariates differ from `before`'s."""
            (rows, covs), (rows_before, covs_before) = now, before
            return sum(leaf not in rows_before or rows[leaf] is not rows_before[leaf]
                       or covs[leaf] != covs_before[leaf] for leaf in rows)

        # a design for every leaf whose rows or covariates differ from what this
        # tree's previous step kept, and none for the redrawn fit
        kept, expected = {}, 0
        for rec in steps:
            current, prop = side(rec["tree"], rec["rows"]), rec["proposal"]
            expected += differing(current, kept.get(rec["index"], ({}, {})))
            if prop.valid:
                candidate = side(prop.tree, prop.rows_by_leaf)
                expected += differing(candidate, current)
            kept[rec["index"]] = candidate if rec["outcome"] == "accepted" else current
        assert calls["build_leaf_design"] == expected > 0
        assert expected < sum(sum(rec["built"]) for rec in steps) / 2

    @pytest.mark.parametrize("config", ["linear-tree-splits", "linear-ancestors",
                                        "linear-fixed-precision"])
    def test_carried_leaf_algebra_equals_a_fresh_build(self, monkeypatch, config):
        from lmbart import leaves, sampler, trees

        data = friedman_generate(FriedmanSpec(n=80, p=5, seed=8))
        scaled, info = standardize(data)
        X = scaled.features
        hp = hp_small(post_burn_in=100, **REPLAY_CONFIGS[config])
        accepted, carried_over, previous = set(), 0, {}
        step = sampler.mh_tree_step

        def checking_step(state, tree_index, *args):
            nonlocal carried_over
            kind, outcome = step(state, tree_index, *args)
            if outcome == "accepted":
                accepted.add(kind)
            ts = state.trees[tree_index]
            covs = leaves.leaf_covariate_sets(ts.tree, hp.covariate_rule)
            stats = {st.leaf_id: st for st in ts.stats}
            assert sorted(stats) == sorted(ts.rows_by_leaf)
            for leaf, rows in ts.rows_by_leaf.items():
                st = stats[leaf]
                fresh = leaves.build_leaf_design(rows, X, covs[leaf])
                assert st.rows is rows and st.covariates == covs[leaf]
                assert np.array_equal(st.design, fresh)
                assert np.array_equal(st.xtx, fresh.T @ fresh)
            designs = [st.design for st in ts.stats]
            carried_over += sum(any(d is p for p in previous.get(tree_index, ()))
                                for d in designs)
            previous[tree_index] = designs
            return kind, outcome

        monkeypatch.setattr(sampler, "mh_tree_step", checking_step)
        run_regression(scaled, hp, info)
        assert accepted == set(trees.MOVE_KINDS)
        assert carried_over > 0


@pytest.fixture(scope="module")
def class_run():
    rng = np.random.default_rng(19)
    n = 250
    x = rng.uniform(-1.5, 1.5, n)
    y = (rng.uniform(size=n) < norm.cdf(2.0 * x)).astype(float)
    d = Dataset(x[:, None], y, ["x1"], CLASSIFICATION)
    scaled, info = standardize(d, scale_response=False)
    hp = Hyperparams(m=5, burn_in=80, post_burn_in=120, seed=21,
                     leaf_model="linear")
    return x, y, run_classification(scaled, hp, info)


class TestRunClassification:
    def test_sigma2_fixed_at_one(self, class_run):
        _, _, draws = class_run
        assert np.all(draws.sigma2 == 1.0)
        assert np.all(draws.sigma2_chain == 1.0)

    def test_probabilities_in_unit_interval(self, class_run):
        _, _, draws = class_run
        assert draws.yhat_train.min() > 0.0
        assert draws.yhat_train.max() < 1.0

    def test_balanced_noise_centers_on_half(self):
        rng = np.random.default_rng(20)
        n = 200
        X = rng.normal(size=(n, 2))
        y = (rng.uniform(size=n) < 0.5).astype(float)
        d = Dataset(X, y, ["a", "b"], CLASSIFICATION)
        scaled, info = standardize(d, scale_response=False)
        draws = run_classification(scaled, hp_small(burn_in=50, post_burn_in=50), info)
        assert abs(draws.yhat_train.mean() - 0.5) < 0.1

    def test_rejects_wrong_task(self):
        d = Dataset(np.arange(4.0)[:, None], np.arange(4.0), ["a"], REGRESSION)
        with pytest.raises(ValueError):
            run_classification(d, hp_small())


def stump_draws(tree_dicts_per_iter, task=REGRESSION, p=1,
                scaling=None) -> PosteriorDraws:
    """Hand-built PosteriorDraws wrapping explicit serialized trees."""
    k = len(tree_dicts_per_iter)
    m = len(tree_dicts_per_iter[0])
    hp = Hyperparams(m=m, burn_in=1, post_burn_in=k, store_trees=True)
    return PosteriorDraws(
        task=task, hyperparams=hp,
        scaling=scaling if scaling is not None else ScalingInfo.identity(p),
        feature_names=[f"x{j + 1}" for j in range(p)], lam=1.0,
        iterations=np.arange(1, k + 1), sigma2=np.ones(k),
        tau_beta0=None, tau_beta=None, yhat_train=np.zeros((k, 1)),
        terminal_counts=np.ones((k, m), dtype=int),
        param_counts=np.ones((k, m), dtype=int),
        acceptance={}, sigma2_chain=np.ones(k + 1),
        trees=tree_dicts_per_iter,
    )


class TestPredict:
    def test_constant_stump_predicts_mu_everywhere(self):
        draws = stump_draws([[{"kind": "leaf", "mu": 3.0}]])
        res = predict(draws, np.array([[0.0], [5.0], [-2.0]]))
        assert_allclose(res.mean, 3.0)
        assert_allclose(res.lower, 3.0)
        assert_allclose(res.upper, 3.0)

    def test_linear_stump_reproduces_standardized_covariate(self):
        draws = stump_draws([[{"kind": "leaf", "beta": [0.0, 1.0],
                               "covariates": [0]}]])
        X = np.array([[0.3], [-1.2], [4.0]])
        res = predict(draws, X)
        assert_allclose(res.mean, X[:, 0])   # identity scaling

    def test_response_scaling_inverted(self):
        scaling = ScalingInfo(np.zeros(1), np.ones(1), 5.0, 10.0, True)
        draws = stump_draws([[{"kind": "leaf", "mu": 0.5}]], scaling=scaling)
        res = predict(draws, np.array([[1.0]]))
        assert_allclose(res.mean, 10.0)   # 0.5 * 10 + 5

    def test_classification_returns_probability(self):
        draws = stump_draws([[{"kind": "leaf", "mu": 0.0}]], task=CLASSIFICATION)
        res = predict(draws, np.array([[1.0], [2.0]]))
        assert_allclose(res.mean, 0.5)

    def test_column_count_mismatch(self):
        draws = stump_draws([[{"kind": "leaf", "mu": 0.0}]])
        with pytest.raises(ValueError, match="feature columns"):
            predict(draws, np.zeros((3, 2)))

    def test_missing_trees(self):
        draws = stump_draws([[{"kind": "leaf", "mu": 0.0}]])
        draws.trees = None
        with pytest.raises(ValueError, match="store_trees"):
            predict(draws, np.zeros((3, 1)))

    def test_replay_matches_training_record(self):
        data = friedman_generate(FriedmanSpec(n=100, p=5, seed=8))
        scaled, info = standardize(data)
        hp = hp_small(leaf_model="linear", store_trees=True,
                      burn_in=20, post_burn_in=30)
        draws = run_regression(scaled, hp, info)
        res = predict(draws, data.features)
        assert np.abs(res.draws - draws.yhat_train).max() < 1e-8


@st.composite
def degenerate_problems(draw):
    """A tiny data set with constant or duplicated columns, and a chain config.

    n runs from 2 to 12 and may be at or below `n_min`; a duplicated column
    makes linear leaf designs collinear; a probit set may hold one class.
    """
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("random", "constant", "duplicate")))
        if kind == "constant":
            columns.append(np.full(n, rng.normal()))
        elif kind == "duplicate" and columns:
            columns.append(columns[-1].copy())
        else:
            columns.append(rng.normal(size=n))
    X = np.column_stack(columns)
    task = draw(st.sampled_from((REGRESSION, CLASSIFICATION)))
    if task == CLASSIFICATION and draw(st.booleans()):
        y = np.full(n, float(draw(st.integers(0, 1))))
    elif task == CLASSIFICATION:
        y = (rng.uniform(size=n) < 0.5).astype(float)
    else:
        y = rng.normal(size=n)
    hp = Hyperparams(m=draw(st.integers(1, 3)), burn_in=5, post_burn_in=10,
                     leaf_model=draw(st.sampled_from(("constant", "linear"))),
                     covariate_rule=draw(st.sampled_from(("tree-splits", "ancestors"))),
                     n_min=draw(st.integers(1, 13)), seed=draw(st.integers(0, 99)),
                     store_trees=True)
    return Dataset(X, y, [f"x{j}" for j in range(X.shape[1])], task), hp


@settings(max_examples=150, deadline=None)
@given(degenerate_problems())
def test_degenerate_inputs_run_and_predict(problem):
    data, hp = problem
    scaled, info = standardize(data)
    run = run_classification if data.task == CLASSIFICATION else run_regression
    draws = run(scaled, hp, info)
    result = predict(draws, data.features)
    assert sum(sum(rec.values()) for rec in draws.acceptance.values()) == \
        hp.m * (hp.burn_in + hp.post_burn_in)
    assert np.all(np.isfinite(draws.sigma2)) and np.all(draws.sigma2 > 0)
    for values in (draws.yhat_train, result.draws, result.mean):
        assert np.all(np.isfinite(values))
        if data.task == CLASSIFICATION:
            assert np.all((values >= 0.0) & (values <= 1.0))


class TestHyperparams:
    def test_defaults_resolve_per_leaf_model(self):
        hp_lin = Hyperparams(leaf_model="linear")
        assert hp_lin.branching == "dirichlet"
        assert hp_lin.vars_inter_slope
        hp_con = Hyperparams(leaf_model="constant")
        assert hp_con.branching == "uniform"
        assert not hp_con.vars_inter_slope
        assert hp_con.tau_b == float(hp_con.m)

    def test_sigma_mu2(self):
        hp = Hyperparams(m=10, c=2.0)
        assert_allclose(hp.sigma_mu2, (0.5 / (2.0 * math.sqrt(10))) ** 2)

    def test_round_trip(self):
        hp = Hyperparams(m=7, leaf_model="linear", seed=5, lam=0.3)
        assert Hyperparams.from_dict(hp.to_dict()) == hp

    def test_from_dict_names_every_unknown_key(self):
        d = {**Hyperparams().to_dict(), "proposal_correction": True, "bogus": 1}
        with pytest.raises(ValueError, match=r"unknown hyperparameter\(s\): "
                                             r"bogus, proposal_correction$"):
            Hyperparams.from_dict(d)

    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(alpha=1.5)
        with pytest.raises(ValueError):
            Hyperparams(c=5.0)
        with pytest.raises(ValueError):
            Hyperparams(leaf_model="cubic")

    def test_post_burn_in_must_keep_a_draw(self):
        with pytest.raises(ValueError, match="post_burn_in=5 keeps no draw at thin=10"):
            Hyperparams(post_burn_in=5, thin=10)
        assert Hyperparams(post_burn_in=10, thin=10).thin == 10

    def test_vars_inter_slope_needs_linear_leaves(self):
        with pytest.raises(ValueError, match="vars_inter_slope.*leaf_model"):
            Hyperparams(leaf_model="constant", vars_inter_slope=True)

    @pytest.mark.parametrize("name, value, message", [
        ("m", "3", "m must be an integer, got '3'"),
        ("m", 2.5, "m must be an integer, got 2.5"),
        ("m", True, "m must be an integer, got True"),
        ("vars_inter_slope", "false", "vars_inter_slope must be a bool, got 'false'"),
        ("store_trees", 1, "store_trees must be a bool, got 1"),
        ("leaf_model", 1, "leaf_model must be a string, got 1"),
        ("nu", math.nan, "nu must be a finite real, got nan"),
        ("nu", math.inf, "nu must be a finite real, got inf"),
        ("lam", math.nan, "lam must be a finite real, got nan"),
        ("beta_depth", math.nan, "beta_depth must be a finite real, got nan"),
        ("alpha", True, "alpha must be a finite real, got True"),
        ("tau_b", math.nan, "tau_b must be a finite real, got nan"),
        ("a0", math.nan, "a0 must be a finite real, got nan"),
        ("dirichlet_mass", math.nan, "dirichlet_mass must be a finite real, got nan"),
        # an int past the float range overflows math.isfinite
        pytest.param("lam", 10**400, f"lam must be a finite real, got {10**400!r}",
                     id="lam-huge-int"),
        pytest.param("nu", -10**400, f"nu must be a finite real, got {-10**400!r}",
                     id="nu-huge-negative-int"),
        ("seed", -1, "seed must be >= 0, got -1"),
    ])
    def test_wrong_type_or_value_is_named(self, name, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Hyperparams.from_dict({name: value})

    def test_numpy_scalars_are_accepted(self):
        hp = Hyperparams(m=np.int64(3), seed=np.uint32(5), alpha=np.float64(0.9), nu=3)
        assert (hp.m, hp.seed, hp.alpha, hp.nu) == (3, 5, 0.9, 3)


class TestWithoutScipyStats:
    def test_importing_the_package_leaves_scipy_stats_unloaded(self):
        src = str(Path(lmbart.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import lmbart; "
                "print('scipy.stats' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.0, 3.0, 5.0, 7.3, 10.0])
    def test_calibrate_lambda_is_the_chi2_quantile(self, nu):
        y = np.array([0.3, -1.2, 2.5, 0.7, -0.4])
        s2 = float(np.var(y, ddof=1))
        for q in (0.75, 0.9, 0.99):
            assert calibrate_lambda(y, nu, q) == chi2.ppf(1.0 - q, nu) * s2 / nu

    def test_ndtr_is_the_normal_cdf(self):
        x = np.linspace(-40.0, 40.0, 20001)
        assert np.array_equal(ndtr(x), norm.cdf(x))


class TestReadDraws:
    def test_truncated_last_line_names_file_and_line(self, tmp_path):
        data = friedman_generate(FriedmanSpec(n=40, p=5, seed=6))
        scaled, info = standardize(data)
        draws = run_regression(scaled, hp_small(m=3, burn_in=5, post_burn_in=4,
                                                store_trees=True), info)
        path = tmp_path / "run.draws.jsonl"
        write_run(draws, path)
        assert len(read_run(path)[1]) == 4
        text = path.read_text(encoding="utf-8")
        path.write_text(text[:len(text) - len(text.splitlines()[-1]) // 2 - 1],
                        encoding="utf-8")
        # line 1 is the header, so the fourth draw is on line 5
        with pytest.raises(ValueError, match=r"draws\.jsonl: line 5 is not valid JSON"):
            read_run(path)

    def test_read_run_returns_the_written_run(self, tmp_path):
        data = friedman_generate(FriedmanSpec(n=50, p=5, seed=2))
        scaled, info = standardize(data)
        draws = run_regression(scaled, hp_small(m=3, burn_in=6, post_burn_in=8,
                                                leaf_model="linear", store_trees=True),
                               info)
        path = tmp_path / "run.draws.jsonl"
        write_run(draws, path)
        header, records = read_run(path)
        assert header["config"] == draws.hyperparams.to_dict()
        assert header["scaling"].to_dict() == draws.scaling.to_dict()   # built by read_run
        assert header["acceptance"] == draws.acceptance
        assert header["retained"] == draws.retained == len(records)
        assert np.array_equal(header["sigma2_chain"], draws.sigma2_chain)
        for k, record in enumerate(records):
            assert record["iteration"] == draws.iterations[k]
            assert record["sigma2"] == draws.sigma2[k]
            assert record["tau_beta0"] == draws.tau_beta0[k]
            assert record["tau_beta"] == draws.tau_beta[k]
            assert record["terminal_counts"] == draws.terminal_counts[k].tolist()
            assert record["param_counts"] == draws.param_counts[k].tolist()
            assert record["trees"] == draws.trees[k]

    def test_stored_trees_are_checked_once_per_file(self, tmp_path):
        data = friedman_generate(FriedmanSpec(n=40, p=5, seed=6))
        scaled, info = standardize(data)
        draws = run_regression(scaled, hp_small(m=2, burn_in=3, post_burn_in=3,
                                                store_trees=True), info)
        path = tmp_path / "run.draws.jsonl"

        def rewrite(k, record):
            write_run(draws, path)
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            lines[k + 1] = json.dumps(record) + "\n"
            path.write_text("".join(lines), encoding="utf-8")

        # a linear leaf among constant ones, named by the first tree's leaf model
        linear_tree = {"kind": "leaf", "beta": [0.5], "covariates": []}
        rewrite(2, {"iteration": 6, "trees": [draws.trees[2][0], linear_tree]})
        with pytest.raises(ValueError, match=r"draws\.jsonl: draw 2, tree 1: linear leaf "
                                             "among stored trees whose leaves are constant"):
            read_run(path)
        rewrite(1, [1.0])
        with pytest.raises(ValueError, match=r"draws\.jsonl: draw 1 is not an object "
                                             "with a list of trees"):
            read_run(path)
