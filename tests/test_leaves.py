import json
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from lmbart import leaves
from lmbart.benchmark import FriedmanSpec, friedman_generate
from lmbart.data import standardize
from lmbart.leaves import (ANCESTORS, CONSTANT, LINEAR, TREE_SPLITS,
                           ConstantLeaves, ConstantStats, LeafFactorizationError,
                           LeafPrior, LeafStats, LinearLeaves, bart_log_marginal,
                           bart_sample_mu, build_leaf_design, constant_leaf_stats,
                           leaf_covariate_sets, leaf_parameter_count,
                           linear_leaf_stats, linear_log_marginal,
                           linear_sample_beta)
from lmbart.sampler import Hyperparams, run_regression
from lmbart.trees import Tree, ancestor_covariates
from oracles import (SENTINEL_SUM, bart_marginal_restore_constants,
                     linear_marginal_restore_constants, quad_constant_leaf,
                     quad_linear_leaf, subtree_leaves, with_sentinel_sums)


def constant_stats(*resids):
    """Constant stats of one leaf per residual vector, leaf ids 0, 1, ..."""
    resids = [np.asarray(r, dtype=float) for r in resids]
    k = len(resids)
    return ConstantStats(list(range(k)), [None] * k, [r.size for r in resids],
                         [float(r.sum()) for r in resids], None)


def repeated_constant_stats(k, n, r_sum):
    """Constant stats of k leaves, each of n rows with residual sum r_sum."""
    return ConstantStats(list(range(k)), [None] * k, [n] * k, [r_sum] * k, None)


def stats_from_resid(r, X, v_diag=None):
    r = np.asarray(r, dtype=float)
    return LeafStats(0, r.size, float(r @ r), xtx=X.T @ X, xtr=X.T @ r,
                     prior=None if v_diag is None else LeafPrior(v_diag))


class TestBartLogMarginal:
    def test_single_observation_zero_residual(self):
        got = bart_log_marginal(constant_stats([0.0]), 1.0, 1.0)
        assert_allclose(got, 0.5 * math.log(0.5), rtol=1e-12)
        assert_allclose(got, -0.346574, atol=1e-6)

    def test_two_observations(self):
        got = bart_log_marginal(constant_stats([2.0, 2.0]), 1.0, 1.0)
        assert_allclose(got, 0.5 * math.log(1 / 3) + 16.0 / 6.0, rtol=1e-12)
        assert_allclose(got, 2.117361, atol=1e-6)

    def test_against_quadrature(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            r = rng.normal(0, 2, n)
            sigma2 = rng.uniform(0.3, 2.0)
            sigma_mu2 = rng.uniform(0.3, 2.0)
            impl = bart_log_marginal(constant_stats(r), sigma2, sigma_mu2)
            log_true = bart_marginal_restore_constants(impl, r, sigma2)
            oracle = quad_constant_leaf(r, sigma2, sigma_mu2)
            assert_allclose(math.exp(log_true), oracle, rtol=1e-6)

    def test_split_preserves_exponent_with_dominant_prior(self):
        # two half-leaves with identical means carry the same exponent mass
        # as the merged leaf once n*sigma_mu2 >> sigma2
        r = np.array([1.0, 3.0, 2.0, 2.0, 1.5, 2.5])
        sigma2 = 1.0
        sigma_mu2 = 1e8
        merged = bart_log_marginal(constant_stats(r), sigma2, sigma_mu2)
        halves = bart_log_marginal(constant_stats(r[:3], r[3:]), sigma2, sigma_mu2)

        def exponent(stats):
            return sum(sigma_mu2 * r_sum ** 2
                       / (2 * sigma2 * (sigma_mu2 * n + sigma2))
                       for n, r_sum in zip(stats.n, stats.r_sum))

        exp_merged = exponent(constant_stats(r))
        exp_halves = exponent(constant_stats(r[:3], r[3:]))
        assert_allclose(exp_merged, exp_halves, rtol=1e-6)
        # quadrature agrees on both sides too
        for impl, grouping in ((merged, [r]), (halves, [r[:3], r[3:]])):
            log_true = sum(math.log(quad_constant_leaf(g, sigma2, sigma_mu2))
                           for g in grouping)
            restored = impl - 0.5 * r.size * math.log(2 * math.pi * sigma2) \
                - float(r @ r) / (2 * sigma2)
            assert_allclose(restored, log_true, rtol=1e-6)

    def test_rejects_bad_sigma2(self):
        with pytest.raises(ValueError):
            bart_log_marginal(constant_stats([1.0]), 0.0, 1.0)


class TestBartSampleMu:
    def test_posterior_n1(self):
        rng = np.random.default_rng(0)
        stats = repeated_constant_stats(20_000, 1, 2.0)
        draws = np.array(bart_sample_mu(stats, 1.0, 1.0, rng))
        assert_allclose(draws.mean(), 1.0, atol=4 * math.sqrt(0.5 / draws.size))
        assert_allclose(draws.var(), 0.5, rtol=0.05)

    def test_posterior_n2(self):
        rng = np.random.default_rng(1)
        stats = repeated_constant_stats(20_000, 2, 4.0)
        draws = np.array(bart_sample_mu(stats, 1.0, 1.0, rng))
        assert_allclose(draws.mean(), 4.0 / 3.0, atol=4 * math.sqrt(draws.var() / draws.size))
        assert_allclose(draws.var(), 1.0 / 3.0, rtol=0.05)

    def test_flat_prior_limit_recovers_sample_mean(self):
        rng = np.random.default_rng(2)
        stats = repeated_constant_stats(1, 4, 10.0)
        draws = [bart_sample_mu(stats, 1.0, 1e12, rng)[0] for _ in range(4000)]
        assert_allclose(np.mean(draws), 2.5, atol=0.05)


def test_mean_draw_matches_per_leaf_normal_draw_for_draw():
    # bart_sample_mu draws every leaf's z from one standard_normal call; it
    # must give the values of one rng.normal(mean, sd) per leaf and leave the
    # generator where those calls leave it
    setup = np.random.default_rng(2718)
    sizes = set()
    for seed in range(1200):
        k = int(setup.integers(1, 13))
        n = setup.integers(1, 5001, size=k).tolist()
        r_sum = (setup.normal(0, 2, k) * np.sqrt(n)).tolist()
        sigma2 = float(10.0 ** setup.uniform(-4, 3))
        sigma_mu2 = float(10.0 ** setup.uniform(-5, 2))
        sizes.add(k)
        leaf_ids = sorted(setup.choice(60, size=k, replace=False).tolist())
        stats = ConstantStats(leaf_ids, [None] * k, n, r_sum, None)
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = []
        for n_leaf, r_leaf in zip(n, r_sum):
            prec = n_leaf / sigma2 + 1.0 / sigma_mu2
            expected.append(float(ref.normal((r_leaf / sigma2) / prec, math.sqrt(1.0 / prec))))
        assert bart_sample_mu(stats, sigma2, sigma_mu2, ours) == expected
        assert ours.bit_generator.state == ref.bit_generator.state
    assert sizes == set(range(1, 13))


def test_coefficient_draw_matches_per_leaf_normal_draw_for_draw():
    # linear_sample_beta draws every leaf's z from one standard_normal call; it
    # must give the values of one standard_normal(q) call per leaf and leave
    # the generator where those calls leave it
    setup = np.random.default_rng(3141)
    sizes = set()
    for seed in range(300):
        stats = []
        for leaf in sorted(setup.choice(60, size=int(setup.integers(1, 8)),
                                        replace=False).tolist()):
            q = int(setup.integers(1, 6))
            n = int(setup.integers(1, 40))
            X = np.column_stack([np.ones(n), setup.normal(size=(n, q - 1))])
            st = stats_from_resid(setup.normal(0, 2, n), X, setup.uniform(0.2, 3.0, q))
            st.leaf_id = leaf
            stats.append(st)
            sizes.add(q)
        sigma2 = float(10.0 ** setup.uniform(-3, 2))
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = {}
        for st in stats:
            L, mu = st.posterior
            z = ref.standard_normal(st.q)
            expected[st.leaf_id] = mu + math.sqrt(sigma2) * scipy.linalg.solve_triangular(
                L, z, lower=True, trans="T")
        got = linear_sample_beta(stats, sigma2, ours)
        assert list(got) == list(expected)
        assert all(np.array_equal(got[leaf], expected[leaf]) for leaf in expected)
        assert ours.bit_generator.state == ref.bit_generator.state
    assert sizes == set(range(1, 6))


class TestBuildLeafDesign:
    def test_single_covariate(self):
        features = np.arange(12.0).reshape(4, 3)
        X = build_leaf_design(np.array([0, 2, 3]), features, [2])
        assert X.shape == (3, 2)
        assert_allclose(X[:, 0], 1.0)
        assert_allclose(X[:, 1], features[[0, 2, 3], 2])

    def test_empty_covariate_set_gives_intercept_only(self):
        X = build_leaf_design(np.arange(5), np.zeros((5, 2)), [])
        assert X.shape == (5, 1)
        assert_allclose(X, 1.0)

    def test_ordering_convention(self):
        features = np.array([[10.0, 1.0, 20.0, 3.0]])
        X = build_leaf_design(np.array([0]), features, [1, 3])
        assert_allclose(X[0], [1.0, 1.0, 3.0])


class TestLinearLogMarginal:
    def test_intercept_only_single_row(self):
        X = np.ones((1, 1))
        st = stats_from_resid([2.0], X, np.array([1.0]))
        got = linear_log_marginal([st], 1.0)
        assert_allclose(got, 0.5 * math.log(0.5) - 1.0, rtol=1e-12)
        assert_allclose(got, -1.346574, atol=1e-6)

    def test_tight_prior_limit_pins_beta_at_zero(self):
        r = np.array([1.0, -2.0, 0.5])
        X = np.ones((3, 1))
        st = stats_from_resid(r, X, np.array([1e-14]))
        sigma2 = 1.7
        got = linear_log_marginal([st], sigma2)
        expected = -float(r @ r) / (2 * sigma2) - 1.5 * math.log(sigma2)
        assert_allclose(got, expected, rtol=1e-6)

    def test_against_quadrature(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            n = int(rng.integers(1, 4))
            q = 1 + trial % 2
            cols = [np.ones(n)] + [rng.normal(0, 1, n) for _ in range(q - 1)]
            X = np.column_stack(cols)
            r = rng.normal(0, 2, n)
            sigma2 = rng.uniform(0.3, 2.0)
            v = rng.uniform(0.3, 2.0, q)
            impl = linear_log_marginal([stats_from_resid(r, X, v)], sigma2)
            log_true = linear_marginal_restore_constants(impl, n)
            oracle = quad_linear_leaf(X, r, sigma2, v)
            assert_allclose(math.exp(log_true), oracle, rtol=1e-6)

    def test_intercept_only_reduction_to_constant_model(self):
        # With sigma_mu2 = sigma2 * v the two marginal forms describe the
        # same integral; they differ only by the data-only factors each one
        # drops, namely (n/2) log sigma2 + r'r/(2 sigma2).
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            r = rng.normal(0, 2, n)
            sigma2 = rng.uniform(0.2, 3.0)
            v = rng.uniform(0.2, 3.0)
            st_lin = stats_from_resid(r, np.ones((n, 1)), np.array([v]))
            lin = linear_log_marginal([st_lin], sigma2)
            con = bart_log_marginal(constant_stats(r), sigma2, sigma2 * v)
            offset = -0.5 * n * math.log(sigma2) - float(r @ r) / (2 * sigma2)
            assert_allclose(lin, con + offset, rtol=0, atol=1e-10 * max(1, abs(lin)))

    def test_factorization_error_carries_leaf_id(self):
        st = LeafStats(17, 1, 1.0, xtx=np.array([[-1e12]]),
                       xtr=np.array([1.0]), prior=LeafPrior(np.array([1.0])))
        with pytest.raises(LeafFactorizationError) as err:
            linear_log_marginal([st], 1.0)
        assert err.value.leaf_id == 17


class TestLinearSampleBeta:
    def test_scalar_case(self):
        rng = np.random.default_rng(3)
        X = np.ones((1, 1))
        stats = [stats_from_resid([2.0], X, np.array([1.0]))]
        stats[0].leaf_id = 0
        draws = np.array([linear_sample_beta(stats, 1.0, rng)[0][0]
                          for _ in range(20_000)])
        assert_allclose(draws.mean(), 1.0, atol=4 * math.sqrt(0.5 / draws.size))
        assert_allclose(draws.var(), 0.5, rtol=0.05)

    def test_two_dimensional_case(self):
        rng = np.random.default_rng(4)
        X = np.array([[1.0, 1.0], [1.0, -1.0]])
        r = np.array([2.0, 0.0])
        stats = [stats_from_resid(r, X, np.ones(2))]
        draws = np.array([linear_sample_beta(stats, 1.0, rng)[0]
                          for _ in range(20_000)])
        se = 4 * math.sqrt((1 / 3) / draws.shape[0])
        assert_allclose(draws.mean(axis=0), [2 / 3, 2 / 3], atol=se)
        assert_allclose(draws.var(axis=0), [1 / 3, 1 / 3], rtol=0.05)
        assert abs(np.corrcoef(draws.T)[0, 1]) < 0.05

    def test_flat_prior_limit_recovers_least_squares(self):
        rng = np.random.default_rng(5)
        gen = np.random.default_rng(99)
        X = np.column_stack([np.ones(40), gen.normal(0, 1, 40)])
        beta_true = np.array([1.5, -2.0])
        r = X @ beta_true + 0.01 * gen.standard_normal(40)
        ols = np.linalg.lstsq(X, r, rcond=None)[0]
        stats = [stats_from_resid(r, X, np.full(2, 1e10))]
        draws = np.array([linear_sample_beta(stats, 1.0, rng)[0]
                          for _ in range(2000)])
        assert_allclose(draws.mean(axis=0), ols, atol=0.02)


class TestDirectLapack:
    """The leaf algebra calls LAPACK directly and must match scipy.linalg bit for bit."""

    @pytest.mark.parametrize("q", range(1, 7))
    def test_matches_scipy_wrappers_exactly(self, q):
        rng = np.random.default_rng(40 + q)
        for _ in range(200):
            n = int(rng.integers(1, 3 * q + 2))
            X = np.column_stack([np.ones(n)] + [rng.normal(0, 1, n) for _ in range(q - 1)])
            r = rng.normal(0, 2, n)
            st = stats_from_resid(r, X, rng.uniform(0.05, 20.0, q))
            sigma2 = rng.uniform(0.2, 3.0)
            A = st.xtx + np.diag(1.0 / st.prior.v_diag)
            L_ref = scipy.linalg.cholesky(A, lower=True)
            L, mean = st.posterior
            assert np.array_equal(leaves.cholesky(A), L_ref)
            assert np.array_equal(L, L_ref)
            assert np.array_equal(mean, scipy.linalg.cho_solve((L_ref, True), st.xtr))
            seed = int(rng.integers(2**32))
            beta = linear_sample_beta([st], sigma2, np.random.default_rng(seed))[0]
            z = np.random.default_rng(seed).standard_normal(q)
            ref = mean + math.sqrt(sigma2) * scipy.linalg.solve_triangular(
                L_ref.T, z, lower=False)
            assert np.array_equal(beta, ref)

    @pytest.mark.parametrize("q", range(1, 7))
    def test_float_arithmetic_matches_the_numpy_reference(self, q):
        # the marginal terms and the draw's coefficients are worked on Python
        # floats: the terms agree with numpy's to rounding, the draw bit for bit
        rng = np.random.default_rng(70 + q)
        for _ in range(200):
            n = int(rng.integers(1, 3 * q + 2))
            X = np.column_stack([np.ones(n), rng.normal(0, 1, (n, q - 1))])
            r = rng.normal(0, 2, n)
            st = stats_from_resid(r, X, rng.uniform(0.05, 20.0, q))
            L, mu = st.posterior
            log_dets, rss = st.marginal_terms
            half_log_v = -0.5 * np.log(st.prior.v_diag).sum()
            log_diag = np.log(L.diagonal()).sum()
            # each term is compared on the scale of the two parts it subtracts
            assert_allclose(log_dets, half_log_v - log_diag, rtol=1e-12,
                            atol=1e-12 * (abs(half_log_v) + abs(log_diag)))
            assert_allclose(rss, r @ r - st.xtr @ mu, rtol=1e-12, atol=1e-12 * (r @ r))
            sigma2 = rng.uniform(0.2, 3.0)
            seed = int(rng.integers(2**32))
            beta = linear_sample_beta([st], sigma2, np.random.default_rng(seed))[0]
            z = np.random.default_rng(seed).standard_normal(q)
            ref = mu + math.sqrt(sigma2) * scipy.linalg.solve_triangular(L, z, trans="T",
                                                                         lower=True)
            assert type(beta) is list and all(type(b) is float for b in beta)
            assert np.array_equal(beta, ref)

    @pytest.mark.parametrize("field", ["xtx", "xtr"])
    def test_non_finite_statistics_raise_value_error(self, field):
        X = np.column_stack([np.ones(4), np.arange(4.0)])
        st = stats_from_resid([1.0, 0.5, -1.0, 2.0], X, np.ones(2))
        bad = getattr(st, field).copy()
        bad.flat[0] = np.nan if field == "xtx" else np.inf
        setattr(st, field, bad)
        with pytest.raises(ValueError, match="infs or NaNs"):
            linear_log_marginal([st], 1.0)


class TestConstantLeafStatsByIndex:
    @staticmethod
    def routing(rng, n, leaf_ids):
        """A random partition of n rows over `leaf_ids`, and its row -> leaf index."""
        index = rng.choice(np.asarray(leaf_ids), size=n)
        return {leaf: np.flatnonzero(index == leaf) for leaf in leaf_ids}, index

    # ids at or above the leaf count, as a tree that grew and pruned has them
    @pytest.mark.parametrize("leaf_ids", [[0], [1, 2], [3, 9, 14], [4, 17, 18, 40, 41]])
    def test_sums_match_per_leaf_sums(self, leaf_ids):
        rng = np.random.default_rng(len(leaf_ids))
        rows, index = self.routing(rng, 5000, leaf_ids)
        resid = rng.normal(0, 3, 5000)
        by_index = constant_leaf_stats(rows, resid, index)
        by_leaf = constant_leaf_stats(rows, resid)
        assert by_index.leaves == by_leaf.leaves == leaf_ids
        assert by_index.resid is by_leaf.resid is resid
        for leaf, n, r, ref_n, ref_r, r_sum in zip(leaf_ids, by_index.n, by_index.rows,
                                                   by_leaf.n, by_leaf.rows, by_index.r_sum):
            assert (n, r) == (ref_n, ref_r)
            assert n == rows[leaf].size
            assert_allclose(r_sum, resid[rows[leaf]].sum(), rtol=1e-12,
                            atol=1e-12 * np.abs(resid).sum())

    def test_a_subset_of_the_routing_takes_its_sums_from_the_whole_index(self):
        rng = np.random.default_rng(11)
        rows, index = self.routing(rng, 300, [5, 6, 12])
        resid = rng.normal(size=300)
        got = constant_leaf_stats({12: rows[12], 5: rows[5]}, resid, index)
        assert got.leaves == [5, 12]
        for leaf, r_sum in zip(got.leaves, got.r_sum):
            assert_allclose(r_sum, resid[rows[leaf]].sum(), rtol=1e-12)
        assert len(constant_leaf_stats({}, resid, index)) == 0

    def test_the_constant_model_passes_the_index_through(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(60, 3))
        t = TestLeafModels.grown_tree()
        rows = t.leaf_rows(X)
        index = np.empty(60, dtype=np.intp)
        for leaf, r in rows.items():
            index[r] = leaf
        model = ConstantLeaves(0.1)
        resid = rng.normal(size=60)
        # sums over a shuffled index are not the leaves' own sums: they show
        # that the model summed over the index it was given
        shuffled = rng.permutation(index)
        stats = model.stats(t, rows, X, resid, index=shuffled)
        assert stats.r_sum == np.bincount(shuffled, resid).take(stats.leaves).tolist()
        assert stats.r_sum != constant_leaf_stats(rows, resid).r_sum
        stats = model.stats(t, rows, X, resid, index=index)
        assert len(stats) == t.n_leaves()
        fit = model.fit(model.draw(stats, 1.0, rng), stats, index)
        for leaf_rows in stats.rows:
            assert np.unique(fit[leaf_rows]).size == 1


class TestFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(1,), (5,), (3, 3)])
    def test_raises_on_any_non_finite_entry(self, bad, shape):
        for position in range(math.prod(shape)):
            a = np.ones(shape)
            a.flat[position] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                leaves._finite(a)

    def test_raises_when_infinities_of_both_signs_meet(self):
        # their sum is NaN, which must raise the ValueError and no warning
        with pytest.raises(ValueError, match="infs or NaNs"), warnings.catch_warnings():
            warnings.simplefilter("error")
            leaves._finite(np.array([np.inf, 1.0, -np.inf]))

    def test_returns_a_finite_array_itself(self):
        a = np.array([[1e300, -1e300], [2.0, 0.0]])
        assert leaves._finite(a) is a


class TestFactorOnce:
    @pytest.fixture
    def factor_calls(self, monkeypatch):
        calls = []
        original = leaves.cholesky

        def counting(A, *args, **kwargs):
            calls.append(A.shape[0])
            return original(A, *args, **kwargs)

        monkeypatch.setattr(leaves, "cholesky", counting)
        return calls

    def test_marginal_then_draw_factors_each_leaf_once(self, factor_calls):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(50, 3))
        t = TestLeafModels.grown_tree()
        stats = LinearLeaves(TREE_SPLITS, (1.0, 2.0)).stats(t, t.leaf_rows(X), X,
                                                            rng.normal(size=50))
        linear_log_marginal(stats, 0.8)
        linear_sample_beta(stats, 0.8, rng)
        assert len(factor_calls) == len(stats) == 3

    @pytest.mark.parametrize("rule", [TREE_SPLITS, ANCESTORS])
    def test_chain_factors_each_leaf_once(self, factor_calls, monkeypatch, rule):
        built = []
        original = leaves.linear_leaf_stats

        def counting(rows, features, resid, covs, prev=None):
            stats = original(rows, features, resid, covs, prev)
            # the stats this build made, not taken from `prev`
            built.append(sum(all(st is not old for old in prev or ()) for st in stats))
            return stats

        monkeypatch.setattr(leaves, "linear_leaf_stats", counting)
        scaled, info = standardize(friedman_generate(FriedmanSpec(n=100, p=5, seed=3)))
        hp = Hyperparams(m=3, burn_in=10, post_burn_in=10, seed=4,
                         leaf_model=LINEAR, covariate_rule=rule)
        run_regression(scaled, hp, info)
        assert len(factor_calls) == sum(built) > 60


class TestMhRatioSufficiency:
    def _two_trees(self):
        """base tree and the same tree grown in one subtree"""
        base = Tree()
        l0, r0 = base.grow(base.root, 0, 0.0)
        grown = base.copy()
        grown.grow(r0, 0, -1.0)   # reuse feature 0: covariate sets unchanged
        return base, grown, r0

    def test_constant_model_difference_is_local(self):
        rng = np.random.default_rng(8)
        X = rng.normal(0, 1, size=(60, 2))
        resid = rng.normal(0, 1, 60)
        base, grown, changed = self._two_trees()
        rows_base = base.leaf_rows(X)
        rows_grown = grown.leaf_rows(X)
        full = (bart_log_marginal(constant_leaf_stats(rows_grown, resid), 1.0, 0.3)
                - bart_log_marginal(constant_leaf_stats(rows_base, resid), 1.0, 0.3))
        affected_new = {leaf: rows_grown[leaf] for leaf in subtree_leaves(grown, changed)}
        affected_old = {changed: rows_base[changed]}
        local = (bart_log_marginal(constant_leaf_stats(affected_new, resid), 1.0, 0.3)
                 - bart_log_marginal(constant_leaf_stats(affected_old, resid), 1.0, 0.3))
        assert_allclose(full, local, rtol=0, atol=1e-10)

    def test_linear_model_difference_is_local(self):
        rng = np.random.default_rng(9)
        X = rng.normal(0, 1, size=(60, 2))
        resid = rng.normal(0, 1, 60)
        base, grown, changed = self._two_trees()
        sigma2 = 0.9
        for rule in (TREE_SPLITS, ANCESTORS):
            covs_base = leaf_covariate_sets(base, rule)
            covs_grown = leaf_covariate_sets(grown, rule)
            rows_base = base.leaf_rows(X)
            rows_grown = grown.leaf_rows(X)

            def marg(rows, covs):
                stats = linear_leaf_stats(rows, X, resid, covs)
                for st in stats:
                    st.prior = LeafPrior(np.full(st.q, 1.0 / 10))
                return linear_log_marginal(stats, sigma2)

            full = marg(rows_grown, covs_grown) - marg(rows_base, covs_base)
            local = (marg({leaf: rows_grown[leaf]
                           for leaf in subtree_leaves(grown, changed)}, covs_grown)
                     - marg({changed: rows_base[changed]}, covs_base))
            assert_allclose(full, local, rtol=0, atol=1e-10)


class TestLeafParameterCount:
    def test_five_leaves_two_covariates_gives_fifteen(self):
        t = Tree()
        l0, r0 = t.grow(t.root, 0, 0.0)
        l1, r1 = t.grow(l0, 1, 0.5)
        t.grow(r0, 0, -0.5)
        t.grow(l1, 1, 0.25)
        assert t.n_leaves() == 5
        assert len({nd.feature for nd in t.nodes.values() if not nd.is_leaf}) == 2
        assert leaf_parameter_count(t, LINEAR, TREE_SPLITS) == 15

    def test_stump_counts(self):
        t = Tree()
        assert leaf_parameter_count(t, CONSTANT) == 1
        assert leaf_parameter_count(t, LINEAR, TREE_SPLITS) == 1
        assert leaf_parameter_count(t, LINEAR, ANCESTORS) == 1

    def test_ancestors_rule_counts_path_features(self):
        t = Tree()
        l0, r0 = t.grow(t.root, 0, 0.0)
        t.grow(l0, 1, 0.5)
        # leaves: r0 with path {0} -> 2 params; two leaves under l0 with
        # path {0,1} -> 3 params each
        assert leaf_parameter_count(t, LINEAR, ANCESTORS) == 2 + 3 + 3


class TestLeafModels:
    @staticmethod
    def grown_tree():
        t = Tree()
        l0, _ = t.grow(t.root, 0, 0.0)
        t.grow(l0, 1, 0.5)
        return t

    def test_linear_prior_diagonal_uses_both_precisions(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        t = self.grown_tree()
        stats = LinearLeaves(ANCESTORS, (2.0, 5.0)).stats(t, t.leaf_rows(X), X,
                                                          rng.normal(size=40))
        for st in stats:
            assert st.covariates == sorted(ancestor_covariates(t, st.leaf_id))
            assert_allclose(st.prior.v_diag, [0.5] + [0.2] * len(st.covariates),
                            rtol=0, atol=0)

    @pytest.mark.parametrize("kind, model", [(CONSTANT, ConstantLeaves(0.1)),
                                             (LINEAR, LinearLeaves(TREE_SPLITS, (1.0, 1.0)))],
                             ids=["constant", "linear"])
    def test_draw_stores_one_json_payload_per_leaf(self, kind, model):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 3))
        t = self.grown_tree()
        stats = model.stats(t, t.leaf_rows(X), X, rng.normal(size=40))
        # the draw is the model's values in leaf order; the stats store them
        payload = stats.payloads(model.draw(stats, 1.0, rng))
        assert sorted(payload) == sorted(t.leaves())
        assert json.loads(json.dumps(t.to_dict(payload))) == t.to_dict(payload)
        assert leaf_parameter_count(t, kind, TREE_SPLITS) == sum(
            len(p.get("beta", [None])) for p in payload.values())

    def test_prev_stats_are_taken_whole_lent_or_rebuilt(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        t = self.grown_tree()
        rows = t.leaf_rows(X)
        resid = rng.normal(size=40)
        model = LinearLeaves(ANCESTORS, (1.0, 2.0))
        kept = model.stats(t, rows, X, resid)
        prev = {st.leaf_id: st for st in kept}

        def check(got, fresh):
            for st, ref in zip(got, fresh):
                for name in ("design", "xtx", "xtr"):
                    assert np.array_equal(getattr(st, name), getattr(ref, name))
                assert np.array_equal(st.prior.v_diag, ref.prior.v_diag)
                assert (st.r_sq_sum, st.covariates) == (ref.r_sq_sum, ref.covariates)
                assert linear_log_marginal([st], 0.7) == linear_log_marginal([ref], 0.7)

        # same rows arrays, covariates and residual array: every stat taken whole
        got = model.stats(t, rows, X, resid, kept)
        assert [st.leaf_id for st in got] == sorted(rows)
        assert all(st is prev[st.leaf_id] for st in got)

        # another residual array: design and X'X lent, the rest built
        other = rng.normal(size=40)
        got = model.stats(t, rows, X, other, kept)
        for st in got:
            old = prev[st.leaf_id]
            assert st is not old and st.design is old.design and st.xtx is old.xtx
            assert st.resid is other and st.prior is model.prior(st.q)
        check(got, model.stats(t, rows, X, other))

        # an equal but distinct rows array, or other covariates: built fresh
        split_off = next(leaf for leaf in rows if t.nodes[leaf].depth == 1)
        copied = min(leaf for leaf in rows if leaf != split_off)
        moved = t.copy()
        moved.set_rule(moved.nodes[copied].parent, 2, 0.5)   # path features {0, 1} -> {0, 2}
        for tree, rows_now, rebuilt in [(t, {**rows, copied: rows[copied].copy()}, {copied}),
                                        (moved, rows, set(rows) - {split_off})]:
            got = model.stats(tree, rows_now, X, resid, kept)
            assert {st.leaf_id for st in got if st is not prev[st.leaf_id]} == rebuilt
            for st in got:
                old = prev[st.leaf_id]
                assert (st is old) == (st.leaf_id not in rebuilt)
                if st.leaf_id in rebuilt:
                    assert st.design is not old.design and st.xtx is not old.xtx
            check(got, model.stats(tree, rows_now, X, resid))

        # constant stats record their rows and residuals and follow the same
        # rule; a prev whose sums are sentinels shows the leaves kept
        constant = ConstantLeaves(0.1)
        prev = constant.stats(t, rows, X, resid)
        assert all(r is rows[leaf] for leaf, r in zip(prev.leaves, prev.rows))
        assert prev.resid is resid
        sentinel = with_sentinel_sums(prev)
        got = constant.stats(t, rows, X, resid, sentinel)
        assert got.r_sum == [SENTINEL_SUM] * len(prev)
        assert (got.leaves, got.n) == (prev.leaves, prev.n)
        assert all(a is b for a, b in zip(got.rows, prev.rows))
        got = constant.stats(t, rows, X, other, sentinel)
        assert SENTINEL_SUM not in got.r_sum and got.resid is other
        assert got.r_sum == constant.stats(t, rows, X, other).r_sum
        # summed over an index, every leaf is built
        index = np.empty(40, dtype=np.intp)
        for leaf, r in rows.items():
            index[r] = leaf
        got = constant.stats(t, rows, X, resid, sentinel, index)
        assert SENTINEL_SUM not in got.r_sum
        # an equal but distinct rows array: that leaf alone is built, in its place
        got = constant.stats(t, {**rows, copied: rows[copied].copy()}, X, resid, sentinel)
        assert (got.leaves, got.n) == (prev.leaves, prev.n)
        assert [s == SENTINEL_SUM for s in got.r_sum] == [leaf != copied
                                                          for leaf in prev.leaves]
        assert got.r_sum[prev.leaves.index(copied)] == prev.r_sum[prev.leaves.index(copied)]
        assert [a is b for a, b in zip(got.rows, prev.rows)] == [leaf != copied
                                                                 for leaf in prev.leaves]

    def test_leaves_of_one_q_share_their_prior_terms(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 3))
        t = self.grown_tree()
        stats = LinearLeaves(ANCESTORS, (2.0, 5.0)).stats(t, t.leaf_rows(X), X,
                                                          rng.normal(size=40))
        by_q = {}
        for st in stats:
            by_q.setdefault(st.q, []).append(st.prior)
            assert np.array_equal(st.prior.precision, np.diag(1.0 / st.prior.v_diag))
            assert st.prior.log_det == float(np.sum(np.log(st.prior.v_diag)))
        assert sorted(len(p) for p in by_q.values()) == [1, 2]
        assert all(p[0] is p[-1] for p in by_q.values())

    def test_one_model_builds_one_prior_per_q_across_stats_calls(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 3))
        t = self.grown_tree()
        model = LinearLeaves(ANCESTORS, (2.0, 5.0))
        first = model.stats(t, t.leaf_rows(X), X, rng.normal(size=40))
        second = model.stats(t, t.leaf_rows(X), X, rng.normal(size=40))
        for a, b in zip(first, second):
            assert a.prior is b.prior is model.prior(a.q)
        other = LinearLeaves(ANCESTORS, (2.0, 5.0)).stats(t, t.leaf_rows(X), X,
                                                          rng.normal(size=40))
        assert all(a.prior is not c.prior for a, c in zip(first, other))
