import json
import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from lmbart import leaves
from lmbart.benchmark import FriedmanSpec, friedman_generate
from lmbart.data import standardize
from lmbart.leaves import (ANCESTORS, CONSTANT, LINEAR, TREE_SPLITS,
                           ConstantLeaves, LeafFactorizationError, LeafStats,
                           LinearLeaves, bart_log_marginal, bart_sample_mu,
                           build_leaf_design, constant_leaf_stats,
                           leaf_covariate_sets, leaf_parameter_count,
                           linear_leaf_stats, linear_log_marginal,
                           linear_sample_beta)
from lmbart.sampler import Hyperparams, run_regression
from lmbart.trees import Tree, ancestor_covariates
from oracles import (bart_marginal_restore_constants,
                     linear_marginal_restore_constants, quad_constant_leaf,
                     quad_linear_leaf)


def stats_from_resid(r, X=None, v_diag=None):
    r = np.asarray(r, dtype=float)
    if X is None:
        return LeafStats(0, r.size, float(r.sum()), float(r @ r))
    return LeafStats(0, r.size, float(r.sum()), float(r @ r),
                     xtx=X.T @ X, xtr=X.T @ r, v_diag=v_diag)


class TestBartLogMarginal:
    def test_single_observation_zero_residual(self):
        got = bart_log_marginal([stats_from_resid([0.0])], 1.0, 1.0)
        assert_allclose(got, 0.5 * math.log(0.5), rtol=1e-12)
        assert_allclose(got, -0.346574, atol=1e-6)

    def test_two_observations(self):
        got = bart_log_marginal([stats_from_resid([2.0, 2.0])], 1.0, 1.0)
        assert_allclose(got, 0.5 * math.log(1 / 3) + 16.0 / 6.0, rtol=1e-12)
        assert_allclose(got, 2.117361, atol=1e-6)

    def test_against_quadrature(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            r = rng.normal(0, 2, n)
            sigma2 = rng.uniform(0.3, 2.0)
            sigma_mu2 = rng.uniform(0.3, 2.0)
            impl = bart_log_marginal([stats_from_resid(r)], sigma2, sigma_mu2)
            log_true = bart_marginal_restore_constants(impl, r, sigma2)
            oracle = quad_constant_leaf(r, sigma2, sigma_mu2)
            assert_allclose(math.exp(log_true), oracle, rtol=1e-6)

    def test_split_preserves_exponent_with_dominant_prior(self):
        # two half-leaves with identical means carry the same exponent mass
        # as the merged leaf once n*sigma_mu2 >> sigma2
        r = np.array([1.0, 3.0, 2.0, 2.0, 1.5, 2.5])
        sigma2 = 1.0
        sigma_mu2 = 1e8
        merged = bart_log_marginal([stats_from_resid(r)], sigma2, sigma_mu2)
        halves = bart_log_marginal(
            [stats_from_resid(r[:3]), stats_from_resid(r[3:])], sigma2, sigma_mu2)

        def exponent(stats_list):
            return sum(sigma_mu2 * st.r_sum ** 2
                       / (2 * sigma2 * (sigma_mu2 * st.n + sigma2))
                       for st in stats_list)

        exp_merged = exponent([stats_from_resid(r)])
        exp_halves = exponent([stats_from_resid(r[:3]), stats_from_resid(r[3:])])
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
            bart_log_marginal([stats_from_resid([1.0])], 0.0, 1.0)


class TestBartSampleMu:
    def test_posterior_n1(self):
        rng = np.random.default_rng(0)
        stats = [LeafStats(i, 1, 2.0, 4.0) for i in range(20_000)]
        draws = np.array(list(bart_sample_mu(stats, 1.0, 1.0, rng).values()))
        assert_allclose(draws.mean(), 1.0, atol=4 * math.sqrt(0.5 / draws.size))
        assert_allclose(draws.var(), 0.5, rtol=0.05)

    def test_posterior_n2(self):
        rng = np.random.default_rng(1)
        stats = [LeafStats(i, 2, 4.0, 8.0) for i in range(20_000)]
        draws = np.array(list(bart_sample_mu(stats, 1.0, 1.0, rng).values()))
        assert_allclose(draws.mean(), 4.0 / 3.0, atol=4 * math.sqrt(draws.var() / draws.size))
        assert_allclose(draws.var(), 1.0 / 3.0, rtol=0.05)

    def test_flat_prior_limit_recovers_sample_mean(self):
        rng = np.random.default_rng(2)
        stats = [LeafStats(0, 4, 10.0, 30.0)]
        draws = [bart_sample_mu(stats, 1.0, 1e12, rng)[0] for _ in range(4000)]
        assert_allclose(np.mean(draws), 2.5, atol=0.05)


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
            st_con = stats_from_resid(r)
            lin = linear_log_marginal([st_lin], sigma2)
            con = bart_log_marginal([st_con], sigma2, sigma2 * v)
            offset = -0.5 * n * math.log(sigma2) - float(r @ r) / (2 * sigma2)
            assert_allclose(lin, con + offset, rtol=0, atol=1e-10 * max(1, abs(lin)))

    def test_factorization_error_carries_leaf_id(self):
        st = LeafStats(17, 1, 1.0, 1.0, xtx=np.array([[-1e12]]),
                       xtr=np.array([1.0]), v_diag=np.array([1.0]))
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
            A = st.xtx + np.diag(1.0 / st.v_diag)
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

    @pytest.mark.parametrize("field", ["xtx", "xtr"])
    def test_non_finite_statistics_raise_value_error(self, field):
        X = np.column_stack([np.ones(4), np.arange(4.0)])
        st = stats_from_resid([1.0, 0.5, -1.0, 2.0], X, np.ones(2))
        bad = getattr(st, field).copy()
        bad.flat[0] = np.nan if field == "xtx" else np.inf
        setattr(st, field, bad)
        with pytest.raises(ValueError, match="infs or NaNs"):
            linear_log_marginal([st], 1.0)


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

        def counting(*args):
            stats = original(*args)
            built.append(len(stats))
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
        affected_new = {leaf: rows_grown[leaf] for leaf in grown.subtree_leaves(changed)}
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
                    st.v_diag = np.full(st.q, 1.0 / 10)
                return linear_log_marginal(stats, sigma2)

            full = marg(rows_grown, covs_grown) - marg(rows_base, covs_base)
            local = (marg({leaf: rows_grown[leaf]
                           for leaf in grown.subtree_leaves(changed)}, covs_grown)
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
            assert_allclose(st.v_diag, [0.5] + [0.2] * len(st.covariates),
                            rtol=0, atol=0)

    @pytest.mark.parametrize("kind, model", [(CONSTANT, ConstantLeaves(0.1)),
                                             (LINEAR, LinearLeaves(TREE_SPLITS, (1.0, 1.0)))],
                             ids=["constant", "linear"])
    def test_draw_stores_one_json_payload_per_leaf(self, kind, model):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 3))
        t = self.grown_tree()
        stats = model.stats(t, t.leaf_rows(X), X, rng.normal(size=40))
        payload = model.draw(stats, 1.0, rng)
        assert sorted(payload) == sorted(t.leaves())
        assert json.loads(json.dumps(t.to_dict(payload))) == t.to_dict(payload)
        assert leaf_parameter_count(t, kind, TREE_SPLITS) == sum(
            len(p.get("beta", [None])) for p in payload.values())

    def test_prev_stats_are_taken_whole_lent_or_rebuilt(self, monkeypatch):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        t = self.grown_tree()
        rows = t.leaf_rows(X)
        resid = rng.normal(size=40)
        model = LinearLeaves(ANCESTORS, (1.0, 2.0))
        prev = {st.leaf_id: st for st in model.stats(t, rows, X, resid)}
        built, build = [], leaves.linear_leaf_stats

        def counting_build(rows, *args):
            built.append(sorted(rows))
            return build(rows, *args)

        monkeypatch.setattr(leaves, "linear_leaf_stats", counting_build)

        def check(got, fresh):
            for st, ref in zip(got, fresh):
                for name in ("design", "xtx", "xtr", "v_diag"):
                    assert np.array_equal(getattr(st, name), getattr(ref, name))
                assert (st.r_sum, st.r_sq_sum, st.covariates) == (ref.r_sum, ref.r_sq_sum,
                                                                  ref.covariates)
                assert linear_log_marginal([st], 0.7) == linear_log_marginal([ref], 0.7)

        # same rows arrays, covariates and residual array: every stat taken whole
        got = model.stats(t, rows, X, resid, prev)
        assert all(st is prev[st.leaf_id] for st in got) and built == [[]]

        # another residual array: design and X'X lent, the rest built
        other = rng.normal(size=40)
        got = model.stats(t, rows, X, other, prev)
        for st in got:
            old = prev[st.leaf_id]
            assert st is not old and st.design is old.design and st.xtx is old.xtx
        check(got, model.stats(t, rows, X, other))

        # an equal but distinct rows array, or other covariates: built fresh
        split_off = next(leaf for leaf in rows if t.nodes[leaf].depth == 1)
        copied = min(leaf for leaf in rows if leaf != split_off)
        moved = t.copy()
        moved.set_rule(moved.nodes[copied].parent, 2, 0.5)   # path features {0, 1} -> {0, 2}
        for tree, rows_now, rebuilt in [(t, {**rows, copied: rows[copied].copy()}, {copied}),
                                        (moved, rows, set(rows) - {split_off})]:
            built.clear()
            got = model.stats(tree, rows_now, X, resid, prev)
            assert built == [sorted(rebuilt)]
            for st in got:
                old = prev[st.leaf_id]
                assert (st is old) == (st.leaf_id not in rebuilt)
                if st.leaf_id in rebuilt:
                    assert st.design is not old.design and st.xtx is not old.xtx
            check(got, model.stats(tree, rows_now, X, resid))

        # a constant stat records its rows and residuals and follows the same rule
        constant = ConstantLeaves(0.1)
        prev = {st.leaf_id: st for st in constant.stats(t, rows, X, resid)}
        assert all(st.rows is rows[st.leaf_id] and st.resid is resid for st in prev.values())
        assert all(st is prev[st.leaf_id] for st in constant.stats(t, rows, X, resid, prev))
        assert not any(st is prev[st.leaf_id] for st in constant.stats(t, rows, X, other, prev))

    def test_leaves_of_one_q_share_their_prior_terms(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 3))
        t = self.grown_tree()
        stats = LinearLeaves(ANCESTORS, (2.0, 5.0)).stats(t, t.leaf_rows(X), X,
                                                          rng.normal(size=40))
        by_q = {}
        for st in stats:
            by_q.setdefault(st.q, []).append(st.prior)
            assert st.prior.v_diag is st.v_diag
            assert np.array_equal(st.prior.precision, np.diag(1.0 / st.v_diag))
            assert st.prior.log_det == float(np.sum(np.log(st.v_diag)))
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
