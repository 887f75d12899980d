"""Joint-distribution tests of the chain, as in Geweke (2004), "Getting it right".

Two simulators draw from one joint law of a tree, its leaves and the data.
The marginal-conditional simulator draws the tree and leaves from the prior,
then the data given them; draws are independent. The successive-conditional
simulator alternates a data draw given the current tree and leaves with one
sweep of the sampler. If the sweep leaves the posterior invariant, its tree
and leaves are again prior draws, so every function of them has the same
distribution under both simulators.

The target is the tree prior truncated to trees whose every leaf holds at
least `n_min` rows, since the sampler rejects any proposal that leaves a leaf
below `n_min`; the prior simulator draws from it by rejection. The chain
targets it only because the acceptance rule carries the grow/prune proposal
ratio: without that ratio the flat-likelihood chain grows too few leaves.

The successive-conditional simulator runs the chain's own sweep,
`sampler.sweep`: the probit latent z, every tree step, and every global draw
the slice's settings switch on (sigma^2, the coefficient precisions tau0 and
tau1, the Dirichlet split probabilities). The prior simulator draws each of
them from its prior, and each is a statistic of the gate.

The smoke versions run in the default suite; the slow ones take ten times
the draws and run under `pytest --slow`. The ancestors and three-tree slices
run only under `--slow`, smoke version included.

Slices, each on 10 rows with p=2 and one tree unless named otherwise:
probit with constant leaves; regression with constant leaves; regression
with linear leaves under the tree-splits rule and under the ancestors rule,
both at a fixed coefficient precision; probit with linear leaves and
estimated taus (the paper's classification model); regression with linear
leaves and estimated taus (the paper's regression model); probit with constant
leaves under Dirichlet branching; and regression with constant leaves and
three trees.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import chi2_contingency, invgamma, kstest

from lmbart import leaves as lv
from lmbart import sampler
from lmbart.data import CLASSIFICATION, Dataset, split_dictionary
from lmbart.sampler import Hyperparams, SamplerState, TreeState, leaf_model, mh_tree_step
from lmbart.trees import (Tree, ancestor_covariates, log_tree_prior, split_cdf,
                          split_covariates)
from oracles import (draw_prior_tree, draw_truncated_prior_tree, leaf_index_of, route_row,
                     routing)

LEAF_COUNT_CAP = 4        # leaf counts from 4 up share one chi-square cell
THIN = 20                 # sweeps between the chain's leaf counts in the chi-square
Z_MAX = 3.5
P_MIN = 1e-3

SIZES = [pytest.param(10_000, 30_000, id="smoke"),
         pytest.param(100_000, 300_000, id="full", marks=pytest.mark.slow)]
# slices whose smoke version also runs only under --slow, to bound the
# default suite's wall time
SLOW_SIZES = [pytest.param(*p.values, id=p.id, marks=pytest.mark.slow) for p in SIZES]


def leaf_count_pvalue(reference: np.ndarray, chain: np.ndarray) -> float:
    """Chi-square p-value that two leaf-count samples share one distribution."""
    cells = np.arange(1, LEAF_COUNT_CAP + 1)
    table = [[np.sum(np.minimum(x, LEAF_COUNT_CAP) == c) for c in cells]
             for x in (reference, chain)]
    return chi2_contingency(table).pvalue


def batch_means_se(x: np.ndarray, batches: int = 50) -> float:
    """Standard error of the mean of an autocorrelated series."""
    means = x[: x.size // batches * batches].reshape(batches, -1).mean(axis=1)
    return means.std(ddof=1) / math.sqrt(batches)


def z_score(independent: np.ndarray, chain: np.ndarray) -> float:
    """Two-sample z for equal means: plain SE for independent draws, batch means for a chain."""
    se2 = independent.var(ddof=1) / independent.size + batch_means_se(chain) ** 2
    return (chain.mean() - independent.mean()) / math.sqrt(se2)


def leaf_value(payload: dict, x: np.ndarray) -> float:
    """A stored leaf's value at one row: its mean, or [1, x_cov] @ beta."""
    if "mu" in payload:
        return payload["mu"]
    return float(np.concatenate(([1.0], x[payload["covariates"]])) @ payload["beta"])


def leaf_intercept(payload: dict) -> float:
    """A stored leaf's value at x = 0: its mean, or its first coefficient."""
    return payload["mu"] if "mu" in payload else payload["beta"][0]


def chain_state(trees, payloads, X, hp, probit=False, **globals_) -> SamplerState:
    """A chain state holding `trees` with leaf `payloads` (one dict per tree),
    each tree's values in ascending leaf order: its means or its coefficients.

    The taus start at `tau_b`, sigma^2 at 1 and the split probabilities
    uniform; `globals_` sets any of these state fields instead. The target
    is 0, and the carried residual is target - the trees' summed fit.
    """
    n = X.shape[0]
    states, total_fit = [], np.zeros(n)
    for tree, leaf_params in zip(trees, payloads):
        rows, splits = routing(tree, X)
        fit = np.zeros(n)
        for leaf, r in rows.items():
            fit[r] = [leaf_value(leaf_params[leaf], x) for x in X[r]]
        values = [p["mu"] if "mu" in p else p["beta"] for _, p in sorted(leaf_params.items())]
        states.append(TreeState(tree, values, rows, fit,
                                log_tree_prior(tree, hp.alpha, hp.beta_depth),
                                rows_by_split=splits, index=leaf_index_of(rows, n)))
        total_fit += fit
    target = np.zeros(n)
    state = SamplerState(trees=states, sigma2=1.0, tau_beta0=hp.tau_b, tau_beta=hp.tau_b,
                         split_probs=np.full(X.shape[1], 1.0 / X.shape[1]),
                         total_fit=total_fit, target=target, resid=target - total_fit,
                         probit=probit)
    for name, value in globals_.items():
        setattr(state, name, value)
    return state


def test_flat_likelihood_chain_samples_the_truncated_tree_prior():
    # six rows, one feature, n_min=1; with zero residuals and sigma^2 = 1e12
    # every tree's marginal likelihood is 1 to within 1e-12, so the chain
    # targets the truncated tree prior alone
    X = np.arange(6.0)[:, None]
    sd = split_dictionary(Dataset(X, np.zeros(6), ["a"], CLASSIFICATION))
    hp = Hyperparams(m=1, n_min=1, burn_in=1, post_burn_in=1)
    rng = np.random.default_rng(7)
    prior = np.array([draw_truncated_prior_tree(X, sd.values, hp.alpha, hp.beta_depth,
                                                hp.n_min, rng).n_leaves()
                      for _ in range(10_000)])
    state = chain_state([Tree.stump()], [{0: {"mu": 0.0}}], X, hp, sigma2=1e12)
    model = leaf_model(hp, (state.tau_beta0, state.tau_beta))
    cdf = split_cdf(state.split_probs, sd.splittable())
    counts = np.empty(20_000)
    for k in range(counts.size):
        mh_tree_step(state, 0, X, sd, cdf, hp, model, rng)
        counts[k] = state.trees[0].tree.n_leaves()
    assert leaf_count_pvalue(prior, counts[::THIN]) > P_MIN
    assert abs(z_score(prior.astype(float), counts)) < Z_MAX


# ---------------------------------------------------------------------------
# the slices: 10 rows, p=2, uniform branching unless a slice says otherwise

QUERY_X = np.array([[-0.5, 0.5], [0.8, -0.3]])
SUMMARIES = ("depth", "mean_intercept", "fit_a", "fit_b")


def split_log_prob(split_probs, trees) -> float:
    """Sum of log split_probs[feature] over the internal nodes: how the split
    probabilities and the trees' features go together."""
    return sum(math.log(split_probs[nd.feature])
               for tree in trees for nd in tree.nodes.values() if not nd.is_leaf)


# state fields the sweep draws besides the trees, each with its statistics
# as (name, function of the field's value and the trees)
GLOBALS = {"sigma2": [("sigma2", lambda v, trees: v)],
           "tau_beta0": [("log_tau0", lambda v, trees: math.log(v))],
           "tau_beta": [("log_tau1", lambda v, trees: math.log(v))],
           "split_probs": [("split_prob0", lambda v, trees: v[0]),
                           ("split_log_prob", split_log_prob)]}

# the regression slices fix lam and raise nu from its default 3 so that
# the square of a prior sigma^2 draw has a finite variance
REGRESSION_PRIOR = dict(nu=20.0, lam=0.2)
# linear leaves on the tree's split features, with the coefficient prior
# N(0, sigma^2 / tau_b I) held fixed
LINEAR_LEAVES = dict(leaf_model="linear", covariate_rule="tree-splits",
                     vars_inter_slope=False, tau_b=1.0)
# the paper's classification model: linear leaves with estimated taus. The
# Gamma(3, 3) tau priors replace the default Gamma(0.5, 0.5), under which
# E[1/tau] is infinite, so the leaf coefficients and the fit have no finite
# variance and a z statistic on them means nothing (the reason the
# regression slices raise nu); shape 3 keeps E[1/tau^2] finite too, so the
# squared fit has a finite variance
ESTIMATED_TAUS = dict(leaf_model="linear", covariate_rule="tree-splits",
                      vars_inter_slope=True, a0=3.0, b0=3.0, a1=3.0, b1=3.0)


def setting(**prior):
    X = np.random.default_rng(2024).normal(size=(10, 2))
    sd = split_dictionary(Dataset(X, np.zeros(10), ["a", "b"], CLASSIFICATION))
    hp = Hyperparams(**{"m": 1, "n_min": 1, "branching": "uniform", "burn_in": 1,
                        "post_burn_in": 1, **prior})
    return X, sd, hp


def summaries(trees, payloads) -> list[float]:
    """The first tree's leaf count and depth, the mean leaf intercept over all
    trees, and the fit summed over trees at the two query points."""
    first = trees[0]
    intercepts = [leaf_intercept(leaf_params[leaf])
                  for tree, leaf_params in zip(trees, payloads) for leaf in tree.leaves()]
    depth = max(first.nodes[leaf].depth for leaf in first.leaves())
    return [first.n_leaves(), depth, sum(intercepts) / len(intercepts)] + [
        sum(leaf_value(leaf_params[route_row(tree, x)], x)
            for tree, leaf_params in zip(trees, payloads)) for x in QUERY_X]


def statistics(trees, payloads, globals_: dict) -> dict[str, float]:
    """`summaries` by name, then the statistics of each global the slice draws."""
    out = dict(zip(("leaf_count",) + SUMMARIES, summaries(trees, payloads)))
    for name, value in globals_.items():
        out.update((stat, f(value, trees)) for stat, f in GLOBALS[name])
    return out


def prior_sigma2(hp, rng) -> float:
    """The error-variance prior, sigma^2 ~ nu lam / chi2_nu."""
    return hp.nu * hp.lam / rng.chisquare(hp.nu)


def prior_draw(X, sd, hp, rng, regression: bool):
    """(trees, leaf payloads per tree, globals) from the prior.

    `globals` maps each state field the slice's sweep draws besides the
    trees to its prior draw: sigma^2 for regression, the taus when they are
    estimated, the split probabilities under Dirichlet branching. The split
    probabilities come first, since the trees are drawn under them. Linear
    leaves draw beta ~ N(0, sigma^2 V(tau)) on their covariates, so sigma^2
    and the taus come before them; constant leaves draw sigma^2 after.
    """
    globals_ = {}
    if hp.branching == "dirichlet":
        # the chain targets the joint prior of the split probabilities and
        # the trees, truncated to valid trees: it never computes the
        # truncation's normalizing constant, which depends on the split
        # probabilities, so a rejected tree takes its split probabilities with it
        while True:
            s = rng.dirichlet(np.full(X.shape[1], hp.dirichlet_mass / X.shape[1]))
            trees = [draw_prior_tree(X, sd.values, hp.alpha, hp.beta_depth, hp.n_min, rng, s)
                     for _ in range(hp.m)]
            if None not in trees:
                break
        globals_["split_probs"] = s
    else:
        trees = [draw_truncated_prior_tree(X, sd.values, hp.alpha, hp.beta_depth, hp.n_min,
                                           rng) for _ in range(hp.m)]
    if hp.leaf_model == "linear":
        sigma2 = 1.0
        if regression:
            sigma2 = globals_["sigma2"] = prior_sigma2(hp, rng)
        taus = (hp.tau_b, hp.tau_b)
        if hp.vars_inter_slope:
            taus = globals_["tau_beta0"], globals_["tau_beta"] = (
                rng.gamma(hp.a0, 1.0 / hp.b0), rng.gamma(hp.a1, 1.0 / hp.b1))
        payloads = [{leaf: linear_prior_leaf(tree, leaf, hp.covariate_rule, sigma2, taus, rng)
                     for leaf in tree.leaves()} for tree in trees]
        return trees, payloads, globals_
    payloads = [{leaf: {"mu": rng.normal(0.0, math.sqrt(hp.sigma_mu2))}
                 for leaf in tree.leaves()} for tree in trees]
    if regression:
        globals_["sigma2"] = prior_sigma2(hp, rng)
    return trees, payloads, globals_


def linear_prior_leaf(tree, leaf, rule, sigma2, taus, rng) -> dict:
    """One linear leaf's payload, beta ~ N(0, sigma^2 V) with V = diag(1/tau0, 1/tau1, ...)."""
    covs = sorted(split_covariates(tree) if rule == "tree-splits"
                  else ancestor_covariates(tree, leaf))
    sd_beta = np.sqrt(sigma2 / np.array([taus[0]] + [taus[1]] * len(covs)))
    return {"beta": list(sd_beta * rng.standard_normal(len(covs) + 1)), "covariates": covs}


def marginal_conditional(draws: int, X, sd, hp, rng, regression: bool) -> list[dict]:
    """`statistics` of independent prior draws; y | theta is not needed for them."""
    return [statistics(*prior_draw(X, sd, hp, rng, regression)) for _ in range(draws)]


def successive_conditional(sweeps: int, X, sd, hp, rng, regression: bool) -> list[dict]:
    """`statistics` of a chain alternating a data draw given theta with one sweep.

    The sweep is the sampler's own, `sampler.sweep`. Regression draws
    y ~ N(fit, sigma^2); probit draws labels y ~ Bernoulli(Phi(fit)), and
    the sweep draws the latent z from them. The chain starts from a prior
    draw.
    """
    trees, payloads, globals_ = prior_draw(X, sd, hp, rng, regression)
    state = chain_state(trees, payloads, X, hp, probit=not regression, **globals_)
    n = X.shape[0]
    out = []
    for _ in range(sweeps):
        if regression:
            y = state.total_fit + math.sqrt(state.sigma2) * rng.standard_normal(n)
        else:
            y = (rng.random(n) < ndtr(state.total_fit)).astype(float)
        sampler.sweep(state, X, y, sd, hp, hp.lam, rng)
        out.append(statistics([ts.tree for ts in state.trees],
                              [ts.stats.payloads(ts.leaf_params) for ts in state.trees],
                              {name: getattr(state, name) for name in globals_}))
    return out


def joint_gate(draws: int, sweeps: int, regression: bool, **settings) -> dict:
    """The gate's statistics: the leaf-count chi-square p-value and a z per moment.

    The moments are every statistic after the leaf count, then their squares.
    `settings` are `Hyperparams` fields on top of the slice's prior.
    """
    X, sd, hp = setting(**REGRESSION_PRIOR, **settings) if regression else setting(**settings)
    rng = np.random.default_rng(0)
    mc_rows = marginal_conditional(draws, X, sd, hp, rng, regression)
    sc_rows = successive_conditional(sweeps, X, sd, hp, rng, regression)
    # both simulators list the statistics in the order of one prior draw
    mc, sc = (np.array([list(row.values()) for row in rows]) for rows in (mc_rows, sc_rows))
    names = list(mc_rows[0])[1:]
    names += [f"{name}^2" for name in names]
    mc_moments = np.hstack([mc[:, 1:], mc[:, 1:] ** 2])
    sc_moments = np.hstack([sc[:, 1:], sc[:, 1:] ** 2])
    return {
        "leaf_count_p": leaf_count_pvalue(mc[:, 0], sc[::THIN, 0]),
        "leaf_count_z": z_score(mc[:, 0], sc[:, 0]),
        **{name: z_score(mc_moments[:, j], sc_moments[:, j])
           for j, name in enumerate(names)},
    }


def assert_gate_passes(stats: dict) -> None:
    assert stats.pop("leaf_count_p") > P_MIN, stats
    assert all(abs(z) < Z_MAX for z in stats.values()), stats


@pytest.mark.parametrize("draws, sweeps", SIZES)
def test_probit_chain_preserves_the_joint_distribution(draws, sweeps):
    assert_gate_passes(joint_gate(draws, sweeps, regression=False))


@pytest.mark.parametrize("draws, sweeps", SIZES)
def test_regression_chain_preserves_the_joint_distribution(draws, sweeps):
    assert_gate_passes(joint_gate(draws, sweeps, regression=True))


@pytest.mark.parametrize("draws, sweeps", SIZES)
def test_linear_regression_chain_preserves_the_joint_distribution(draws, sweeps):
    assert_gate_passes(joint_gate(draws, sweeps, regression=True, **LINEAR_LEAVES))


@pytest.mark.parametrize("draws, sweeps", SLOW_SIZES)
def test_ancestors_linear_regression_chain_preserves_the_joint_distribution(draws, sweeps):
    assert_gate_passes(joint_gate(draws, sweeps, regression=True,
                                  **{**LINEAR_LEAVES, "covariate_rule": "ancestors"}))


@pytest.mark.parametrize("draws, sweeps", SIZES)
def test_probit_linear_chain_with_estimated_taus_preserves_the_joint_distribution(draws,
                                                                                  sweeps):
    assert_gate_passes(joint_gate(draws, sweeps, regression=False, **ESTIMATED_TAUS))


@pytest.mark.parametrize("draws, sweeps", SIZES)
def test_linear_regression_chain_with_estimated_taus_preserves_the_joint_distribution(draws,
                                                                                      sweeps):
    # the paper's regression model: sigma^2 counts the coefficients (draw_sigma2)
    # while tau0 and tau1 are drawn too
    assert_gate_passes(joint_gate(draws, sweeps, regression=True, **ESTIMATED_TAUS))


@pytest.mark.parametrize("draws, sweeps", SIZES)
def test_dirichlet_probit_chain_preserves_the_joint_distribution(draws, sweeps):
    assert_gate_passes(joint_gate(draws, sweeps, regression=False, branching="dirichlet"))


@pytest.mark.parametrize("draws, sweeps", SLOW_SIZES)
def test_three_tree_regression_chain_preserves_the_joint_distribution(draws, sweeps):
    assert_gate_passes(joint_gate(draws, sweeps, regression=True, m=3))


def test_sigma2_under_a_fixed_linear_leaf_matches_its_closed_form():
    # one linear leaf holding every row, its tree never moving: a Gibbs chain
    # of the package's coefficient draw and the sweep's sigma^2 draw. With
    # beta ~ N(0, sigma^2 V), integrating beta out gives sigma^2 | y ~
    # IG((n + nu) / 2, (nu lam + y'y - m'Am) / 2), A = X'X + V^-1, m = A^-1 X'y;
    # leaving the coefficients out of the sigma^2 step gives KS p = 6e-48 here
    n, nu, lam = 10, 3.0, 1.0
    rng = np.random.default_rng(0)
    X = np.asfortranarray(rng.normal(size=(n, 2)))
    y = X @ [1.0, -0.5] + rng.normal(size=n)
    (stat,) = lv.linear_leaf_stats({0: np.arange(n)}, X, y, {0: [0, 1]})
    stat.prior = lv.LinearLeaves(lv.TREE_SPLITS, (1.0, 1.0)).prior(3)        # V = I
    A = stat.xtx + np.eye(3)
    m = np.linalg.solve(A, stat.xtr)
    closed_form = invgamma((n + nu) / 2, scale=(nu * lam + y @ y - m @ A @ m) / 2)

    sigma2, chain = 1.0, []
    for _ in range(100_000):
        beta = np.array(lv.linear_sample_beta([stat], sigma2, rng)[0])
        sigma2 = sampler.draw_sigma2(y - stat.design @ beta, (beta[:1], beta[1:]),
                                     (1.0, 1.0), nu, lam, rng)
        chain.append(sigma2)
    kept = np.array(chain[1000::20])
    assert kstest(kept, closed_form.cdf).pvalue > P_MIN
    assert abs(np.median(kept) / closed_form.median() - 1) < 0.03
