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

The smoke versions run in the default suite; the slow ones take ten times
the draws and run under `pytest --slow`.

Slices: probit and regression with constant leaves, and regression with
linear leaves under the tree-splits rule at a fixed coefficient precision.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import chi2_contingency

from lmbart import sampler
from lmbart.data import CLASSIFICATION, Dataset, split_dictionary
from lmbart.sampler import Hyperparams, SamplerState, TreeState, mh_tree_step
from lmbart.trees import Tree, log_tree_prior, split_covariates
from oracles import draw_truncated_prior_tree, route_row

LEAF_COUNT_CAP = 4        # leaf counts from 4 up share one chi-square cell
THIN = 20                 # sweeps between the chain's leaf counts in the chi-square
Z_MAX = 3.5
P_MIN = 1e-3

SIZES = [pytest.param(10_000, 30_000, id="smoke"),
         pytest.param(100_000, 300_000, id="full", marks=pytest.mark.slow)]


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


def chain_state(tree, leaf_params, X, hp) -> SamplerState:
    """A one-tree chain state holding `tree` with `leaf_params`, taus at `tau_b`."""
    rows = tree.leaf_rows(X)
    fit = np.zeros(X.shape[0])
    for leaf, r in rows.items():
        fit[r] = [leaf_value(leaf_params[leaf], x) for x in X[r]]
    ts = TreeState(tree, leaf_params, rows, fit, log_tree_prior(tree, hp.alpha, hp.beta_depth))
    return SamplerState(trees=[ts], sigma2=1.0, tau_beta0=hp.tau_b, tau_beta=hp.tau_b,
                        split_probs=np.full(X.shape[1], 1.0 / X.shape[1]),
                        total_fit=fit.copy(), target=np.zeros(X.shape[0]))


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
    state = chain_state(Tree.stump(), {0: {"mu": 0.0}}, X, hp)
    state.sigma2 = 1e12
    counts = np.empty(20_000)
    for k in range(counts.size):
        mh_tree_step(state, 0, X, sd, hp, rng)
        counts[k] = state.trees[0].tree.n_leaves()
    assert leaf_count_pvalue(prior, counts[::THIN]) > P_MIN
    assert abs(z_score(prior.astype(float), counts)) < Z_MAX


# ---------------------------------------------------------------------------
# probit and regression slices: 10 rows, p=2, one tree, uniform branching

QUERY_X = np.array([[-0.5, 0.5], [0.8, -0.3]])
SUMMARIES = ("mean_intercept", "fit_a", "fit_b")

# the regression slices fix lam and raise nu from its default 3 so that
# the square of a prior sigma^2 draw has a finite variance
REGRESSION_PRIOR = dict(nu=20.0, lam=0.2)
# linear leaves on the tree's split features, with the coefficient prior
# N(0, sigma^2 / tau_b I) held fixed
LINEAR_LEAVES = dict(leaf_model="linear", covariate_rule="tree-splits",
                     vars_inter_slope=False, tau_b=1.0)


def setting(**prior):
    X = np.random.default_rng(2024).normal(size=(10, 2))
    sd = split_dictionary(Dataset(X, np.zeros(10), ["a", "b"], CLASSIFICATION))
    hp = Hyperparams(m=1, n_min=1, branching="uniform", burn_in=1, post_burn_in=1,
                     **prior)
    return X, sd, hp


def summaries(tree, leaf_params: dict) -> list[float]:
    """Leaf count, mean leaf intercept, and the fit at the two query points."""
    intercepts = [leaf_value(leaf_params[leaf], np.zeros(QUERY_X.shape[1]))
                  for leaf in tree.leaves()]
    return [tree.n_leaves(), sum(intercepts) / tree.n_leaves()] + [
        leaf_value(leaf_params[route_row(tree, x)], x) for x in QUERY_X]


def prior_sigma2(hp, rng) -> float:
    """The error-variance prior, sigma^2 ~ nu lam / chi2_nu."""
    return hp.nu * hp.lam / rng.chisquare(hp.nu)


def prior_draw(X, sd, hp, rng, regression: bool):
    """(tree, leaf payloads, sigma^2) from the prior; sigma^2 is None for probit.

    Linear leaves draw beta ~ N(0, sigma^2 V) on the tree's split features,
    so their sigma^2 comes before them.
    """
    tree = draw_truncated_prior_tree(X, sd.values, hp.alpha, hp.beta_depth, hp.n_min, rng)
    if hp.leaf_model == "linear":
        sigma2 = prior_sigma2(hp, rng)
        covs = sorted(split_covariates(tree))
        sd_beta = math.sqrt(sigma2 / hp.tau_b)
        return tree, {leaf: {"beta": list(sd_beta * rng.standard_normal(len(covs) + 1)),
                             "covariates": covs} for leaf in tree.leaves()}, sigma2
    mus = {leaf: {"mu": rng.normal(0.0, math.sqrt(hp.sigma_mu2))} for leaf in tree.leaves()}
    return tree, mus, prior_sigma2(hp, rng) if regression else None


def marginal_conditional(draws: int, X, sd, hp, rng, regression: bool) -> np.ndarray:
    """Summaries (and sigma^2 for regression) of independent prior draws.

    y | theta is not needed for them.
    """
    rows = []
    for _ in range(draws):
        tree, leaf_params, sigma2 = prior_draw(X, sd, hp, rng, regression)
        row = summaries(tree, leaf_params)
        rows.append(row + [sigma2] if regression else row)
    return np.array(rows)


def successive_conditional(sweeps: int, X, sd, hp, rng, regression: bool) -> np.ndarray:
    """Summaries of a chain alternating a data draw given theta with one sweep.

    A sweep is the sampler's own. Probit draws y ~ Bernoulli(Phi(fit)), then
    the latent z given y and the fit, then the tree step given z. Regression
    draws y ~ N(fit, sigma^2), then the tree step given y, then sigma^2 given
    y and the new fit. The chain starts from a prior draw.
    """
    tree, leaf_params, sigma2 = prior_draw(X, sd, hp, rng, regression)
    state = chain_state(tree, leaf_params, X, hp)
    n = X.shape[0]
    if regression:
        state.sigma2 = sigma2
    out = np.empty((sweeps, 2 + len(QUERY_X) + regression))
    for k in range(sweeps):
        if regression:
            state.target = state.total_fit + math.sqrt(state.sigma2) * rng.standard_normal(n)
        else:
            y = (rng.random(n) < ndtr(state.total_fit)).astype(float)
            state.target = sampler.sample_latent_z(y, state.total_fit, rng)
        mh_tree_step(state, 0, X, sd, hp, rng)
        ts = state.trees[0]
        row = summaries(ts.tree, ts.leaf_params)
        if regression:
            resid = state.target - state.total_fit
            state.sigma2 = sampler.sample_sigma2(float(resid @ resid), n, hp.nu, hp.lam, rng)
            row.append(state.sigma2)
        out[k] = row
    return out


def joint_gate(draws: int, sweeps: int, regression: bool, **leaves) -> dict:
    """The gate's statistics: the leaf-count chi-square p-value and a z per moment.

    The moments are every summary after the leaf count, then their squares.
    `leaves` are leaf-model settings on top of the slice's prior.
    """
    X, sd, hp = setting(**REGRESSION_PRIOR, **leaves) if regression else setting(**leaves)
    rng = np.random.default_rng(0)
    mc = marginal_conditional(draws, X, sd, hp, rng, regression)
    sc = successive_conditional(sweeps, X, sd, hp, rng, regression)
    names = SUMMARIES + ("sigma2",) * regression
    names += tuple(f"{name}^2" for name in names)
    mc_moments = np.hstack([mc[:, 1:], mc[:, 1:] ** 2])
    sc_moments = np.hstack([sc[:, 1:], sc[:, 1:] ** 2])
    return {
        "leaf_count_p": leaf_count_pvalue(mc[:, 0], sc[::THIN, 0]),
        "leaf_count_z": z_score(mc[:, 0], sc[:, 0]),
        **{name: z_score(mc_moments[:, j], sc_moments[:, j])
           for j, name in enumerate(names)},
    }


@pytest.mark.parametrize("draws, sweeps", SIZES)
def test_probit_chain_preserves_the_joint_distribution(draws, sweeps):
    stats = joint_gate(draws, sweeps, regression=False)
    assert stats.pop("leaf_count_p") > P_MIN, stats
    assert all(abs(z) < Z_MAX for z in stats.values()), stats


@pytest.mark.parametrize("draws, sweeps", SIZES)
def test_regression_chain_preserves_the_joint_distribution(draws, sweeps):
    stats = joint_gate(draws, sweeps, regression=True)
    assert stats.pop("leaf_count_p") > P_MIN, stats
    assert all(abs(z) < Z_MAX for z in stats.values()), stats


@pytest.mark.parametrize("draws, sweeps", SIZES)
def test_linear_regression_chain_preserves_the_joint_distribution(draws, sweeps):
    stats = joint_gate(draws, sweeps, regression=True, **LINEAR_LEAVES)
    assert stats.pop("leaf_count_p") > P_MIN, stats
    assert all(abs(z) < Z_MAX for z in stats.values()), stats
