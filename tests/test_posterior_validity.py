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
below `n_min`; the prior simulator draws from it by rejection. Both tests run
with `proposal_correction=True`: the default acceptance rule omits the
grow/prune proposal ratio and does not target this prior.

The smoke versions run in the default suite; the slow ones take ten times
the draws and run under `pytest --slow`.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import chi2_contingency

from lmbart import sampler
from lmbart.data import CLASSIFICATION, Dataset, split_dictionary
from lmbart.sampler import Hyperparams, SamplerState, TreeState, mh_tree_step
from lmbart.trees import Tree, log_tree_prior
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


def chain_state(tree, leaf_params, X, hp) -> SamplerState:
    """A one-tree chain state holding `tree` with `leaf_params`."""
    rows = tree.leaf_rows(X)
    fit = np.zeros(X.shape[0])
    for leaf, r in rows.items():
        fit[r] = leaf_params[leaf]["mu"]
    ts = TreeState(tree, leaf_params, rows, fit, log_tree_prior(tree, hp.alpha, hp.beta_depth))
    return SamplerState(trees=[ts], sigma2=1.0, tau_beta0=1.0, tau_beta=1.0,
                        split_probs=np.full(X.shape[1], 1.0 / X.shape[1]),
                        total_fit=fit.copy(), target=np.zeros(X.shape[0]))


def test_flat_likelihood_chain_samples_the_truncated_tree_prior():
    # six rows, one feature, n_min=1; with zero residuals and sigma^2 = 1e12
    # every tree's marginal likelihood is 1 to within 1e-12, so the chain
    # targets the truncated tree prior alone
    X = np.arange(6.0)[:, None]
    sd = split_dictionary(Dataset(X, np.zeros(6), ["a"], CLASSIFICATION))
    hp = Hyperparams(m=1, n_min=1, proposal_correction=True, burn_in=1, post_burn_in=1)
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
# probit: 10 rows, p=2, one tree, constant leaves, uniform branching

QUERY_X = np.array([[-0.5, 0.5], [0.8, -0.3]])
MOMENTS = ("mean_mu", "fit_a", "fit_b", "mean_mu^2", "fit_a^2", "fit_b^2")


def probit_setting():
    X = np.random.default_rng(2024).normal(size=(10, 2))
    sd = split_dictionary(Dataset(X, np.zeros(10), ["a", "b"], CLASSIFICATION))
    hp = Hyperparams(m=1, n_min=1, branching="uniform", proposal_correction=True,
                     burn_in=1, post_burn_in=1)
    return X, sd, hp


def summaries(tree, mus: dict) -> list[float]:
    """Leaf count, mean leaf value, and the fit at the two query points."""
    mean_mu = sum(mus[leaf] for leaf in tree.leaves()) / tree.n_leaves()
    return [tree.n_leaves(), mean_mu] + [mus[route_row(tree, x)] for x in QUERY_X]


def prior_draw(X, sd, hp, rng):
    tree = draw_truncated_prior_tree(X, sd.values, hp.alpha, hp.beta_depth, hp.n_min, rng)
    return tree, {leaf: rng.normal(0.0, math.sqrt(hp.sigma_mu2)) for leaf in tree.leaves()}


def marginal_conditional(draws: int, X, sd, hp, rng) -> np.ndarray:
    """Summaries of independent prior draws; y | theta is not needed for them."""
    return np.array([summaries(*prior_draw(X, sd, hp, rng)) for _ in range(draws)])


def successive_conditional(sweeps: int, X, sd, hp, rng) -> np.ndarray:
    """Summaries of a chain alternating y ~ Bernoulli(Phi(fit)) with one sweep.

    A sweep is the sampler's own: the latent z given y and the fit, then the
    tree step given z. The chain starts from a prior draw.
    """
    tree, mus = prior_draw(X, sd, hp, rng)
    state = chain_state(tree, {leaf: {"mu": mu} for leaf, mu in mus.items()}, X, hp)
    out = np.empty((sweeps, 2 + len(QUERY_X)))
    for k in range(sweeps):
        y = (rng.random(X.shape[0]) < ndtr(state.total_fit)).astype(float)
        state.target = sampler.sample_latent_z(y, state.total_fit, rng)
        mh_tree_step(state, 0, X, sd, hp, rng)
        ts = state.trees[0]
        out[k] = summaries(ts.tree, {leaf: p["mu"] for leaf, p in ts.leaf_params.items()})
    return out


def probit_gate(draws: int, sweeps: int) -> dict:
    """The gate's statistics: the leaf-count chi-square p-value and a z per moment."""
    X, sd, hp = probit_setting()
    rng = np.random.default_rng(0)
    mc = marginal_conditional(draws, X, sd, hp, rng)
    sc = successive_conditional(sweeps, X, sd, hp, rng)
    mc_moments = np.hstack([mc[:, 1:], mc[:, 1:] ** 2])
    sc_moments = np.hstack([sc[:, 1:], sc[:, 1:] ** 2])
    return {
        "leaf_count_p": leaf_count_pvalue(mc[:, 0], sc[::THIN, 0]),
        "leaf_count_z": z_score(mc[:, 0], sc[:, 0]),
        **{name: z_score(mc_moments[:, j], sc_moments[:, j])
           for j, name in enumerate(MOMENTS)},
    }


@pytest.mark.parametrize("draws, sweeps", SIZES)
def test_probit_chain_preserves_the_joint_distribution(draws, sweeps):
    stats = probit_gate(draws, sweeps)
    assert stats.pop("leaf_count_p") > P_MIN, stats
    assert all(abs(z) < Z_MAX for z in stats.values()), stats


