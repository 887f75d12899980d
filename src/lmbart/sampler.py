"""MCMC backfitting engine for sum-of-trees regression and classification.

One chain is strictly sequential: each tree is updated against the partial
residuals implied by every other tree's current fit, through a
Metropolis-Hastings step on the tree structure followed by a Gibbs redraw
of all its leaf parameters. Global draws (error variance, coefficient
precisions, split probabilities) close each sweep. `sweep` is the only
implementation of a sweep; `_run_chain` and the joint-distribution test loop over it.

The sweep carries the full residual, target - sum of every tree's fit,
through its tree steps: a step adds its tree's fit back to get the partial
residual and subtracts the redrawn fit to hand on the new full residual.
Each tree carries its routing of the training rows, both as rows per node
and as a row -> leaf id index, which gives a constant tree's leaf sums by
one `bincount` and its fit by one `take`.

Binary responses are handled by probit data augmentation: a latent Gaussian
variable per observation, truncated to match the label's sign, replaces the
response as the regression target and the error variance is pinned at 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy.special import gammaincinv, log_ndtr, ndtr, ndtri_exp

from . import leaves as lv
from . import trees as tr
from .data import (CLASSIFICATION, REGRESSION, Dataset, ScalingInfo, SplitDictionary, at_least,
                   check_fields, is_finite_real, is_int, split_dictionary)

VERSION = "lmbart 0.2.0"
# keys that `read_run` requires of a run's header line and of each draw record
_HEADER_KEYS = ("version", "task", "feature_names", "scaling", "acceptance", "retained",
                "sigma2_chain")
_DRAW_KEYS = ("iteration", "sigma2", "terminal_counts", "param_counts")
_OUTCOMES = ("accepted", "rejected", "invalid")    # of a tree step, counted per move kind

UNIFORM = "uniform"
DIRICHLET = "dirichlet"


_POSITIVE = (lambda v: v > 0, "> 0")


def _one_of(*choices):
    return (lambda v: v in choices), " or ".join(map(repr, choices))


# `Hyperparams` field -> (accepts a value of its type, the range it states)
_FIELD_RANGES = {
    "m": at_least(1), "alpha": (lambda v: 0 < v < 1, "in (0, 1)"), "beta_depth": at_least(0),
    "nu": _POSITIVE, "lam": _POSITIVE, "c": (lambda v: 1 <= v <= 3, "in [1, 3]"),
    "burn_in": at_least(0), "post_burn_in": at_least(1), "thin": at_least(1),
    "leaf_model": _one_of(lv.CONSTANT, lv.LINEAR),
    "covariate_rule": _one_of(lv.TREE_SPLITS, lv.ANCESTORS),
    "branching": _one_of(UNIFORM, DIRICHLET),
    "tau_b": _POSITIVE, "a0": _POSITIVE, "b0": _POSITIVE, "a1": _POSITIVE, "b1": _POSITIVE,
    "n_min": at_least(1), "seed": at_least(0), "dirichlet_mass": _POSITIVE,
}


@dataclass
class Hyperparams:
    """Sampler configuration.

    `lam` defaults to None, meaning it is calibrated at fit time so the
    error-variance prior puts 90% of its mass below the sample variance of
    the (internally scaled) response. `branching` and `vars_inter_slope`
    default per leaf model: linear leaves get Dirichlet branching and
    estimated intercept/slope precisions, constant leaves get uniform
    branching. `tau_b` (the fixed coefficient precision used when
    `vars_inter_slope` is off) defaults to the number of trees.

    Under Dirichlet branching the model is the joint truncation
    p(s) p(T | s) 1[T valid] of the split probabilities s and the trees T,
    not "s ~ Dirichlet, then T from the tree prior truncated given s": the
    conjugate update of s leaves out the truncation constant Z(s), the
    prior probability that a tree drawn given s is valid (0.654-0.699 over
    s on the posterior-validity gate's data).
    """

    m: int = 10
    alpha: float = 0.95
    beta_depth: float = 2.0
    nu: float = 3.0
    lam: float | None = None
    c: float = 2.0
    burn_in: int = 1000
    post_burn_in: int = 5000
    thin: int = 1
    leaf_model: str = lv.CONSTANT
    covariate_rule: str = lv.TREE_SPLITS
    branching: str | None = None
    vars_inter_slope: bool | None = None
    tau_b: float | None = None
    a0: float = 0.5
    b0: float = 0.5
    a1: float = 0.5
    b1: float = 0.5
    n_min: int = 5
    seed: int = 0
    store_trees: bool = False
    dirichlet_mass: float = 1.0

    def __post_init__(self):
        self.validate()
        if self.branching is None:
            self.branching = DIRICHLET if self.leaf_model == lv.LINEAR else UNIFORM
        if self.vars_inter_slope is None:
            self.vars_inter_slope = self.leaf_model == lv.LINEAR
        if self.tau_b is None:
            self.tau_b = float(self.m)

    def validate(self):
        """Each field must hold its annotated type, then lie in its range
        (`_FIELD_RANGES`), else `check_fields` raises ValueError naming it. A
        field left None where its annotation allows it is skipped:
        `__post_init__` then resolves it, or the chain calibrates `lam`."""
        check_fields(vars(self), Hyperparams.__annotations__, _FIELD_RANGES)
        if self.post_burn_in < self.thin:
            raise ValueError(f"post_burn_in={self.post_burn_in} keeps no draw at "
                             f"thin={self.thin}; need post_burn_in >= thin")
        if self.vars_inter_slope and self.leaf_model != lv.LINEAR:
            raise ValueError("vars_inter_slope needs leaf_model='linear', "
                             f"got leaf_model={self.leaf_model!r}")

    @property
    def sigma_mu2(self) -> float:
        """Prior variance of constant leaf means, (0.5 / (c sqrt(m)))^2."""
        return (0.5 / (self.c * math.sqrt(self.m))) ** 2

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Hyperparams":
        """Inverse of `to_dict`; a key that names no field raises ValueError."""
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown hyperparameter(s): {', '.join(unknown)}")
        return cls(**d)


def calibrate_lambda(y: np.ndarray, nu: float, q: float = 0.90) -> float:
    """Scale of the error-variance prior so P(sigma^2 < var(y)) = q.

    Uses the scaled-inverse-chi-square device: sigma^2 ~ nu*lam / chi2_nu.
    The chi2_nu quantile is 2 * gammaincinv(nu/2, .), as `scipy.stats.chi2.ppf`
    computes it.
    """
    s2 = max(float(np.var(y, ddof=1)), 1e-12)
    return 2.0 * gammaincinv(nu / 2.0, 1.0 - q) * s2 / nu


# ---------------------------------------------------------------------------
# conjugate draws


def mh_accept(log_alpha: float, rng: np.random.Generator) -> bool:
    """Metropolis-Hastings coin flip: accept iff log U < log alpha."""
    return math.log(rng.random()) < log_alpha


def sample_sigma2(total_squared_resid: float, n: int, nu: float, lam: float,
                  rng: np.random.Generator) -> float:
    """Inverse-Gamma((n+nu)/2, (S + nu*lam)/2) draw of the error variance."""
    shape = (n + nu) / 2.0
    rate = (total_squared_resid + nu * lam) / 2.0
    return 1.0 / rng.gamma(shape, 1.0 / rate)


def draw_sigma2(resid: np.ndarray, coefs: tuple | None, taus: tuple[float, float],
                nu: float, lam: float, rng: np.random.Generator) -> float:
    """sigma^2 from its full conditional given the residuals `resid` and, under
    linear leaves, `coefs` = (every leaf intercept, every leaf slope) as
    arrays (None under constant leaves). Their prior beta ~ N(0, sigma^2 V),
    V^-1 = diag(tau0, tau1, ...) with `taus` = (tau0, tau1), adds the
    coefficient count to n and beta'V^-1 beta to the squared residuals."""
    n, total = resid.size, float(resid @ resid)
    if coefs is not None:
        intercepts, slopes = coefs
        n += intercepts.size + slopes.size
        total += taus[0] * float(intercepts @ intercepts) + taus[1] * float(slopes @ slopes)
    return sample_sigma2(total, n, nu, lam, rng)


def _sample_precision(coefs: np.ndarray, sigma2: float, a: float, b: float,
                      rng: np.random.Generator) -> float:
    """Gamma draw of a coefficient precision given every coefficient it governs.

    `sample_tau_intercept` takes every leaf intercept with (a0, b0) and
    `sample_tau_slopes` every leaf slope with (a1, b1).
    """
    coefs = np.asarray(coefs, dtype=float)
    shape = coefs.size / 2.0 + a
    rate = float(coefs @ coefs) / (2.0 * sigma2) + b
    return rng.gamma(shape, 1.0 / rate)


sample_tau_intercept = sample_tau_slopes = _sample_precision


def dirichlet_update_splitprobs(split_counts: np.ndarray, dirichlet_mass: float,
                                rng: np.random.Generator) -> np.ndarray:
    """Conjugate Dirichlet draw of the split-feature probabilities.

    Concentration is mass/p per feature plus the count of internal nodes
    currently using that feature across all trees.
    """
    counts = np.asarray(split_counts, dtype=float)
    return rng.dirichlet(dirichlet_mass / counts.size + counts)


def sample_latent_z(y_binary: np.ndarray, fit: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """Truncated-Normal draw of the probit latent variables.

    z_i ~ N(fit_i, 1) constrained to (0, inf) when y_i = 1 and to (-inf, 0]
    when y_i = 0 (Albert & Chib, 1993). With s_i = +1 for y_i = 1 and -1
    otherwise, the offset s_i (fit_i - z_i) is a standard Normal truncated
    above at s_i fit_i, drawn by inversion from one uniform U_i in (0, 1]:
    z_i = fit_i - s_i ndtri_exp(log U_i + log_ndtr(s_i fit_i)). The mass
    and its inverse stay in log space, so a truncation point far in either
    tail neither underflows to a zero mass nor loses the draw to rounding
    near 1, as a probability-space inversion would.
    """
    s = np.where(y_binary == 1, 1.0, -1.0)
    log_u = np.log1p(-rng.random(fit.shape[0]))   # log U, U = 1 - [0, 1) in (0, 1]
    return fit - s * ndtri_exp(log_u + log_ndtr(s * fit))


# ---------------------------------------------------------------------------
# chain state


@dataclass
class TreeState:
    """One tree of the chain, or of a replay of stored draws, and what it carries.

    `rows_by_leaf` and `rows_by_split` are the tree's routing of the rows,
    every node's ascending rows, as `Tree.route` fills them; `propose_move`
    and the replay re-route from them only the rows whose nodes changed.

    `index` is the same leaf routing as one row -> leaf id array. Every state
    starts as a `stump`, and only `keep` writes the index after that. The
    index belongs to this state alone and is updated in place.
    """

    tree: tr.Tree
    leaf_params: list              # the leaf model's drawn values, in its stats' leaf order
    rows_by_leaf: dict             # leaf id -> row indices
    fit: np.ndarray                # (n,) current contribution
    log_prior: float               # log_tree_prior(tree), updated on acceptance
    rows_by_split: dict            # split node id -> row indices
    index: np.ndarray              # (n,) row -> leaf id
    stats: object = None           # the leaf model's stats of the kept tree

    @classmethod
    def stump(cls, n: int, log_prior: float = math.nan) -> "TreeState":
        """A stump on n rows, fit 0, no leaf value drawn; the replay tracks no `log_prior`."""
        return cls(tr.Tree.stump(), [], {0: np.arange(n)}, np.zeros(n), log_prior, {},
                   np.zeros(n, np.intp))

    def keep(self, tree: tr.Tree, rows_by_leaf: dict, rows_by_split: dict) -> None:
        """Make `tree` with its routing the kept tree, rewriting the index only
        at leaves whose rows array is not this state's array of that leaf id."""
        for leaf, rows in rows_by_leaf.items():
            if self.rows_by_leaf.get(leaf) is not rows:
                self.index[rows] = leaf
        self.tree, self.rows_by_leaf, self.rows_by_split = tree, rows_by_leaf, rows_by_split


@dataclass
class SamplerState:
    """Everything a chain mutates while sweeping.

    `resid` is the full residual, target - sum of every tree's fit, carried
    from one tree step to the next: `sweep` forms it from `total_fit` when
    the sweep starts, and each tree step replaces it with a new array (never
    mutated in place: the leaf models' reuse rule keys on its identity).
    `total_fit` is the sum of the tree fits as of the end of the last sweep,
    rebuilt once per sweep; tree steps leave it alone.
    """

    trees: list[TreeState]
    sigma2: float
    tau_beta0: float
    tau_beta: float
    split_probs: np.ndarray
    total_fit: np.ndarray
    target: np.ndarray             # y (internal scale) or latent z
    resid: np.ndarray              # target - sum of every tree's fit
    probit: bool = False           # target is latent z given labels; sigma2 pinned at 1
    iteration: int = 0             # sweeps completed
    acceptance: dict = field(default_factory=lambda: {
        kind: dict.fromkeys(_OUTCOMES, 0) for kind in tr.MOVE_KINDS
    })


def partial_residual(state: SamplerState, tree_index: int) -> np.ndarray:
    """R_t = target - sum of every other tree's fit: the carried full residual
    plus the tree's own fit, a new array."""
    return state.resid + state.trees[tree_index].fit


def leaf_model(hp: Hyperparams, taus: tuple[float, float]):
    """The leaf model a configuration selects (the only place that picks one),
    holding the precisions `taus` = (tau0, tau1); constant leaves ignore them."""
    if hp.leaf_model == lv.CONSTANT:
        return lv.ConstantLeaves(hp.sigma_mu2)
    return lv.LinearLeaves(hp.covariate_rule, taus)


def mh_tree_step(state: SamplerState, tree_index: int, features: np.ndarray,
                 split_dict: SplitDictionary, cdf: np.ndarray | None, hp: Hyperparams,
                 model, rng: np.random.Generator) -> tuple[str, str]:
    """One tree update: structural MH step, then leaf-parameter redraw.

    Returns (move kind, outcome) with outcome one of accepted / rejected /
    invalid. The log acceptance ratio adds the move's log proposal ratio
    (`MoveProposal.log_transition_correction`) to the change in log marginal
    likelihood and log tree prior, so the chain targets the tree prior
    truncated to trees with at least `n_min` rows per leaf. Leaf parameters
    are redrawn from their full conditionals in every case, acceptance or
    not, from the leaf statistics of the kept tree. `cdf` is the split
    feature cdf of the state's split probabilities (`trees.split_cdf`).

    The candidate reuses the current tree's leaf and split routing, and on
    acceptance `TreeState.keep` makes it the kept tree, rewriting the row ->
    leaf id index for the leaves whose rows changed. The current tree's stats
    reuse `ts.stats`, the kept tree's stats from this tree's previous step,
    and are otherwise built with the index; the candidate's
    reuse the current tree's, by the rule in `leaves.py`. The log ratio
    still sums every leaf of both trees.

    The step reads the carried full residual (`SamplerState.resid`), forms
    the partial residual with one add, and hands back the new full residual
    with one subtract of the redrawn fit, which the leaf model computes
    (`fit`). `total_fit` is left to `sweep`.
    """
    ts = state.trees[tree_index]
    resid = partial_residual(state, tree_index)
    stats = model.stats(ts.tree, ts.rows_by_leaf, features, resid, ts.stats, ts.index)

    proposal = tr.propose_move(ts.tree, features, split_dict, cdf, rng, hp.n_min,
                               rows_by_leaf=ts.rows_by_leaf, rows_by_split=ts.rows_by_split)
    if not proposal.valid:
        outcome = "invalid"
    else:
        cand_stats = model.stats(proposal.tree, proposal.rows_by_leaf, features, resid, stats)
        cand_prior = tr.log_tree_prior(proposal.tree, hp.alpha, hp.beta_depth)
        log_alpha = (
            model.log_marginal(cand_stats, state.sigma2)
            + cand_prior
            - model.log_marginal(stats, state.sigma2)
            - ts.log_prior
            + proposal.log_transition_correction
        )
        if math.isnan(log_alpha):
            raise FloatingPointError(f"tree {tree_index}: {proposal.kind} move has a "
                                     "NaN log acceptance ratio")
        if mh_accept(log_alpha, rng):
            ts.keep(proposal.tree, proposal.rows_by_leaf, proposal.rows_by_split)
            ts.log_prior = cand_prior
            stats = cand_stats
            outcome = "accepted"
        else:
            outcome = "rejected"
    state.acceptance[proposal.kind][outcome] += 1

    ts.leaf_params = model.draw(stats, state.sigma2, rng)
    ts.stats = stats
    ts.fit = model.fit(ts.leaf_params, stats, ts.index)
    state.resid = resid - ts.fit
    return proposal.kind, outcome


def sweep(state: SamplerState, X: np.ndarray, y: np.ndarray,
          split_dict: SplitDictionary, hp: Hyperparams, lam: float | None,
          rng: np.random.Generator) -> None:
    """One sweep of the chain, in place: the probit latent z given labels `y`,
    the m tree steps under one `leaf_model` holding the sweep's taus and one
    split cdf, then sigma^2 given `y` and any linear leaves' coefficients
    (regression, `draw_sigma2`; `lam` is its prior scale), the taus and the
    split probabilities, each when the configuration draws it.

    The full residual is formed once from `total_fit` and carried through the
    tree steps; `total_fit` is rebuilt once, in tree order, after them."""
    state.iteration += 1
    state.target = sample_latent_z(y, state.total_fit, rng) if state.probit else y
    state.resid = state.target - state.total_fit
    model = leaf_model(hp, (state.tau_beta0, state.tau_beta))
    cdf = tr.split_cdf(state.split_probs, split_dict.splittable())
    for t in range(hp.m):
        mh_tree_step(state, t, X, split_dict, cdf, hp, model, rng)
    total = state.trees[0].fit.copy()
    for ts in state.trees[1:]:
        total += ts.fit
    state.total_fit = total
    coefs = _gather_coefficients(state) if hp.leaf_model == lv.LINEAR else None
    if not state.probit:
        state.sigma2 = draw_sigma2(y - state.total_fit, coefs,
                                   (state.tau_beta0, state.tau_beta), hp.nu, lam, rng)
    if hp.vars_inter_slope:
        intercepts, slopes = coefs
        state.tau_beta0 = sample_tau_intercept(intercepts, state.sigma2, hp.a0, hp.b0, rng)
        state.tau_beta = sample_tau_slopes(slopes, state.sigma2, hp.a1, hp.b1, rng)
    if hp.branching == DIRICHLET:
        counts = _split_usage_counts(state, X.shape[1])
        state.split_probs = dirichlet_update_splitprobs(counts, hp.dirichlet_mass, rng)


# ---------------------------------------------------------------------------
# posterior draws container


@dataclass
class PosteriorDraws:
    """Retained post-burn-in output of one chain.

    `sigma2` and `yhat_train` are on the original response scale
    (probabilities for classification); `sigma2_chain` is the full trace
    including burn-in for convergence plots.
    """

    task: str
    hyperparams: Hyperparams
    scaling: ScalingInfo
    feature_names: list[str]
    lam: float
    iterations: np.ndarray         # retained global iteration numbers
    sigma2: np.ndarray             # (K,)
    tau_beta0: np.ndarray | None
    tau_beta: np.ndarray | None
    yhat_train: np.ndarray         # (K, n)
    terminal_counts: np.ndarray    # (K, m)
    param_counts: np.ndarray       # (K, m)
    acceptance: dict
    sigma2_chain: np.ndarray       # (burn_in + post_burn_in,)
    trees: list | None             # per retained iteration: m stored tree records (trees.py)

    @property
    def retained(self) -> int:
        return self.sigma2.shape[0]


def _serialize_tree(ts: TreeState, last: tr.Tree | None) -> dict:
    """A tree's stored record (trees.py), its drawn values written by its stats'
    `payloads`: a "same" record when `last`, the tree of the index's previous
    record, is the kept tree itself, which is never mutated; else in full."""
    payloads = ts.stats.payloads(ts.leaf_params)
    if ts.tree is last:
        return {"kind": "same", "leaves": [payloads[leaf] for leaf in last.leaf_preorder]}
    return ts.tree.to_dict(payloads)


def _replay_tree(tree_dict: dict, features: np.ndarray, model, ts: TreeState) -> None:
    """Replay one serialized tree on standardized features into `ts` by the
    leaf `model`'s `replay`.

    `ts` is the tree index's state after the previous draw, a `TreeState.stump`
    before the first. `Tree.from_dict` hands back the state's tree for a "same"
    record or unchanged splits, and the state keeps its routing, index and stats.
    It builds any other tree anew, which `trees.carry_routing` routes and
    `TreeState.keep` keeps; its leaves are renumbered, so its stats are built
    afresh. Then `_serialize_tree(ts, None)` is `tree_dict` written out in full. The
    tree is not checked: it is the chain's own or passed `_stored_draws_problem`."""
    tree, stored = tr.Tree.from_dict(tree_dict, ts.tree)
    if tree is not ts.tree:
        ts.keep(tree, *tr.carry_routing(tree, features, ts.tree, ts.rows_by_leaf, ts.rows_by_split))
        ts.stats = None
    ts.leaf_params, ts.fit, ts.stats = model.replay(ts.rows_by_leaf, stored, features, ts.index,
                                                    ts.stats)


def _stored_tree_problem(tree_dict, p: int, leaf_model: str, last: int | None) -> str | int:
    """What makes a stored tree record unusable on p features under `leaf_model`,
    else its leaf count; `last` is the previous record's leaf count, None at draw 0.

    A full record's nodes are each a dict whose "kind" is "leaf", with a
    payload that `leaves.stored_leaf_problem` accepts, or "internal", with a
    "left", a "right", a "feature" in [0, p) (a negative one would index from
    the last column) and a finite "threshold" (a NaN one would send every row
    left). A "same" record after draw 0 holds a list of `last` such payloads.
    """
    if isinstance(tree_dict, dict) and tree_dict.get("kind") == "same":
        payloads = tree_dict.get("leaves")
        if last is None:
            return "a 'same' record, but there is no previous draw"
        if not isinstance(payloads, list):
            return "a 'same' record without a list of leaves"
        if len(payloads) != last:
            return (f"a 'same' record of {len(payloads)} leaves, but the tree's record "
                    f"at the previous draw has {last}")
        problems = (lv.stored_leaf_problem(leaf, p, leaf_model) if isinstance(leaf, dict)
                    else f"leaf {leaf!r} is not an object" for leaf in payloads)
        return next((problem for problem in problems if problem is not None), last)
    stack, leaves = [tree_dict], 0
    while stack:
        node = stack.pop()
        if not isinstance(node, dict):
            return f"node {node!r} is not an object"
        kind = node.get("kind")
        if kind == "leaf":
            problem = lv.stored_leaf_problem(node, p, leaf_model)
            if problem is not None:
                return problem
            leaves += 1
        elif kind != "internal":
            return f"unknown node kind {kind!r}"
        elif not is_int(node.get("feature")) or not 0 <= node["feature"] < p:
            return f"split feature {node.get('feature')!r} is not a feature index in [0, {p})"
        elif not is_finite_real(node.get("threshold")):
            return f"split threshold {node.get('threshold')!r} is not a finite number"
        elif "left" not in node or "right" not in node:
            return "split node without a 'left' and a 'right' child"
        else:
            stack += (node["right"], node["left"])
    return leaves


def _stored_draws_problem(draws, p: int) -> str | None:
    """What makes a run's stored draws unusable on p features; None if nothing.

    `draws` holds per draw its list of tree records, or None. Each draw holds a
    list, or every draw None; draw 0's list is not empty and every draw holds
    as many trees as draw 0; every tree, the first included, passes
    `_stored_tree_problem` under the leaf model of the first tree
    (`leaves.stored_leaf_model`). The problem names the draw, and the tree.
    """
    first = kind = leaves = None     # leaves: per tree index, its last record's leaf count
    for k, trees in enumerate(draws):
        if not isinstance(trees, (list, type(None))):
            return f"draw {k} is not an object with a list of trees"
        stored = "no stored trees" if trees is None else f"{len(trees)} stored trees"
        if k == 0:
            if trees == []:
                return "draw 0: an empty list of stored trees"
            first, leaves = stored, [None] * len(trees or ())
        elif stored != first:
            return f"draw {k}: {stored}, but draw 0 has {first}"
        for t, tree_dict in enumerate(trees or ()):
            kind = kind or lv.stored_leaf_model(tree_dict).kind
            leaves[t] = _stored_tree_problem(tree_dict, p, kind, leaves[t])
            if isinstance(leaves[t], str):
                return f"draw {k}, tree {t}: {leaves[t]}"
    return None


def eval_tree_dict(tree_dict: dict, features: np.ndarray) -> np.ndarray:
    """Evaluate one stored tree, in full, on standardized features, replayed into a stump."""
    ts = TreeState.stump(features.shape[0])
    _replay_tree(tree_dict, features, lv.stored_leaf_model(tree_dict), ts)
    return ts.fit


def _split_usage_counts(state: SamplerState, p: int) -> np.ndarray:
    """The count of split nodes on each of the p features, over every tree."""
    return np.bincount([nd.feature for ts in state.trees for nd in ts.tree.nodes.values()
                        if not nd.is_leaf], minlength=p).astype(float)


def _init_state(train: Dataset, hp: Hyperparams, target: np.ndarray,
                sigma2: float) -> SamplerState:
    n, p = train.n, train.p
    stump_prior = tr.log_tree_prior(tr.Tree.stump(), hp.alpha, hp.beta_depth)
    tau = 1.0 if hp.vars_inter_slope else hp.tau_b   # fixed precisions stay at tau_b
    return SamplerState(
        # leaf parameters are first drawn by the first tree step
        trees=[TreeState.stump(n, stump_prior) for _ in range(hp.m)],
        sigma2=sigma2,
        tau_beta0=tau,
        tau_beta=tau,
        split_probs=np.full(p, 1.0 / p),
        total_fit=np.zeros(n),
        target=target,
        resid=target.copy(),           # target - total_fit, every fit being 0
        probit=train.task == CLASSIFICATION,
    )


def _run_chain(train: Dataset, hp: Hyperparams, scaling: ScalingInfo | None,
               on_sweep=None) -> PosteriorDraws:
    classification = train.task == CLASSIFICATION
    if scaling is None:
        scaling = ScalingInfo.identity(train.p)
    X = np.asfortranarray(train.features)    # column-major for routing (trees.py)
    n = train.n
    rng = np.random.default_rng(hp.seed)
    split_dict = split_dictionary(train)

    y = train.response
    if classification:
        lam = float(hp.lam) if hp.lam is not None else 1.0
        sigma2 = 1.0
    else:
        lam = float(hp.lam) if hp.lam is not None else calibrate_lambda(y, hp.nu)
        sigma2 = max(float(np.var(y, ddof=1)), 1e-12)
    state = _init_state(train, hp, y, sigma2)   # the first sweep draws the target

    total_iters = hp.burn_in + hp.post_burn_in
    n_retained = hp.post_burn_in // hp.thin
    scale2 = scaling.response_scale ** 2 if scaling.response_scaled else 1.0

    iterations = np.zeros(n_retained, dtype=int)
    sigma2_draws = np.zeros(n_retained)
    tau0_draws, tau1_draws = ((np.zeros(n_retained), np.zeros(n_retained))
                              if hp.leaf_model == lv.LINEAR else (None, None))
    yhat_draws = np.zeros((n_retained, n))
    terminal_counts = np.zeros((n_retained, hp.m), dtype=int)
    param_counts = np.zeros((n_retained, hp.m), dtype=int)
    sigma2_chain = np.zeros(total_iters)
    trees_out = [] if hp.store_trees else None
    written = [None] * hp.m      # per tree index, the tree of its last stored record

    keep = 0
    for k in range(1, total_iters + 1):
        sweep(state, X, y, split_dict, hp, lam, rng)
        sigma2_chain[k - 1] = state.sigma2 * scale2

        if k > hp.burn_in and (k - hp.burn_in) % hp.thin == 0:
            iterations[keep] = k
            sigma2_draws[keep] = state.sigma2 * scale2
            if tau0_draws is not None:
                tau0_draws[keep] = state.tau_beta0
                tau1_draws[keep] = state.tau_beta
            yhat_draws[keep] = (ndtr(state.total_fit) if classification
                                else scaling.invert_response(state.total_fit))
            terminal_counts[keep] = [len(ts.rows_by_leaf) for ts in state.trees]
            param_counts[keep] = [ts.stats.parameter_count for ts in state.trees]
            if trees_out is not None:
                trees_out.append(list(map(_serialize_tree, state.trees, written)))
                written = [ts.tree for ts in state.trees]
            keep += 1
        if on_sweep is not None:
            on_sweep(state)

    return PosteriorDraws(
        task=train.task,
        hyperparams=hp,
        scaling=scaling,
        feature_names=list(train.feature_names),
        lam=lam,
        iterations=iterations,
        sigma2=sigma2_draws,
        tau_beta0=tau0_draws,
        tau_beta=tau1_draws,
        yhat_train=yhat_draws,
        terminal_counts=terminal_counts,
        param_counts=param_counts,
        acceptance=state.acceptance,
        sigma2_chain=sigma2_chain,
        trees=trees_out,
    )


def _gather_coefficients(state: SamplerState) -> tuple[np.ndarray, np.ndarray]:
    """(every leaf intercept, every leaf slope) of the trees' coefficient lists, in order."""
    betas = [beta for ts in state.trees for beta in ts.leaf_params]
    return np.asarray([b[0] for b in betas]), np.asarray([c for b in betas for c in b[1:]])


def run_regression(train: Dataset, hp: Hyperparams,
                   scaling: ScalingInfo | None = None,
                   on_sweep=None) -> PosteriorDraws:
    """Fit the sum-of-trees model to a standardized regression dataset.

    `scaling` maps recorded predictions and sigma^2 draws back to the
    original response scale; pass None if the data were not rescaled.
    """
    if train.task != REGRESSION:
        raise ValueError("run_regression requires a regression dataset")
    return _run_chain(train, hp, scaling, on_sweep)


def run_classification(train: Dataset, hp: Hyperparams,
                       scaling: ScalingInfo | None = None,
                       on_sweep=None) -> PosteriorDraws:
    """Fit the probit sum-of-trees model to a binary dataset.

    The error variance stays fixed at 1 and retained predictions are
    probabilities through the standard-Normal cdf link.
    """
    if train.task != CLASSIFICATION:
        raise ValueError("run_classification requires a classification dataset")
    return _run_chain(train, hp, scaling, on_sweep)


# ---------------------------------------------------------------------------
# prediction


@dataclass
class PredictionSummary:
    """Per-row posterior mean with central 90% band, on the original scale."""

    mean: np.ndarray
    lower: np.ndarray      # 5% quantile
    upper: np.ndarray      # 95% quantile
    draws: np.ndarray      # (K, n_new) per-draw predictions


def predict_stored(trees: list, task: str, scaling: ScalingInfo,
                   X_new: np.ndarray) -> PredictionSummary:
    """Replay stored trees (one list of tree records per draw) on new rows.

    `X_new` is on the original feature scale and `scaling` is the training
    run's. Classification runs return probabilities. The trees are first
    checked by `read_run`'s rule, `_stored_draws_problem` on the scaling's
    feature count, which walks every tree record: a problem raises ValueError in
    `read_run`'s words. `replay_trees` then replays them unchecked.
    """
    problem = (_stored_draws_problem(trees, scaling.feature_centers.size)
               if trees and trees[0] is not None else "no stored draws")
    if problem is not None:
        raise ValueError(problem)
    return replay_trees(trees, task, scaling, X_new)


def replay_trees(trees: list, task: str, scaling: ScalingInfo,
                 X_new: np.ndarray) -> PredictionSummary:
    """Replay stored trees that need no check, a chain's own or those that
    passed `_stored_draws_problem`, on new rows; arguments as `predict_stored`.

    One leaf model, picked from the first stored tree
    (`leaves.stored_leaf_model`), replays every tree. Each tree index keeps
    one `TreeState`, a `TreeState.stump` before draw 0, that `_replay_tree`
    carries from one draw to the next, so a tree is rebuilt and routed again
    only when its splits changed since the previous draw, and then routed
    only below the topmost nodes whose rules differ; a "same" record is read
    without a walk. Tree fits are summed in place into the draw's row, in tree
    order, and the link maps all draws at once. The band equals `np.quantile`'s
    linear method bit for bit (`quantile_band`).
    """
    X_new = np.asarray(X_new, dtype=float)
    if X_new.ndim != 2 or X_new.shape[1] != scaling.feature_centers.size:
        raise ValueError(f"expected {scaling.feature_centers.size} feature columns, "
                         f"got {X_new.shape}")
    bad = np.argwhere(~np.isfinite(X_new))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"non-finite feature value {X_new[row, col]} at X_new[{row}, {col}]")
    Xs = np.asfortranarray(scaling.transform_features(X_new))   # column-major for routing
    out = np.zeros((len(trees), Xs.shape[0]))
    model = lv.stored_leaf_model(trees[0][0])
    states = [TreeState.stump(Xs.shape[0]) for _ in trees[0]]
    with np.errstate(over="ignore", invalid="ignore"):    # the finite check names these
        for k, tree_dicts in enumerate(trees):
            fit = out[k]
            for d, ts in zip(tree_dicts, states):
                _replay_tree(d, Xs, model, ts)
                fit += ts.fit
    if not np.isfinite(out).all():
        k = int(np.flatnonzero(~np.isfinite(out).all(axis=1))[0])
        raise ValueError(f"draw {k}: its tree fits sum to a non-finite value")
    out = ndtr(out) if task == CLASSIFICATION else scaling.invert_response(out)
    lower, upper = quantile_band(out, (0.05, 0.95))
    return PredictionSummary(out.mean(axis=0), lower, upper, out)


def quantile_band(draws: np.ndarray, qs: tuple[float, ...]) -> list[np.ndarray]:
    """Per column of the (K, n) `draws`, the quantiles `qs`, from one sort.

    Each quantile interpolates between two order statistics by the rule of
    numpy's default `method="linear"`, in the same float operations, so the
    result equals `np.quantile(draws, qs, axis=0)` bit for bit; a column
    holding a NaN gets the NaN that sorts last, as there.
    """
    ordered = np.sort(draws, axis=0)
    last = ordered.shape[0] - 1
    nan_columns = np.isnan(ordered[-1])
    band = []
    for q in qs:
        at = last * q                    # numpy's virtual index
        below = math.floor(at) if at < last else -1   # numpy's index of the maximum
        above = below + 1 if below >= 0 else -1
        gamma = at - below
        a, b = ordered[below], ordered[above]
        diff = b - a
        value = b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma
        np.copyto(value, ordered[-1], where=nan_columns)
        band.append(value)
    return band


def predict(draws: PosteriorDraws, X_new: np.ndarray) -> PredictionSummary:
    """Replay a run's stored trees on new rows (original feature scale).

    Requires a run with `store_trees`. The trees are the chain's own, so they
    are replayed unchecked (`replay_trees`); see `predict_stored`.
    """
    if draws.trees is None:
        raise ValueError("draws contain no stored trees; rerun with store_trees")
    return replay_trees(draws.trees, draws.task, draws.scaling, X_new)


# ---------------------------------------------------------------------------
# run persistence: one JSON-lines file per run, a header line then the draws


def write_run(draws: PosteriorDraws, path, extra: dict | None = None) -> None:
    """A run as one JSON-lines file.

    The first line is the header: version, task, feature names, resolved
    config and lambda, scaling, acceptance counters, `retained`, the mean
    training fit, the whole sigma^2 chain (burn-in included) and `extra`.
    One line per retained draw follows: sigma2, taus, counts, optional trees.
    """
    header = {
        "version": VERSION,
        "task": draws.task,
        "feature_names": draws.feature_names,
        "config": draws.hyperparams.to_dict(),
        "resolved_lambda": draws.lam,
        "scaling": draws.scaling.to_dict(),
        "acceptance": draws.acceptance,
        "retained": draws.retained,
        "train_yhat_mean": draws.yhat_train.mean(axis=0).tolist(),
        "sigma2_chain": draws.sigma2_chain.tolist(),
        **(extra or {}),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for k in range(draws.retained):
            record = {
                "iteration": int(draws.iterations[k]),
                "sigma2": float(draws.sigma2[k]),
                "terminal_counts": draws.terminal_counts[k].tolist(),
                "param_counts": draws.param_counts[k].tolist(),
            }
            if draws.tau_beta0 is not None:
                record["tau_beta0"] = float(draws.tau_beta0[k])
                record["tau_beta"] = float(draws.tau_beta[k])
            if draws.trees is not None:
                record["trees"] = draws.trees[k]
            fh.write(json.dumps(record) + "\n")


def read_run(path) -> tuple[dict, list[dict]]:
    """(header, draw records) of a `write_run` file, the header's `scaling`
    built as a `ScalingInfo`.

    Raises ValueError naming the file when a line is not valid JSON (by line
    number), the header is not an object, is a draw record (a run written
    before the header, with a separate metadata file), lacks a required key,
    has another `VERSION`, has a value that `_header_value_problem` refuses,
    or has a `scaling` that `ScalingInfo.from_dict` refuses or that does not
    hold one center and scale per feature name, or when the draw count is
    not the header's `retained`. Draw records are
    checked here, once per file, naming the draw: first their stored trees,
    by `_stored_draws_problem` on the header's feature count (a record that
    is not an object fails it), then each record's `_DRAW_KEYS`, present and
    accepted by `_draw_value_problem`. The stored trees of a file that passes
    need no further check, so `lmbart predict` replays them unchecked.
    """
    values = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                values.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {number} is not valid JSON at column "
                                 f"{exc.colno}; the file may be truncated") from None
    if not values:
        raise ValueError(f"{path}: empty file, no run header")
    header, records = values[0], values[1:]
    if not isinstance(header, dict):
        raise ValueError(f"{path}: the header line is not a JSON object")
    if "iteration" in header:
        raise ValueError(f"{path}: no run header (the first line is a draw); runs "
                         "written with a separate metadata file must be trained again")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise ValueError(f"{path}: header missing key(s) {', '.join(missing)}")
    if header["version"] != VERSION:
        raise ValueError(f"{path}: written by {header['version']!r}, "
                         f"expected {VERSION!r}")
    problem = _header_value_problem(header)
    if problem is not None:
        raise ValueError(f"{path}: {problem}")
    p = len(header["feature_names"])
    try:
        scaling = ScalingInfo.from_dict(header["scaling"])
    except (TypeError, ValueError) as exc:       # DataError is a ValueError
        raise ValueError(f"{path}: {exc}") from None
    if scaling.feature_centers.shape != (p,) or scaling.feature_scales.shape != (p,):
        raise ValueError(f"{path}: scaling holds {scaling.feature_centers.size} feature centers "
                         f"and {scaling.feature_scales.size} scales, but the header names "
                         f"{p} features")
    header["scaling"] = scaling
    if len(records) != header["retained"]:
        raise ValueError(f"{path}: {len(records)} draws, but the header records "
                         f"{header['retained']}; the file may be truncated")
    if not records:
        raise ValueError(f"{path}: no retained draws")
    # a record that is not an object holds no list of trees
    problem = _stored_draws_problem([record.get("trees") if isinstance(record, dict) else ()
                                     for record in records], p)
    if problem is not None:
        raise ValueError(f"{path}: {problem}")
    m = None
    for k, record in enumerate(records):
        missing = [key for key in _DRAW_KEYS if key not in record]
        if missing:
            raise ValueError(f"{path}: draw {k}: missing key(s) {', '.join(missing)}")
        problem = _draw_value_problem(record, m)
        if problem is not None:
            raise ValueError(f"{path}: draw {k}: {problem}")
        m = len(record["terminal_counts"])
    return header, records


def _header_value_problem(header: dict) -> str | None:
    """What makes the values of a run header's `_HEADER_KEYS` other than
    `version` and `scaling` unusable; None if nothing. `acceptance` maps the
    move kinds (`trees.MOVE_KINDS`) to an int count per outcome (`_OUTCOMES`)."""
    task, names, acceptance = header["task"], header["feature_names"], header["acceptance"]
    if task not in (REGRESSION, CLASSIFICATION):
        return f"task {task!r} is not {REGRESSION!r} or {CLASSIFICATION!r}"
    if not (isinstance(names, list) and all(isinstance(name, str) for name in names)
            and len(set(names)) == len(names)):
        return f"feature_names {names!r} is not a list of distinct strings"
    if not is_int(header["retained"]):
        return f"retained {header['retained']!r} is not an int"
    if not (isinstance(acceptance, dict) and sorted(acceptance) == sorted(tr.MOVE_KINDS)
            and all(isinstance(counts, dict) and sorted(counts) == sorted(_OUTCOMES)
                    and all(map(is_int, counts.values()))
                    for counts in acceptance.values())):
        return (f"acceptance {acceptance!r} does not map each move kind to int "
                f"{', '.join(_OUTCOMES)} counts")
    chain = header["sigma2_chain"]
    if not (isinstance(chain, list) and all(map(is_finite_real, chain))):
        return "sigma2_chain is not a list of finite numbers"
    return None


def _draw_value_problem(record: dict, m: int | None) -> str | None:
    """What makes the values of a draw record's `_DRAW_KEYS` unusable; None
    if nothing. Each count list holds one int per tree: `m` of them, the
    length of draw 0's terminal counts (None when `record` is draw 0)."""
    if not is_int(record["iteration"]):
        return f"iteration {record['iteration']!r} is not an int"
    if not is_finite_real(record["sigma2"]):
        return f"sigma2 {record['sigma2']!r} is not a finite number"
    for key in ("terminal_counts", "param_counts"):
        counts = record[key]
        if not (isinstance(counts, list) and counts and all(map(is_int, counts))):
            return f"{key} is not a non-empty list of ints"
        m = m or len(counts)
        if len(counts) != m:
            return f"{key} holds {len(counts)} counts, but draw 0's terminal_counts holds {m}"
    return None
