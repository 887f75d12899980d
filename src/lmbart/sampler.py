"""MCMC backfitting engine for sum-of-trees regression and classification.

One chain is strictly sequential: each tree is updated against the partial
residuals implied by every other tree's current fit, through a
Metropolis-Hastings step on the tree structure followed by a Gibbs redraw
of all its leaf parameters. Global draws (error variance, coefficient
precisions, split probabilities) close each sweep. `sweep` is the only
implementation of a sweep; `_run_chain` and the joint-distribution test loop over it.

Binary responses are handled by probit data augmentation: a latent Gaussian
variable per observation, truncated to match the label's sign, replaces the
response as the regression target and the error variance is pinned at 1.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy.special import gammaincinv, log_ndtr, ndtr, ndtri_exp

from . import leaves as lv
from . import trees as tr
from .data import (CLASSIFICATION, REGRESSION, Dataset, ScalingInfo,
                   SplitDictionary, split_dictionary)

VERSION = "lmbart 0.1.0"
# keys that `read_metadata` requires of a run's metadata
_META_KEYS = ("version", "task", "feature_names", "scaling", "acceptance", "retained")

UNIFORM = "uniform"
DIRICHLET = "dirichlet"


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
        if self.branching is None:
            self.branching = DIRICHLET if self.leaf_model == lv.LINEAR else UNIFORM
        if self.vars_inter_slope is None:
            self.vars_inter_slope = self.leaf_model == lv.LINEAR
        if self.tau_b is None:
            self.tau_b = float(self.m)
        self.validate()

    def validate(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.beta_depth < 0:
            raise ValueError("beta_depth must be >= 0")
        if self.nu <= 0:
            raise ValueError("nu must be > 0")
        if self.lam is not None and self.lam <= 0:
            raise ValueError("lam must be > 0")
        if not 1.0 <= self.c <= 3.0:
            raise ValueError("c must lie in [1, 3]")
        if self.burn_in < 0 or self.post_burn_in < 1 or self.thin < 1:
            raise ValueError("need burn_in >= 0, post_burn_in >= 1, thin >= 1")
        if self.post_burn_in < self.thin:
            raise ValueError(f"post_burn_in={self.post_burn_in} keeps no draw at "
                             f"thin={self.thin}; need post_burn_in >= thin")
        if self.leaf_model not in (lv.CONSTANT, lv.LINEAR):
            raise ValueError(f"unknown leaf model {self.leaf_model!r}")
        if self.covariate_rule not in (lv.TREE_SPLITS, lv.ANCESTORS):
            raise ValueError(f"unknown covariate rule {self.covariate_rule!r}")
        if self.branching not in (UNIFORM, DIRICHLET):
            raise ValueError(f"unknown branching {self.branching!r}")
        if self.tau_b <= 0 or min(self.a0, self.b0, self.a1, self.b1) <= 0:
            raise ValueError("precision hyperparameters must be > 0")
        if self.n_min < 1:
            raise ValueError("n_min must be >= 1")
        if self.dirichlet_mass <= 0:
            raise ValueError("dirichlet_mass must be > 0")
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
    s2 = float(np.var(y, ddof=1))
    if s2 <= 0:
        s2 = 1e-12
    return 2.0 * gammaincinv(nu / 2.0, 1.0 - q) * s2 / nu


# ---------------------------------------------------------------------------
# conjugate draws


def mh_accept(log_alpha: float, rng: np.random.Generator) -> bool:
    """Metropolis-Hastings coin flip: accept iff log U < log alpha."""
    return math.log(rng.uniform()) < log_alpha


def sample_sigma2(total_squared_resid: float, n: int, nu: float, lam: float,
                  rng: np.random.Generator) -> float:
    """Inverse-Gamma((n+nu)/2, (S + nu*lam)/2) draw of the error variance."""
    shape = (n + nu) / 2.0
    rate = (total_squared_resid + nu * lam) / 2.0
    return 1.0 / rng.gamma(shape, 1.0 / rate)


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
    tree: tr.Tree
    leaf_params: dict              # leaf id -> stored leaf payload (see leaves.py)
    rows_by_leaf: dict             # leaf id -> training row indices
    fit: np.ndarray                # (n,) current contribution
    log_prior: float               # log_tree_prior(tree), updated on acceptance
    stats: dict = field(default_factory=dict)  # leaf id -> LeafStats of the kept tree


@dataclass
class SamplerState:
    """Everything a chain mutates while sweeping."""

    trees: list[TreeState]
    sigma2: float
    tau_beta0: float
    tau_beta: float
    split_probs: np.ndarray
    total_fit: np.ndarray
    target: np.ndarray             # y (internal scale) or latent z
    probit: bool = False           # target is latent z given labels; sigma2 pinned at 1
    iteration: int = 0             # sweeps completed
    acceptance: dict = field(default_factory=lambda: {
        kind: {"accepted": 0, "rejected": 0, "invalid": 0} for kind in tr.MOVE_KINDS
    })


def partial_residual(state: SamplerState, tree_index: int) -> np.ndarray:
    """R_t = target - sum of every other tree's fit, via the running total."""
    ts = state.trees[tree_index]
    return state.target - state.total_fit + ts.fit


def leaf_model(hp: Hyperparams, taus: tuple[float, float]):
    """The leaf model a configuration selects (the only place that picks one),
    holding the precisions `taus` = (tau0, tau1); constant leaves ignore them."""
    if hp.leaf_model == lv.CONSTANT:
        return lv.ConstantLeaves(hp.sigma_mu2)
    return lv.LinearLeaves(hp.covariate_rule, taus)


def _tree_fit(leaf_params: dict, rows_by_leaf: dict, designs: dict, n: int) -> np.ndarray:
    """One tree's fit on n rows; `designs` maps leaf id -> its `leaf_design`."""
    fit = np.zeros(n)
    for leaf, rows in rows_by_leaf.items():
        fit[rows] = lv.leaf_values(leaf_params[leaf], designs[leaf])
    return fit


def mh_tree_step(state: SamplerState, tree_index: int, features: np.ndarray,
                 split_dict: SplitDictionary, hp: Hyperparams,
                 model, rng: np.random.Generator) -> tuple[str, str]:
    """One tree update: structural MH step, then leaf-parameter redraw.

    Returns (move kind, outcome) with outcome one of accepted / rejected /
    invalid. The log acceptance ratio adds the move's log proposal ratio
    (`MoveProposal.log_transition_correction`) to the change in log marginal
    likelihood and log tree prior, so the chain targets the tree prior
    truncated to trees with at least `n_min` rows per leaf. Leaf parameters
    are redrawn from their full conditionals in every case, acceptance or
    not, from the leaf statistics of the kept tree.

    The candidate reuses the current tree's routing. The current tree's
    stats reuse `ts.stats`, the kept tree's stats from this tree's previous
    step, and the candidate's reuse the current tree's, by the rule in
    `leaves.py`. The log ratio still sums every leaf of both trees, so it is
    the full-recompute value bit for bit.
    """
    ts = state.trees[tree_index]
    resid = partial_residual(state, tree_index)
    stats = model.stats(ts.tree, ts.rows_by_leaf, features, resid, ts.stats)

    proposal = tr.propose_move(ts.tree, features, split_dict, state.split_probs,
                               rng, hp.n_min, rows_by_leaf=ts.rows_by_leaf)
    if not proposal.valid:
        outcome = "invalid"
    else:
        cand_stats = model.stats(proposal.tree, proposal.rows_by_leaf, features, resid,
                                 {st.leaf_id: st for st in stats})
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
            ts.tree = proposal.tree
            ts.rows_by_leaf = proposal.rows_by_leaf
            ts.log_prior = cand_prior
            stats = cand_stats
            outcome = "accepted"
        else:
            outcome = "rejected"
    state.acceptance[proposal.kind][outcome] += 1

    ts.leaf_params = model.draw(stats, state.sigma2, rng)
    ts.stats = {st.leaf_id: st for st in stats}
    new_fit = _tree_fit(ts.leaf_params, ts.rows_by_leaf,
                        {st.leaf_id: st.design for st in stats}, features.shape[0])
    state.total_fit += new_fit - ts.fit
    ts.fit = new_fit
    return proposal.kind, outcome


def sweep(state: SamplerState, X: np.ndarray, y: np.ndarray,
          split_dict: SplitDictionary, hp: Hyperparams, lam: float | None,
          rng: np.random.Generator) -> None:
    """One sweep of the chain, in place: the probit latent z given labels `y`,
    the m tree steps under one `leaf_model` holding the sweep's taus, then
    sigma^2 given `y` (regression; `lam` is its prior scale), the taus and the
    split probabilities, each when the configuration draws it."""
    state.iteration += 1
    state.target = sample_latent_z(y, state.total_fit, rng) if state.probit else y
    model = leaf_model(hp, (state.tau_beta0, state.tau_beta))
    for t in range(hp.m):
        mh_tree_step(state, t, X, split_dict, hp, model, rng)
    if not state.probit:
        resid = y - state.total_fit
        state.sigma2 = sample_sigma2(float(resid @ resid), y.size, hp.nu, lam, rng)
    if hp.vars_inter_slope:
        intercepts, slopes = _gather_coefficients(state)
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
    trees: list | None             # per retained iteration: list of m tree dicts

    @property
    def retained(self) -> int:
        return self.sigma2.shape[0]


def _serialize_tree(ts: TreeState) -> dict:
    return ts.tree.to_dict(ts.leaf_params)


@dataclass
class _Replay:
    """One stored tree's replay on a feature matrix, kept to serve the next draw."""

    nodes: dict            # the rebuilt tree's arena; equal arenas route alike
    rows_by_leaf: dict     # leaf id -> rows it receives
    payload: dict          # leaf id -> stored leaf payload
    designs: dict          # leaf id -> design its values were computed on


def _replay_tree(tree_dict: dict, features: np.ndarray,
                 previous: _Replay | None = None) -> tuple[np.ndarray, _Replay]:
    """Fit of one serialized tree on standardized features, and its replay.

    `previous` is the replay of the same tree index in the previous draw.
    `Tree.from_dict` numbers nodes by the tree's shape, so a tree whose
    arena equals the previous one has the same splits: it reuses that
    routing, and every linear leaf whose covariates are unchanged its design.
    Any other tree is routed with `Tree.leaf_rows`.
    """
    tree, payload = tr.Tree.from_dict(tree_dict)
    hit = previous is not None and previous.nodes == tree.nodes
    rows_by_leaf = previous.rows_by_leaf if hit else tree.leaf_rows(features)
    designs = {}
    for leaf, rows in rows_by_leaf.items():
        if hit and lv.same_design(payload[leaf], previous.payload[leaf]):
            designs[leaf] = previous.designs[leaf]
        else:
            designs[leaf] = lv.leaf_design(payload[leaf], rows, features)
    fit = _tree_fit(payload, rows_by_leaf, designs, features.shape[0])
    return fit, _Replay(tree.nodes, rows_by_leaf, payload, designs)


def eval_tree_dict(tree_dict: dict, features: np.ndarray) -> np.ndarray:
    """Evaluate one serialized tree on standardized features."""
    return _replay_tree(tree_dict, features)[0]


def _split_usage_counts(state: SamplerState, p: int) -> np.ndarray:
    counts = np.zeros(p)
    for ts in state.trees:
        for nd in ts.tree.nodes.values():
            if not nd.is_leaf:
                counts[nd.feature] += 1
    return counts


def _init_state(train: Dataset, hp: Hyperparams, target: np.ndarray,
                sigma2: float) -> SamplerState:
    n, p = train.n, train.p
    stumps = [tr.Tree.stump() for _ in range(hp.m)]
    stump_prior = tr.log_tree_prior(stumps[0], hp.alpha, hp.beta_depth)
    tau = 1.0 if hp.vars_inter_slope else hp.tau_b   # fixed precisions stay at tau_b
    return SamplerState(
        # leaf parameters are first drawn by the first tree step
        trees=[TreeState(t, {}, {t.root: np.arange(n)}, np.zeros(n), stump_prior)
               for t in stumps],
        sigma2=sigma2,
        tau_beta0=tau,
        tau_beta=tau,
        split_probs=np.full(p, 1.0 / p),
        total_fit=np.zeros(n),
        target=target,
        probit=train.task == CLASSIFICATION,
    )


def _run_chain(train: Dataset, hp: Hyperparams, scaling: ScalingInfo | None,
               on_sweep=None) -> PosteriorDraws:
    classification = train.task == CLASSIFICATION
    if scaling is None:
        scaling = ScalingInfo.identity(train.p)
    X = train.features
    n = train.n
    rng = np.random.default_rng(hp.seed)
    split_dict = split_dictionary(train)

    y = train.response
    if classification:
        lam = float(hp.lam) if hp.lam is not None else 1.0
        z0 = np.where(y == 1.0, 0.5, -0.5)
        state = _init_state(train, hp, z0, 1.0)
    else:
        lam = float(hp.lam) if hp.lam is not None else calibrate_lambda(y, hp.nu)
        sigma2_init = float(np.var(y, ddof=1)) if n > 1 else 1.0
        state = _init_state(train, hp, y, max(sigma2_init, 1e-12))

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

    keep = 0
    for k in range(1, total_iters + 1):
        sweep(state, X, y, split_dict, hp, lam, rng)
        sigma2_chain[k - 1] = state.sigma2 * scale2

        if k > hp.burn_in and (k - hp.burn_in) % hp.thin == 0 and keep < n_retained:
            iterations[keep] = k
            sigma2_draws[keep] = state.sigma2 * scale2
            if tau0_draws is not None:
                tau0_draws[keep] = state.tau_beta0
                tau1_draws[keep] = state.tau_beta
            yhat_draws[keep] = (ndtr(state.total_fit) if classification
                                else scaling.invert_response(state.total_fit))
            for t, ts in enumerate(state.trees):
                terminal_counts[keep, t] = ts.tree.n_leaves()
                param_counts[keep, t] = sum(st.q for st in ts.stats.values())
            if trees_out is not None:
                trees_out.append([_serialize_tree(ts) for ts in state.trees])
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
    intercepts, slopes = [], []
    for ts in state.trees:
        for leaf in ts.tree.leaves():
            beta = ts.leaf_params[leaf]["beta"]
            intercepts.append(beta[0])
            slopes.extend(beta[1:])
    return np.asarray(intercepts), np.asarray(slopes)


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
    """Replay stored trees (one list of tree dicts per draw) on new rows.

    `X_new` is on the original feature scale and `scaling` is the training
    run's. Classification runs return probabilities. Each tree index carries
    its replay from one draw to the next, so a tree is routed again only
    when its splits changed since the previous draw (see `_replay_tree`).
    """
    if not trees:
        raise ValueError("no stored draws")
    X_new = np.asarray(X_new, dtype=float)
    if X_new.ndim != 2 or X_new.shape[1] != scaling.feature_centers.size:
        raise ValueError(f"expected {scaling.feature_centers.size} feature columns, "
                         f"got {X_new.shape}")
    bad = np.argwhere(~np.isfinite(X_new))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"non-finite feature value {X_new[row, col]} at X_new[{row}, {col}]")
    Xs = scaling.transform_features(X_new)
    out = np.zeros((len(trees), Xs.shape[0]))
    replays = {}                  # tree index -> its replay in the previous draw
    for k, tree_dicts in enumerate(trees):
        fit = 0
        for t, d in enumerate(tree_dicts):
            tree_fit, replays[t] = _replay_tree(d, Xs, replays.get(t))
            fit = fit + tree_fit
        out[k] = ndtr(fit) if task == CLASSIFICATION else scaling.invert_response(fit)
    lower, upper = np.quantile(out, (0.05, 0.95), axis=0)
    return PredictionSummary(out.mean(axis=0), lower, upper, out)


def predict(draws: PosteriorDraws, X_new: np.ndarray) -> PredictionSummary:
    """Replay a run's stored trees on new rows (original feature scale).

    Requires a run with `store_trees`; see `predict_stored`.
    """
    if draws.trees is None:
        raise ValueError("draws contain no stored trees; rerun with store_trees")
    return predict_stored(draws.trees, draws.task, draws.scaling, X_new)


# ---------------------------------------------------------------------------
# run persistence (JSON-lines draws, metadata JSON, sigma^2 trace CSV)


def write_draws_jsonl(draws: PosteriorDraws, path) -> None:
    """One retained iteration per line: sigma2, taus, counts, optional trees."""
    with open(path, "w", encoding="utf-8") as fh:
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


def read_draws_jsonl(path) -> list[dict]:
    """Records of `write_draws_jsonl`; a line that is not JSON raises ValueError."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {number} is not valid JSON at column "
                                 f"{exc.colno}; the file may be truncated") from None
    return records


def write_metadata(draws: PosteriorDraws, path, target_column: str = "y",
                   extra: dict | None = None) -> None:
    """Run-reproduction record: config, scaling sidecar, seed, version."""
    meta = {
        "version": VERSION,
        "task": draws.task,
        "target_column": target_column,
        "feature_names": draws.feature_names,
        "config": draws.hyperparams.to_dict(),
        "resolved_lambda": draws.lam,
        "scaling": draws.scaling.to_dict(),
        "acceptance": draws.acceptance,
        "retained": draws.retained,
        "train_yhat_mean": draws.yhat_train.mean(axis=0).tolist(),
    }
    if extra:
        meta.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)


def read_metadata(path) -> dict:
    """Metadata of `write_metadata`.

    Invalid JSON, a value that is not an object, a missing required key or
    another `VERSION` raises ValueError naming the file.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: not a JSON object")
    missing = [key for key in _META_KEYS if key not in meta]
    if missing:
        raise ValueError(f"{path}: missing key(s) {', '.join(missing)}")
    if meta["version"] != VERSION:
        raise ValueError(f"{path}: written by {meta['version']!r}, "
                         f"expected {VERSION!r}")
    return meta


def write_sigma2_trace(draws: PosteriorDraws, path) -> None:
    """Two-column CSV (iteration, sigma2) over the whole chain, burn-in included."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "sigma2"])
        for i, s2 in enumerate(draws.sigma2_chain, start=1):
            writer.writerow([i, repr(float(s2))])
