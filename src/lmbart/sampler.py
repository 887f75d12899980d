"""MCMC backfitting engine for sum-of-trees regression and classification.

One chain is strictly sequential: each tree is updated against the partial
residuals implied by every other tree's current fit, through a
Metropolis-Hastings step on the tree structure followed by a Gibbs redraw
of all its leaf parameters. Global draws (error variance, coefficient
precisions, split probabilities) close each sweep.

Binary responses are handled by probit data augmentation: a latent Gaussian
variable per observation, truncated to match the label's sign, replaces the
response as the regression target and the error variance is pinned at 1.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.stats import chi2, norm, truncnorm

from . import leaves as lv
from . import trees as tr
from .data import (CLASSIFICATION, REGRESSION, Dataset, ScalingInfo,
                   SplitDictionary, split_dictionary)

VERSION = "lmbart 0.1.0"

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
    proposal_correction: bool = False
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

    @property
    def sigma_mu2(self) -> float:
        """Prior variance of constant leaf means, (0.5 / (c sqrt(m)))^2."""
        return (0.5 / (self.c * math.sqrt(self.m))) ** 2

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Hyperparams":
        return cls(**d)


def calibrate_lambda(y: np.ndarray, nu: float, q: float = 0.90) -> float:
    """Scale of the error-variance prior so P(sigma^2 < var(y)) = q.

    Uses the scaled-inverse-chi-square device: sigma^2 ~ nu*lam / chi2_nu.
    """
    s2 = float(np.var(y, ddof=1))
    if s2 <= 0:
        s2 = 1e-12
    return chi2.ppf(1.0 - q, nu) * s2 / nu


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


def sample_tau_intercept(intercepts: np.ndarray, sigma2: float, a0: float,
                         b0: float, rng: np.random.Generator) -> float:
    """Gamma draw of the intercept precision given every leaf intercept."""
    intercepts = np.asarray(intercepts, dtype=float)
    shape = intercepts.size / 2.0 + a0
    rate = float(intercepts @ intercepts) / (2.0 * sigma2) + b0
    return rng.gamma(shape, 1.0 / rate)


def sample_tau_slopes(slopes: np.ndarray, sigma2: float, a1: float,
                      b1: float, rng: np.random.Generator) -> float:
    """Gamma draw of the slope precision given every leaf slope."""
    slopes = np.asarray(slopes, dtype=float)
    shape = slopes.size / 2.0 + a1
    rate = float(slopes @ slopes) / (2.0 * sigma2) + b1
    return rng.gamma(shape, 1.0 / rate)


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
    when y_i = 0. scipy's truncnorm uses inversion, which stays exact far
    into the tails where naive rejection would stall.
    """
    z = np.empty_like(fit)
    pos = y_binary == 1
    if pos.any():
        z[pos] = truncnorm.rvs(-fit[pos], np.inf, loc=fit[pos], scale=1.0,
                               random_state=rng)
    if (~pos).any():
        z[~pos] = truncnorm.rvs(-np.inf, -fit[~pos], loc=fit[~pos], scale=1.0,
                                random_state=rng)
    return z


# ---------------------------------------------------------------------------
# chain state


@dataclass
class TreeState:
    tree: tr.Tree
    leaf_params: dict              # leaf id -> mu (float) or beta (array)
    covariates: dict               # leaf id -> covariate index list (linear)
    rows_by_leaf: dict             # leaf id -> training row indices
    fit: np.ndarray                # (n,) current contribution


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
    latent_z: np.ndarray | None
    iteration: int = 0
    acceptance: dict = field(default_factory=lambda: {
        kind: {"accepted": 0, "rejected": 0, "invalid": 0} for kind in tr.MOVE_KINDS
    })


def partial_residual(state: SamplerState, tree_index: int) -> np.ndarray:
    """R_t = target - sum of every other tree's fit, via the running total."""
    ts = state.trees[tree_index]
    return state.target - state.total_fit + ts.fit


def _v_diag(q: int, hp: Hyperparams, state: SamplerState) -> np.ndarray:
    """Diagonal of the coefficient prior covariance V for a q-vector leaf."""
    if hp.vars_inter_slope:
        v = np.full(q, 1.0 / state.tau_beta)
        v[0] = 1.0 / state.tau_beta0
        return v
    return np.full(q, 1.0 / hp.tau_b)


def _log_marginal(stats, v_diags, sigma2: float, hp: Hyperparams) -> float:
    if hp.leaf_model == lv.CONSTANT:
        return lv.bart_log_marginal(stats, sigma2, hp.sigma_mu2)
    return lv.linear_log_marginal(stats, sigma2, v_diags)


def _redraw_leaves(state: SamplerState, ts: TreeState, stats, covs, v_diags,
                   features: np.ndarray, hp: Hyperparams,
                   rng: np.random.Generator) -> None:
    """Gibbs-redraw all leaf parameters of `ts` and refresh its fit."""
    new_fit = np.zeros_like(ts.fit)
    if hp.leaf_model == lv.CONSTANT:
        mus = lv.bart_sample_mu(stats, state.sigma2, hp.sigma_mu2, rng)
        for leaf, rows in ts.rows_by_leaf.items():
            new_fit[rows] = mus[leaf]
        ts.leaf_params = mus
        ts.covariates = {}
    else:
        betas = lv.linear_sample_beta(stats, state.sigma2, v_diags, rng)
        for leaf, rows in ts.rows_by_leaf.items():
            X = lv.build_leaf_design(rows, features, covs[leaf])
            new_fit[rows] = X @ betas[leaf]
        ts.leaf_params = betas
        ts.covariates = covs
    state.total_fit += new_fit - ts.fit
    ts.fit = new_fit


def mh_tree_step(state: SamplerState, tree_index: int, features: np.ndarray,
                 split_dict: SplitDictionary, hp: Hyperparams,
                 rng: np.random.Generator) -> tuple[str, str]:
    """One tree update: structural MH step, then leaf-parameter redraw.

    Returns (move kind, outcome) with outcome one of accepted / rejected /
    invalid. Leaf parameters are redrawn from their full conditionals in
    every case, acceptance or not, from the leaf statistics of the kept tree.
    """
    ts = state.trees[tree_index]
    resid = partial_residual(state, tree_index)
    stats, covs, v_diags = _stats_for(ts.tree, ts.rows_by_leaf, resid,
                                      features, hp, state)

    proposal = tr.propose_move(ts.tree, features, split_dict, state.split_probs,
                               rng, hp.n_min)
    if not proposal.valid:
        outcome = "invalid"
    else:
        cand_stats, cand_covs, cand_v = _stats_for(proposal.tree, proposal.rows_by_leaf,
                                                   resid, features, hp, state)
        log_alpha = (
            _log_marginal(cand_stats, cand_v, state.sigma2, hp)
            + tr.log_tree_prior(proposal.tree, hp.alpha, hp.beta_depth)
            - _log_marginal(stats, v_diags, state.sigma2, hp)
            - tr.log_tree_prior(ts.tree, hp.alpha, hp.beta_depth)
        )
        if hp.proposal_correction:
            log_alpha += proposal.log_transition_correction
        if mh_accept(log_alpha, rng):
            ts.tree = proposal.tree
            ts.rows_by_leaf = proposal.rows_by_leaf
            stats, covs, v_diags = cand_stats, cand_covs, cand_v
            outcome = "accepted"
        else:
            outcome = "rejected"
    state.acceptance[proposal.kind][outcome] += 1

    _redraw_leaves(state, ts, stats, covs, v_diags, features, hp, rng)
    return proposal.kind, outcome


def _stats_for(tree: tr.Tree, rows_by_leaf: dict, resid: np.ndarray,
               features: np.ndarray, hp: Hyperparams, state: SamplerState):
    """Leaf statistics, covariate sets and prior diagonals (None for constant leaves)."""
    if hp.leaf_model == lv.CONSTANT:
        return lv.constant_leaf_stats(rows_by_leaf, resid), None, None
    covs = lv.leaf_covariate_sets(tree, hp.covariate_rule)
    stats = lv.linear_leaf_stats(rows_by_leaf, features, resid, covs)
    return stats, covs, [_v_diag(st.q, hp, state) for st in stats]


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


def _serialize_tree(ts: TreeState, leaf_model: str) -> dict:
    payload = {}
    for leaf in ts.tree.leaves():
        if leaf_model == lv.CONSTANT:
            payload[leaf] = {"mu": float(ts.leaf_params[leaf])}
        else:
            payload[leaf] = {
                "beta": [float(b) for b in ts.leaf_params[leaf]],
                "covariates": [int(j) for j in ts.covariates[leaf]],
            }
    return ts.tree.to_dict(payload)


def eval_tree_dict(tree_dict: dict, features: np.ndarray) -> np.ndarray:
    """Evaluate one serialized tree on standardized features."""
    tree, payload = tr.Tree.from_dict(tree_dict)
    fit = np.zeros(features.shape[0])
    for leaf, rows in tree.leaf_rows(features).items():
        spec = payload[leaf]
        if "mu" in spec:
            fit[rows] = spec["mu"]
        else:
            X = lv.build_leaf_design(rows, features, list(spec["covariates"]))
            fit[rows] = X @ np.asarray(spec["beta"], dtype=float)
    return fit


def _split_usage_counts(state: SamplerState, p: int) -> np.ndarray:
    counts = np.zeros(p)
    for ts in state.trees:
        for nd in ts.tree.nodes.values():
            if not nd.is_leaf:
                counts[nd.feature] += 1
    return counts


def _init_state(train: Dataset, hp: Hyperparams, target: np.ndarray,
                sigma2: float, latent_z: np.ndarray | None) -> SamplerState:
    n, p = train.n, train.p
    all_rows = np.arange(n)
    tree_states = []
    for _ in range(hp.m):
        tree = tr.Tree.stump()
        leaf = tree.root
        if hp.leaf_model == lv.CONSTANT:
            params = {leaf: 0.0}
            covs = {}
        else:
            params = {leaf: np.zeros(1)}
            covs = {leaf: []}
        tree_states.append(TreeState(tree, params, covs, {leaf: all_rows},
                                     np.zeros(n)))
    return SamplerState(
        trees=tree_states,
        sigma2=sigma2,
        tau_beta0=1.0,
        tau_beta=1.0,
        split_probs=np.full(p, 1.0 / p),
        total_fit=np.zeros(n),
        target=target,
        latent_z=latent_z,
    )


def _run_chain(train: Dataset, hp: Hyperparams, scaling: ScalingInfo,
               on_sweep=None) -> PosteriorDraws:
    classification = train.task == CLASSIFICATION
    X = train.features
    n, p = train.n, train.p
    rng = np.random.default_rng(hp.seed)
    split_dict = split_dictionary(train)

    y = train.response
    if classification:
        lam = float(hp.lam) if hp.lam is not None else 1.0
        z0 = np.where(y == 1.0, 0.5, -0.5)
        state = _init_state(train, hp, z0.copy(), 1.0, z0)
    else:
        lam = float(hp.lam) if hp.lam is not None else calibrate_lambda(y, hp.nu)
        sigma2_init = float(np.var(y, ddof=1)) if n > 1 else 1.0
        state = _init_state(train, hp, y, max(sigma2_init, 1e-12), None)

    total_iters = hp.burn_in + hp.post_burn_in
    n_retained = hp.post_burn_in // hp.thin
    scale2 = scaling.response_scale ** 2 if scaling.response_scaled else 1.0

    iterations = np.zeros(n_retained, dtype=int)
    sigma2_draws = np.zeros(n_retained)
    tau0_draws = np.zeros(n_retained) if hp.leaf_model == lv.LINEAR else None
    tau1_draws = np.zeros(n_retained) if hp.leaf_model == lv.LINEAR else None
    yhat_draws = np.zeros((n_retained, n))
    terminal_counts = np.zeros((n_retained, hp.m), dtype=int)
    param_counts = np.zeros((n_retained, hp.m), dtype=int)
    sigma2_chain = np.zeros(total_iters)
    trees_out = [] if hp.store_trees else None

    keep = 0
    for k in range(1, total_iters + 1):
        state.iteration = k
        if classification:
            state.latent_z = sample_latent_z(y, state.total_fit, rng)
            state.target = state.latent_z
        for t in range(hp.m):
            mh_tree_step(state, t, X, split_dict, hp, rng)
        if not classification:
            resid = y - state.total_fit
            state.sigma2 = sample_sigma2(float(resid @ resid), n, hp.nu, lam, rng)
        if hp.leaf_model == lv.LINEAR and hp.vars_inter_slope:
            intercepts, slopes = _gather_coefficients(state)
            state.tau_beta0 = sample_tau_intercept(intercepts, state.sigma2,
                                                   hp.a0, hp.b0, rng)
            state.tau_beta = sample_tau_slopes(slopes, state.sigma2,
                                               hp.a1, hp.b1, rng)
        if hp.branching == DIRICHLET:
            counts = _split_usage_counts(state, p)
            state.split_probs = dirichlet_update_splitprobs(counts,
                                                            hp.dirichlet_mass, rng)
        sigma2_chain[k - 1] = state.sigma2 * scale2

        if k > hp.burn_in and (k - hp.burn_in) % hp.thin == 0 and keep < n_retained:
            iterations[keep] = k
            sigma2_draws[keep] = state.sigma2 * scale2
            if tau0_draws is not None:
                tau0_draws[keep] = state.tau_beta0
                tau1_draws[keep] = state.tau_beta
            if classification:
                yhat_draws[keep] = norm.cdf(state.total_fit)
            else:
                yhat_draws[keep] = scaling.invert_response(state.total_fit)
            for t, ts in enumerate(state.trees):
                terminal_counts[keep, t] = ts.tree.n_leaves()
                param_counts[keep, t] = lv.leaf_parameter_count(
                    ts.tree, hp.leaf_model, hp.covariate_rule)
            if trees_out is not None:
                trees_out.append([_serialize_tree(ts, hp.leaf_model)
                                  for ts in state.trees])
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
            beta = ts.leaf_params[leaf]
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
    if scaling is None:
        scaling = ScalingInfo.identity(train.p)
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
    if scaling is None:
        scaling = ScalingInfo.identity(train.p)
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
    run's. Classification runs return probabilities.
    """
    X_new = np.asarray(X_new, dtype=float)
    if X_new.ndim != 2 or X_new.shape[1] != scaling.feature_centers.size:
        raise ValueError(f"expected {scaling.feature_centers.size} feature columns, "
                         f"got {X_new.shape}")
    Xs = scaling.transform_features(X_new)
    out = np.zeros((len(trees), Xs.shape[0]))
    for k, tree_dicts in enumerate(trees):
        fit = np.zeros(Xs.shape[0])
        for d in tree_dicts:
            fit += eval_tree_dict(d, Xs)
        if task == CLASSIFICATION:
            out[k] = norm.cdf(fit)
        else:
            out[k] = scaling.invert_response(fit)
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
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


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
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_sigma2_trace(draws: PosteriorDraws, path) -> None:
    """Two-column CSV (iteration, sigma2) over the whole chain, burn-in included."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "sigma2"])
        for i, s2 in enumerate(draws.sigma2_chain, start=1):
            writer.writerow([i, repr(float(s2))])
