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
from scipy.special import log_ndtr, ndtri_exp
from scipy.stats import chi2, norm

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
    iteration: int = 0
    acceptance: dict = field(default_factory=lambda: {
        kind: {"accepted": 0, "rejected": 0, "invalid": 0} for kind in tr.MOVE_KINDS
    })


def partial_residual(state: SamplerState, tree_index: int) -> np.ndarray:
    """R_t = target - sum of every other tree's fit, via the running total."""
    ts = state.trees[tree_index]
    return state.target - state.total_fit + ts.fit


def leaf_model(hp: Hyperparams) -> lv.ConstantLeaves | lv.LinearLeaves:
    """The leaf model a configuration selects; the only place that picks one."""
    if hp.leaf_model == lv.CONSTANT:
        return lv.ConstantLeaves(hp.sigma_mu2)
    return lv.LinearLeaves(hp.covariate_rule)


def _tree_fit(leaf_params: dict, rows_by_leaf: dict, features: np.ndarray,
              designs: dict | None = None) -> np.ndarray:
    fit = np.zeros(features.shape[0])
    for leaf, rows in rows_by_leaf.items():
        design = None if designs is None else designs[leaf]
        fit[rows] = lv.leaf_values(leaf_params[leaf], rows, features, design)
    return fit


def mh_tree_step(state: SamplerState, tree_index: int, features: np.ndarray,
                 split_dict: SplitDictionary, hp: Hyperparams,
                 rng: np.random.Generator) -> tuple[str, str]:
    """One tree update: structural MH step, then leaf-parameter redraw.

    Returns (move kind, outcome) with outcome one of accepted / rejected /
    invalid. Leaf parameters are redrawn from their full conditionals in
    every case, acceptance or not, from the leaf statistics of the kept tree.

    The candidate reuses the current tree's routing and the statistics of
    every leaf outside `proposal.affected_leaves`; the log ratio still sums
    every leaf of both trees, so it is the full-recompute value bit for bit.
    """
    model = leaf_model(hp)
    taus = (state.tau_beta0, state.tau_beta)
    ts = state.trees[tree_index]
    resid = partial_residual(state, tree_index)
    stats = model.stats(ts.tree, ts.rows_by_leaf, features, resid, taus)

    proposal = tr.propose_move(ts.tree, features, split_dict, state.split_probs,
                               rng, hp.n_min, rows_by_leaf=ts.rows_by_leaf)
    if not proposal.valid:
        outcome = "invalid"
    else:
        kept = {st.leaf_id: st for st in stats if st.leaf_id in proposal.rows_by_leaf
                and st.leaf_id not in proposal.affected_leaves}
        cand_stats = model.stats(proposal.tree, proposal.rows_by_leaf, features,
                                 resid, taus, kept)
        cand_prior = tr.log_tree_prior(proposal.tree, hp.alpha, hp.beta_depth)
        log_alpha = (
            model.log_marginal(cand_stats, state.sigma2)
            + cand_prior
            - model.log_marginal(stats, state.sigma2)
            - ts.log_prior
        )
        if hp.proposal_correction:
            log_alpha += proposal.log_transition_correction
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
    new_fit = _tree_fit(ts.leaf_params, ts.rows_by_leaf, features,
                        {st.leaf_id: st.design for st in stats})
    state.total_fit += new_fit - ts.fit
    ts.fit = new_fit
    return proposal.kind, outcome


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


def eval_tree_dict(tree_dict: dict, features: np.ndarray) -> np.ndarray:
    """Evaluate one serialized tree on standardized features."""
    tree, payload = tr.Tree.from_dict(tree_dict)
    return _tree_fit(payload, tree.leaf_rows(features), features)


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
    )


def _run_chain(train: Dataset, hp: Hyperparams, scaling: ScalingInfo | None,
               on_sweep=None) -> PosteriorDraws:
    classification = train.task == CLASSIFICATION
    if scaling is None:
        scaling = ScalingInfo.identity(train.p)
    X = train.features
    n, p = train.n, train.p
    rng = np.random.default_rng(hp.seed)
    split_dict = split_dictionary(train)
    model = leaf_model(hp)

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
        state.iteration = k
        if classification:
            state.target = sample_latent_z(y, state.total_fit, rng)
        for t in range(hp.m):
            mh_tree_step(state, t, X, split_dict, hp, rng)
        if not classification:
            resid = y - state.total_fit
            state.sigma2 = sample_sigma2(float(resid @ resid), n, hp.nu, lam, rng)
        if hp.vars_inter_slope:
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
            yhat_draws[keep] = (norm.cdf(state.total_fit) if classification
                                else scaling.invert_response(state.total_fit))
            for t, ts in enumerate(state.trees):
                terminal_counts[keep, t] = ts.tree.n_leaves()
                param_counts[keep, t] = model.parameter_count(ts.tree)
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
            beta = lv.leaf_coefficients(ts.leaf_params[leaf])
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
    run's. Classification runs return probabilities.
    """
    X_new = np.asarray(X_new, dtype=float)
    if X_new.ndim != 2 or X_new.shape[1] != scaling.feature_centers.size:
        raise ValueError(f"expected {scaling.feature_centers.size} feature columns, "
                         f"got {X_new.shape}")
    Xs = scaling.transform_features(X_new)
    out = np.zeros((len(trees), Xs.shape[0]))
    for k, tree_dicts in enumerate(trees):
        fit = sum(eval_tree_dict(d, Xs) for d in tree_dicts)
        out[k] = norm.cdf(fit) if task == CLASSIFICATION else scaling.invert_response(fit)
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
