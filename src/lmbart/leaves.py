"""Leaf models: statistics, marginal likelihoods, conjugate draws and the stored leaf format.

Two leaf models are supported, `ConstantLeaves` and `LinearLeaves`. The
constant model gives every terminal node a scalar mean with a N(0, sigma_mu^2)
prior and stores it as {"mu": m}. The linear model gives every terminal node
a coefficient vector beta (intercept first) on the leaf's covariates with a
N_q(0, sigma^2 V) prior, V diagonal, and stores {"beta": [...], "covariates":
[...]}. `leaf_design` and `leaf_values` evaluate a stored leaf. The model
classes reach this module's functions through its globals, so wrapping those
functions at run time sees every call.

A linear leaf's posterior precision X'X + V^-1 is factored once per
`LeafStats` (`LeafStats.posterior`); the marginal and the draw share that
factor and the posterior mean. They call LAPACK `potrf`/`potrs`/`trtrs`
directly, the routines behind `scipy.linalg`'s `cholesky`/`cho_solve`/
`solve_triangular`, so results match those wrappers bit for bit.

The sampler builds one `LinearLeaves` per sweep, holding that sweep's taus
(tau0, tau1); it builds the prior terms that depend on V alone (`LeafPrior`:
V^-1 and log|V|) once per q, shared by every leaf of that q in the sweep.

A model's `stats` takes `prev`, earlier stats by leaf id, and reuses them by
one rule, since a leaf's statistics are a function of its rows, its
covariates and the residuals. A stat on the same rows array object, the same
covariates and the same residual array object is taken whole, prior and
factor included (`_reuse`; the same residual array means the same tree step,
so the same model). A linear stat on the same rows array and covariates but
other residuals lends its `design` and `xtx` (`linear_leaf_stats`); `xtr`,
`r_sum`, `r_sq_sum` and the factor are recomputed, since the taus move
between sweeps. Every other leaf is built fresh. The sampler passes a tree's stats from its
previous step to its current tree (a routing changes only when a move is
accepted) and the current tree's stats to the candidate (whose untouched
leaves keep the current routing's arrays).

Both log marginals are implemented exactly as used inside the
Metropolis-Hastings ratio, i.e. with data-only factors dropped:

* constant model: the (2*pi*sigma^2)^(-n/2) factor and the
  exp(-r'r / (2 sigma^2)) factor are omitted (both cancel between two trees
  evaluated on the same residuals);
* linear model: only the (2*pi)^(-n/2) factor is omitted.

The quadrature oracles in the test suite restore these factors before
comparing against brute-force integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import get_lapack_funcs

from .trees import Tree, ancestor_covariates, split_covariates

CONSTANT = "constant"
LINEAR = "linear"

TREE_SPLITS = "tree-splits"
ANCESTORS = "ancestors"

_potrf, _potrs, _trtrs = get_lapack_funcs(("potrf", "potrs", "trtrs"), dtype=float)


class LeafFactorizationError(RuntimeError):
    """Cholesky failure in a leaf posterior, after jittering."""

    def __init__(self, leaf_id, condition_estimate):
        self.leaf_id = leaf_id
        self.condition_estimate = condition_estimate
        super().__init__(
            f"posterior precision factorization failed at leaf {leaf_id} "
            f"(condition estimate {condition_estimate:.3e})"
        )


class LeafPrior:
    """The terms of a N_q(0, sigma^2 V) coefficient prior that depend on V alone:
    its diagonal `v_diag`, V^-1 as a matrix (`precision`) and log|V| (`log_det`)."""

    def __init__(self, v_diag: np.ndarray):
        self.v_diag = v_diag
        self.precision = np.diag(1.0 / v_diag)
        self.log_det = float(np.log(v_diag).sum())


@dataclass
class LeafStats:
    """Sufficient statistics of one terminal node's training `rows` against
    the residual array `resid` they were built on.

    For linear leaves `design` is the leaf design (intercept column of ones
    plus the leaf's `covariates` in ascending feature order) on `rows`,
    `xtx`/`xtr` are its Gram matrix and moment vector, and `v_diag` is the
    diagonal of the leaf's coefficient prior covariance V. Set `v_diag`
    before the first use of `posterior`, which is computed once and then
    kept.
    """

    leaf_id: int
    n: int
    r_sum: float
    r_sq_sum: float = 0.0     # linear leaves only; the constant marginal never reads it
    xtx: np.ndarray | None = None
    xtr: np.ndarray | None = None
    covariates: list[int] | None = None
    v_diag: np.ndarray | None = None
    design: np.ndarray | None = None
    rows: np.ndarray | None = None
    resid: np.ndarray | None = None

    @property
    def q(self) -> int:
        """The leaf's parameter count: 1 for a constant leaf, the coefficient
        count for a linear one."""
        return 1 if self.xtx is None else self.xtx.shape[0]

    @cached_property
    def prior(self) -> LeafPrior:
        """The prior terms of `v_diag`; `LinearLeaves.stats` sets the model's one per q."""
        return LeafPrior(self.v_diag)

    @cached_property
    def posterior(self) -> tuple[np.ndarray, np.ndarray]:
        """(L, A^-1 X'r) for the posterior precision A = X'X + V^-1 = L L'."""
        L = _posterior_factor(self)
        return L, _lapack(_potrs, L, _finite(self.xtr), lower=1)


def build_leaf_design(rows: np.ndarray, features: np.ndarray,
                      covariates: list[int]) -> np.ndarray:
    """Leaf design matrix: a column of ones, then the covariates in index order."""
    n = rows.size
    X = np.empty((n, len(covariates) + 1))
    X[:, 0] = 1.0
    if covariates:
        X[:, 1:] = features.take(rows, 0).take(covariates, 1)
    return X


def constant_leaf_stats(rows_by_leaf: dict[int, np.ndarray],
                        resid: np.ndarray) -> list[LeafStats]:
    out = []
    for leaf in sorted(rows_by_leaf):
        rows = rows_by_leaf[leaf]
        r = resid[rows]
        out.append(LeafStats(leaf, r.size, float(r.sum()), rows=rows, resid=resid))
    return out


def linear_leaf_stats(rows_by_leaf: dict[int, np.ndarray], features: np.ndarray,
                      resid: np.ndarray, covariates_by_leaf: dict[int, list[int]],
                      prev: dict[int, LeafStats] | None = None) -> list[LeafStats]:
    """Stats of every leaf; a `prev` stat on the same rows array and covariates
    lends its design and X'X, which do not depend on the residuals."""
    prev = prev or {}
    out = []
    for leaf in sorted(rows_by_leaf):
        rows = rows_by_leaf[leaf]
        covs = covariates_by_leaf[leaf]
        r = resid[rows]
        old = prev.get(leaf)
        if old is not None and old.rows is rows and old.covariates == covs:
            X, xtx = old.design, old.xtx
        else:
            X = build_leaf_design(rows, features, covs)
            xtx = X.T @ X
        out.append(LeafStats(leaf, r.size, float(r.sum()), float(r @ r),
                             xtx=xtx, xtr=X.T @ r, covariates=covs, design=X, rows=rows,
                             resid=resid))
    return out


def bart_log_marginal(stats: list[LeafStats], sigma2: float, sigma_mu2: float) -> float:
    """Constant-leaf log marginal of the residuals given the tree, summed over leaves.

    Per leaf: 0.5*log(sigma^2 / (sigma_mu^2 n + sigma^2))
    + sigma_mu^2 (sum r)^2 / (2 sigma^2 (sigma_mu^2 n + sigma^2)).
    """
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    total = 0.0
    for st in stats:
        denom = sigma_mu2 * st.n + sigma2
        total += 0.5 * math.log(sigma2 / denom)
        total += sigma_mu2 * st.r_sum ** 2 / (2.0 * sigma2 * denom)
    return total


def bart_sample_mu(stats: list[LeafStats], sigma2: float, sigma_mu2: float,
                   rng: np.random.Generator) -> dict[int, float]:
    """Gibbs draw of every leaf mean from its Normal full conditional."""
    out = {}
    for st in stats:
        prec = st.n / sigma2 + 1.0 / sigma_mu2
        mean = (st.r_sum / sigma2) / prec
        out[st.leaf_id] = float(rng.normal(mean, math.sqrt(1.0 / prec)))
    return out


def _finite(a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


def _lapack(routine, *args, **kwargs) -> np.ndarray:
    """Call a LAPACK routine and raise on its info code, as scipy.linalg does."""
    out, info = routine(*args, **kwargs)
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine.__name__} failed with info {info}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine.__name__}")
    return out


def cholesky(A: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of A, equal to scipy.linalg.cholesky(A, lower=True)."""
    return _lapack(_potrf, _finite(A), lower=1, clean=1)


def _posterior_factor(st: LeafStats) -> np.ndarray:
    """Cholesky of X'X + V^-1, with one jitter retry before giving up."""
    A = st.xtx + st.prior.precision
    try:
        return cholesky(A)
    except np.linalg.LinAlgError:
        pass
    jitter = 1e-10 * np.trace(A) / A.shape[0]
    try:
        return cholesky(A + jitter * np.eye(A.shape[0]))
    except np.linalg.LinAlgError:
        raise LeafFactorizationError(st.leaf_id, float(np.linalg.cond(A))) from None


def linear_log_marginal(stats: list[LeafStats], sigma2: float) -> float:
    """Linear-leaf log marginal of the residuals given the tree.

    -(n/2) log sigma^2 plus, per leaf,
    -0.5 log|V| + 0.5 log|Lambda| - (r'r - mu' Lambda^-1 mu) / (2 sigma^2)
    with Lambda = (X'X + V^-1)^-1 and mu = Lambda X'r.
    """
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    n_total = 0
    total = 0.0
    for st in stats:
        n_total += st.n
        L, mu = st.posterior
        # log|Lambda| = -log|A|, log|A| = 2 sum log diag(L)
        log_det_A = 2.0 * float(np.log(L.diagonal()).sum())
        quad = float(st.xtr @ mu)     # mu' Lambda^-1 mu
        total += -0.5 * st.prior.log_det - 0.5 * log_det_A
        total += -(st.r_sq_sum - quad) / (2.0 * sigma2)
    return total - 0.5 * n_total * math.log(sigma2)


def linear_sample_beta(stats: list[LeafStats], sigma2: float,
                       rng: np.random.Generator) -> dict[int, np.ndarray]:
    """Gibbs draw of every leaf coefficient vector from N_q(Lambda X'r, sigma^2 Lambda)."""
    out = {}
    for st in stats:
        L, mu = st.posterior
        z = rng.standard_normal(st.q)
        # cov(L^-T z) = A^-1 = Lambda
        out[st.leaf_id] = mu + math.sqrt(sigma2) * _lapack(_trtrs, L, z, lower=1, trans=1)
    return out


def leaf_covariate_sets(tree: Tree, covariate_rule: str) -> dict[int, list[int]]:
    """Per-leaf covariate index lists under the chosen selection rule.

    Under the tree-splits rule every leaf shares the features used anywhere
    in the tree; under the ancestors rule each leaf keeps only the features
    on its own root path.
    """
    if covariate_rule == TREE_SPLITS:
        covs = sorted(split_covariates(tree))
        return {leaf: list(covs) for leaf in tree.leaves()}
    if covariate_rule == ANCESTORS:
        return {leaf: sorted(ancestor_covariates(tree, leaf)) for leaf in tree.leaves()}
    raise ValueError(f"unknown covariate rule {covariate_rule!r}")


def leaf_parameter_count(tree: Tree, leaf_model: str,
                         covariate_rule: str = TREE_SPLITS) -> int:
    """Number of leaf parameters the tree contributes to the ensemble fit."""
    if leaf_model == CONSTANT:
        return tree.n_leaves()
    if leaf_model == LINEAR:
        return sum(len(c) + 1 for c in leaf_covariate_sets(tree, covariate_rule).values())
    raise ValueError(f"unknown leaf model {leaf_model!r}")


# ---------------------------------------------------------------------------
# leaf models and the stored leaf format


def leaf_design(payload: dict, rows: np.ndarray, features: np.ndarray) -> np.ndarray | None:
    """The design of a stored leaf on its rows; None for a constant leaf.

    For a linear leaf this is the design its stats were built on
    (`LeafStats.design`).
    """
    if "mu" in payload:
        return None
    return build_leaf_design(rows, features, payload["covariates"])


def leaf_values(payload: dict, design: np.ndarray | None):
    """Fitted values of one stored leaf on the rows of its `leaf_design`.

    A constant leaf gives its scalar mean.
    """
    if "mu" in payload:
        return payload["mu"]
    return design @ payload["beta"]


def same_design(a: dict, b: dict) -> bool:
    """Whether two stored leaves on the same rows have the same `leaf_design`."""
    return a.get("covariates") == b.get("covariates")


def _reuse(rows_by_leaf: dict, covariates_by_leaf: dict, resid: np.ndarray,
           prev: dict, build) -> list[LeafStats]:
    """Stats in ascending leaf order: a `prev` stat on the same rows array,
    covariates and residual array is taken whole, `build` makes the others."""
    whole = {leaf: st for leaf, st in prev.items()
             if st.resid is resid and st.rows is rows_by_leaf.get(leaf)
             and st.covariates == covariates_by_leaf.get(leaf)}
    if not whole:
        return build(rows_by_leaf)
    # build returns its leaves in ascending order, the order they are taken in
    fresh = iter(build({leaf: rows for leaf, rows in rows_by_leaf.items() if leaf not in whole}))
    return [whole[leaf] if leaf in whole else next(fresh) for leaf in sorted(rows_by_leaf)]


@dataclass(frozen=True)
class ConstantLeaves:
    """One mean per leaf with a N(0, sigma_mu^2) prior."""

    sigma_mu2: float

    def stats(self, tree, rows_by_leaf, features, resid, prev=None) -> list[LeafStats]:
        """Stats of every leaf, reusing `prev` (leaf id -> stats) by `_reuse`'s rule."""
        return _reuse(rows_by_leaf, {}, resid, prev or {},
                      lambda rows: constant_leaf_stats(rows, resid))

    def log_marginal(self, stats, sigma2) -> float:
        return bart_log_marginal(stats, sigma2, self.sigma_mu2)

    def draw(self, stats, sigma2, rng) -> dict[int, dict]:
        mus = bart_sample_mu(stats, sigma2, self.sigma_mu2, rng)
        return {leaf: {"mu": mu} for leaf, mu in mus.items()}


@dataclass(frozen=True)
class LinearLeaves:
    """Linear leaves: V holds 1/tau0 for the intercept, 1/tau1 per slope; taus = (tau0, tau1)."""

    covariate_rule: str
    taus: tuple[float, float]
    _priors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def prior(self, q: int) -> LeafPrior:
        """The `LeafPrior` of q coefficients under the taus, built once per q."""
        prior = self._priors.get(q)
        if prior is None:
            v_diag = np.full(q, 1.0 / self.taus[1])
            v_diag[0] = 1.0 / self.taus[0]
            prior = self._priors[q] = LeafPrior(v_diag)
        return prior

    def stats(self, tree, rows_by_leaf, features, resid, prev=None) -> list[LeafStats]:
        """Stats of every leaf, reusing `prev` (leaf id -> stats) by the module
        docstring's rule; the covariates come from `tree`."""
        covs = leaf_covariate_sets(tree, self.covariate_rule)
        prev = prev or {}

        def build(rows):
            stats = linear_leaf_stats(rows, features, resid, covs, prev)
            for st in stats:
                st.prior = self.prior(st.q)
                st.v_diag = st.prior.v_diag
            return stats

        return _reuse(rows_by_leaf, covs, resid, prev, build)

    def log_marginal(self, stats, sigma2) -> float:
        return linear_log_marginal(stats, sigma2)

    def draw(self, stats, sigma2, rng) -> dict[int, dict]:
        betas = linear_sample_beta(stats, sigma2, rng)
        return {st.leaf_id: {"beta": betas[st.leaf_id].tolist(),
                             "covariates": st.covariates} for st in stats}
