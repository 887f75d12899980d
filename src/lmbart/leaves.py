"""Leaf models: statistics, marginal likelihoods, conjugate draws and the stored leaf format.

Two leaf models are supported, `ConstantLeaves` and `LinearLeaves`. The
constant model gives every terminal node a scalar mean with a N(0, sigma_mu^2)
prior, the linear model a coefficient vector beta (intercept first) on the
leaf's covariates with a N_q(0, sigma^2 V) prior, V diagonal. A model's `draw`
returns these values in its stats' leaf order, a list of means or of coefficient
lists, which its `fit` takes; only a stored tree holds them by leaf id, as
{"mu": m} or {"beta": [...], "covariates": [...]}, which the stats' `payloads`
write and the model's `replay` reads. The model classes reach this module's
functions through its globals, so wrapping those functions at run time sees every call.

A linear leaf's posterior precision X'X + V^-1 is factored once per
`LeafStats` (`LeafStats.posterior`); the marginal and the draw share that
factor and the posterior mean, and the marginal's two sigma^2-free terms are
worked out once per `LeafStats` too (`LeafStats.marginal_terms`), so a leaf
that a candidate takes whole costs the marginal two adds. They call LAPACK
`potrf`/`potrs`/`trtrs` directly, the routines behind `scipy.linalg`'s
`cholesky`/`cho_solve`/`solve_triangular`, so their results match those
wrappers bit for bit. The q-sized work around them (q <= p + 1) runs on Python
floats: the finiteness checks, the two marginal terms (last bits may differ from
numpy's) and the draw's coefficients (numpy's roundings, so the same draws).

The sampler builds one `LinearLeaves` per sweep, holding that sweep's taus
(tau0, tau1); it builds the prior terms that depend on V alone (`LeafPrior`:
V^-1 and log|V|) once per q, shared by every leaf of that q in the sweep.

A model's `stats` hands `prev`, the stats it returned earlier, to its
builder (`constant_leaf_stats`, `linear_leaf_stats`), which applies one rule
in one ascending pass over the leaves: a leaf of `prev` with the same id, rows
array object and covariates is taken whole if it was built on the same
residual array object, and a linear one otherwise lends its design and X'X.
The rule needs every residual array and tree to stay as built: the sampler
makes a new residual array for each tree step and never writes into one, and
a candidate is an edited copy (`Tree._edit`), so a linear `prev` built on the
same tree object lends its covariate sets too.

The sampler also passes the current tree's row -> leaf id index, over which
the constant builder sums every leaf with one `np.bincount`; the candidate has
no index. `bart_sample_mu` draws all of a tree's means from one
`standard_normal` call, and `linear_sample_beta` all of its coefficients. A
model's `fit` gives a tree's fitted values from its drawn leaves: a constant
tree's leaf means taken at the index, a linear tree's stats designs times
their coefficients, leaf by leaf. The models serve the replay of stored trees
too: `stored_leaf_model` picks one from the stored leaves, and its `replay`
reads a routed tree's stored leaves into the values its `fit` takes.

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
import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs

from .data import is_finite_real, is_int
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


class ConstantStats:
    """Sufficient statistics of a constant-leaf tree's leaves, built on the
    residual array `resid`: the ascending leaf ids, and per leaf its rows
    array, its row count and its residual sum (a Python float); a replay's hold the ids alone."""

    __slots__ = ("leaves", "rows", "n", "r_sum", "resid")

    def __init__(self, leaves: list, rows=None, n=None, r_sum=None, resid=None):
        self.leaves, self.rows, self.n, self.r_sum, self.resid = leaves, rows, n, r_sum, resid

    def __len__(self) -> int:
        return len(self.leaves)

    parameter_count = property(__len__)     # one mean per leaf

    def payloads(self, values: list) -> dict[int, dict]:
        """Leaf id -> stored leaf {"mu": m} of the means `values`, in leaf order."""
        return {leaf: {"mu": mu} for leaf, mu in zip(self.leaves, values)}


@dataclass
class LeafStats:
    """Sufficient statistics of one linear leaf's training `rows` against
    the residual array `resid` they were built on.

    `design` is the leaf design (intercept column of ones plus the leaf's
    `covariates` in ascending feature order) on `rows`, `xtx`/`xtr` are its
    Gram matrix and moment vector, `r_sq_sum` is r'r, and `prior` holds the
    terms of the leaf's coefficient prior covariance V. Set `prior` before
    the first use of `posterior` or `marginal_terms`: each is computed at its
    first use and kept, in `_posterior` and `_terms`.
    """

    leaf_id: int
    n: int
    r_sq_sum: float = 0.0
    xtx: np.ndarray | None = None
    xtr: np.ndarray | None = None
    covariates: list[int] | None = None
    prior: LeafPrior | None = None
    design: np.ndarray | None = None
    rows: np.ndarray | None = None
    resid: np.ndarray | None = None
    _posterior: tuple | None = field(default=None, repr=False, compare=False)
    _terms: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def q(self) -> int:
        """The leaf's parameter count, its coefficient count."""
        return self.xtx.shape[0]

    @property
    def posterior(self) -> tuple[np.ndarray, np.ndarray]:
        """(L, A^-1 X'r) for the posterior precision A = X'X + V^-1 = L L'."""
        post = self._posterior
        if post is None:
            L = _posterior_factor(self)
            post = self._posterior = L, _lapack(_potrs, L, _finite(self.xtr), 1)
        return post

    @property
    def marginal_terms(self) -> tuple[float, float]:
        """The sigma^2-free terms of the leaf's log marginal: -0.5 log|V| -
        0.5 log|A| and r'r - mu' Lambda^-1 mu (see `linear_log_marginal`),
        summed on Python floats, which may differ from numpy in the last bit."""
        terms = self._terms
        if terms is None:
            L, mu = self.posterior
            # log|A| = 2 sum log diag(L); mu' Lambda^-1 mu = X'r . mu
            log_det_A = 2.0 * sum(map(math.log, L.diagonal().tolist()))
            quad = sum(map(operator.mul, self.xtr.tolist(), mu.tolist()))
            terms = self._terms = (-0.5 * self.prior.log_det - 0.5 * log_det_A,
                                   self.r_sq_sum - quad)
        return terms


class LinearStats(list):
    """A linear tree's `LeafStats`, in ascending leaf order.

    The chain's stats also hold the `tree` they were built on and its
    per-leaf `covariate_sets`, which `LinearLeaves.stats` lends to later
    stats of the same tree; a replay's hold None.
    """

    tree = covariate_sets = None

    @property
    def parameter_count(self) -> int:
        """The coefficient count summed over the leaves."""
        return sum(st.q for st in self)

    def payloads(self, values: list) -> dict[int, dict]:
        """Leaf id -> {"beta": [...], "covariates": [...]} of the coefficient lists `values`."""
        return {st.leaf_id: {"beta": beta, "covariates": st.covariates}
                for st, beta in zip(self, values)}


def build_leaf_design(rows: np.ndarray, features: np.ndarray,
                      covariates: list[int]) -> np.ndarray:
    """Leaf design matrix: a column of ones, then the covariates in index order.

    The values are gathered through `features.T`, which is C-ordered for the
    column-major features the chain and the replay pass (trees.py); `take`
    copies a whole array that is not C-ordered before it gathers.
    """
    n = rows.size
    X = np.empty((n, len(covariates) + 1))
    X[:, 0] = 1.0
    if covariates:
        X[:, 1:] = features.T.take(covariates, 0).take(rows, 1).T
    return X


def constant_leaf_stats(rows_by_leaf: dict[int, np.ndarray], resid: np.ndarray,
                        index: np.ndarray | None = None,
                        prev: ConstantStats | None = None) -> ConstantStats:
    """Stats of every leaf, in ascending leaf order.

    `index` is the row -> leaf id index of a routing that holds every leaf
    of `rows_by_leaf`: the leaf sums then come from one `np.bincount` over
    all rows. Without it a leaf of `prev` with the same id and rows array,
    built on `resid`, keeps its sum, and each other leaf's residuals are
    gathered and summed.
    """
    leaves = sorted(rows_by_leaf)
    rows = [rows_by_leaf[leaf] for leaf in leaves]
    if index is not None and leaves:
        r_sum = np.bincount(index, resid, leaves[-1] + 1).take(leaves).tolist()
    else:
        kept = ({} if prev is None or prev.resid is not resid
                else dict(zip(prev.leaves, zip(prev.rows, prev.r_sum))))
        r_sum = []
        for leaf, r in zip(leaves, rows):
            old = kept.get(leaf)
            r_sum.append(old[1] if old is not None and old[0] is r
                         else float(np.add.reduce(resid.take(r))))
    return ConstantStats(leaves, rows, [r.size for r in rows], r_sum, resid)


def linear_leaf_stats(rows_by_leaf: dict[int, np.ndarray], features: np.ndarray,
                      resid: np.ndarray, covariates_by_leaf: dict[int, list[int]],
                      prev: LinearStats | None = None) -> LinearStats:
    """Stats of every leaf, in ascending leaf order. A stat of `prev` on the
    same rows array and covariates is taken whole when it was built on
    `resid`, and otherwise lends its design and X'X, which do not depend on
    the residuals. A stat this builds has no `prior` yet."""
    prev = {st.leaf_id: st for st in prev} if prev else {}
    out = LinearStats()
    for leaf in sorted(rows_by_leaf):
        rows = rows_by_leaf[leaf]
        covs = covariates_by_leaf[leaf]
        old = prev.get(leaf)
        if old is not None and old.rows is rows and old.covariates == covs:
            if old.resid is resid:
                out.append(old)
                continue
            X, xtx = old.design, old.xtx
        else:
            X = build_leaf_design(rows, features, covs)
            xtx = X.T @ X
        r = resid[rows]
        out.append(LeafStats(leaf, r.size, float(r @ r), xtx=xtx, xtr=X.T @ r,
                             covariates=covs, design=X, rows=rows, resid=resid))
    return out


def bart_log_marginal(stats: ConstantStats, sigma2: float, sigma_mu2: float) -> float:
    """Constant-leaf log marginal of the residuals given the tree, summed over leaves.

    Per leaf: 0.5*log(sigma^2 / (sigma_mu^2 n + sigma^2))
    + sigma_mu^2 (sum r)^2 / (2 sigma^2 (sigma_mu^2 n + sigma^2)).
    """
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    total = 0.0
    for n, r_sum in zip(stats.n, stats.r_sum):
        denom = sigma_mu2 * n + sigma2
        total += 0.5 * math.log(sigma2 / denom)
        total += sigma_mu2 * r_sum ** 2 / (2.0 * sigma2 * denom)
    return total


def bart_sample_mu(stats: ConstantStats, sigma2: float, sigma_mu2: float,
                   rng: np.random.Generator) -> list[float]:
    """Gibbs draw of every leaf mean from its Normal full conditional, in leaf order.

    Each mean is mean + sd * z, with the leaves' z from one `standard_normal`
    call: the values and generator state of a per-leaf `rng.normal(mean, sd)`.
    """
    out = []
    for n, r_sum, z in zip(stats.n, stats.r_sum, rng.standard_normal(len(stats)).tolist()):
        prec = n / sigma2 + 1.0 / sigma_mu2
        out.append((r_sum / sigma2) / prec + math.sqrt(1.0 / prec) * z)
    return out


def _finite(a: np.ndarray) -> np.ndarray:
    """`a`, checked by one warning-free sum of its entries as Python floats: an inf or
    NaN makes it non-finite (so does an overflow, which no leaf algebra survives)."""
    if not math.isfinite(sum(a.ravel().tolist())):
        raise ValueError("array must not contain infs or NaNs")
    return a


def _lapack(routine, *args) -> np.ndarray:
    """Call a LAPACK routine, flags by position, and raise on its info code as scipy does."""
    out, info = routine(*args)
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine.__name__} failed with info {info}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine.__name__}")
    return out


def cholesky(A: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of A, equal to scipy.linalg.cholesky(A, lower=True)."""
    return _lapack(_potrf, _finite(A), 1, 1)        # lower, clean


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
    with Lambda = (X'X + V^-1)^-1 = A^-1 and mu = Lambda X'r. The two
    sigma^2-free terms are each leaf's `marginal_terms`, worked out once per
    leaf, so a leaf seen before costs two adds.
    """
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    n_total = 0
    total = 0.0
    for st in stats:
        n_total += st.n
        log_dets, rss = st.marginal_terms
        total += log_dets
        total += -rss / (2.0 * sigma2)
    return total - 0.5 * n_total * math.log(sigma2)


def linear_sample_beta(stats: list[LeafStats], sigma2: float,
                       rng: np.random.Generator) -> dict[int, list[float]]:
    """Gibbs draw of every leaf coefficient vector from N_q(Lambda X'r, sigma^2 Lambda).

    The leaves' z come from one `standard_normal` call, in leaf order: the
    values and generator state of one `standard_normal(q)` call per leaf.
    Each leaf gets a list of Python floats m + sd * x, with the two roundings
    per coefficient of numpy's `mu + sd * x`, so it equals that bit for bit.
    """
    sd = math.sqrt(sigma2)
    z = rng.standard_normal(sum(st.q for st in stats))
    out = {}
    start = 0
    for st in stats:
        L, mu = st.posterior
        end = start + st.q
        # cov(L^-T z) = A^-1 = Lambda
        x = _lapack(_trtrs, L, z[start:end], 1, 1)        # lower, transposed
        out[st.leaf_id] = [m + sd * v for m, v in zip(mu.tolist(), x.tolist())]
        start = end
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


def stored_leaf_model(tree_dict: dict):
    """The leaf model that replays stored trees, picked by the leftmost leaf of
    `tree_dict`: constant if it has a "mu", else linear. A replay needs no
    prior and no covariate rule, so the model holds NaN precisions and None.
    A malformed tree gets one too; its preorder check fails before a leaf's model matters."""
    node = tree_dict
    while isinstance(node, dict) and node.get("kind") == "internal":
        node = node.get("left")
    return (ConstantLeaves(math.nan) if isinstance(node, dict) and "mu" in node
            else LinearLeaves(None, (math.nan,) * 2))


def stored_leaf_problem(params: dict, p: int, leaf_model: str) -> str | None:
    """What makes a stored leaf's payload unusable on p features, or a leaf of
    another model than `leaf_model`; None if nothing. A mean and every
    coefficient must be finite reals (`data.is_finite_real`), and every
    covariate an int (`data.is_int`)."""
    if "mu" in params:
        if not is_finite_real(params["mu"]):
            return f"leaf mean {params['mu']!r} is not a finite number"
    elif "beta" not in params or "covariates" not in params:
        return "leaf has neither 'mu' nor 'beta' and 'covariates'"
    else:
        covs, beta = params["covariates"], params["beta"]
        if not isinstance(covs, list) or not all(is_int(c) and 0 <= c < p for c in covs):
            return f"leaf covariates {covs!r} are not feature indices in [0, {p})"
        if not isinstance(beta, list) or len(beta) != len(covs) + 1:
            return f"leaf beta {beta!r} is not a list of {len(covs) + 1} coefficients"
        for coef in beta:
            if not is_finite_real(coef):
                return f"leaf coefficient {coef!r} is not a finite number"
    own = CONSTANT if "mu" in params else LINEAR
    if own != leaf_model:
        return f"{own} leaf among stored trees whose leaves are {leaf_model}"
    return None


@dataclass(frozen=True)
class ConstantLeaves:
    """One mean per leaf with a N(0, sigma_mu^2) prior."""

    sigma_mu2: float
    kind = CONSTANT

    def stats(self, tree, rows_by_leaf, features, resid, prev=None,
              index=None) -> ConstantStats:
        """Stats of every leaf by `constant_leaf_stats`, from `prev` (this
        model's stats) or over `index`, the routing's row -> leaf id index."""
        return constant_leaf_stats(rows_by_leaf, resid, index, prev)

    def log_marginal(self, stats, sigma2) -> float:
        return bart_log_marginal(stats, sigma2, self.sigma_mu2)

    def draw(self, stats, sigma2, rng) -> list[float]:
        """The leaf means, in the leaf order of `stats`."""
        return bart_sample_mu(stats, sigma2, self.sigma_mu2, rng)

    def fit(self, values, stats, index) -> np.ndarray:
        """The tree's fit: the leaf means `values` (leaf order of `stats`), set
        one by one (faster than a fancy assignment at a tree's few leaves) in
        an array indexed by leaf id, taken at the row -> leaf id `index`."""
        means = np.zeros(stats.leaves[-1] + 1)
        for leaf, mu in zip(stats.leaves, values):
            means[leaf] = mu
        return means.take(index)

    def replay(self, rows_by_leaf, stored, features, index, previous=None) -> tuple:
        """(means, `fit`, stats) of a stored tree routed to `rows_by_leaf`: the
        means read from `stored`, leaf id -> stored leaf, in the order of stats
        holding the tree's leaf ids alone, or of the same routing's `previous`."""
        stats = previous if previous is not None else ConstantStats(sorted(rows_by_leaf))
        means = [stored[leaf]["mu"] for leaf in stats.leaves]
        return means, self.fit(means, stats, index), stats


@dataclass(frozen=True)
class LinearLeaves:
    """Linear leaves: V holds 1/tau0 for the intercept, 1/tau1 per slope; taus = (tau0, tau1)."""

    covariate_rule: str
    taus: tuple[float, float]
    _priors: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    kind = LINEAR

    def prior(self, q: int) -> LeafPrior:
        """The `LeafPrior` of q coefficients under the taus, built once per q."""
        prior = self._priors.get(q)
        if prior is None:
            v_diag = np.full(q, 1.0 / self.taus[1])
            v_diag[0] = 1.0 / self.taus[0]
            prior = self._priors[q] = LeafPrior(v_diag)
        return prior

    def stats(self, tree, rows_by_leaf, features, resid, prev=None,
              index=None) -> LinearStats:
        """Stats of every leaf by `linear_leaf_stats`, from `prev` (this
        model's stats), on the covariate sets of `prev` when it was built on
        this very `tree`, else on `leaf_covariate_sets` of `tree`; `index` is
        not used."""
        if prev is not None and prev.tree is tree:
            covs = prev.covariate_sets
        else:
            covs = leaf_covariate_sets(tree, self.covariate_rule)
        out = linear_leaf_stats(rows_by_leaf, features, resid, covs, prev)
        for st in out:
            if st.prior is None:
                st.prior = self.prior(st.q)
        out.tree, out.covariate_sets = tree, covs
        return out

    def log_marginal(self, stats, sigma2) -> float:
        return linear_log_marginal(stats, sigma2)

    def draw(self, stats, sigma2, rng) -> list[list[float]]:
        """The leaf coefficient lists, in the leaf order of `stats`."""
        return list(linear_sample_beta(stats, sigma2, rng).values())

    def fit(self, values, stats, index) -> np.ndarray:
        """The tree's fit on the `index.size` rows, leaf by leaf: each leaf's
        stats design times its coefficients in `values` (leaf order of `stats`)."""
        fit = np.zeros(index.size)
        for st, beta in zip(stats, values):
            fit[st.rows] = st.design @ beta
        return fit

    def replay(self, rows_by_leaf, stored, features, index, previous=None) -> tuple:
        """(coefficient lists, `fit`, stats) of a stored tree routed to `rows_by_leaf`:
        the coefficients read from `stored`, leaf id -> stored leaf, on per leaf a
        stat without residuals holding its design on its stored covariates, or
        that of the same routing's `previous` if its covariates are unchanged.
        Unchecked: the leaves are the chain's own or passed `stored_leaf_problem`."""
        kept = {st.leaf_id: st for st in previous or ()
                if st.covariates == stored[st.leaf_id]["covariates"]}
        stats, betas = LinearStats(), []
        for leaf in sorted(rows_by_leaf):
            st = kept.get(leaf)
            if st is None:
                rows, covs = rows_by_leaf[leaf], stored[leaf]["covariates"]
                st = LeafStats(leaf, rows.size, covariates=covs, rows=rows,
                               design=build_leaf_design(rows, features, covs))
            stats.append(st)
            betas.append(stored[leaf]["beta"])
        return betas, self.fit(betas, stats, index), stats
