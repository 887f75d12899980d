"""Independent reference implementations used to pin expected test values.

Everything here is deliberately brute force: quadrature instead of closed
forms, per-row rule walking instead of vectorized routing, explicit sums
instead of running totals. None of it shares code with the package, except
`replay_every_tree`, which rebuilds and routes trees with the package's `Tree`.
"""

import math

import numpy as np
from scipy import optimize, special


def quad_constant_leaf(r, sigma2, sigma_mu2, points=4001, width=14.0):
    """Integrate N(r | mu, sigma2 I) N(mu | 0, sigma_mu2) over mu by trapezoid.

    The grid is centered on the numerically located mode of the integrand
    and sized by the curvature there (second derivative of the negative log
    integrand, n/sigma2 + 1/sigma_mu2), so the bump is well resolved even
    when prior and likelihood widths differ by orders of magnitude.
    Trapezoid on a smooth decaying integrand converges far below the 1e-6
    comparison tolerance at this resolution.
    """
    r = np.asarray(r, dtype=float)
    n = r.size
    mode = optimize.minimize_scalar(
        lambda m: 0.5 * np.sum((r - m) ** 2) / sigma2 + 0.5 * m * m / sigma_mu2).x
    sd = 1.0 / math.sqrt(n / sigma2 + 1.0 / sigma_mu2)
    grid = np.linspace(mode - width * sd, mode + width * sd, points)
    log_f = (-0.5 * ((r[None, :] - grid[:, None]) ** 2).sum(axis=1) / sigma2
             - 0.5 * grid ** 2 / sigma_mu2
             - 0.5 * n * math.log(2 * math.pi * sigma2)
             - 0.5 * math.log(2 * math.pi * sigma_mu2))
    return float(np.trapezoid(np.exp(log_f), grid))


def quad_linear_leaf(X, r, sigma2, v, points=901, width=14.0):
    """Integrate N(r | X beta, sigma2 I) N_q(beta | 0, sigma2 V) over beta.

    Handles q = 1 (line) and q = 2 (tensor-product trapezoid grid).
    """
    X = np.asarray(X, dtype=float)
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    n, q = X.shape
    const = (-0.5 * n * math.log(2 * math.pi * sigma2)
             - 0.5 * np.sum(np.log(2 * math.pi * sigma2 * v)))

    def neg_log(b):
        resid = r - X @ b
        return 0.5 * resid @ resid / sigma2 + 0.5 * np.sum(b * b / (sigma2 * v))

    def curvature_sds(mode):
        # finite-difference Hessian of neg_log at the mode; its inverse
        # diagonal bounds the bump widths coordinate by coordinate
        q = mode.size
        h = 1e-4 * (1.0 + np.abs(mode))
        H = np.empty((q, q))
        for i in range(q):
            for j in range(q):
                bpp = mode.copy(); bpp[i] += h[i]; bpp[j] += h[j]
                bpm = mode.copy(); bpm[i] += h[i]; bpm[j] -= h[j]
                bmp = mode.copy(); bmp[i] -= h[i]; bmp[j] += h[j]
                bmm = mode.copy(); bmm[i] -= h[i]; bmm[j] -= h[j]
                H[i, j] = (neg_log(bpp) - neg_log(bpm) - neg_log(bmp)
                           + neg_log(bmm)) / (4 * h[i] * h[j])
        return np.sqrt(np.diag(np.linalg.inv(H)))

    if q == 1:
        mode = optimize.minimize_scalar(lambda b: neg_log(np.array([b]))).x
        sd = curvature_sds(np.array([mode]))[0]
        grid = np.linspace(mode - width * sd, mode + width * sd, 4001)
        resid2 = ((r[None, :] - np.outer(grid, X[:, 0])) ** 2).sum(axis=1)
        log_f = -0.5 * resid2 / sigma2 - 0.5 * grid ** 2 / (sigma2 * v[0]) + const
        return float(np.trapezoid(np.exp(log_f), grid))

    if q != 2:
        raise ValueError("oracle handles q <= 2 only")
    mode = optimize.minimize(neg_log, np.zeros(q)).x
    sds = curvature_sds(mode)
    g0 = np.linspace(mode[0] - width * sds[0], mode[0] + width * sds[0], points)
    g1 = np.linspace(mode[1] - width * sds[1], mode[1] + width * sds[1], points)
    B0, B1 = np.meshgrid(g0, g1, indexing="ij")
    mean = X[:, 0][None, None, :] * B0[:, :, None] + X[:, 1][None, None, :] * B1[:, :, None]
    log_f = (-0.5 * ((r[None, None, :] - mean) ** 2).sum(axis=2) / sigma2
             - 0.5 * B0 ** 2 / (sigma2 * v[0])
             - 0.5 * B1 ** 2 / (sigma2 * v[1]) + const)
    inner = np.trapezoid(np.exp(log_f), g1, axis=1)
    return float(np.trapezoid(inner, g0))


def bart_marginal_restore_constants(log_value, r, sigma2):
    """Put back the factors the constant-leaf form drops from the true marginal."""
    r = np.asarray(r, dtype=float)
    n = r.size
    return log_value - 0.5 * n * math.log(2 * math.pi * sigma2) - float(r @ r) / (2 * sigma2)


def linear_marginal_restore_constants(log_value, n):
    """Put back the (2 pi)^(-n/2) factor the linear-leaf form drops."""
    return log_value - 0.5 * n * math.log(2 * math.pi)


def route_row(tree, x):
    """Walk a single row through split rules one node at a time."""
    node_id = tree.root
    while not tree.nodes[node_id].is_leaf:
        nd = tree.nodes[node_id]
        node_id = nd.right if x[nd.feature] < nd.threshold else nd.left
    return node_id


def changed_leaves(rows_by_leaf, current):
    """Leaves of a candidate routing whose rows array is not the current
    routing's own object: the leaves a move gave other rows."""
    return {leaf for leaf, rows in rows_by_leaf.items() if current.get(leaf) is not rows}


def recursive_log_tree_prior(tree, alpha, beta_depth):
    """Evaluate the depth prior by explicit recursion from the root."""

    def visit(node_id, depth):
        nd = tree.nodes[node_id]
        p_internal = alpha * (1.0 + depth) ** (-beta_depth)
        if nd.is_leaf:
            return math.log(1.0 - p_internal)
        return (math.log(p_internal) + visit(nd.left, depth + 1)
                + visit(nd.right, depth + 1))

    return visit(tree.root, 0)


def explicit_partial_residual(state, tree_index):
    """target - sum of the other trees' fits, summed tree by tree."""
    total = np.zeros_like(state.target)
    for j, ts in enumerate(state.trees):
        if j != tree_index:
            total += ts.fit
    return state.target - total


def draw_prior_tree(X, split_values, alpha, beta_depth, n_min, rng, split_probs=None):
    """One draw from the tree prior, or None if a node holds fewer than `n_min` rows.

    A node at depth d splits with probability alpha * (1+d)^-beta; its rule
    takes a feature with probabilities `split_probs` (uniformly when None)
    and a threshold uniformly from that feature's `split_values`. The draw
    stops at the first node with fewer than `n_min` of the rows of `X`.
    """
    from lmbart.trees import Tree

    tree = Tree()
    stack = [(tree.root, list(range(X.shape[0])))]
    while stack:
        node_id, rows = stack.pop()
        if rng.random() >= alpha * (1.0 + tree.nodes[node_id].depth) ** (-beta_depth):
            continue
        if split_probs is None:
            feature = int(rng.integers(len(split_values)))
        else:
            feature = int(rng.choice(len(split_values), p=split_probs))
        values = split_values[feature]
        threshold = float(values[rng.integers(values.size)])
        right = [i for i in rows if X[i, feature] < threshold]
        left = [i for i in rows if not X[i, feature] < threshold]
        if min(len(left), len(right)) < n_min:
            return None
        left_id, right_id = tree.grow(node_id, feature, threshold)
        stack += [(left_id, left), (right_id, right)]
    return tree


def draw_truncated_prior_tree(X, split_values, alpha, beta_depth, n_min, rng):
    """One tree from the tree prior truncated to `n_min` rows per leaf, by rejection.

    Features are drawn uniformly. A `draw_prior_tree` that fails is thrown
    away whole and drawn again, so the draw is exact.
    """
    while True:
        tree = draw_prior_tree(X, split_values, alpha, beta_depth, n_min, rng)
        if tree is not None:
            return tree


def replay_every_tree(trees, task, scaling, X_new):
    """(draws, mean, lower, upper) of stored trees replayed with no reuse.

    Every tree of every draw is rebuilt with `Tree.from_dict` and routed with
    `Tree.leaf_rows`; a linear leaf's design is assembled here, a column of
    ones beside its covariates. Tree fits are summed in tree order.
    """
    from lmbart.trees import Tree

    Xs = (np.asarray(X_new, dtype=float) - scaling.feature_centers) / scaling.feature_scales
    out = np.zeros((len(trees), Xs.shape[0]))
    for k, tree_dicts in enumerate(trees):
        fit = 0
        for d in tree_dicts:
            tree, payload = Tree.from_dict(d)
            tree_fit = np.zeros(Xs.shape[0])
            for leaf, rows in tree.leaf_rows(Xs).items():
                leaf_params = payload[leaf]
                if "mu" in leaf_params:
                    tree_fit[rows] = leaf_params["mu"]
                else:
                    design = np.column_stack(
                        [np.ones(rows.size), Xs[np.ix_(rows, leaf_params["covariates"])]])
                    tree_fit[rows] = design @ leaf_params["beta"]
            fit = fit + tree_fit
        if task == "classification":
            out[k] = special.ndtr(fit)
        else:
            out[k] = scaling.invert_response(fit)
    lower, upper = np.quantile(out, (0.05, 0.95), axis=0)
    return out, out.mean(axis=0), lower, upper
