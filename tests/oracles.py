"""Independent reference implementations used to pin expected test values.

Everything here is deliberately brute force: quadrature instead of closed
forms, per-row rule walking instead of vectorized routing, explicit sums
instead of running totals. None of it shares code with the package, except
`grow_from_dict` and `replay_every_tree`, which build trees with the
package's `Tree.grow` (and route them with `Tree.leaf_rows`),
`recursive_to_dict` and `validate_tree`, which read a package `Tree`,
`with_sentinel_sums`, which copies a package `ConstantStats`, and
`routing`, which routes a package `Tree` with its `Tree.route`.
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


def node_rows(tree, X):
    """Every node's rows, routed from the root with a boolean mask per split."""
    out = {}

    def visit(node_id, rows):
        out[node_id] = rows
        nd = tree.nodes[node_id]
        if nd.feature is not None:
            right = X[rows, nd.feature] < nd.threshold
            visit(nd.right, rows[right])
            visit(nd.left, rows[~right])

    visit(tree.root, np.arange(X.shape[0]))
    return out


def routing(tree, X):
    """(rows by leaf, rows by split node) of every row of `X` in `tree`, the
    routing `propose_move` is handed, both filled by one `Tree.route`."""
    rows_by_split = {}
    return tree.route(X, tree.root, np.arange(X.shape[0]), rows_by_split), rows_by_split


def validate_tree(tree):
    """Assert a tree's structural invariants: every node reachable once from
    the root, with its parent link and depth, leaves with no children or
    threshold, split nodes with two children, and one more terminal than
    internal node."""
    seen = set()
    stack = [(tree.root, None, 0)]
    while stack:
        node_id, parent, depth = stack.pop()
        assert node_id not in seen, "node reachable twice"
        seen.add(node_id)
        nd = tree.nodes[node_id]
        assert nd.parent == parent, f"bad parent link at {node_id}"
        assert nd.depth == depth, f"bad depth at {node_id}"
        if nd.is_leaf:
            assert nd.left is None and nd.right is None and nd.threshold is None
        else:
            assert nd.left is not None and nd.right is not None
            stack.append((nd.left, node_id, depth + 1))
            stack.append((nd.right, node_id, depth + 1))
    assert seen == set(tree.nodes), "orphan nodes in arena"
    n_leaves = sum(1 for i in seen if tree.nodes[i].is_leaf)
    assert n_leaves == (len(seen) - n_leaves) + 1, "terminal count != internal + 1"


def rows_under_changes(d, prev, rows, X) -> int:
    """Rows of `rows` (reaching the roots of stored trees `d` and `prev`)
    under the topmost nodes whose rules differ between the two."""
    if d["kind"] == prev["kind"] == "leaf":
        return 0
    if (d["kind"] == prev["kind"] == "internal"
            and (d["feature"], d["threshold"]) == (prev["feature"], prev["threshold"])):
        right = X[rows, d["feature"]] < d["threshold"]
        return (rows_under_changes(d["left"], prev["left"], rows[~right], X)
                + rows_under_changes(d["right"], prev["right"], rows[right], X))
    return rows.size


def subtree_leaves(tree, node_id):
    """The leaves at or below `node_id`, by recursion over the child links."""
    nd = tree.nodes[node_id]
    if nd.feature is None:
        return [node_id]
    return subtree_leaves(tree, nd.left) + subtree_leaves(tree, nd.right)


BELOW_N_MIN = {"grow": "child below minimum node size",
               "change": "terminal below minimum node size",
               "swap": "terminal below minimum node size"}


def full_size_check(proposal, X, n_min):
    """(valid, reason, leaf rows) of a proposal drawn with no minimum node
    size, once its candidate is routed from the root and its smallest leaf
    is compared with `n_min`; the leaf rows are None when invalid."""
    if not proposal.valid:
        return False, proposal.reason, None
    rows = node_rows(proposal.tree, X)
    leaves = {i: rows[i] for i, nd in proposal.tree.nodes.items() if nd.feature is None}
    if min(r.size for r in leaves.values()) < n_min:
        return False, BELOW_N_MIN[proposal.kind], None
    return True, "", leaves


def changed_leaves(rows_by_leaf, current):
    """Leaves of a candidate routing whose rows array is not the current
    routing's own object: the leaves a move gave other rows."""
    return {leaf for leaf, rows in rows_by_leaf.items() if current.get(leaf) is not rows}


# a residual sum no test data reaches: a constant stats build that returns it
# for a leaf has kept that leaf from a `with_sentinel_sums` prev
SENTINEL_SUM = 1e300


def with_sentinel_sums(stats):
    """A copy of constant-leaf `stats` with every residual sum `SENTINEL_SUM`."""
    return type(stats)(stats.leaves, stats.rows, stats.n, [SENTINEL_SUM] * len(stats),
                       stats.resid)


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


def leaf_index_of(rows_by_leaf, n):
    """Row -> leaf id of a leaf routing of n rows, row by row; -1 where no leaf
    holds the row."""
    index = np.full(n, -1)
    for leaf, rows in rows_by_leaf.items():
        for row in rows.tolist():
            index[row] = leaf
    return index


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


def grow_from_dict(d):
    """`Tree.from_dict` by recursion: one `Tree.grow` per internal node.

    Splits the stored tree's nodes in preorder, left subtree first, so the
    node ids are the ones `grow` allocates. Returns the tree and leaf id ->
    leaf node of `d`, as `Tree.from_dict` does.
    """
    from lmbart.trees import Tree

    tree = Tree()
    payload = {}

    def build(node_id, spec):
        if spec["kind"] == "leaf":
            payload[node_id] = spec
            return
        left, right = tree.grow(node_id, spec["feature"], spec["threshold"])
        build(left, spec["left"])
        build(right, spec["right"])

    build(tree.root, d)
    return tree, payload


def recursive_to_dict(tree, leaf_payload=None):
    """`Tree.to_dict` by recursion, converting every split rule to int and float.

    A leaf is {"kind": "leaf"} updated with its payload, when it has one; a
    split is {"kind", "feature", "threshold", "left", "right"}.
    """
    def build(node_id):
        nd = tree.nodes[node_id]
        if nd.is_leaf:
            d = {"kind": "leaf"}
            if leaf_payload is not None and node_id in leaf_payload:
                d.update(leaf_payload[node_id])
            return d
        return {
            "kind": "internal",
            "feature": int(nd.feature),
            "threshold": float(nd.threshold),
            "left": build(nd.left),
            "right": build(nd.right),
        }
    return build(tree.root)


def expand_stored(trees):
    """Stored draws with every "same" record written out in full.

    A "same" record stands for its tree's record at the previous draw with
    that record's leaves, in preorder, replaced by {"kind": "leaf"} and the
    record's payloads one by one; a full record is kept as it is.
    """
    out, previous = [], None
    for tree_dicts in trees:
        previous = [expand_record(d, prev) for d, prev in
                    zip(tree_dicts, previous or [None] * len(tree_dicts))]
        out.append(previous)
    return out


def expand_record(d, previous):
    """The full form of stored record `d`, given the full form of its tree's
    record at the previous draw (`expand_stored`)."""
    if d["kind"] != "same":
        return d
    payloads = iter(d["leaves"])

    def build(node):
        if node["kind"] == "leaf":
            return {"kind": "leaf", **next(payloads)}
        return {**node, "left": build(node["left"]), "right": build(node["right"])}

    full = build(previous)
    assert next(payloads, None) is None, "a 'same' record with more leaves than its tree"
    return full


def replay_every_tree(trees, task, scaling, X_new):
    """(draws, mean, lower, upper) of stored trees replayed with no reuse.

    Every tree of every draw, written out in full by `expand_stored`, is
    rebuilt with `grow_from_dict` and routed with `Tree.leaf_rows`; a linear
    leaf's design is assembled here, a column of ones beside its covariates.
    Tree fits are summed in tree order.
    """
    Xs = (np.asarray(X_new, dtype=float) - scaling.feature_centers) / scaling.feature_scales
    out = np.zeros((len(trees), Xs.shape[0]))
    for k, tree_dicts in enumerate(expand_stored(trees)):
        fit = 0
        for d in tree_dicts:
            tree, payload = grow_from_dict(d)
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


def recount_parameters(draws):
    """Per-iteration per-tree leaf parameter counts, recounted from stored trees.

    Each serialized linear leaf carries its own coefficient vector, so the
    count is the summed beta lengths; constant leaves count one parameter
    each. The stored trees are read written out in full (`expand_stored`).
    Used to check the accounting identity on tree-storing runs.
    """
    if draws.trees is None:
        raise ValueError("run was not tree-storing")

    def count(tree_dict) -> int:
        if tree_dict["kind"] == "leaf":
            return len(tree_dict["beta"]) if "beta" in tree_dict else 1
        return count(tree_dict["left"]) + count(tree_dict["right"])

    return np.array([[count(d) for d in tree_dicts]
                     for tree_dicts in expand_stored(draws.trees)], dtype=int)
