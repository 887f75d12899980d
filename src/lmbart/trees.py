"""Binary decision trees, their data partitions, and the four MCMC moves.

Routing convention: a row goes to the RIGHT child when
``x[feature] < threshold`` is true, to the left child otherwise. Any fixed
convention works as long as it is used everywhere; this one is used by the
router, the proposals, and the serialized form alike.

Routing kernel: `Tree.route` carries an ascending int64 array of row indices
down from a node. At each split it gathers the rows' values of the split
feature with ``X[:, feature].take(rows)`` and divides the rows with
``rows.compress(go_right)`` / ``rows.compress(~go_right)``, so both children
stay ascending. Any memory layout of X routes alike; the chain and
`predict_stored` pass a column-major (``np.asfortranarray``) copy of the
standardized features, on which each split's column is contiguous.

Carried routing: the chain keeps, for each tree, the rows of every node: a
leaf routing (terminal id -> rows) and a split routing (split node id ->
rows). Each starts as a stump's, every row in the root leaf, and is carried
from there. `carry_routing` moves a routing onto another tree: it walks the
two trees together from their roots, keeps the row arrays of the nodes whose
rules agree, and routes again only the rows of the topmost nodes whose rules
differ. A proposal carries the current tree's routing onto its candidate,
which copies only the nodes its move changes and shares the rest, and stops
as soon as a re-routed terminal falls below the minimum node size. The
replay of stored draws keeps, in the chain's own `sampler.TreeState`, the
previous draw's tree while its splits stay, and carries its routing onto a
tree whose splits changed, which `Tree.from_dict` builds anew, numbered by shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

GROW = "grow"
PRUNE = "prune"
CHANGE = "change"
SWAP = "swap"
MOVE_KINDS = (GROW, PRUNE, CHANGE, SWAP)


@dataclass(slots=True)
class Node:
    depth: int
    parent: int | None = None
    feature: int | None = None     # None means terminal
    threshold: float | None = None
    left: int | None = None
    right: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def copy(self) -> "Node":
        return Node(self.depth, self.parent, self.feature,
                    self.threshold, self.left, self.right)


class Tree:
    """Strictly binary decision tree stored as an id -> Node arena.

    Node ids are only ever retired (by prune) or newly allocated (by grow),
    never reused within a tree's lifetime, so leaf ids are stable keys for
    leaf parameters between structural moves.
    """

    def __init__(self):
        self.nodes: dict[int, Node] = {0: Node(depth=0)}
        self.root = 0
        self._next_id = 1

    @classmethod
    def stump(cls) -> "Tree":
        return cls()

    def copy(self) -> "Tree":
        """A deep copy: no node is shared with this tree."""
        return self._edit(*self.nodes)

    def _edit(self, *changed: int) -> "Tree":
        """A tree that copies the nodes `changed` and shares every other node
        with this one; only the copied nodes may be mutated."""
        t = Tree.__new__(Tree)
        t.nodes = nodes = self.nodes.copy()
        for i in changed:
            nodes[i] = nodes[i].copy()
        t.root = self.root
        t._next_id = self._next_id
        return t

    def leaves(self) -> list[int]:
        return [i for i, nd in self.nodes.items() if nd.feature is None]

    def internal_nodes(self) -> list[int]:
        return [i for i, nd in self.nodes.items() if nd.feature is not None]

    def prunable_nodes(self) -> list[int]:
        """Internal nodes whose two children are both terminal."""
        nodes = self.nodes
        return [i for i, nd in nodes.items()
                if nd.feature is not None and nodes[nd.left].feature is None
                and nodes[nd.right].feature is None]

    def n_leaves(self) -> int:
        return sum(1 for nd in self.nodes.values() if nd.feature is None)

    def grow(self, leaf_id: int, feature: int, threshold: float) -> tuple[int, int]:
        """Split a terminal node; returns the (left, right) child ids."""
        nd = self.nodes[leaf_id]
        if not nd.is_leaf:
            raise ValueError(f"node {leaf_id} is not terminal")
        left = self._next_id
        right = self._next_id + 1
        self._next_id += 2
        self.nodes[left] = Node(depth=nd.depth + 1, parent=leaf_id)
        self.nodes[right] = Node(depth=nd.depth + 1, parent=leaf_id)
        nd.feature = int(feature)
        nd.threshold = float(threshold)
        nd.left = left
        nd.right = right
        return left, right

    def prune(self, node_id: int) -> None:
        """Remove the two terminal children of `node_id`, making it terminal."""
        nd = self.nodes[node_id]
        if nd.is_leaf:
            raise ValueError(f"node {node_id} is terminal")
        if not (self.nodes[nd.left].is_leaf and self.nodes[nd.right].is_leaf):
            raise ValueError(f"children of node {node_id} are not both terminal")
        del self.nodes[nd.left]
        del self.nodes[nd.right]
        nd.feature = nd.threshold = nd.left = nd.right = None

    def set_rule(self, node_id: int, feature: int, threshold: float) -> None:
        nd = self.nodes[node_id]
        if nd.is_leaf:
            raise ValueError(f"node {node_id} is terminal")
        nd.feature = int(feature)
        nd.threshold = float(threshold)

    def leaf_rows(self, X: np.ndarray) -> dict[int, np.ndarray]:
        """Map each terminal node id to the row indices it receives."""
        X = np.asarray(X, dtype=float)
        return self.route(X, self.root, np.arange(X.shape[0]), {})

    def route(self, X: np.ndarray, node_id: int, rows: np.ndarray, splits: dict,
              n_min: int = 0) -> dict[int, np.ndarray] | None:
        """Route `rows` from `node_id` down to each terminal of its subtree.

        Returns terminal id -> rows. Ascending `rows` give ascending row
        indices at every node. Each split node's rows are stored in `splits`
        (`node_id` keeps the `rows` object itself). Returns None as soon as a
        terminal receives fewer than `n_min` rows, leaving the rest of the
        subtree unrouted.
        """
        out = {}
        stack = [(node_id, rows)]
        while stack:
            node_id, rows = stack.pop()
            nd = self.nodes[node_id]
            if nd.feature is None:
                if rows.size < n_min:
                    return None
                out[node_id] = rows
                continue
            splits[node_id] = rows
            go_right = X[:, nd.feature].take(rows) < nd.threshold
            stack.append((nd.right, rows.compress(go_right)))
            stack.append((nd.left, rows.compress(~go_right)))
        return out

    def to_dict(self, leaf_payload: dict | None = None) -> dict:
        """Nested JSON-ready form; `leaf_payload` maps leaf id -> extra fields.

        Split rules are written as stored: `grow` and `set_rule` store int, float.
        """
        nodes, payload = self.nodes, leaf_payload or {}

        def build(node_id):
            nd = nodes[node_id]
            if nd.feature is None:
                return {"kind": "leaf", **payload.get(node_id, {})}
            return {"kind": "internal", "feature": nd.feature, "threshold": nd.threshold,
                    "left": build(nd.left), "right": build(nd.right)}
        return build(self.root)

    @classmethod
    def from_dict(cls, d: dict, prev: "Tree | None" = None) -> tuple["Tree", dict[int, dict]]:
        """Inverse of `to_dict`; returns the tree and leaf id -> leaf node of
        `d`, the stored dict itself (its payload and its "kind"), not a copy.

        Node ids are allocated as `grow` would allocate them when splitting
        the nodes in preorder: a split node's left child gets the next free
        id and its right child the one after, and the left subtree is
        numbered before the right. The arena is therefore a function of the
        tree's shape, and the payload lists the leaves in preorder. A node
        kind other than "leaf" or "internal" raises ValueError.

        When `prev`'s splits equal `d`'s (by position, leaf with leaf and split
        with split of `==` feature and threshold), `prev` itself is returned and
        its leaf ids key the payload: the ids above if `prev` is a stump or was
        built here.
        """
        if prev is not None:
            payload, nodes, stack = {}, prev.nodes, [(d, prev.root)]
            while stack:
                spec, node_id = stack.pop()
                nd = nodes[node_id]
                while (nd.feature is not None and spec["kind"] == "internal"
                       and spec["feature"] == nd.feature and spec["threshold"] == nd.threshold):
                    stack.append((spec["right"], nd.right))      # down the left spine
                    spec, node_id = spec["left"], nd.left
                    nd = nodes[node_id]
                if nd.feature is not None or spec["kind"] != "leaf":
                    break                                        # splits differ: build anew
                payload[node_id] = spec
            else:
                return prev, payload
        arena: list[Node | None] = [None]      # node id -> node, ids 0..n-1
        payload: dict[int, dict] = {}
        stack = [(d, 0, None, 0)]              # (spec, node id, parent, depth)
        while stack:
            spec, node_id, parent, depth = stack.pop()
            kind = spec["kind"]
            if kind == "leaf":
                arena[node_id] = Node(depth, parent)
                payload[node_id] = spec
                continue
            if kind != "internal":
                raise ValueError(f"unknown node kind {kind!r}")
            left = len(arena)
            arena += (None, None)
            arena[node_id] = Node(depth, parent, spec["feature"], float(spec["threshold"]),
                                  left, left + 1)
            stack.append((spec["right"], left + 1, node_id, depth + 1))
            stack.append((spec["left"], left, node_id, depth + 1))
        tree = cls.__new__(cls)
        tree.nodes = dict(enumerate(arena))
        tree.root = 0
        tree._next_id = len(arena)
        return tree, payload


@dataclass(frozen=True)
class Partition:
    """Row -> terminal assignment for one tree on one feature matrix."""

    assignment: np.ndarray                 # (n,) leaf ids
    rows_by_leaf: dict[int, np.ndarray]    # leaf id -> row indices

    @property
    def counts(self) -> dict[int, int]:
        return {leaf: rows.size for leaf, rows in self.rows_by_leaf.items()}

    def min_count(self) -> int:
        return min(rows.size for rows in self.rows_by_leaf.values())


def partition(tree: Tree, features: np.ndarray) -> Partition:
    """Route all rows from the root, with a per-row leaf id view; the chain and
    the replay carry theirs instead (`carry_routing`, `sampler.TreeState.keep`)."""
    rows_by_leaf = tree.leaf_rows(features)
    assignment = np.empty(np.asarray(features).shape[0], dtype=np.intp)
    for leaf, rows in rows_by_leaf.items():
        assignment[rows] = leaf
    return Partition(assignment, rows_by_leaf)


def log_tree_prior(tree: Tree, alpha: float, beta_depth: float) -> float:
    """Depth-regularizing log prior of the tree topology.

    A node at depth d is internal with probability alpha * (1+d)^-beta, so
    the log prior sums log(alpha*(1+d)^-beta) over internal nodes and
    log(1 - alpha*(1+d)^-beta) over terminal nodes.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if beta_depth < 0:
        raise ValueError(f"beta_depth must be >= 0, got {beta_depth}")
    terms = _DEPTH_LOG_TERMS.setdefault((alpha, beta_depth), [])
    total = 0.0
    for nd in tree.nodes.values():
        while len(terms) <= nd.depth:
            p_internal = alpha * (1.0 + len(terms)) ** (-beta_depth)
            terms.append((math.log(1.0 - p_internal), math.log(p_internal)))
        total += terms[nd.depth][nd.feature is not None]
    return total


# (alpha, beta_depth) -> per depth, the (terminal, internal) log terms of
# `log_tree_prior`; each entry is a function of its key alone, so every caller
# may share it
_DEPTH_LOG_TERMS: dict[tuple[float, float], list[tuple[float, float]]] = {}


@dataclass
class MoveProposal:
    """One structural proposal, valid or not.

    A valid proposal carries its candidate tree's routing of the training
    rows in `rows_by_leaf` (leaf id -> ascending int64 row indices) and
    `rows_by_split` (split node id -> the same), so the sampler never routes
    the candidate again. A candidate leaf whose rows equal the current
    tree's holds the current routing's own array object, and every other
    leaf a new array (a pruned node's new leaf holds that node's array), so
    array identity tells which leaves' statistics can be reused. The
    candidate `tree` shares every node its move did not change with the
    current tree, so it must not be mutated; mutate its `copy()` instead.
    `log_transition_correction` is the log
    proposal ratio q(reverse) / q(forward) of a grow or prune. The tree
    prior is the depth prior of `log_tree_prior` times a rule prior that
    picks each split's feature by the split probabilities and its threshold
    uniformly from that feature's split values. A grow proposes its rule
    from that same rule prior, so the rule's proposal and prior
    probabilities cancel, and the ratio keeps only the choice of node:
    log L - log P' for a grow from L leaves to a tree with P' prunable
    nodes, and the inverse for a prune. Change and swap moves are symmetric and leave
    the rule prior unchanged, so theirs is 0.
    """

    kind: str
    tree: Tree | None
    rows_by_leaf: dict[int, np.ndarray] = field(default_factory=dict)
    rows_by_split: dict[int, np.ndarray] = field(default_factory=dict)
    log_transition_correction: float = 0.0
    valid: bool = True
    reason: str = ""

    @classmethod
    def invalid(cls, kind: str, reason: str) -> "MoveProposal":
        return cls(kind=kind, tree=None, valid=False, reason=reason)


def split_cdf(split_probs: np.ndarray, splittable: np.ndarray) -> np.ndarray | None:
    """The cdf of a rule's feature draw: `split_probs` with the mass of the
    features that `splittable` excludes redistributed over the rest; None
    when no feature is left. It depends on `split_probs` alone for a given
    split dictionary, so the sampler builds it once per sweep and passes it
    to every `propose_move` of that sweep."""
    probs = np.where(splittable, split_probs, 0.0)
    total = probs.sum()
    if total <= 0:
        return None
    cdf = (probs / total).cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw_rule(split_dict, cdf: np.ndarray | None, rng) -> tuple[int, float] | None:
    if cdf is None:
        return None
    # what rng.choice(p, p=probs) does with the cdf of probs, without its argument checks
    feature = int(cdf.searchsorted(rng.random(), "right"))
    values = split_dict.values[feature]
    return feature, float(values[rng.integers(values.size)])


def carry_routing(tree: Tree, features: np.ndarray, prev: Tree, prev_leaves: dict,
                  prev_splits: dict, n_min: int = 0) -> tuple[dict, dict] | None:
    """`tree`'s (leaf, split) routing of `features`, carried from `prev`'s;
    None as soon as a re-routed terminal gets fewer than `n_min` rows.

    `prev_leaves` and `prev_splits` are `prev`'s leaf and split routing of
    the same rows; neither is modified. The walk pairs nodes by position
    from the two roots. A pair of leaves, or of split nodes with equal
    (feature, threshold), keeps the previous node's rows array, and a split
    pair goes on to pair left with left and right with right. Any other pair
    is a topmost node whose rule differs, and its previous rows are routed
    through `tree`'s subtree with `Tree.route`. A re-routed leaf that is
    the same `Node` object as `prev`'s leaf of its id, and whose rows equal
    that leaf's, keeps that leaf's array object, so array identity tells
    which leaves got other rows.

    A proposal's candidate is an `_edit` of `prev`, so the walk pairs nodes
    of equal id and stops at the nodes the move changed: a grow's leaf, a
    prune's node (whose rows array the new leaf keeps), a change's node, and
    the higher of a swap's two nodes, or both when neither is an ancestor of
    the other. An `_edit` copies only those nodes, so every leaf under them
    but a grow's two new ones is `prev`'s own node. The replay carries only
    onto a stored tree whose splits changed, built anew by `Tree.from_dict`:
    it shares no node with the previous draw's, so the replay compares no arrays.
    """
    leaves, splits = {}, {}
    nodes, prev_nodes = tree.nodes, prev.nodes
    stack = [(tree.root, prev.root)]
    while stack:
        i, j = stack.pop()
        nd, pd = nodes[i], prev_nodes[j]
        if nd.feature is None and pd.feature is None:
            leaves[i] = prev_leaves[j]
        elif (nd.feature is not None and nd.feature == pd.feature
              and nd.threshold == pd.threshold):
            splits[i] = prev_splits[j]
            stack.append((nd.right, pd.right))
            stack.append((nd.left, pd.left))
        else:
            rows = prev_leaves[j] if pd.feature is None else prev_splits[j]
            routed = tree.route(features, i, rows, splits, n_min)
            if routed is None:
                return None
            for leaf, r in routed.items():
                if nodes[leaf] is prev_nodes.get(leaf):
                    old = prev_leaves[leaf]
                    if old.size == r.size and (old == r).all():
                        r = old
                leaves[leaf] = r
    return leaves, splits


def propose_move(tree: Tree, features: np.ndarray, split_dict, cdf: np.ndarray | None,
                 rng: np.random.Generator, n_min: int = 5, kind: str | None = None, *,
                 rows_by_leaf: dict[int, np.ndarray],
                 rows_by_split: dict[int, np.ndarray]) -> MoveProposal:
    """Draw one of grow/prune/change/swap uniformly and apply it to a copy.

    A proposal that has no valid target (prune on a stump, swap with fewer
    than two internal nodes) or that leaves any terminal with fewer than
    `n_min` rows is returned marked invalid; the sampler counts it as an
    automatic rejection rather than redrawing. Passing `kind` skips the
    uniform move draw (useful for forcing a particular move). A grow or
    change draws its rule's feature from `cdf` (`split_cdf`; None means no
    feature can be split) and its threshold uniformly from `split_dict`.

    `rows_by_leaf` and `rows_by_split` are the current tree's leaf and split
    routing of `features`; neither is modified. Each move builds only its
    candidate tree and log transition correction; one `carry_routing` call
    then carries the routing onto the candidate, routing again only the rows
    under the nodes the move changed.

    Only re-routed terminals are checked against `n_min`, and routing stops
    at the first one below it. This equals checking every terminal under
    the precondition that every terminal of `tree` holds at least `n_min`
    rows, which holds for every tree the chain keeps (each passed this
    check, and a stump has no change or swap target). No move draws from
    `rng` after routing, so stopping early leaves `rng` where the full
    check would.
    """
    if kind is None:
        kind = MOVE_KINDS[rng.integers(4)]
    elif kind not in MOVE_KINDS:
        raise ValueError(f"unknown move kind {kind!r}")
    features = np.asarray(features, dtype=float)
    correction = 0.0              # change and swap moves are symmetric
    if kind == GROW:
        leaves = sorted(rows_by_leaf)
        leaf = leaves[rng.integers(len(leaves))]
        rule = _draw_rule(split_dict, cdf, rng)
        if rule is None:
            return MoveProposal.invalid(kind, "no splittable feature")
        cand = tree._edit(leaf)
        cand.grow(leaf, *rule)
    elif kind == PRUNE:
        prunable = sorted(tree.prunable_nodes())
        if not prunable:
            return MoveProposal.invalid(kind, "no prunable node")
        target = prunable[rng.integers(len(prunable))]
        cand = tree._edit(target)
        cand.prune(target)
        # the reverse grow picks one of the candidate's leaves, one fewer than the current's
        correction = math.log(len(prunable)) - math.log(len(rows_by_leaf) - 1)
    elif kind == CHANGE:
        targets = sorted(tree.prunable_nodes())
        if not targets:
            return MoveProposal.invalid(kind, "no internal node with two terminal children")
        target = targets[rng.integers(len(targets))]
        rule = _draw_rule(split_dict, cdf, rng)
        if rule is None:
            return MoveProposal.invalid(kind, "no splittable feature")
        cand = tree._edit(target)
        cand.set_rule(target, *rule)
    else:
        # swap: exchange the rules of two distinct internal nodes
        internal = sorted(tree.internal_nodes())
        if len(internal) < 2:
            return MoveProposal.invalid(kind, "fewer than two internal nodes")
        pick = rng.choice(len(internal), size=2, replace=False)
        a, b = internal[int(pick[0])], internal[int(pick[1])]
        cand = tree._edit(a, b)
        na, nb = cand.nodes[a], cand.nodes[b]
        na.feature, nb.feature = nb.feature, na.feature
        na.threshold, nb.threshold = nb.threshold, na.threshold

    routing = carry_routing(cand, features, tree, rows_by_leaf, rows_by_split, n_min)
    if routing is None:
        return MoveProposal.invalid(kind, "child below minimum node size" if kind == GROW
                                    else "terminal below minimum node size")
    if kind == GROW:
        # forward picks one of the current leaves, the reverse prune one of the
        # (valid) candidate's prunable nodes; the rule's proposal probability
        # equals its prior probability, so the two cancel out of the ratio
        correction = math.log(len(rows_by_leaf)) - math.log(len(cand.prunable_nodes()))
    return MoveProposal(kind, cand, *routing, correction)


def split_covariates(tree: Tree) -> set[int]:
    """Features appearing in any internal node; empty for a stump."""
    return {nd.feature for nd in tree.nodes.values() if not nd.is_leaf}


def ancestor_covariates(tree: Tree, leaf: int) -> set[int]:
    """Features on the root-to-leaf path only."""
    if leaf not in tree.nodes or not tree.nodes[leaf].is_leaf:
        raise KeyError(f"unknown terminal node {leaf}")
    out: set[int] = set()
    node_id = tree.nodes[leaf].parent
    while node_id is not None:
        nd = tree.nodes[node_id]
        out.add(nd.feature)
        node_id = nd.parent
    return out
