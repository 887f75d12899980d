"""Binary decision trees, their data partitions, and the four MCMC moves.

Routing convention: a row goes to the RIGHT child when
``x[feature] < threshold`` is true, to the left child otherwise. Any fixed
convention works as long as it is used everywhere; this one is used by the
router, the proposals, and the serialized form alike.
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


@dataclass
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
        t = Tree.__new__(Tree)
        t.nodes = {i: node.copy() for i, node in self.nodes.items()}
        t.root = self.root
        t._next_id = self._next_id
        return t

    def is_leaf(self, node_id: int) -> bool:
        return self.nodes[node_id].is_leaf

    def depth_of(self, node_id: int) -> int:
        return self.nodes[node_id].depth

    def leaves(self) -> list[int]:
        return [i for i, nd in self.nodes.items() if nd.is_leaf]

    def internal_nodes(self) -> list[int]:
        return [i for i, nd in self.nodes.items() if not nd.is_leaf]

    def prunable_nodes(self) -> list[int]:
        """Internal nodes whose two children are both terminal."""
        out = []
        for i, nd in self.nodes.items():
            if not nd.is_leaf and self.nodes[nd.left].is_leaf and self.nodes[nd.right].is_leaf:
                out.append(i)
        return out

    def n_leaves(self) -> int:
        return sum(1 for nd in self.nodes.values() if nd.is_leaf)

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
        nd.feature = feature
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
        nd.feature = feature
        nd.threshold = float(threshold)

    def leaf_rows(self, X: np.ndarray) -> dict[int, np.ndarray]:
        """Map each terminal node id to the row indices it receives."""
        X = np.asarray(X, dtype=float)
        return self.route(X, self.root, np.arange(X.shape[0]))

    def route(self, X: np.ndarray, node_id: int, rows: np.ndarray) -> dict[int, np.ndarray]:
        """Route `rows` from `node_id` down to each terminal of its subtree.

        Ascending `rows` give ascending row indices at every terminal.
        """
        out = {}
        stack = [(node_id, rows)]
        while stack:
            node_id, rows = stack.pop()
            nd = self.nodes[node_id]
            if nd.is_leaf:
                out[node_id] = rows
                continue
            go_right = X[:, nd.feature][rows] < nd.threshold
            stack.append((nd.right, rows[go_right]))
            stack.append((nd.left, rows[~go_right]))
        return out

    def subtree_leaves(self, node_id: int) -> list[int]:
        out = []
        stack = [node_id]
        while stack:
            i = stack.pop()
            nd = self.nodes[i]
            if nd.is_leaf:
                out.append(i)
            else:
                stack.extend((nd.left, nd.right))
        return out

    def validate(self) -> None:
        """Assert the structural invariants; used by property tests."""
        seen = set()
        stack = [(self.root, None, 0)]
        while stack:
            node_id, parent, depth = stack.pop()
            assert node_id not in seen, "node reachable twice"
            seen.add(node_id)
            nd = self.nodes[node_id]
            assert nd.parent == parent, f"bad parent link at {node_id}"
            assert nd.depth == depth, f"bad depth at {node_id}"
            if nd.is_leaf:
                assert nd.left is None and nd.right is None and nd.threshold is None
            else:
                assert nd.left is not None and nd.right is not None
                stack.append((nd.left, node_id, depth + 1))
                stack.append((nd.right, node_id, depth + 1))
        assert seen == set(self.nodes), "orphan nodes in arena"
        n_leaves = sum(1 for i in seen if self.nodes[i].is_leaf)
        assert n_leaves == (len(seen) - n_leaves) + 1, "terminal count != internal + 1"

    def to_dict(self, leaf_payload: dict | None = None) -> dict:
        """Nested JSON-ready form; `leaf_payload` maps leaf id -> extra fields."""
        def build(node_id):
            nd = self.nodes[node_id]
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
        return build(self.root)

    @classmethod
    def from_dict(cls, d: dict) -> tuple["Tree", dict[int, dict]]:
        """Inverse of `to_dict`; returns the tree and per-leaf payload dicts."""
        tree = cls()
        payload: dict[int, dict] = {}

        def build(node_id, spec):
            if spec["kind"] == "leaf":
                payload[node_id] = {k: v for k, v in spec.items() if k != "kind"}
                return
            left, right = tree.grow(node_id, spec["feature"], spec["threshold"])
            build(left, spec["left"])
            build(right, spec["right"])

        build(tree.root, d)
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
    """Route all rows through the tree's split rules, with a per-row leaf id view."""
    rows_by_leaf = tree.leaf_rows(features)
    assignment = np.empty(np.asarray(features).shape[0], dtype=np.int64)
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
    total = 0.0
    for nd in tree.nodes.values():
        p_internal = alpha * (1.0 + nd.depth) ** (-beta_depth)
        total += math.log(1.0 - p_internal) if nd.is_leaf else math.log(p_internal)
    return total


@dataclass
class MoveProposal:
    """One structural proposal, valid or not.

    A valid proposal carries its candidate tree's routing of the training
    rows in `rows_by_leaf` (leaf id -> ascending int64 row indices), so the
    sampler never routes the candidate again. A candidate leaf whose rows
    equal the current tree's holds the current routing's own array object,
    and every other leaf a new array, so array identity tells which leaves'
    statistics can be reused. `log_transition_correction` is the log
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
    log_transition_correction: float = 0.0
    valid: bool = True
    reason: str = ""

    @classmethod
    def invalid(cls, kind: str, reason: str) -> "MoveProposal":
        return cls(kind=kind, tree=None, valid=False, reason=reason)


def _masked_split_probs(split_probs: np.ndarray, splittable: np.ndarray) -> np.ndarray | None:
    """Redistribute the probability mass of unsplittable features."""
    probs = np.where(splittable, split_probs, 0.0)
    total = probs.sum()
    if total <= 0:
        return None
    return probs / total


def _draw_rule(split_dict, split_probs, splittable, rng) -> tuple[int, float] | None:
    probs = _masked_split_probs(split_probs, splittable)
    if probs is None:
        return None
    # what rng.choice(len(probs), p=probs) does, without its argument checks
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    feature = int(cdf.searchsorted(rng.random(), "right"))
    values = split_dict.values[feature]
    return feature, float(values[rng.integers(values.size)])


def _reroute(tree: Tree, cand: Tree, features: np.ndarray, rows_by_leaf: dict,
             nodes: list[int]) -> dict[int, np.ndarray]:
    """The candidate's routing, re-routing only the rows under `nodes`.

    Each node exists in both trees and no node lies under another. The rows
    under a node, gathered from the current tree's leaves below it, are
    routed through the candidate's subtree. Every other leaf keeps its array
    object, and so does a re-routed leaf whose rows come out unchanged.
    """
    rows = dict(rows_by_leaf)
    for node in nodes:
        under = [rows.pop(leaf) for leaf in tree.subtree_leaves(node)]
        merged = under[0] if len(under) == 1 else np.sort(np.concatenate(under))
        for leaf, r in cand.route(features, node, merged).items():
            old = rows_by_leaf.get(leaf)
            if old is not None and old.size == r.size and (old == r).all():
                r = old
            rows[leaf] = r
    return rows


def _top_nodes(tree: Tree, a: int, b: int) -> list[int]:
    """[a, b], or only the higher one when it is an ancestor of the other."""
    hi, lo = sorted((a, b), key=tree.depth_of)
    while tree.depth_of(lo) > tree.depth_of(hi):
        lo = tree.nodes[lo].parent
    return [hi] if lo == hi else [a, b]


def propose_move(tree: Tree, features: np.ndarray, split_dict, split_probs: np.ndarray,
                 rng: np.random.Generator, n_min: int = 5, kind: str | None = None,
                 rows_by_leaf: dict[int, np.ndarray] | None = None) -> MoveProposal:
    """Draw one of grow/prune/change/swap uniformly and apply it to a copy.

    A proposal that has no valid target (prune on a stump, swap with fewer
    than two internal nodes) or that leaves any terminal with fewer than
    `n_min` rows is returned marked invalid; the sampler counts it as an
    automatic rejection rather than redrawing. Passing `kind` skips the
    uniform move draw (useful for forcing a particular move).

    `rows_by_leaf` is the current tree's routing of `features` (None routes
    it once here); it is not modified. The candidate's routing is built from
    it by routing only the rows a move touches: a grow splits its leaf's
    rows, a prune merges its two leaves' rows, a change re-routes the rows
    under its node and a swap those under the higher of its two nodes (under
    both when neither is an ancestor of the other).
    """
    if kind is None:
        kind = MOVE_KINDS[rng.integers(4)]
    elif kind not in MOVE_KINDS:
        raise ValueError(f"unknown move kind {kind!r}")
    splittable = split_dict.splittable()
    features = np.asarray(features, dtype=float)
    if rows_by_leaf is None:
        rows_by_leaf = tree.leaf_rows(features)

    if kind == GROW:
        leaves = sorted(tree.leaves())
        leaf = leaves[rng.integers(len(leaves))]
        rule = _draw_rule(split_dict, split_probs, splittable, rng)
        if rule is None:
            return MoveProposal.invalid(kind, "no splittable feature")
        cand = tree.copy()
        left, right = cand.grow(leaf, *rule)
        rows = _reroute(tree, cand, features, rows_by_leaf, [leaf])
        if min(rows[left].size, rows[right].size) < n_min:
            return MoveProposal.invalid(kind, "child below minimum node size")
        # forward picks one of the current leaves, the reverse prune one of
        # the candidate's prunable nodes; the rule's proposal probability
        # equals its prior probability, so the two cancel out of the ratio
        correction = math.log(len(leaves)) - math.log(len(cand.prunable_nodes()))
        return MoveProposal(kind, cand, rows, correction)

    if kind == PRUNE:
        prunable = sorted(tree.prunable_nodes())
        if not prunable:
            return MoveProposal.invalid(kind, "no prunable node")
        target = prunable[rng.integers(len(prunable))]
        cand = tree.copy()
        cand.prune(target)
        correction = math.log(len(prunable)) - math.log(cand.n_leaves())
        rows = _reroute(tree, cand, features, rows_by_leaf, [target])
        return MoveProposal(kind, cand, rows, correction)

    if kind == CHANGE:
        targets = sorted(tree.prunable_nodes())
        if not targets:
            return MoveProposal.invalid(kind, "no internal node with two terminal children")
        target = targets[rng.integers(len(targets))]
        rule = _draw_rule(split_dict, split_probs, splittable, rng)
        if rule is None:
            return MoveProposal.invalid(kind, "no splittable feature")
        cand = tree.copy()
        cand.set_rule(target, *rule)
        rows = _reroute(tree, cand, features, rows_by_leaf, [target])
        if min(r.size for r in rows.values()) < n_min:
            return MoveProposal.invalid(kind, "terminal below minimum node size")
        return MoveProposal(kind, cand, rows)

    # swap: exchange the rules of two distinct internal nodes
    internal = sorted(tree.internal_nodes())
    if len(internal) < 2:
        return MoveProposal.invalid(kind, "fewer than two internal nodes")
    pick = rng.choice(len(internal), size=2, replace=False)
    a, b = internal[int(pick[0])], internal[int(pick[1])]
    cand = tree.copy()
    na, nb = cand.nodes[a], cand.nodes[b]
    na.feature, nb.feature = nb.feature, na.feature
    na.threshold, nb.threshold = nb.threshold, na.threshold
    rows = _reroute(tree, cand, features, rows_by_leaf, _top_nodes(tree, a, b))
    if min(r.size for r in rows.values()) < n_min:
        return MoveProposal.invalid(SWAP, "terminal below minimum node size")
    return MoveProposal(SWAP, cand, rows)


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
