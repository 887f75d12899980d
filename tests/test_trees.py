import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from lmbart.data import REGRESSION, Dataset, split_dictionary
from lmbart.trees import (CHANGE, GROW, MOVE_KINDS, PRUNE, SWAP, Tree, _draw_rule,
                          ancestor_covariates, log_tree_prior, partition,
                          propose_move, split_cdf, split_covariates)
from oracles import (BELOW_N_MIN, changed_leaves, full_size_check, grow_from_dict, node_rows,
                     recursive_log_tree_prior, recursive_to_dict, route_row, routing,
                     rows_under_changes, validate_tree)
from test_pinned_chains import CHAINS, chain_data, run_chain


def grow_delta(depth, alpha, beta):
    """Log prior change from splitting a leaf at `depth`, by hand.

    One terminal factor at depth d becomes an internal factor at d and two
    terminal factors at d+1.
    """
    p_d = alpha * (1.0 + depth) ** -beta
    p_d1 = alpha * (2.0 + depth) ** -beta
    return math.log(p_d) + 2.0 * math.log(1.0 - p_d1) - math.log(1.0 - p_d)


def make_dataset(n=60, p=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    d = Dataset(X, rng.normal(size=n), [f"x{j + 1}" for j in range(p)], REGRESSION)
    return d, split_dictionary(d)


def uniform_cdf(sd):
    """The split cdf of equal split probabilities over the features of `sd`."""
    return split_cdf(np.full(sd.p, 1 / sd.p), sd.splittable())


def node_fields(tree):
    """Node id -> (depth, parent, feature, threshold, left, right)."""
    return {i: (nd.depth, nd.parent, nd.feature, nd.threshold, nd.left, nd.right)
            for i, nd in tree.nodes.items()}


def assert_carried_routing(tree, X, rows_by_leaf, rows_by_split):
    """The carried rows of every node equal a fresh route from the root: an
    ascending int64 array, and for a split node the union of its children's."""
    fresh = node_rows(tree, X)
    assert rows_by_leaf.keys() == {i for i, nd in tree.nodes.items() if nd.feature is None}
    assert rows_by_split.keys() == {i for i, nd in tree.nodes.items() if nd.feature is not None}
    carried = {**rows_by_leaf, **rows_by_split}
    for node_id, rows in carried.items():
        assert rows.dtype == np.int64
        assert np.all(np.diff(rows) > 0)
        assert_array_equal(rows, fresh[node_id])
    for node_id, rows in rows_by_split.items():
        nd = tree.nodes[node_id]
        children = np.concatenate((carried[nd.left], carried[nd.right]))
        assert_array_equal(np.sort(children), rows)


def rule(tree, node_id):
    nd = tree.nodes[node_id]
    return nd.feature, nd.threshold


def nested(tree, a, b):
    """Whether one of the nodes `a` and `b` lies under the other."""
    for node_id, other in ((a, b), (b, a)):
        while node_id is not None:
            if node_id == other:
                return True
            node_id = tree.nodes[node_id].parent
    return False


def figure_tree():
    """Five-leaf tree with rules on x2, x1, x2, x3 (0-based: 1, 0, 1, 2).

    Root tests x2; its False branch tests x1 over two leaves; the True
    branch tests x2 then x3. The True edge goes right by convention.
    """
    t = Tree()
    left, right = t.grow(t.root, 1, 10.0)
    t.grow(left, 0, 0.0)          # two left-most leaves
    l3, r3 = t.grow(right, 1, 5.0)
    t.grow(r3, 2, 5.0)
    return t, left, right, l3


class TestLogTreePrior:
    def test_stump(self):
        assert_allclose(log_tree_prior(Tree(), 0.95, 2.0), math.log(0.05),
                        rtol=1e-12)
        assert_allclose(log_tree_prior(Tree(), 0.95, 2.0), -2.995732, atol=1e-6)

    def test_depth_one_tree(self):
        t = Tree()
        t.grow(t.root, 0, 0.0)
        got = log_tree_prior(t, 0.95, 2.0)
        # 0.95 * (1 - 0.95/4)^2 = 0.552336, log = -0.5935988 by hand
        assert_allclose(got, math.log(0.95 * (1 - 0.95 / 4) ** 2), rtol=1e-12)
        assert_allclose(got, -0.5935988, atol=1e-6)
        assert_allclose(got, recursive_log_tree_prior(t, 0.95, 2.0), rtol=1e-12)

    def test_tiny_alpha_vetoes_internal_nodes(self):
        t = Tree()
        t.grow(t.root, 0, 0.0)
        assert log_tree_prior(t, 1e-280, 2.0) < -600

    def test_matches_recursive_evaluator_on_random_trees(self):
        d, sd = make_dataset(n=200, seed=3)
        rng = np.random.default_rng(5)
        cdf = uniform_cdf(sd)
        t = Tree()
        for _ in range(300):
            leaves, splits = routing(t, d.features)
            prop = propose_move(t, d.features, sd, cdf, rng, n_min=2,
                                rows_by_leaf=leaves, rows_by_split=splits)
            if prop.valid:
                t = prop.tree
            assert_allclose(log_tree_prior(t, 0.95, 2.0),
                            recursive_log_tree_prior(t, 0.95, 2.0), rtol=1e-12)

    def test_grow_delta_equals_full_recomputation(self):
        d, sd = make_dataset(n=300, seed=9)
        rng = np.random.default_rng(1)
        cdf = uniform_cdf(sd)
        t = Tree()
        checked = 0
        while checked < 50:
            current, splits = routing(t, d.features)
            prop = propose_move(t, d.features, sd, cdf, rng, n_min=2, kind=GROW,
                                rows_by_leaf=current, rows_by_split=splits)
            if not prop.valid:
                continue
            child = next(iter(changed_leaves(prop.rows_by_leaf, current)))
            grown_leaf_depth = prop.tree.nodes[child].depth - 1
            full = (log_tree_prior(prop.tree, 0.95, 2.0)
                    - log_tree_prior(t, 0.95, 2.0))
            assert_allclose(grow_delta(grown_leaf_depth, 0.95, 2.0), full,
                            rtol=0, atol=1e-12)
            t = prop.tree
            checked += 1

    def test_grow_delta_strictly_decreasing_in_depth(self):
        for alpha, beta in ((0.95, 2.0), (0.5, 0.5), (0.99, 3.0)):
            deltas = []
            for depth in range(8):
                t = Tree()
                leaf = t.root
                for _ in range(depth):   # a chain of splits down to `depth`
                    leaf = t.grow(leaf, 0, 0.0)[0]
                before = log_tree_prior(t, alpha, beta)
                t.grow(leaf, 0, 0.0)
                deltas.append(log_tree_prior(t, alpha, beta) - before)
                assert_allclose(deltas[-1], grow_delta(depth, alpha, beta),
                                rtol=0, atol=1e-12)
            assert all(a > b for a, b in zip(deltas, deltas[1:]))


class TestPartition:
    def test_stump_routes_everything_to_root(self):
        d, _ = make_dataset(n=17)
        part = partition(Tree(), d.features)
        assert part.counts == {0: 17}
        assert_array_equal(part.assignment, np.zeros(17, dtype=int))

    def test_single_split_true_goes_right(self):
        X = np.array([[-1.0], [1.0]])
        t = Tree()
        left, right = t.grow(t.root, 0, 0.0)
        part = partition(t, X)
        assert part.assignment[0] == right    # -1 < 0 is true
        assert part.assignment[1] == left
        assert part.counts[left] == 1 and part.counts[right] == 1

    def test_against_per_row_router(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            n = int(rng.integers(5, 21))
            d, sd = make_dataset(n=n, p=3, seed=trial)
            cdf = uniform_cdf(sd)
            t = Tree()
            for _ in range(10):   # random trees of depth <= ~3
                current, splits = routing(t, d.features)
                prop = propose_move(t, d.features, sd, cdf, rng, n_min=1,
                                    kind=GROW, rows_by_leaf=current, rows_by_split=splits)
                if prop.valid and prop.tree.nodes[
                        next(iter(changed_leaves(prop.rows_by_leaf, current)))].depth <= 3:
                    t = prop.tree
            part = partition(t, d.features)
            for i in range(n):
                assert part.assignment[i] == route_row(t, d.features[i])
            # a column-major copy routes alike
            column_major = np.asfortranarray(d.features)
            assert column_major.flags.f_contiguous and not column_major.flags.c_contiguous
            by_layout = [t.leaf_rows(X) for X in (d.features, column_major)]
            assert list(by_layout[0]) == list(by_layout[1])
            for leaf, rows in by_layout[0].items():
                for routed in (rows, by_layout[1][leaf]):
                    assert routed.dtype == np.int64
                    assert (np.diff(routed) > 0).all()
                    assert_array_equal(routed, np.flatnonzero(part.assignment == leaf))


class TestProposeMove:
    def test_forced_grow_on_stump(self):
        d, sd = make_dataset()
        rng = np.random.default_rng(0)
        current, splits = routing(Tree(), d.features)
        prop = propose_move(Tree(), d.features, sd, uniform_cdf(sd), rng,
                            n_min=5, kind=GROW, rows_by_leaf=current, rows_by_split=splits)
        assert prop.valid
        assert len(prop.tree.internal_nodes()) == 1
        assert prop.tree.n_leaves() == 2
        assert changed_leaves(prop.rows_by_leaf, current) == set(prop.tree.leaves())

    def test_forced_prune_on_stump_is_invalid(self):
        d, sd = make_dataset()
        rng = np.random.default_rng(0)
        leaves, splits = routing(Tree(), d.features)
        prop = propose_move(Tree(), d.features, sd, uniform_cdf(sd), rng, kind=PRUNE,
                            rows_by_leaf=leaves, rows_by_split=splits)
        assert not prop.valid
        assert prop.tree is None

    def test_prune_depth_one_gives_stump(self):
        d, sd = make_dataset()
        rng = np.random.default_rng(0)
        t = Tree()
        t.grow(t.root, 0, float(sd.values[0][len(sd.values[0]) // 2]))
        current, splits = routing(t, d.features)
        prop = propose_move(t, d.features, sd, uniform_cdf(sd), rng, kind=PRUNE,
                            rows_by_leaf=current, rows_by_split=splits)
        assert prop.valid
        assert prop.tree.n_leaves() == 1
        assert changed_leaves(prop.rows_by_leaf, current) == {t.root}

    def test_swap_needs_two_internal_nodes(self):
        d, sd = make_dataset()
        rng = np.random.default_rng(0)
        t = Tree()
        t.grow(t.root, 0, 0.0)
        leaves, splits = routing(t, d.features)
        prop = propose_move(t, d.features, sd, uniform_cdf(sd), rng, kind=SWAP,
                            rows_by_leaf=leaves, rows_by_split=splits)
        assert not prop.valid

    def test_change_redraws_rule_in_place(self):
        d, sd = make_dataset(n=200, seed=4)
        rng = np.random.default_rng(2)
        t = Tree()
        t.grow(t.root, 0, float(np.median(d.features[:, 0])))
        current, splits = routing(t, d.features)
        prop = propose_move(t, d.features, sd, uniform_cdf(sd), rng, kind=CHANGE,
                            rows_by_leaf=current, rows_by_split=splits)
        assert prop.valid
        assert prop.tree.n_leaves() == 2
        nd = prop.tree.nodes[prop.tree.root]
        assert changed_leaves(prop.rows_by_leaf, current) == {nd.left, nd.right}

    def test_grow_respects_minimum_node_size(self):
        X = np.array([[0.0]] * 9 + [[100.0]] * 41)
        d = Dataset(X, np.zeros(50), ["a"], REGRESSION)
        sd = split_dictionary(d)
        rng = np.random.default_rng(0)
        # threshold 100 puts 9 rows right, 41 left; threshold 0 is a no-op
        # split (nothing strictly below the minimum), so invalid either way
        # once n_min exceeds the small side.
        leaves, splits = routing(Tree(), d.features)
        for _ in range(20):
            prop = propose_move(Tree(), d.features, sd, uniform_cdf(sd), rng, n_min=10,
                                kind=GROW, rows_by_leaf=leaves, rows_by_split=splits)
            assert not prop.valid

    def test_a_grow_below_minimum_node_size_counts_no_prunable_nodes(self, monkeypatch):
        # the reverse prune's count enters only a valid grow's correction
        X = np.array([[0.0]] * 9 + [[100.0]] * 41)
        d = Dataset(X, np.zeros(50), ["a"], REGRESSION)
        sd = split_dictionary(d)
        calls = []
        scan = Tree.prunable_nodes
        monkeypatch.setattr(Tree, "prunable_nodes",
                            lambda tree: calls.append(tree) or scan(tree))
        rng = np.random.default_rng(0)
        seen = set()
        leaves, splits = routing(Tree(), d.features)
        for n_min in (10, 5):     # every grow fails 10; threshold 100 passes 5
            for _ in range(20):
                calls.clear()
                prop = propose_move(Tree(), d.features, sd, uniform_cdf(sd), rng, n_min=n_min,
                                    kind=GROW, rows_by_leaf=leaves, rows_by_split=splits)
                assert calls == ([prop.tree] if prop.valid else [])
                seen.add((n_min, prop.valid))
        assert seen == {(10, False), (5, False), (5, True)}

    def test_unsplittable_features_excluded(self):
        X = np.column_stack([np.full(30, 3.0), np.arange(30.0)])
        d = Dataset(X, np.zeros(30), ["a", "b"], REGRESSION)
        sd = split_dictionary(d)
        rng = np.random.default_rng(0)
        leaves, splits = routing(Tree(), d.features)
        for _ in range(20):
            prop = propose_move(Tree(), d.features, sd,
                                split_cdf(np.array([0.9, 0.1]), sd.splittable()), rng,
                                n_min=5, kind=GROW, rows_by_leaf=leaves, rows_by_split=splits)
            if prop.valid:
                rule_feature = prop.tree.nodes[prop.tree.root].feature
                assert rule_feature == 1

    def test_grow_correction_from_stump_matches_hand_formula(self):
        # stump: one leaf to grow, one prunable node afterward, so the
        # correction log(leaves) - log(prunable nodes) is log 1 - log 1; the
        # rule's proposal probability cancels against its prior probability
        d, sd = make_dataset(n=100, seed=30)
        rng = np.random.default_rng(6)
        cdf = uniform_cdf(sd)
        prop = None
        leaves, splits = routing(Tree(), d.features)
        while prop is None or not prop.valid:
            prop = propose_move(Tree(), d.features, sd, cdf, rng, n_min=5,
                                kind=GROW, rows_by_leaf=leaves, rows_by_split=splits)
        assert prop.log_transition_correction == 0.0

    def test_grow_prune_corrections_are_antisymmetric(self):
        d, sd = make_dataset(n=300, seed=8)
        rng = np.random.default_rng(3)
        cdf = uniform_cdf(sd)
        checked = 0
        t = Tree()
        while checked < 20:
            current, splits = routing(t, d.features)
            grow = propose_move(t, d.features, sd, cdf, rng, n_min=5, kind=GROW,
                                rows_by_leaf=current, rows_by_split=splits)
            if not grow.valid:
                continue
            # find the prune that undoes this grow; corrections must cancel
            grown = changed_leaves(grow.rows_by_leaf, current)
            parent = grow.tree.nodes[next(iter(grown))].parent
            for _ in range(200):
                prune = propose_move(grow.tree, d.features, sd, cdf, rng, kind=PRUNE,
                                     rows_by_leaf=grow.rows_by_leaf,
                                     rows_by_split=grow.rows_by_split)
                if prune.valid and changed_leaves(prune.rows_by_leaf,
                                                  grow.rows_by_leaf) == {parent}:
                    assert_allclose(grow.log_transition_correction,
                                    -prune.log_transition_correction,
                                    rtol=0, atol=1e-12)
                    break
            else:
                pytest.fail("matching prune never drawn")
            if grow.tree.n_leaves() < 5:
                t = grow.tree
            checked += 1


class TestInvariantsUnderMoves:
    def test_ten_thousand_random_moves_preserve_invariants(self):
        d, sd = make_dataset(n=150, p=3, seed=21)
        rng = np.random.default_rng(7)
        cdf = uniform_cdf(sd)
        t = Tree()
        current, splits = routing(t, d.features)
        accepted = 0
        carried = {kind: 0 for kind in (GROW, PRUNE, CHANGE, SWAP)}
        for _ in range(10_000):
            nodes = node_fields(t)
            snapshot = {i: rows.copy() for i, rows in {**current, **splits}.items()}
            prop = propose_move(t, d.features, sd, cdf, rng, n_min=5,
                                rows_by_leaf=current, rows_by_split=splits)
            # neither the current tree nor its routing is modified
            assert node_fields(t) == nodes
            assert {**current, **splits}.keys() == snapshot.keys()
            for i, rows in snapshot.items():
                assert_array_equal({**current, **splits}[i], rows)
            if prop.valid:
                # the routing a proposal carries is the candidate's own routing
                rerouted = prop.tree.leaf_rows(d.features)
                assert prop.rows_by_leaf.keys() == rerouted.keys()
                for leaf, rows in rerouted.items():
                    got = prop.rows_by_leaf[leaf]
                    assert_array_equal(got, rows)
                    assert got.dtype == np.int64
                    assert np.all(np.diff(got) > 0)
                # a candidate leaf holds the current array exactly when its rows are equal
                differ = {leaf for leaf, rows in rerouted.items()
                          if leaf not in current
                          or not np.array_equal(current[leaf], rows)}
                assert changed_leaves(prop.rows_by_leaf, current) == differ
                carried[prop.kind] += 1
            if prop.valid and rng.uniform() < 0.5:
                t = prop.tree
                current, splits = prop.rows_by_leaf, prop.rows_by_split
                accepted += 1
                validate_tree(t)
                assert_carried_routing(t, d.features, current, splits)
                part = partition(t, d.features)
                assert sum(part.counts.values()) == d.n
                assert part.min_count() >= 5
                for leaf in t.leaves():
                    assert ancestor_covariates(t, leaf) <= split_covariates(t)
        assert accepted > 100
        assert min(carried.values()) > 0

    def test_copy_shares_no_node(self):
        t, *_ = figure_tree()
        before = node_fields(t)
        c = t.copy()
        for node_id in c.prunable_nodes():
            c.prune(node_id)
        c.set_rule(c.root, 0, -1.0)
        c.grow(c.leaves()[0], 2, 0.5)
        assert node_fields(c) != before
        assert node_fields(t) == before

    @pytest.mark.parametrize("n_min", [1, 5, 20])
    def test_early_exit_equals_the_full_check(self, n_min):
        # on trees the chain can reach at n_min, every proposal equals the same
        # draw made with no size limit and checked over the whole candidate
        d, sd = make_dataset(n=200, p=3, seed=40 + n_min)
        rng = np.random.default_rng(n_min)
        cdf = uniform_cdf(sd)
        t = Tree()
        current, splits = routing(t, d.features)
        seen = set()
        for _ in range(1500):
            unlimited_rng = np.random.default_rng()
            unlimited_rng.bit_generator.state = rng.bit_generator.state
            prop = propose_move(t, d.features, sd, cdf, rng, n_min=n_min,
                                rows_by_leaf=current, rows_by_split=splits)
            unlimited = propose_move(t, d.features, sd, cdf, unlimited_rng, n_min=0,
                                     rows_by_leaf=current, rows_by_split=splits)
            valid, reason, rows = full_size_check(unlimited, d.features, n_min)
            assert (prop.valid, prop.kind, prop.reason) == (valid, unlimited.kind, reason)
            assert rng.bit_generator.state == unlimited_rng.bit_generator.state
            if valid:
                assert prop.rows_by_leaf.keys() == rows.keys()
                for leaf, r in rows.items():
                    assert_array_equal(prop.rows_by_leaf[leaf], r)
            seen.add((prop.kind, reason))
            if prop.valid and rng.uniform() < 0.5:
                t, current, splits = prop.tree, prop.rows_by_leaf, prop.rows_by_split
        assert {(kind, "") for kind in MOVE_KINDS} <= seen
        if n_min > 1:
            assert {(GROW, BELOW_N_MIN[GROW]), (CHANGE, BELOW_N_MIN[CHANGE]),
                    (SWAP, BELOW_N_MIN[SWAP])} <= seen

    def test_a_proposal_routes_only_the_rows_under_its_topmost_changed_nodes(self, monkeypatch):
        d, sd = make_dataset(n=200, p=3, seed=5)
        rng = np.random.default_rng(29)
        cdf = uniform_cdf(sd)
        routed = []
        route = Tree.route

        def counting(tree, X, node_id, rows, *rest):
            routed.append(rows.size)
            return route(tree, X, node_id, rows, *rest)

        monkeypatch.setattr(Tree, "route", counting)
        t = Tree()
        current, splits = routing(t, d.features)
        checked = {kind: 0 for kind in MOVE_KINDS}
        unnested_swaps = 0
        for _ in range(3000):
            routed.clear()
            prop = propose_move(t, d.features, sd, cdf, rng, n_min=5,
                                rows_by_leaf=current, rows_by_split=splits)
            if not prop.valid:
                continue
            assert sum(routed) == rows_under_changes(prop.tree.to_dict(), t.to_dict(),
                                                     np.arange(d.n), d.features)
            checked[prop.kind] += 1
            if prop.kind == SWAP:
                # empty when the two swapped rules are equal
                swapped = [i for i in t.internal_nodes() if rule(t, i) != rule(prop.tree, i)]
                if len(swapped) == 2 and not nested(t, *swapped):
                    # neither node is the other's ancestor: both are re-routed
                    assert sum(routed) == sum(splits[i].size for i in swapped)
                    unnested_swaps += 1
            if rng.uniform() < 0.5:
                t, current, splits = prop.tree, prop.rows_by_leaf, prop.rows_by_split
        assert min(checked.values()) > 0
        assert unnested_swaps > 0

    def test_grow_then_prune_restores_routing(self):
        d, sd = make_dataset(n=100, seed=13)
        rng = np.random.default_rng(17)
        cdf = uniform_cdf(sd)
        t = Tree()
        for _ in range(30):
            leaves, splits = routing(t, d.features)
            prop = propose_move(t, d.features, sd, cdf, rng, n_min=5,
                                rows_by_leaf=leaves, rows_by_split=splits)
            if prop.valid:
                t = prop.tree
        before = partition(t, d.features).assignment
        current, splits = routing(t, d.features)
        grow = None
        while grow is None or not grow.valid:
            grow = propose_move(t, d.features, sd, cdf, rng, n_min=5, kind=GROW,
                                rows_by_leaf=current, rows_by_split=splits)
        child = next(iter(changed_leaves(grow.rows_by_leaf, current)))
        parent = grow.tree.nodes[child].parent
        undone = grow.tree.copy()
        undone.prune(parent)
        after = partition(undone, d.features).assignment
        # same routing behavior: identical grouping of rows into cells
        assert_array_equal(before, after)


class TestCovariateSets:
    def test_figure_tree_split_covariates(self):
        t, *_ = figure_tree()
        assert split_covariates(t) == {0, 1, 2}

    def test_stump_and_single_split(self):
        assert split_covariates(Tree()) == set()
        t = Tree()
        t.grow(t.root, 7, 1.0)
        assert split_covariates(t) == {7}

    def test_figure_tree_ancestors(self):
        t, left, right, l3 = figure_tree()
        x1_node = t.nodes[left]
        leftmost = [x1_node.left, x1_node.right]
        for leaf in leftmost:
            assert ancestor_covariates(t, leaf) == {0, 1}
        assert ancestor_covariates(t, l3) == {1}
        x3_node = t.nodes[t.nodes[right].right]
        for leaf in (x3_node.left, x3_node.right):
            assert ancestor_covariates(t, leaf) == {1, 2}

    def test_stump_leaf_empty(self):
        t = Tree()
        assert ancestor_covariates(t, t.root) == set()

    def test_unknown_leaf(self):
        t = Tree()
        with pytest.raises(KeyError):
            ancestor_covariates(t, 99)


class TestSerialization:
    def test_round_trip_preserves_structure_and_payload(self):
        t, *_ = figure_tree()
        payload = {leaf: {"mu": float(i)} for i, leaf in enumerate(t.leaves())}
        d = t.to_dict(payload)
        back, back_payload = Tree.from_dict(d)
        assert back.to_dict({leaf: back_payload[leaf]
                             for leaf in back.leaves()}) == d
        X = np.random.default_rng(0).normal(0, 6, size=(50, 3))
        assert_array_equal(
            sorted(np.unique(partition(t, X).assignment, return_counts=True)[1]),
            sorted(np.unique(partition(back, X).assignment, return_counts=True)[1]))


def assert_serializes_like_reference(tree, payload):
    """`to_dict` writes the reference serializer's JSON, with int features."""
    got = tree.to_dict(payload)
    assert json.dumps(got) == json.dumps(recursive_to_dict(tree, payload))
    stack = [got]
    while stack:
        node = stack.pop()
        if node["kind"] == "internal":
            assert type(node["feature"]) is int and type(node["threshold"]) is float
            stack += (node["left"], node["right"])
    return got


# (operation, node pick, integer type of the feature, feature, threshold)
tree_edits = st.lists(st.tuples(st.sampled_from(["grow", "grow", "set_rule", "prune"]),
                                st.integers(0, 10**6),
                                st.sampled_from([int, np.int8, np.int32, np.int64, np.intp]),
                                st.integers(0, 4), st.floats(-3, 3)),
                      max_size=30)


class TestSerializerReference:
    @pytest.mark.parametrize("name", list(CHAINS))
    def test_every_tree_of_the_pinned_chains(self, name):
        sweeps = []

        def check(state):
            for ts in state.trees:
                assert_serializes_like_reference(ts.tree, ts.stats.payloads(ts.leaf_params))
            sweeps.append(state.iteration)

        draws = run_chain(name, on_sweep=check, store_trees=True)
        assert len(sweeps) == 25
        for tree_dicts in draws.trees:
            for d in tree_dicts:
                tree, payload = Tree.from_dict(d)
                assert json.dumps(assert_serializes_like_reference(tree, payload)) == json.dumps(d)

    @settings(max_examples=300, deadline=None)
    @given(tree_edits, st.sampled_from(["none", "constant", "linear"]))
    def test_drawn_trees_with_numpy_integer_features(self, edits, leaf_kind):
        t = Tree()
        for op, pick, int_type, feature, threshold in edits:
            if op == "grow":
                leaves = t.leaves()
                t.grow(leaves[pick % len(leaves)], int_type(feature), np.float64(threshold))
                continue
            if op == "set_rule":
                targets = t.internal_nodes()
            else:
                targets = [i for i in t.internal_nodes()
                           if t.nodes[t.nodes[i].left].is_leaf
                           and t.nodes[t.nodes[i].right].is_leaf]
            if not targets:
                continue
            if op == "set_rule":
                t.set_rule(targets[pick % len(targets)], int_type(feature), threshold)
            else:
                t.prune(targets[pick % len(targets)])
        payload = None
        if leaf_kind == "constant":
            payload = {leaf: {"mu": 0.25 * leaf} for leaf in t.leaves()}
        elif leaf_kind == "linear":
            covs = sorted(split_covariates(t))
            payload = {leaf: {"beta": [0.5] * (len(covs) + 1), "covariates": covs}
                       for leaf in t.leaves()}
        assert_serializes_like_reference(t, payload)


def internal(feature, threshold, left, right):
    return {"kind": "internal", "feature": feature, "threshold": threshold,
            "left": left, "right": right}


# stored leaves as `to_dict` writes them, plus one with "kind" last
stored_leaves = st.one_of(
    st.builds(lambda mu: {"kind": "leaf", "mu": mu}, st.floats(-5, 5)),
    st.builds(lambda beta, covs: {"kind": "leaf", "beta": beta, "covariates": covs},
              st.lists(st.floats(-5, 5), min_size=1, max_size=3),
              st.lists(st.integers(0, 4), max_size=2, unique=True)),
    st.builds(lambda mu: {"mu": mu, "kind": "leaf"}, st.floats(-5, 5)),
)
stored_trees = st.recursive(
    stored_leaves,
    lambda children: st.builds(internal, st.integers(0, 4), st.floats(-3, 3),
                               children, children),
    max_leaves=40)


def assert_rebuilds_like_grow(d):
    """`Tree.from_dict` gives the arena, next id and payload of one `grow` per split."""
    tree, payload = Tree.from_dict(d)
    ref, ref_payload = grow_from_dict(d)
    assert tree.nodes == ref.nodes
    assert list(tree.nodes) == list(ref.nodes)
    assert (tree.root, tree._next_id) == (ref.root, ref._next_id)
    assert list(payload.items()) == list(ref_payload.items())
    assert [list(v) for v in payload.values()] == [list(v) for v in ref_payload.values()]
    validate_tree(tree)


class TestRebuild:
    def test_left_subtree_is_numbered_first(self):
        leaf = {"kind": "leaf", "mu": 0.0}
        d = internal(0, 0.0, internal(1, 1.0, leaf, leaf), internal(2, 2.0, leaf, leaf))
        tree, payload = Tree.from_dict(d)
        assert [(nd.left, nd.right) for nd in tree.nodes.values()][:3] == [(1, 2), (3, 4),
                                                                            (5, 6)]
        assert list(payload) == [3, 4, 5, 6]
        assert_rebuilds_like_grow(d)

    @pytest.mark.parametrize("name", list(CHAINS))
    def test_every_stored_tree_of_the_pinned_chains(self, name):
        draws = run_chain(name, store_trees=True)
        for tree_dicts in draws.trees:
            for d in tree_dicts:
                assert_rebuilds_like_grow(d)

    @settings(max_examples=200, deadline=None)
    @given(stored_trees)
    def test_drawn_trees(self, d):
        assert_rebuilds_like_grow(d)


def const_leaf(mu):
    return {"kind": "leaf", "mu": mu}


def deep_tree(mu=0.0, threshold=2.5):
    """Depth 3; `threshold` is the rule of the split deepest in the right subtree."""
    return internal(0, 0.0,
                    internal(1, 1.0, const_leaf(mu), internal(2, -1.0, const_leaf(mu + 1),
                                                              const_leaf(mu + 2))),
                    internal(2, 2.0, const_leaf(mu + 3),
                             internal(1, threshold, const_leaf(mu + 4), const_leaf(mu + 5))))


def stored_rules(d):
    """A stored tree's splits: its shape and every (feature, threshold)."""
    if d["kind"] == "leaf":
        return None
    return (d["feature"], d["threshold"], stored_rules(d["left"]), stored_rules(d["right"]))


def with_new_leaves(d, mu=7.0):
    """`d` with the same splits and every leaf a new constant leaf."""
    if d["kind"] == "leaf":
        return const_leaf(mu)
    return internal(d["feature"], d["threshold"], with_new_leaves(d["left"], mu + 1),
                    with_new_leaves(d["right"], mu + 2))


def assert_hands_back_prev(d, prev):
    """`from_dict(d, prev)` returns `prev` unchanged, with `from_dict(d)`'s payload."""
    before = node_fields(prev)
    tree, payload = Tree.from_dict(d, prev)
    assert tree is prev and node_fields(prev) == before
    ref_payload = Tree.from_dict(d)[1]
    assert list(payload) == list(ref_payload)
    assert all(payload[leaf] is ref_payload[leaf] for leaf in payload)


def assert_rebuilt_past_prev(d, prev):
    """`from_dict(d, prev)` builds a new tree, equal to `grow_from_dict(d)`."""
    before = node_fields(prev)
    tree, payload = Tree.from_dict(d, prev)
    ref, ref_payload = grow_from_dict(d)
    assert tree is not prev and node_fields(prev) == before
    assert tree.nodes == ref.nodes and list(tree.nodes) == list(ref.nodes)
    assert (tree.root, tree._next_id) == (ref.root, ref._next_id)
    assert list(payload.items()) == list(ref_payload.items())


class TestRebuildAfterPrev:
    @pytest.mark.parametrize("d, prev", [
        pytest.param(const_leaf(1.0), Tree.stump(), id="stump"),
        pytest.param(deep_tree(1.0), Tree.from_dict(deep_tree(-4.0))[0], id="deep"),
        pytest.param(internal(1, 0, const_leaf(1.0), const_leaf(2.0)),
                     Tree.from_dict(internal(1, 0.0, const_leaf(0.0), const_leaf(0.0)))[0],
                     id="int-threshold"),
    ])
    def test_equal_splits_hand_back_prev(self, d, prev):
        assert_hands_back_prev(d, prev)

    @pytest.mark.parametrize("d, prev", [
        pytest.param(deep_tree(threshold=3.5), deep_tree(threshold=2.5), id="deep-threshold"),
        pytest.param(internal(1, 0.0, const_leaf(1.0), const_leaf(2.0)),
                     internal(0, 0.0, const_leaf(1.0), const_leaf(2.0)), id="feature"),
        pytest.param(internal(0, 0.0, const_leaf(1.0), const_leaf(2.0)),
                     internal(0, 0.0, const_leaf(1.0), internal(1, 0.5, const_leaf(2.0),
                                                                const_leaf(3.0))),
                     id="leaf-at-a-split"),
        pytest.param(internal(0, 0.0, const_leaf(1.0), internal(1, 0.5, const_leaf(2.0),
                                                                const_leaf(3.0))),
                     internal(0, 0.0, const_leaf(1.0), const_leaf(2.0)), id="split-at-a-leaf"),
    ])
    def test_changed_splits_build_anew(self, d, prev):
        assert_rebuilt_past_prev(d, Tree.from_dict(prev)[0])

    @pytest.mark.parametrize("d, prev", [
        pytest.param({"kind": "lef", "mu": 1.0}, Tree.stump(), id="leaf"),
        pytest.param({"kind": "internl", "feature": 0, "threshold": 0.0,
                      "left": const_leaf(1.0), "right": const_leaf(2.0)},
                     Tree.from_dict(internal(0, 0.0, const_leaf(1.0), const_leaf(2.0)))[0],
                     id="split"),
    ])
    def test_an_unknown_node_kind_raises_though_prev_matches(self, d, prev):
        with pytest.raises(ValueError, match="unknown node kind"):
            Tree.from_dict(d, prev)

    @settings(max_examples=200, deadline=None)
    @given(stored_trees, stored_trees)
    def test_drawn_pairs(self, d, other):
        prev = Tree.from_dict(other)[0]
        if stored_rules(d) == stored_rules(other):
            assert_hands_back_prev(d, prev)
        else:
            assert_rebuilt_past_prev(d, prev)
        assert_hands_back_prev(with_new_leaves(d), Tree.from_dict(d)[0])


@pytest.mark.parametrize("name", list(CHAINS))
def test_pinned_chains_carry_every_nodes_true_rows(name):
    X = chain_data(name)[0].features
    sweeps = []

    def check(state):
        for ts in state.trees:
            assert_carried_routing(ts.tree, X, ts.rows_by_leaf, ts.rows_by_split)
        sweeps.append(state.iteration)

    run_chain(name, on_sweep=check)
    assert len(sweeps) == 25


def test_draw_rule_matches_generator_choice_draw_for_draw():
    # _draw_rule inverts the cdf itself; it must pick the feature rng.choice
    # would pick from the same state and leave the generator where choice does
    p = 6
    values = [np.arange(j + 2, dtype=float) for j in range(p)]
    split_dict = SimpleNamespace(values=values)
    tested = single = 0
    for seed in range(1500):
        draw = np.random.default_rng([seed, 1])
        probs = draw.dirichlet(np.full(p, 0.3))
        splittable = draw.random(p) < 0.6
        if seed % 10 == 0:   # one splittable feature left
            splittable = np.arange(p) == seed % p
        if not splittable.any():
            continue
        tested += 1
        single += splittable.sum() == 1
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        masked = np.where(splittable, probs, 0.0)
        feature = int(ref.choice(p, p=masked / masked.sum()))
        expected = (feature, float(values[feature][ref.integers(values[feature].size)]))
        assert _draw_rule(split_dict, split_cdf(probs, splittable), ours) == expected
        assert ours.bit_generator.state == ref.bit_generator.state
    assert tested >= 1000 and single >= 150
