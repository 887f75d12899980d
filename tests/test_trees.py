import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from lmbart.data import REGRESSION, Dataset, split_dictionary
from lmbart.trees import (CHANGE, GROW, PRUNE, SWAP, Tree, _draw_rule,
                          ancestor_covariates, log_tree_prior, partition,
                          propose_move, split_covariates)
from oracles import changed_leaves, recursive_log_tree_prior, route_row


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
        probs = np.full(d.p, 1.0 / d.p)
        t = Tree()
        for _ in range(300):
            prop = propose_move(t, d.features, sd, probs, rng, n_min=2)
            if prop.valid:
                t = prop.tree
            assert_allclose(log_tree_prior(t, 0.95, 2.0),
                            recursive_log_tree_prior(t, 0.95, 2.0), rtol=1e-12)

    def test_grow_delta_equals_full_recomputation(self):
        d, sd = make_dataset(n=300, seed=9)
        rng = np.random.default_rng(1)
        probs = np.full(d.p, 1.0 / d.p)
        t = Tree()
        checked = 0
        while checked < 50:
            current = t.leaf_rows(d.features)
            prop = propose_move(t, d.features, sd, probs, rng, n_min=2, kind=GROW,
                                rows_by_leaf=current)
            if not prop.valid:
                continue
            child = next(iter(changed_leaves(prop.rows_by_leaf, current)))
            grown_leaf_depth = prop.tree.depth_of(child) - 1
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
            probs = np.full(3, 1 / 3)
            t = Tree()
            for _ in range(10):   # random trees of depth <= ~3
                current = t.leaf_rows(d.features)
                prop = propose_move(t, d.features, sd, probs, rng, n_min=1,
                                    kind=GROW, rows_by_leaf=current)
                if prop.valid and prop.tree.depth_of(
                        next(iter(changed_leaves(prop.rows_by_leaf, current)))) <= 3:
                    t = prop.tree
            part = partition(t, d.features)
            for i in range(n):
                assert part.assignment[i] == route_row(t, d.features[i])


class TestProposeMove:
    def test_forced_grow_on_stump(self):
        d, sd = make_dataset()
        rng = np.random.default_rng(0)
        current = Tree().leaf_rows(d.features)
        prop = propose_move(Tree(), d.features, sd, np.full(3, 1 / 3), rng,
                            n_min=5, kind=GROW, rows_by_leaf=current)
        assert prop.valid
        assert len(prop.tree.internal_nodes()) == 1
        assert prop.tree.n_leaves() == 2
        assert changed_leaves(prop.rows_by_leaf, current) == set(prop.tree.leaves())

    def test_forced_prune_on_stump_is_invalid(self):
        d, sd = make_dataset()
        rng = np.random.default_rng(0)
        prop = propose_move(Tree(), d.features, sd, np.full(3, 1 / 3), rng,
                            kind=PRUNE)
        assert not prop.valid
        assert prop.tree is None

    def test_prune_depth_one_gives_stump(self):
        d, sd = make_dataset()
        rng = np.random.default_rng(0)
        t = Tree()
        t.grow(t.root, 0, float(sd.values[0][len(sd.values[0]) // 2]))
        current = t.leaf_rows(d.features)
        prop = propose_move(t, d.features, sd, np.full(3, 1 / 3), rng, kind=PRUNE,
                            rows_by_leaf=current)
        assert prop.valid
        assert prop.tree.n_leaves() == 1
        assert changed_leaves(prop.rows_by_leaf, current) == {t.root}

    def test_swap_needs_two_internal_nodes(self):
        d, sd = make_dataset()
        rng = np.random.default_rng(0)
        t = Tree()
        t.grow(t.root, 0, 0.0)
        prop = propose_move(t, d.features, sd, np.full(3, 1 / 3), rng, kind=SWAP)
        assert not prop.valid

    def test_change_redraws_rule_in_place(self):
        d, sd = make_dataset(n=200, seed=4)
        rng = np.random.default_rng(2)
        t = Tree()
        t.grow(t.root, 0, float(np.median(d.features[:, 0])))
        current = t.leaf_rows(d.features)
        prop = propose_move(t, d.features, sd, np.full(3, 1 / 3), rng, kind=CHANGE,
                            rows_by_leaf=current)
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
        for _ in range(20):
            prop = propose_move(Tree(), d.features, sd, np.array([1.0]), rng,
                                n_min=10, kind=GROW)
            assert not prop.valid

    def test_unsplittable_features_excluded(self):
        X = np.column_stack([np.full(30, 3.0), np.arange(30.0)])
        d = Dataset(X, np.zeros(30), ["a", "b"], REGRESSION)
        sd = split_dictionary(d)
        rng = np.random.default_rng(0)
        for _ in range(20):
            prop = propose_move(Tree(), d.features, sd,
                                np.array([0.9, 0.1]), rng, n_min=5, kind=GROW)
            if prop.valid:
                rule_feature = prop.tree.nodes[prop.tree.root].feature
                assert rule_feature == 1

    def test_grow_correction_from_stump_matches_hand_formula(self):
        # stump: one leaf to grow, one prunable node afterward, so the
        # correction log(leaves) - log(prunable nodes) is log 1 - log 1; the
        # rule's proposal probability cancels against its prior probability
        d, sd = make_dataset(n=100, seed=30)
        rng = np.random.default_rng(6)
        probs = np.full(3, 1 / 3)
        prop = None
        while prop is None or not prop.valid:
            prop = propose_move(Tree(), d.features, sd, probs, rng, n_min=5,
                                kind=GROW)
        assert prop.log_transition_correction == 0.0

    def test_grow_prune_corrections_are_antisymmetric(self):
        d, sd = make_dataset(n=300, seed=8)
        rng = np.random.default_rng(3)
        probs = np.full(3, 1 / 3)
        checked = 0
        t = Tree()
        while checked < 20:
            current = t.leaf_rows(d.features)
            grow = propose_move(t, d.features, sd, probs, rng, n_min=5, kind=GROW,
                                rows_by_leaf=current)
            if not grow.valid:
                continue
            # find the prune that undoes this grow; corrections must cancel
            grown = changed_leaves(grow.rows_by_leaf, current)
            parent = grow.tree.nodes[next(iter(grown))].parent
            for _ in range(200):
                prune = propose_move(grow.tree, d.features, sd, probs, rng,
                                     kind=PRUNE, rows_by_leaf=grow.rows_by_leaf)
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
        probs = np.full(3, 1 / 3)
        t = Tree()
        current = t.leaf_rows(d.features)
        accepted = 0
        carried = {kind: 0 for kind in (GROW, PRUNE, CHANGE, SWAP)}
        for _ in range(10_000):
            snapshot = {leaf: rows.copy() for leaf, rows in current.items()}
            prop = propose_move(t, d.features, sd, probs, rng, n_min=5,
                                rows_by_leaf=current)
            # the current routing is read, never modified
            assert current.keys() == snapshot.keys()
            for leaf, rows in snapshot.items():
                assert_array_equal(current[leaf], rows)
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
                current = prop.rows_by_leaf
                accepted += 1
                t.validate()
                part = partition(t, d.features)
                assert sum(part.counts.values()) == d.n
                assert part.min_count() >= 5
                for leaf in t.leaves():
                    assert ancestor_covariates(t, leaf) <= split_covariates(t)
        assert accepted > 100
        assert min(carried.values()) > 0

    def test_grow_then_prune_restores_routing(self):
        d, sd = make_dataset(n=100, seed=13)
        rng = np.random.default_rng(17)
        probs = np.full(3, 1 / 3)
        t = Tree()
        for _ in range(30):
            prop = propose_move(t, d.features, sd, probs, rng, n_min=5)
            if prop.valid:
                t = prop.tree
        before = partition(t, d.features).assignment
        current = t.leaf_rows(d.features)
        grow = None
        while grow is None or not grow.valid:
            grow = propose_move(t, d.features, sd, probs, rng, n_min=5, kind=GROW,
                                rows_by_leaf=current)
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
        assert _draw_rule(split_dict, probs, splittable, ours) == expected
        assert ours.bit_generator.state == ref.bit_generator.state
    assert tested >= 1000 and single >= 150
