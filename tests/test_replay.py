"""Replay of stored draws: the routing carried from one draw to the next.

`predict_stored` routes a tree again only when its splits differ from the
same tree's in the previous draw, and then only the rows under the topmost
nodes whose rules differ. These tests pin its output to a replay that
rebuilds and routes every tree (`oracles.replay_every_tree`) and count the
routing it does.
"""

import numpy as np
import pytest

from lmbart import leaves as lv
from lmbart import sampler
from lmbart.benchmark import FriedmanSpec, friedman_generate
from lmbart.data import REGRESSION, ScalingInfo, SplitDictionary, standardize
from lmbart.sampler import Hyperparams, predict, predict_stored, run_regression
from lmbart.trees import CHANGE, GROW, MOVE_KINDS, PRUNE, SWAP, Tree, propose_move, split_cdf
from oracles import replay_every_tree, routing, rows_under_changes
from test_pinned_chains import CHAINS, run_chain
from test_trees import assert_carried_routing


def assert_same_summary(result, expected):
    for got, want in zip((result.draws, result.mean, result.lower, result.upper), expected):
        assert np.array_equal(got, want)


@pytest.fixture()
def counts(monkeypatch):
    """Calls of Tree.from_dict, Tree.route and leaves.build_leaf_design, and
    the rows entering Tree.route."""
    tally = {"from_dict": 0, "route": 0, "routed_rows": 0, "build_leaf_design": 0}
    from_dict, route, build = Tree.from_dict, Tree.route, lv.build_leaf_design

    def counting(name, fn):
        def wrapper(*args):
            tally[name] += 1
            return fn(*args)
        return wrapper

    def counting_rows(tree, X, node_id, rows, *rest):
        tally["route"] += 1
        tally["routed_rows"] += rows.size
        return route(tree, X, node_id, rows, *rest)

    monkeypatch.setattr(Tree, "from_dict", staticmethod(counting("from_dict", from_dict)))
    monkeypatch.setattr(Tree, "route", counting_rows)
    monkeypatch.setattr(lv, "build_leaf_design", counting("build_leaf_design", build))
    return tally


def splits(d):
    """A stored tree without its leaf payloads."""
    if d["kind"] == "leaf":
        return None
    return (d["feature"], d["threshold"], splits(d["left"]), splits(d["right"]))


def split_changes(trees) -> int:
    """Tree indices whose splits differ from the previous draw's, over all draws."""
    return sum(splits(d) != splits(prev)
               for k in range(1, len(trees)) for d, prev in zip(trees[k], trees[k - 1]))


STUMP = {"kind": "leaf"}


def routed_rows(trees, scaling, X_new) -> int:
    """Rows entering routing in a replay that routes, in each draw, the rows
    under the topmost nodes whose rules differ from the previous draw's tree,
    a stump's before the first: every row of a first-draw tree with a split,
    none of a first-draw stump."""
    Xs = scaling.transform_features(np.asarray(X_new, dtype=float))
    rows = np.arange(Xs.shape[0])
    previous = [[STUMP] * len(trees[0])] + trees[:-1]
    return sum(rows_under_changes(d, prev, rows, Xs)
               for draw, prev_draw in zip(trees, previous) for d, prev in zip(draw, prev_draw))


def leaf_covariates(d):
    """The covariates of a stored tree's linear leaves, in preorder."""
    if d["kind"] == "leaf":
        return [d["covariates"]] if "covariates" in d else []
    return leaf_covariates(d["left"]) + leaf_covariates(d["right"])


def design_builds(trees) -> int:
    """Linear leaf designs built by a replay that keeps a leaf's design while
    its tree's splits and its covariates stay: every leaf of a tree routed
    afresh, and every leaf whose covariates changed under unchanged splits."""
    builds = sum(len(leaf_covariates(d)) for d in trees[0])
    for k in range(1, len(trees)):
        for d, prev in zip(trees[k], trees[k - 1]):
            covs = leaf_covariates(d)
            if splits(d) != splits(prev):
                builds += len(covs)
            else:
                builds += sum(a != b for a, b in zip(covs, leaf_covariates(prev)))
    return builds


@pytest.mark.parametrize("name", list(CHAINS))
def test_pinned_chains_replay_like_the_reference(name):
    draws = run_chain(name, store_trees=True)
    X = friedman_generate(FriedmanSpec(n=40, p=5, seed=32)).features
    assert_same_summary(predict(draws, X),
                        replay_every_tree(draws.trees, draws.task, draws.scaling, X))


@pytest.mark.parametrize("leaf_model", ["constant", "linear"])
def test_long_chain_routes_a_tree_only_when_its_splits_change(leaf_model, counts):
    data = friedman_generate(FriedmanSpec(n=80, p=5, seed=8))
    scaled, info = standardize(data)
    hp = Hyperparams(m=4, burn_in=20, post_burn_in=40, leaf_model=leaf_model,
                     seed=5, store_trees=True)
    draws = run_regression(scaled, hp, info)
    changes = split_changes(draws.trees)
    assert 0 < changes < (draws.retained - 1) * hp.m   # both hits and misses occur
    expected = replay_every_tree(draws.trees, draws.task, draws.scaling, data.features)
    for key in counts:
        counts[key] = 0
    assert_same_summary(predict(draws, data.features), expected)
    assert counts["routed_rows"] == routed_rows(draws.trees, draws.scaling, data.features)
    assert counts["routed_rows"] < data.n * (hp.m + changes)   # kept subtrees are not routed
    # every stored tree is still parsed once, for its leaf payloads
    assert counts["from_dict"] == draws.retained * hp.m
    assert counts["build_leaf_design"] == design_builds(draws.trees)
    assert (counts["build_leaf_design"] > 0) == (leaf_model == "linear")


@pytest.mark.parametrize("leaf_model", ["constant", "linear"])
def test_long_chain_rebuilds_a_tree_only_when_its_splits_change(leaf_model, monkeypatch):
    # the chain of test_long_chain_routes_a_tree_only_when_its_splits_change
    data = friedman_generate(FriedmanSpec(n=80, p=5, seed=8))
    scaled, info = standardize(data)
    hp = Hyperparams(m=4, burn_in=20, post_burn_in=40, leaf_model=leaf_model,
                     seed=5, store_trees=True)
    draws = run_regression(scaled, hp, info)
    expected = replay_every_tree(draws.trees, draws.task, draws.scaling, data.features)
    from_dict, rebuilt = Tree.from_dict, []

    def watching(d, prev=None):
        tree, payload = from_dict(d, prev)
        rebuilt.append(tree is not prev)
        return tree, payload

    monkeypatch.setattr(Tree, "from_dict", staticmethod(watching))
    assert_same_summary(predict(draws, data.features), expected)
    assert len(rebuilt) == draws.retained * hp.m
    # draw 0's trees with a split, then every tree whose splits changed
    first = sum(d["kind"] != "leaf" for d in draws.trees[0])
    assert sum(rebuilt) == first + split_changes(draws.trees) < len(rebuilt)


def stump_split(threshold, left, right):
    return {"kind": "internal", "feature": 0, "threshold": threshold,
            "left": left, "right": right}


def const(mu):
    return {"kind": "leaf", "mu": mu}


def linear(beta, covariates):
    return {"kind": "leaf", "beta": beta, "covariates": covariates}


IDENTITY = ScalingInfo.identity(2)
X_HAND = np.array([[-1.0, 2.0], [0.25, -3.0], [1.0, 0.5], [-0.5, 1.5]])


def replay_hand_made(trees, counts):
    """The replay's result and its call counts, after checking it against the reference."""
    result = predict_stored(trees, REGRESSION, IDENTITY, X_HAND)
    seen = dict(counts)
    assert_same_summary(result, replay_every_tree(trees, REGRESSION, IDENTITY, X_HAND))
    return result, seen


def test_leaf_values_alone_change_so_each_tree_is_routed_once(counts):
    trees = [[stump_split(0.0, const(k), const(-k)), const(10.0 * k)] for k in range(3)]
    result, seen = replay_hand_made(trees, counts)
    # tree 1 is a stump, carried from the stump replay without routing
    assert seen["routed_rows"] == routed_rows(trees, IDENTITY, X_HAND) == 4
    assert seen["from_dict"] == 6
    # x0 < 0 goes right: rows 0 and 3 get -k, rows 1 and 2 get k
    assert result.draws[2].tolist() == [18.0, 22.0, 22.0, 18.0]


@pytest.mark.parametrize("leaf", [const, lambda k: linear([k, 2.0], [1])],
                         ids=["constant", "linear"])
def test_a_first_draw_stump_is_never_routed(leaf, counts):
    trees = [[leaf(1.0), leaf(-2.0)], [leaf(3.0), leaf(0.5)]]
    _, seen = replay_hand_made(trees, counts)
    assert seen["route"] == routed_rows(trees, IDENTITY, X_HAND) == 0


def test_a_changed_threshold_reroutes_that_tree_only(counts):
    thresholds = [0.0, 0.5, 0.5]
    trees = [[stump_split(thr, const(1.0), const(-1.0)),
              stump_split(0.0, const(2.0), const(-2.0))] for thr in thresholds]
    result, seen = replay_hand_made(trees, counts)
    # both trees' 4 rows, then tree 0's 4 rows under its changed root
    assert seen["routed_rows"] == routed_rows(trees, IDENTITY, X_HAND) == 2 * 4 + 4
    assert result.draws[0].tolist() == [-3.0, 3.0, 3.0, -3.0]
    assert result.draws[1].tolist() == [-3.0, 1.0, 3.0, -3.0]   # 0.25 < 0.5 now


def test_changed_covariates_under_the_same_split_rebuild_that_design(counts):
    covariate_sets = [[0], [0, 1], [0, 1]]
    trees = [[stump_split(0.0, linear([1.0] * (len(c) + 1), c), linear([0.5, 2.0], [0]))]
             for c in covariate_sets]
    result, seen = replay_hand_made(trees, counts)
    assert seen["routed_rows"] == routed_rows(trees, IDENTITY, X_HAND) == 4
    # both designs once, then only the left leaf's when its covariates change
    assert seen["build_leaf_design"] == 2 + 1
    assert result.draws[1].tolist() == [0.5 - 2.0, 1.0 + 0.25 - 3.0, 1.0 + 1.0 + 0.5,
                                        0.5 - 1.0]


def test_the_carried_leaf_index_follows_every_split_change(counts):
    # tree 0's splits go A, B, A, A and tree 1's B, B, A, B: a hit follows a
    # miss, and B numbers its leaves 1, 3, 4 where A numbers them 1, 2, so a
    # leaf index kept across a change would put rows in the wrong leaf
    def shape_a(k):
        return stump_split(0.0, const(1.0 + k), const(-1.0 - k))

    def shape_b(k):
        return {"kind": "internal", "feature": 1, "threshold": 1.0,
                "left": const(10.0 * k), "right": stump_split(0.5, const(k), const(-k))}

    shapes = [(shape_a, shape_b), (shape_b, shape_b), (shape_a, shape_a), (shape_a, shape_b)]
    trees = [[first(k), second(k)] for k, (first, second) in enumerate(shapes)]
    result, seen = replay_hand_made(trees, counts)
    # both trees' 4 rows, then 4 rows at each of the 4 changed roots
    assert seen["routed_rows"] == routed_rows(trees, IDENTITY, X_HAND) == 2 * 4 + 4 * 4
    assert seen["from_dict"] == 8
    assert result.draws[3].tolist() == [-4.0 + 30.0, 4.0 - 3.0, 4.0 + 3.0, -4.0 + 30.0]


def moved_chain(X, kinds, rng, n_min=2):
    """(stored trees, applied kinds) of one tree index: draw 0 is a stump, and
    draw k the tree of draw k - 1 after a valid move of `kinds[k - 1]`, or the
    same tree when 20 proposals of that kind are invalid (kind None); every
    draw has fresh random leaf means."""
    split_dict = SplitDictionary([np.unique(X[:, j]) for j in range(X.shape[1])])
    cdf = split_cdf(np.full(X.shape[1], 1 / X.shape[1]), split_dict.splittable())
    tree, stored, applied = Tree.stump(), [], []
    for kind in [None, *kinds]:
        if kind is not None:
            leaves, splits = routing(tree, X)
            moves = (propose_move(tree, X, split_dict, cdf, rng, n_min, kind,
                                  rows_by_leaf=leaves, rows_by_split=splits)
                     for _ in range(20))
            proposal = next((prop for prop in moves if prop.valid), None)
            if proposal is None:
                kind = None
            else:
                tree = proposal.tree
            applied.append(kind)
        stored.append(tree.to_dict({leaf: {"mu": float(rng.normal())}
                                    for leaf in tree.leaves()}))
    return stored, applied


# root changes on a one-split tree, grows, swaps, prunes back to a stump
# and a stump growing again; random moves follow
SCHEDULE = [GROW, CHANGE, CHANGE, GROW, GROW, GROW, SWAP, CHANGE, SWAP, GROW, SWAP,
            *[PRUNE] * 7, GROW, CHANGE, GROW, GROW, SWAP]


def right_subtree_renumbered(d, prev):
    """Whether the root's right subtree is a split that kept its rules while
    its children's node ids moved (a grow or prune in the left subtree)."""
    if "right" not in d or "right" not in prev or d["right"]["kind"] == "leaf":
        return False
    new, old = Tree.from_dict(d)[0], Tree.from_dict(prev)[0]
    return (splits(d["right"]) == splits(prev["right"])
            and new.nodes[new.nodes[0].right].left != old.nodes[old.nodes[0].right].left)


def test_carried_routing_follows_random_move_sequences(replayed_states):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 3))
    chains = [moved_chain(X, SCHEDULE + list(rng.choice(MOVE_KINDS, 40)), rng)
              for _ in range(3)]
    trees = [list(draw) for draw in zip(*(stored for stored, _ in chains))]
    pairs = [(d, prev) for k in range(1, len(trees)) for d, prev in zip(trees[k], trees[k - 1])]
    # the sequences hold every case the walk must pair correctly
    assert any(d["kind"] == prev["kind"] == "internal"
               and (d["feature"], d["threshold"]) != (prev["feature"], prev["threshold"])
               for d, prev in pairs)
    assert any(right_subtree_renumbered(d, prev) for d, prev in pairs)
    assert any(d["kind"] == "leaf" and prev["kind"] == "internal" for d, prev in pairs)
    assert any(d["kind"] == "internal" and prev["kind"] == "leaf" for d, prev in pairs)
    assert all(SWAP in applied and PRUNE in applied for _, applied in chains)

    # the fixture checks each replayed state's index and its round trip to
    # the stored dict as the tree is replayed
    identity = ScalingInfo.identity(X.shape[1])
    result = predict_stored(trees, REGRESSION, identity, X)
    assert len(replayed_states) == len(trees) * len(chains)
    for tree, rows_by_leaf, rows_by_split in replayed_states:
        assert_carried_routing(tree, X, rows_by_leaf, rows_by_split)
    assert_same_summary(result, replay_every_tree(trees, REGRESSION, identity, X))


NO_PAYLOAD = "leaf has neither 'mu' nor 'beta' and 'covariates'"


@pytest.mark.parametrize("tree, problem", [
    pytest.param({"kind": "leaf"}, NO_PAYLOAD, id="empty-leaf"),
    pytest.param({"kind": "lef", "mu": 1.0}, "unknown node kind 'lef'", id="leaf-kind"),
    pytest.param({"kind": "internl", "feature": 0, "threshold": 0.0, "left": const(1.0),
                  "right": const(2.0)}, "unknown node kind 'internl'", id="split-kind"),
    # the splits equal the previous draw's, so these leaves are read unrouted
    pytest.param(stump_split(0.0, const(1.0), {"kind": "leaf", "beta": [1.0, 2.0]}),
                 NO_PAYLOAD, id="carried-no-covariates"),
    pytest.param(stump_split(0.0, const(1.0), {"kind": "leaf", "covariates": [0]}),
                 NO_PAYLOAD, id="carried-no-beta"),
    pytest.param(stump_split(0.0, const(1.0), linear([1.0, 2.0], [-1])),
                 "leaf covariates [-1] are not feature indices in [0, 2)",
                 id="carried-negative-covariate"),
    pytest.param(dict(stump_split(0.0, const(1.0), const(2.0)), feature=7),
                 "split feature 7 is not a feature index in [0, 2)", id="feature-7"),
    pytest.param(dict(stump_split(0.0, const(1.0), const(2.0)), feature=-1),
                 "split feature -1 is not a feature index in [0, 2)", id="feature-minus-1"),
    pytest.param(stump_split(float("nan"), const(1.0), const(2.0)),
                 "split threshold nan is not a finite number", id="nan-threshold"),
    pytest.param(stump_split(float("inf"), const(1.0), const(2.0)),
                 "split threshold inf is not a finite number", id="inf-threshold"),
])
def test_a_malformed_tree_is_named_by_draw_and_tree(tree, problem):
    good = stump_split(0.0, const(1.0), const(-1.0))
    with pytest.raises(ValueError) as info:
        predict_stored([[good, good], [good, tree]], REGRESSION, IDENTITY, X_HAND)
    assert str(info.value) == f"draw 1, tree 1: {problem}"


LINEAR_AMONG_CONSTANT = "linear leaf among stored trees whose leaves are constant"
CONSTANT_AMONG_LINEAR = "constant leaf among stored trees whose leaves are linear"


def linear_stump(threshold, right):
    return stump_split(threshold, linear([1.0, 2.0], [0]), right)


@pytest.mark.parametrize("trees, where, problem", [
    # the stored leaves are constant: the first tree's leftmost leaf says so
    pytest.param([[stump_split(0.0, const(1.0), linear([1.0, 2.0], [0]))]],
                 "draw 0, tree 0", LINEAR_AMONG_CONSTANT, id="within-the-first-tree"),
    pytest.param([[stump_split(0.0, const(1.0), const(2.0))],
                  [stump_split(0.0, const(1.0), linear([1.0, 2.0], [0]))]],
                 "draw 1, tree 0", LINEAR_AMONG_CONSTANT, id="carried-routing"),
    pytest.param([[const(1.0), stump_split(0.0, const(1.0), const(2.0))],
                  [const(1.0), stump_split(0.5, const(1.0), linear([1.0, 2.0], [1]))]],
                 "draw 1, tree 1", LINEAR_AMONG_CONSTANT, id="new-routing"),
    # and the reverse: the stored leaves are linear
    pytest.param([[linear_stump(0.0, const(2.0))]],
                 "draw 0, tree 0", CONSTANT_AMONG_LINEAR, id="reverse-within-the-first-tree"),
    pytest.param([[linear_stump(0.0, linear([0.5], []))], [linear_stump(0.0, const(2.0))]],
                 "draw 1, tree 0", CONSTANT_AMONG_LINEAR, id="reverse-carried-routing"),
    pytest.param([[linear([1.0], []), linear_stump(0.0, linear([0.5], []))],
                  [linear([1.0], []), linear_stump(0.5, const(2.0))]],
                 "draw 1, tree 1", CONSTANT_AMONG_LINEAR, id="reverse-new-routing"),
])
def test_a_leaf_of_the_other_leaf_model_is_named_by_draw_and_tree(trees, where, problem):
    with pytest.raises(ValueError) as info:
        predict_stored(trees, REGRESSION, IDENTITY, X_HAND)
    assert str(info.value) == f"{where}: {problem}"


@pytest.mark.parametrize("trees, where, problem", [
    pytest.param([[stump_split(0.0, const(1.0), const(float("nan")))]],
                 "draw 0, tree 0", "leaf mean nan is not a finite number", id="constant-mean"),
    # the splits equal the previous draw's, so the tree is not routed again
    pytest.param([[const(1.0), stump_split(0.0, const(1.0), const(2.0))],
                  [const(1.0), stump_split(0.0, const(1.0), const(-float("inf")))]],
                 "draw 1, tree 1", "leaf mean -inf is not a finite number", id="kept-splits"),
    # the covariates equal the previous draw's too, so the leaf's design is kept
    pytest.param([[linear_stump(0.0, linear([0.5], []))],
                  [stump_split(0.0, linear([1.0, float("nan")], [0]), linear([0.5], []))]],
                 "draw 1, tree 0", "leaf coefficient nan is not a finite number",
                 id="carried-linear-leaf"),
    # numpy would turn these two into numbers
    pytest.param([[stump_split(0.0, const(1.0), const(True))]],
                 "draw 0, tree 0", "leaf mean True is not a finite number", id="bool-mean"),
    pytest.param([[stump_split(0.0, const(1.0), const("1.5"))]],
                 "draw 0, tree 0", "leaf mean '1.5' is not a finite number", id="string-mean"),
    # no x0 lies below -5, so no row reaches the right leaf
    pytest.param([[const(1.0), stump_split(-5.0, const(1.0), const(float("nan")))]],
                 "draw 0, tree 1", "leaf mean nan is not a finite number", id="unreached-leaf"),
])
def test_a_non_finite_leaf_value_is_named_by_draw_and_tree(trees, where, problem):
    with pytest.raises(ValueError) as info:
        predict_stored(trees, REGRESSION, IDENTITY, X_HAND)
    assert str(info.value) == f"{where}: {problem}"


def test_finite_leaf_values_whose_fits_overflow_name_the_draw():
    trees = [[const(1.0), const(1.0)], [const(1e308), const(1e308)]]
    with pytest.raises(ValueError) as info:
        predict_stored(trees, REGRESSION, IDENTITY, X_HAND)
    assert str(info.value) == "draw 1: its tree fits sum to a non-finite value"


@pytest.mark.parametrize("tree, problem", [
    pytest.param({"kind": "internal", "feature": 0, "threshold": 0.0, "right": const(1.0)},
                 "split node without a 'left' and a 'right' child", id="no-left"),
    pytest.param({"mu": 1.0}, "unknown node kind None", id="no-kind"),
    pytest.param([const(1.0)], "node [{'kind': 'leaf', 'mu': 1.0}] is not an object",
                 id="not-an-object"),
    pytest.param(stump_split(0.0, {"kind": "leaf"}, const(1.0)), NO_PAYLOAD,
                 id="empty-leftmost-leaf"),
])
def test_a_malformed_first_tree_is_named_as_draw_0_tree_0(tree, problem):
    good = stump_split(0.0, const(1.0), const(-1.0))
    with pytest.raises(ValueError) as info:
        predict_stored([[tree, good], [good, good]], REGRESSION, IDENTITY, X_HAND)
    assert str(info.value) == f"draw 0, tree 0: {problem}"


def test_non_finite_feature_is_named():
    # nan fails every `x < threshold` test, so it would go left silently
    trees = [[stump_split(0.0, const(1.0), const(-1.0))]]
    X = X_HAND.copy()
    X[2, 0] = np.nan
    with pytest.raises(ValueError, match=r"nan at X_new\[2, 0\]"):
        predict_stored(trees, REGRESSION, IDENTITY, X)
    X[1, 1] = -np.inf
    with pytest.raises(ValueError, match=r"-inf at X_new\[1, 1\]"):
        predict_stored(trees, REGRESSION, IDENTITY, X)


@pytest.mark.parametrize("draws", [1, 2, 3, 4, 19, 20, 21, 150, 1000, 1001])
@pytest.mark.parametrize("ties", [False, True])
def test_the_band_equals_numpy_quantile(draws, ties):
    # the band mirrors numpy's interpolation rule, so it is checked on every
    # numpy version the package accepts
    rng = np.random.default_rng(draws)
    out = rng.normal(size=(draws, 12))
    if ties:
        out = np.round(out, 1)
        out[:, :3] = 0.5                       # whole columns of one value
    band = np.array(sampler.quantile_band(out, (0.05, 0.95)))
    expected = np.quantile(out, (0.05, 0.95), axis=0)
    assert np.array_equal(band, expected)
    assert np.array_equal(band.view(np.int64), expected.view(np.int64))


def test_the_band_of_a_column_with_nan_is_nan():
    out = np.random.default_rng(3).normal(size=(30, 4))
    out[7, 2] = np.nan
    band = np.array(sampler.quantile_band(out, (0.05, 0.95)))
    assert np.array_equal(band, np.quantile(out, (0.05, 0.95), axis=0), equal_nan=True)
    assert np.isnan(band[:, 2]).all() and not np.isnan(band[:, [0, 1, 3]]).any()


def test_no_stored_draws_is_an_error():
    with pytest.raises(ValueError, match="no stored draws"):
        predict_stored([], REGRESSION, IDENTITY, X_HAND)


@pytest.mark.parametrize("trees, problem", [
    pytest.param([[const(1.0), const(2.0)], [const(3.0)]],
                 "draw 1: 1 stored trees, but draw 0 has 2 stored trees", id="one-short"),
    pytest.param([[const(1.0)], [const(2.0)], [const(3.0), const(4.0)]],
                 "draw 2: 2 stored trees, but draw 0 has 1 stored trees", id="one-over"),
    pytest.param([[const(1.0)], []],
                 "draw 1: 0 stored trees, but draw 0 has 1 stored trees", id="later-empty"),
    pytest.param([[]], "draw 0: an empty list of stored trees", id="first-empty"),
    pytest.param([[], [const(1.0)]], "draw 0: an empty list of stored trees",
                 id="first-empty-then-one"),
    pytest.param([[const(1.0)], None],
                 "draw 1: no stored trees, but draw 0 has 1 stored trees", id="later-none"),
    pytest.param([[const(1.0)], {"trees": [const(2.0)]}],
                 "draw 1 is not an object with a list of trees", id="dict-draw"),
    pytest.param([None, None], "no stored draws", id="all-none"),
])
def test_ragged_or_empty_draws_are_refused_before_any_replay(trees, problem, counts):
    with pytest.raises(ValueError) as info:
        predict_stored(trees, REGRESSION, IDENTITY, X_HAND)
    assert str(info.value) == problem
    assert counts == {"from_dict": 0, "route": 0, "routed_rows": 0, "build_leaf_design": 0}
