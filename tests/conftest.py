import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


def pytest_addoption(parser):
    parser.addoption("--slow", action="store_true", help="also run tests marked slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--slow"):
        return
    skip = pytest.mark.skip(reason="slow; run with --slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture()
def replayed_states(monkeypatch):
    """Checks each stored tree that `sampler._replay_tree` replays, right after
    the call: the `TreeState` it replayed into has the row -> leaf index of its
    leaf routing (`oracles.leaf_index_of`) and serializes to the stored dict.
    Returns, per replayed tree in replay order, the state's (tree, rows by
    leaf, rows by split) at that point; the replay replaces these, never
    mutates them, so they stay as recorded."""
    from lmbart import sampler
    from oracles import leaf_index_of

    seen = []
    replay = sampler._replay_tree

    def recording(*args):
        key = replay(*args)
        tree_dict, features, _, ts = args[:4]
        assert np.array_equal(ts.index, leaf_index_of(ts.rows_by_leaf, features.shape[0]))
        assert sampler._serialize_tree(ts) == tree_dict
        seen.append((ts.tree, ts.rows_by_leaf, ts.rows_by_split))
        return key

    monkeypatch.setattr(sampler, "_replay_tree", recording)
    return seen
