"""Fixed-seed chains pinned to recorded values.

A refactor of the sampler that is meant to leave the draws unchanged must
reproduce these numbers: the acceptance counts exactly, the sigma^2 trace and
the retained training fits to 1e-12 relative, and the RMSE of one benchmark
cell. The values in `data/pinned_chains.json` were written by
`python tests/test_pinned_chains.py [name ...]` (with `src` on the path), which
re-records the named entries (chain names and "benchmark_cell_rmse") and keeps
every other entry as committed, or re-records every entry when given no name.
Regenerate them only for a change that is meant to alter the draws, and say so.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lmbart import sampler
from lmbart.benchmark import (EngineConfig, FriedmanSpec, friedman_generate,
                              run_benchmark)
from lmbart.data import CLASSIFICATION, Dataset, standardize
from lmbart.leaves import leaf_parameter_count
from lmbart.sampler import Hyperparams, run_classification, run_regression
from lmbart.trees import Tree
from oracles import expand_stored, explicit_partial_residual, leaf_index_of

PINNED = Path(__file__).parent / "data" / "pinned_chains.json"
DATA = FriedmanSpec(n=50, p=5, seed=31)

CHAINS = {
    "constant": dict(leaf_model="constant"),
    "linear-tree-splits": dict(leaf_model="linear", covariate_rule="tree-splits"),
    "linear-ancestors": dict(leaf_model="linear", covariate_rule="ancestors"),
    "probit": dict(leaf_model="constant"),
    "linear-fixed-precision": dict(leaf_model="linear", vars_inter_slope=False),
}


def chain_data(name: str):
    """The standardized training set of a pinned chain and its scaling."""
    data = friedman_generate(DATA)
    if name == "probit":
        labels = (data.response > np.median(data.response)).astype(float)
        binary = Dataset(data.features, labels, data.feature_names, CLASSIFICATION)
        return standardize(binary, scale_response=False)
    return standardize(data)


def run_chain(name: str, on_sweep=None, **extra):
    hp = Hyperparams(m=4, burn_in=15, post_burn_in=10, thin=5, seed=12,
                     **CHAINS[name], **extra)
    scaled, info = chain_data(name)
    fit = run_classification if name == "probit" else run_regression
    return fit(scaled, hp, info, on_sweep=on_sweep)


def benchmark_cell_rmse() -> float:
    config = EngineConfig("constant", Hyperparams(m=3, burn_in=10, post_burn_in=10))
    result = run_benchmark([FriedmanSpec(n=60, p=5, seed=2)], [config],
                           replicates=1, master_seed=5)
    (cell,) = result.cells.values()
    assert not cell.failures
    return cell.rmses[0]


def record(names=()) -> dict:
    """The pinned entries: those in `names` recorded afresh and the rest as
    committed, or every entry recorded afresh when `names` is empty."""
    entries = [*CHAINS, "benchmark_cell_rmse"]
    unknown = sorted(set(names) - set(entries))
    if unknown:
        raise ValueError(f"unknown entries {unknown}; the entries are {entries}")
    out = json.loads(PINNED.read_text(encoding="utf-8")) if names else {}
    for name in names or entries:
        if name == "benchmark_cell_rmse":
            out[name] = benchmark_cell_rmse()
            continue
        draws = run_chain(name)
        out[name] = {
            "acceptance": draws.acceptance,
            "sigma2_chain": draws.sigma2_chain.tolist(),
            "yhat_train": draws.yhat_train.tolist(),
        }
    return out


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(CHAINS))
def test_chain_matches_recorded_draws(name, pinned):
    draws = run_chain(name)
    expected = pinned[name]
    assert draws.acceptance == expected["acceptance"]
    assert_allclose(draws.sigma2_chain, expected["sigma2_chain"], rtol=1e-12, atol=0)
    assert_allclose(draws.yhat_train, expected["yhat_train"], rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", list(CHAINS))
def test_carried_index_and_residual_follow_every_tree_step(name, monkeypatch):
    # after every step, each tree's row -> leaf index is its leaf routing, and
    # the carried full residual plus a tree's fit is that tree's partial residual
    step, checked = sampler.mh_tree_step, []

    def checking_step(state, tree_index, *args):
        out = step(state, tree_index, *args)
        for t, ts in enumerate(state.trees):
            assert np.array_equal(ts.index, leaf_index_of(ts.rows_by_leaf, state.target.size))
            gap = np.abs(state.resid + ts.fit - explicit_partial_residual(state, t)).max()
            assert gap < 1e-10
        checked.append(out)
        return out

    monkeypatch.setattr(sampler, "mh_tree_step", checking_step)
    draws = run_chain(name)
    assert len(checked) == 4 * (15 + 10)
    assert sum(rec["accepted"] for rec in draws.acceptance.values()) > 0


@pytest.mark.parametrize("name", ["linear-tree-splits", "linear-ancestors"])
def test_covariate_sets_are_computed_once_per_tree(name, monkeypatch, pinned):
    # a tree's stats carry its covariate sets to the tree's next step, so they
    # are computed for each of the m stumps and then once per valid candidate,
    # not once per tree step
    from lmbart import leaves, trees

    calls = {"covariate_sets": 0, "valid": 0}
    covariate_sets, propose_move = leaves.leaf_covariate_sets, trees.propose_move

    def counting_sets(*args):
        calls["covariate_sets"] += 1
        return covariate_sets(*args)

    def counting_proposals(*args, **kwargs):
        proposal = propose_move(*args, **kwargs)
        calls["valid"] += proposal.valid
        return proposal

    monkeypatch.setattr(leaves, "leaf_covariate_sets", counting_sets)
    monkeypatch.setattr(trees, "propose_move", counting_proposals)
    draws = run_chain(name)
    hp = draws.hyperparams
    assert 0 < calls["valid"] < hp.m * (hp.burn_in + hp.post_burn_in)
    assert calls["covariate_sets"] == hp.m + calls["valid"]
    expected = pinned[name]
    assert draws.acceptance == expected["acceptance"]
    assert_allclose(draws.sigma2_chain, expected["sigma2_chain"], rtol=1e-12, atol=0)
    assert_allclose(draws.yhat_train, expected["yhat_train"], rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", list(CHAINS))
def test_recorded_counts_equal_the_reference_counters(name):
    # the record step counts leaves from the routing and parameters from the
    # leaf stats; the stored tree gives both by the tree-walking counters
    draws = run_chain(name, store_trees=True)
    hp = draws.hyperparams
    for k, tree_dicts in enumerate(expand_stored(draws.trees)):
        for t, d in enumerate(tree_dicts):
            tree, _ = Tree.from_dict(d)
            assert draws.terminal_counts[k, t] == tree.n_leaves()
            assert draws.param_counts[k, t] == leaf_parameter_count(tree, hp.leaf_model,
                                                                    hp.covariate_rule)
    assert draws.terminal_counts.max() > 1


@pytest.mark.parametrize("name", list(CHAINS))
def test_stored_trees_replay_to_the_chain_fits(name, replayed_states):
    # the chain keeps its drawn leaf values and stores them as payloads: the
    # stored trees, replayed on the training rows, give its retained fits
    # exactly, and each replays into a state that serializes back to it (the
    # `replayed_states` fixture checks every one)
    draws = run_chain(name, store_trees=True)
    replayed = sampler.predict(draws, friedman_generate(DATA).features)
    assert np.array_equal(replayed.draws, draws.yhat_train)
    assert len(replayed_states) == draws.retained * draws.hyperparams.m


def test_recorder_rewrites_only_the_named_entries(pinned):
    recorded = record(["probit"])
    assert list(recorded) == list(pinned)
    assert all(recorded[name] == pinned[name] for name in pinned if name != "probit")
    draws = run_chain("probit")
    assert recorded["probit"] == {"acceptance": draws.acceptance,
                                  "sigma2_chain": draws.sigma2_chain.tolist(),
                                  "yhat_train": draws.yhat_train.tolist()}
    with pytest.raises(ValueError, match="unknown entries"):
        record(["constant", "nope"])


def test_benchmark_cell_rmse_matches_recorded(pinned):
    assert_allclose(benchmark_cell_rmse(), pinned["benchmark_cell_rmse"],
                    rtol=1e-12, atol=0)


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(record(sys.argv[1:]), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {PINNED}", file=sys.stderr)
