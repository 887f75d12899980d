"""Fixed-seed chains pinned to recorded values.

A refactor of the sampler that is meant to leave the draws unchanged must
reproduce these numbers: the acceptance counts exactly, the sigma^2 trace and
the retained training fits to 1e-12 relative, and the RMSE of one benchmark
cell. The values in `data/pinned_chains.json` were written by
`python tests/test_pinned_chains.py` (with `src` on the path); regenerate them
only for a change that is meant to alter the draws, and say so.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lmbart.benchmark import (EngineConfig, FriedmanSpec, friedman_generate,
                              run_benchmark)
from lmbart.data import CLASSIFICATION, Dataset, standardize
from lmbart.sampler import Hyperparams, run_classification, run_regression

PINNED = Path(__file__).parent / "data" / "pinned_chains.json"

CHAINS = {
    "constant": dict(leaf_model="constant"),
    "linear-tree-splits": dict(leaf_model="linear", covariate_rule="tree-splits"),
    "linear-ancestors": dict(leaf_model="linear", covariate_rule="ancestors"),
    "probit": dict(leaf_model="constant"),
}


def run_chain(name: str):
    hp = Hyperparams(m=4, burn_in=15, post_burn_in=10, thin=5, seed=12,
                     **CHAINS[name])
    data = friedman_generate(FriedmanSpec(n=50, p=5, seed=31))
    if name == "probit":
        labels = (data.response > np.median(data.response)).astype(float)
        binary = Dataset(data.features, labels, data.feature_names, CLASSIFICATION)
        scaled, info = standardize(binary, scale_response=False)
        return run_classification(scaled, hp, info)
    scaled, info = standardize(data)
    return run_regression(scaled, hp, info)


def benchmark_cell_rmse() -> float:
    config = EngineConfig("constant", Hyperparams(m=3, burn_in=10, post_burn_in=10))
    result = run_benchmark([FriedmanSpec(n=60, p=5, seed=2)], [config],
                           replicates=1, master_seed=5)
    (cell,) = result.cells.values()
    assert not cell.failures
    return cell.rmses[0]


def record() -> dict:
    out = {}
    for name in CHAINS:
        draws = run_chain(name)
        out[name] = {
            "acceptance": draws.acceptance,
            "sigma2_chain": draws.sigma2_chain.tolist(),
            "yhat_train": draws.yhat_train.tolist(),
        }
    out["benchmark_cell_rmse"] = benchmark_cell_rmse()
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


def test_benchmark_cell_rmse_matches_recorded(pinned):
    assert_allclose(benchmark_cell_rmse(), pinned["benchmark_cell_rmse"],
                    rtol=1e-12, atol=0)


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {PINNED}", file=sys.stderr)
