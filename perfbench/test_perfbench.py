"""Self-tests of the fit/predict benchmark.

    PYTHONPATH=src python -m pytest -q perfbench

Tiny versions of every workload run through the same code as the benchmark,
so these finish in seconds.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
from lmbart import leaves, trees  # noqa: E402
from tracer import Tracer  # noqa: E402


def tiny(name: str) -> bench.Workload:
    return dataclasses.replace(bench.WORKLOADS[name], n_train=150, n_test=50,
                               burn_in=10, post_burn_in=20)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_smoke_fit_and_predict(name):
    w = tiny(name)
    tally = bench.Tally()
    rec = bench.fit_and_predict(w, seed=3, rep=0, tally=tally)
    assert (tally.attempted, tally.failed, tally.problems) == (2, 0, [])
    assert rec.sweeps_ms.shape == (w.burn_in + w.post_burn_in,)
    assert rec.fit_s > 0 and rec.predict_s > 0 and rec.test_rmse > 0
    assert w.task != "regression" or rec.sigma2_ess > 0


def test_inputs_repeat_for_a_seed():
    w = bench.WORKLOADS["probit-constant-n500"]
    a, b = bench.make_inputs(w, 7, 2), bench.make_inputs(w, 7, 2)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]) and a[2:] == b[2:]
    assert not np.array_equal(a[0], bench.make_inputs(w, 7, 3)[0])
    assert set(np.unique(a[1])) == {0.0, 1.0}


def test_tracer_leaves_draws_unchanged_and_restores_the_package():
    w = tiny("reg-linear-n500")
    before = {k: vars(trees.Tree)[k] for k in ("leaf_rows", "from_dict")}
    plain = bench.fit_and_predict(w, 5, 0, bench.Tally())
    fit_tracer, predict_tracer = Tracer(), Tracer()
    traced = bench.fit_and_predict(w, 5, 0, bench.Tally(), fit_tracer, predict_tracer)

    assert traced.fingerprint == plain.fingerprint
    assert {k: vars(trees.Tree)[k] for k in before} == before
    fit = fit_tracer.summary()
    assert fit["sampler.mh_tree_step"]["calls"] == bench.M * (w.burn_in + w.post_burn_in)
    assert fit["leaves.cholesky"]["calls"] > 0
    # self times partition the root span exactly
    total_self = sum(v["self_ms"] for v in fit.values())
    assert total_self == pytest.approx(fit["sampler.run"]["ms"], rel=1e-9)
    assert min(v["self_ms"] for v in fit.values()) >= 0
    steps = sum(n for k, n in fit_tracer.counts.items() if k.startswith("sampler.moves."))
    assert steps == fit["sampler.mh_tree_step"]["calls"]
    assert predict_tracer.summary()["trees.from_dict"]["calls"] == bench.M * w.post_burn_in


def test_a_raising_fit_counts_as_failed(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("injected")
    monkeypatch.setattr(bench, "run_regression", boom)
    tally = bench.Tally()
    assert bench.fit_and_predict(tiny("reg-constant-n5000"), 1, 0, tally) is None
    assert (tally.attempted, tally.failed) == (1, 1)


def test_a_missing_traced_attribute_raises_and_restores_the_package(monkeypatch):
    before = vars(trees.Tree)["leaf_rows"]
    monkeypatch.delattr(leaves, "cholesky")
    with pytest.raises(AttributeError, match="no attribute 'cholesky' to trace"):
        with Tracer():
            pass
    assert vars(trees.Tree)["leaf_rows"] is before


def test_a_run_whose_fits_all_fail_stops_and_reports(monkeypatch, tmp_path):
    def boom(*args, **kwargs):
        raise RuntimeError("injected")
    monkeypatch.setattr(bench, "run_classification", boom)
    monkeypatch.setattr(bench, "SETUP_REPS", 1)
    monkeypatch.setattr(bench, "QUALITY_FITS", 3)
    out, _ = bench.end_to_end_run(tiny("probit-constant-n500"), seed=2, seconds=60)
    assert out == {"correct": False, "attempted": 3, "failed": 3, "metrics": {}}


def test_bulk_ess_matches_known_chains():
    rng = np.random.default_rng(0)
    assert 1500 < bench.bulk_ess(rng.standard_normal(2000)) < 2500
    phi, n = 0.9, 4000
    x = np.zeros(n)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + rng.standard_normal()
    expected = n * (1 - phi) / (1 + phi)
    assert 0.6 * expected < bench.bulk_ess(x) < 1.5 * expected


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_every_metric_of_benchmark_json(trace, monkeypatch, tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    section = "per_layer" if trace else "end_to_end"
    monkeypatch.setattr(bench, "SETUP_REPS", 1)
    monkeypatch.setattr(bench, "QUALITY_FITS", 2)
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    run = bench.traced_run if trace else bench.end_to_end_run
    out, detail = run(tiny("probit-constant-n500"), seed=2, seconds=0.01)

    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0, detail["problems"]
    assert {(k, v["unit"]) for k, v in out["metrics"].items()} == \
        {(m["name"], m["unit"]) for m in spec[section]}
    assert all(np.isfinite(v["value"]) for v in out["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())
