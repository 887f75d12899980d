"""Fit/predict benchmark for lmbart: workloads, measurement and output checks.

Each run drives the public API the way a user does, one chain at a time in
this single process:

    Dataset -> train_test_split -> standardize -> run_regression /
    run_classification (store_trees=True) -> predict -> rmse

Inputs come from the five-covariate Friedman surface, generated here (not by
`lmbart.benchmark`) from the workload seed, so a change to the package cannot
change them. `run.py` is the entry point; see README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
from scipy.stats import norm, rankdata

import lmbart
from lmbart import (Dataset, Hyperparams, predict, rmse, run_classification,
                    run_regression, standardize, train_test_split)
from run import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

P = 5
M = 10                    # trees in every workload's sum
NOISE_SD = 1.0
SETUP_REPS = 5
QUALITY_FITS = 10         # test_rmse uses the first fits only, so a seed fixes it exactly
TAIL_BEYOND = 10          # sweeps slower than the reported tail value, per fit
# Reference-kernel time (kernel.py) that defines the unit of every reported
# timing: seconds on a machine on which the kernel takes KERNEL_REF_S. That
# is about an idle core of the 2-vCPU Intel Xeon VM the bounds were set on
# (numpy 2.4, Python 3.11); see SpeedProbe.
KERNEL_REF_S = 0.018


@dataclass(frozen=True)
class Workload:
    """One fit/predict configuration; every fit of a run draws fresh data."""

    name: str
    task: str                  # "regression" or "classification"
    leaf_model: str            # "constant" or "linear"
    n_train: int
    n_test: int
    burn_in: int
    post_burn_in: int

    def hyperparams(self, seed: int) -> Hyperparams:
        extra = ({"branching": "dirichlet", "vars_inter_slope": True}
                 if self.leaf_model == "linear" else {})
        return Hyperparams(m=M, burn_in=self.burn_in,
                           post_burn_in=self.post_burn_in,
                           leaf_model=self.leaf_model, seed=seed,
                           store_trees=True, **extra)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("reg-constant-n5000", "regression", "constant", 5000, 1250,
             burn_in=50, post_burn_in=150),
    Workload("reg-linear-n500", "regression", "linear", 400, 100,
             burn_in=50, post_burn_in=150),
    Workload("probit-constant-n500", "classification", "constant", 500, 125,
             burn_in=75, post_burn_in=225),
)}

END_TO_END = {
    "setup_s": "s", "fit_s": "s", "sweep_ms_p50": "ms", "sweep_ms_tail": "ms",
    "predict_s": "s", "test_rmse": "response", "peak_rss_mb": "MB",
}

_MOVE_KINDS = ("grow", "prune", "change", "swap")
_INVALID = ("grow.no_feature", "grow.below_n_min", "prune.no_target",
            "change.no_target", "change.no_feature", "change.below_n_min",
            "swap.no_target", "swap.below_n_min")
# (span name, summary field) pairs reported from the fit and predict traces.
_FIT_SPANS = [
    ("trees.leaf_rows", "ms"), ("trees.leaf_rows", "calls"),
    ("trees.partition", "ms"), ("trees.partition", "calls"),
    ("trees.propose_move", "self_ms"), ("trees.propose_move", "calls"),
    ("trees.log_tree_prior", "ms"), ("trees.log_tree_prior", "calls"),
    ("leaves.stats", "ms"), ("leaves.stats", "calls"),
    ("leaves.build_leaf_design", "ms"), ("leaves.build_leaf_design", "calls"),
    ("leaves.log_marginal", "ms"), ("leaves.log_marginal", "calls"),
    ("leaves.sample", "ms"), ("leaves.sample", "calls"),
    ("leaves.cholesky", "ms"), ("leaves.cholesky", "calls"),
    ("sampler.mh_tree_step", "self_ms"), ("sampler.mh_tree_step", "calls"),
    ("sampler.run", "self_ms"),
    ("sampler.latent_z", "ms"), ("sampler.latent_z", "calls"),
    ("sampler.globals", "ms"), ("sampler.globals", "calls"),
]
_PREDICT_SPANS = [
    ("trees.from_dict", "ms"), ("trees.from_dict", "calls"),
    ("sampler.eval_tree_dict", "self_ms"), ("sampler.eval_tree_dict", "calls"),
    ("sampler.predict", "self_ms"),
]
_FIT_COUNTS = (["trees.leaf_rows.rows", "leaves.stats.leaves",
                "leaves.build_leaf_design.rows", "leaves.log_marginal.leaves",
                "leaves.sample.leaves"]
               + [f"trees.invalid.{k}" for k in _MOVE_KINDS]
               + [f"trees.invalid.{r}" for r in _INVALID]
               + [f"sampler.moves.{k}.{o}" for k in _MOVE_KINDS
                  for o in ("accepted", "rejected")])
_LAYERS = ("trees", "leaves", "sampler")
_SETUP_STEPS = ("lmbart.import_ms", "data.train_test_split.ms",
                "data.standardize.ms", "data.split_dictionary.ms")


def _unit(field_name: str) -> str:
    return "count" if field_name == "calls" else "ms"


PER_LAYER = {
    **{f"{span}.{f}": _unit(f) for span, f in _FIT_SPANS + _PREDICT_SPANS},
    **{name: "count" for name in _FIT_COUNTS},
    "trees.propose_move.valid_frac": "frac",
    "sampler.accept_frac": "frac",
    "sampler.latent_z.frac": "frac",
    "sampler.sigma2_ess": "count",
    **{f"layer.{layer}.self_frac": "frac" for layer in _LAYERS},
    **{step: "ms" for step in _SETUP_STEPS},
    "tracing.overhead_frac": "frac",
}


# ---------------------------------------------------------------------------
# inputs


def friedman(X: np.ndarray) -> np.ndarray:
    return (10.0 * np.sin(np.pi * X[:, 0] * X[:, 1]) + 20.0 * (X[:, 2] - 0.5) ** 2
            + 10.0 * X[:, 3] + 5.0 * X[:, 4])


def make_inputs(w: Workload, seed: int, rep: int) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Features, response, split seed and chain seed of fit `rep` of a run."""
    rng = np.random.default_rng([seed, rep])
    n = w.n_train + w.n_test
    X = rng.uniform(0.0, 1.0, size=(n, P))
    y = friedman(X) + NOISE_SD * rng.standard_normal(n)
    if w.task == "classification":
        y = (y > np.median(y)).astype(float)
    split_seed, chain_seed = (int(s) for s in rng.integers(2**31, size=2))
    return X, y, split_seed, chain_seed


def prepare(w: Workload, seed: int, rep: int, timings: dict | None = None):
    """Split and standardize; returns (train, test, scaled train, scaling, chain seed)."""
    X, y, split_seed, chain_seed = make_inputs(w, seed, rep)
    clock = time.perf_counter
    t0 = clock()
    data = Dataset(X, y, [f"x{j + 1}" for j in range(P)], w.task)
    train, test = train_test_split(data, w.n_test / (w.n_train + w.n_test), split_seed)
    t1 = clock()
    scaled, scaling = standardize(train)
    t2 = clock()
    if timings is not None:
        timings["data.train_test_split.ms"] = 1e3 * (t1 - t0)
        timings["data.standardize.ms"] = 1e3 * (t2 - t1)
    return train, test, scaled, scaling, chain_seed


# ---------------------------------------------------------------------------
# machine speed


class SpeedProbe:
    """How much slower the machine runs now than when the bounds were set.

    On a shared 2-core VM the same fit ran up to 2x slower for 30-60 s at a
    time, longer than a run, while CPU time tracked wall time. Every timing
    is therefore divided by the slowdown measured right before and after it:
    the median of three runs of kernel.py's reference kernel, over
    KERNEL_REF_S. The kernel runs in a child process that inherits this
    process's CPU pin and thread pins, so it measures the CPU the fits run
    on but none of the state they leave behind. Calling the probe returns
    the slowdown; leaving its context ends the child and waits for it.
    """

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, str(HERE / "kernel.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True)

    def __call__(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("reference kernel process ended early")
        return float(line) / KERNEL_REF_S

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


# ---------------------------------------------------------------------------
# one fit + predict


def bulk_ess(x: np.ndarray) -> float:
    """Rank-normalised bulk effective sample size of one chain.

    Vehtari, Gelman, Simpson, Carpenter & Buerkner (2021): split the chain
    in halves, replace draws by normal scores of their pooled ranks, then
    apply Geyer's initial monotone sequence to the averaged autocovariance.
    """
    x = np.asarray(x, dtype=float)
    half = x.size // 2
    chains = np.stack([x[:half], x[x.size - half:]])
    ranks = rankdata(chains, method="average").reshape(chains.shape)
    z = norm.ppf((ranks - 0.375) / (ranks.size + 0.25))
    m, n = z.shape
    if np.ptp(z) == 0:
        return float(m * n)
    centred = z - z.mean(axis=1, keepdims=True)
    f = np.fft.rfft(centred, n=2 * n, axis=1)
    acov = np.fft.irfft(f * np.conjugate(f), n=2 * n, axis=1)[:, :n] / n
    mean_var = acov[:, 0].mean() * n / (n - 1)
    var_plus = mean_var * (n - 1) / n + np.var(z.mean(axis=1), ddof=1)
    rho = np.zeros(n)
    rho[0] = even = 1.0
    rho[1] = odd = 1.0 - (mean_var - acov[:, 1].mean()) / var_plus
    t = 1
    while t < n - 3 and even + odd > 0:
        even = 1.0 - (mean_var - acov[:, t + 1].mean()) / var_plus
        odd = 1.0 - (mean_var - acov[:, t + 2].mean()) / var_plus
        if even + odd >= 0:
            rho[t + 1], rho[t + 2] = even, odd
        t += 2
    max_t = t - 2
    if even > 0:
        rho[max_t + 1] = even
    t = 1
    while t <= max_t - 2:
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = rho[t + 2] = (rho[t - 1] + rho[t]) / 2.0
        t += 2
    tau = -1.0 + 2.0 * rho[:max_t + 1].sum() + rho[max_t + 1:max_t + 2].sum()
    tau = max(tau, 1.0 / np.log10(m * n))
    return float(m * n / tau)


def draws_fingerprint(draws) -> str:
    """sha256 over the sigma^2 trace, the in-sample fits and the stored trees."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(draws.sigma2_chain, dtype=float).tobytes())
    h.update(np.ascontiguousarray(draws.yhat_train, dtype=float).tobytes())
    h.update(json.dumps(draws.trees, sort_keys=True).encode())
    return h.hexdigest()


@dataclass
class FitRecord:
    rep: int
    fit_s: float
    sweeps_ms: np.ndarray
    predict_s: float | None = None
    test_rmse: float | None = None
    sigma2_ess: float | None = None
    fingerprint: str | None = None
    problems: list[str] = field(default_factory=list)
    slow_before: float = 1.0       # SpeedProbe slowdown just before the fit's round
    slow_after: float = 1.0        # and just after it, i.e. after the predict

    @property
    def fit_slowdown(self) -> float:
        return (self.slow_before + self.slow_after) / 2


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def _timed(call, tracer, root: str):
    """Run `call` -> (result, start, end); traced under span `root` when a tracer is given."""
    clock = time.perf_counter
    if tracer is None:
        t0 = clock()
        return call(), t0, clock()
    with tracer, tracer.span(root):
        t0 = clock()
        out = call()
        t1 = clock()
    return out, t0, t1


def fit_and_predict(w: Workload, seed: int, rep: int, tally: Tally,
                    fit_tracer=None, predict_tracer=None) -> FitRecord | None:
    """One fit and one predict, timed and checked; None if the fit raised.

    An exception counts as a failed operation in `tally` and is reported on
    stderr; it does not end the run.
    """
    train, test, scaled, scaling, chain_seed = prepare(w, seed, rep)
    hp = w.hyperparams(chain_seed)
    fit = run_regression if w.task == "regression" else run_classification
    stamps: list[float] = []
    clock = time.perf_counter

    tally.attempted += 1
    try:
        draws, t0, t1 = _timed(
            lambda: fit(scaled, hp, scaling, on_sweep=lambda _s: stamps.append(clock())),
            fit_tracer, "sampler.run")
    except Exception:
        traceback.print_exc()
        tally.failed += 1
        return None
    rec = FitRecord(rep, t1 - t0, 1e3 * np.diff([t0] + stamps))

    tally.attempted += 1
    try:
        pred, t0, t1 = _timed(lambda: predict(draws, test.features),
                              predict_tracer, "sampler.predict")
        rec.predict_s = t1 - t0
    except Exception:
        traceback.print_exc()
        tally.failed += 1
        return rec

    rec.problems = check_outputs(w, draws, pred, test, len(stamps))
    if not rec.problems:
        rec.test_rmse = rmse(pred.mean, test.response)
        if not rec.test_rmse < float(np.std(test.response)):
            rec.problems.append(f"test_rmse {rec.test_rmse:.4g} not below test sd "
                                f"{np.std(test.response):.4g}")
        if w.task == "regression":
            rec.sigma2_ess = bulk_ess(draws.sigma2)
    rec.fingerprint = draws_fingerprint(draws)
    tally.problems.extend(f"fit {rep}: {p}" for p in rec.problems)
    return rec


def check_outputs(w: Workload, draws, pred, test, n_sweeps: int) -> list[str]:
    problems = []
    k = w.post_burn_in
    if n_sweeps != w.burn_in + w.post_burn_in:
        problems.append(f"{n_sweeps} sweeps reported, expected {w.burn_in + w.post_burn_in}")
    if draws.retained != k or draws.trees is None or len(draws.trees) != k:
        problems.append(f"expected {k} retained draws with stored trees")
    if pred.draws.shape != (k, test.n) or pred.mean.shape != (test.n,):
        problems.append(f"prediction shape {pred.draws.shape}, expected {(k, test.n)}")
    if not (np.all(np.isfinite(pred.draws)) and np.all(np.isfinite(pred.mean))):
        problems.append("non-finite predictions")
    if w.task == "classification" and not np.all((pred.draws >= 0) & (pred.draws <= 1)):
        problems.append("probabilities outside [0, 1]")
    if w.task == "regression":
        if not (np.all(np.isfinite(draws.sigma2)) and np.all(draws.sigma2 > 0)):
            problems.append("non-finite or non-positive sigma2 draws")
    elif not np.all((draws.yhat_train >= 0) & (draws.yhat_train <= 1)):
        problems.append("in-sample probabilities outside [0, 1]")
    return problems


# ---------------------------------------------------------------------------
# set-up: fresh interpreter -> standardized dataset


def measure_setup(w: Workload, seed: int) -> tuple[float, dict[str, float]]:
    """Wall time of one fresh interpreter running setup_probe.py, and its step times."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), w.name, str(seed)],
                          capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# runs


def _median(values) -> float:
    return float(statistics.median(values))


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def tail_of(sweeps_ms: np.ndarray) -> float:
    """Sweep time with exactly TAIL_BEYOND slower sweeps in the same fit."""
    return float(np.sort(sweeps_ms)[-(TAIL_BEYOND + 1)])


def repeat(w: Workload, seed: int, seconds: float, one_round,
           min_rounds: int = 1) -> tuple[list, dict]:
    """Call `one_round(i)` for i = 0, 1, ... until `seconds` of rounds have run.

    At least `min_rounds` rounds run. Each round returns the FitRecords it
    made, which get the slowdown measured just before and after the round.
    The loop stops early once QUALITY_FITS rounds have made no record, since
    then every fit is failing and failed fits add almost no measured time.
    A set-up probe precedes each of the first SETUP_REPS rounds, so set-up
    and fits sample the machine over the same stretch of time; probe time
    does not count toward `seconds`. Returns (probe wall time, mean slowdown
    just before and after it) pairs and the probes' step times.
    """
    walls, steps = [], {}
    measured, i, empty = 0.0, 0, 0
    with SpeedProbe() as slowdown:
        slow = slowdown()
        while ((len(walls) < SETUP_REPS or i < min_rounds or measured < seconds)
               and empty < QUALITY_FITS):
            if len(walls) < SETUP_REPS:
                wall, step_ms = measure_setup(w, seed)
                after = slowdown()
                walls.append((wall, (slow + after) / 2))
                slow = after
                for name, ms in step_ms.items():
                    steps.setdefault(name, []).append(ms)
            t0 = time.perf_counter()
            recs = one_round(i)
            measured += time.perf_counter() - t0
            after = slowdown()
            for rec in recs:
                rec.slow_before, rec.slow_after = slow, after
            slow = after
            empty += not recs
            i += 1
    return walls, steps


def end_to_end_run(w: Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """Fresh inputs for every fit; fits repeat until `seconds` have passed."""
    tally, recs = Tally(), []

    def one_fit(rep):
        rec = fit_and_predict(w, seed, rep, tally)
        if rec is None:
            return []
        recs.append(rec)
        return [rec]

    setup_walls, _ = repeat(w, seed, seconds, one_fit, min_rounds=QUALITY_FITS)
    done = [r for r in recs if r.test_rmse is not None]
    if not done:
        tally.problems.append("no fit completed with checked outputs")
        return finish(w, seed, seconds, 0, tally, {}, END_TO_END, {})
    predicted = [r for r in recs if r.predict_s is not None]
    quality = [r for r in done if r.rep < QUALITY_FITS]
    n_sweeps = w.burn_in + w.post_burn_in

    def timings(scaled: bool) -> dict:
        def fit(r):
            return r.fit_slowdown if scaled else 1.0

        return {
            "setup_s": _median(wall / (slow if scaled else 1.0) for wall, slow in setup_walls),
            "fit_s": _median(r.fit_s / fit(r) for r in recs),
            "sweep_ms_p50": float(np.median(np.concatenate(
                [r.sweeps_ms / fit(r) for r in recs]))),
            "sweep_ms_tail": _median(tail_of(r.sweeps_ms) / fit(r) for r in recs),
            "predict_s": _median(r.predict_s / (r.slow_after if scaled else 1.0)
                                 for r in predicted),
        }

    metrics = {
        **timings(scaled=True),
        "test_rmse": _median(r.test_rmse for r in quality or done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if len(quality) < QUALITY_FITS:
        tally.problems.append(f"only {len(quality)} of the first {QUALITY_FITS} fits "
                              "completed with checked outputs")
    slowdowns = [r.fit_slowdown for r in recs]
    detail = {
        "unscaled": timings(scaled=False),
        "slowdown": {"median": _median(slowdowns), "min": min(slowdowns),
                     "max": max(slowdowns), "kernel_ref_s": KERNEL_REF_S},
        "samples": {"setup_s": len(setup_walls), "fits": len(recs),
                    "checked_fits": len(done), "sweeps": n_sweeps * len(recs)},
        "sweep_ms_tail": {"percentile": 100.0 * (1 - TAIL_BEYOND / n_sweeps),
                          "sweeps_beyond_per_fit": TAIL_BEYOND,
                          "sweeps_per_fit": n_sweeps},
        "fingerprints": {r.rep: r.fingerprint for r in recs},
        "sigma2_ess": {r.rep: r.sigma2_ess for r in done},
    }
    return finish(w, seed, seconds, 0, tally, metrics, END_TO_END, detail)


def traced_run(w: Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """Untraced and traced fits of the same inputs, alternating.

    Per-layer times are medians over the traced fits. Counts come from the
    first traced fit and must repeat exactly in every other one, and every
    fit, traced or not, must produce the same draws.
    """
    from tracer import Tracer

    tally = Tally()
    plain, traced, first = [], [], []

    def one_pair(_):
        made = []
        rec = fit_and_predict(w, seed, 0, tally)
        if rec is not None:
            plain.append(rec)
            made.append(rec)
        fit_tracer, predict_tracer = Tracer(), Tracer()
        rec = fit_and_predict(w, seed, 0, tally, fit_tracer, predict_tracer)
        if rec is not None:
            traced.append((rec, fit_tracer.summary(), fit_tracer.counts,
                           predict_tracer.summary()))
            made.append(rec)
            if not first:
                first.extend((fit_tracer, predict_tracer))
        return made

    _, setup_steps = repeat(w, seed, seconds, one_pair)
    if not traced or not plain:
        tally.problems.append("no traced and untraced fit pair completed")
        return finish(w, seed, seconds, 1, tally, {}, PER_LAYER, {})

    recs = [r for r, _, _, _ in traced]
    fits = [s for _, s, _, _ in traced]
    preds = [s for _, _, _, s in traced]
    counts = traced[0][2]
    zero = {"ms": 0.0, "self_ms": 0.0, "calls": 0}

    def med(summaries, span, f):
        return _median(s.get(span, zero)[f] for s in summaries)

    def run_share(pick):
        return _median(pick(s) / s["sampler.run"]["ms"] for s in fits)

    metrics = {f"{span}.{f}": med(fits, span, f) for span, f in _FIT_SPANS}
    metrics.update({f"{span}.{f}": med(preds, span, f) for span, f in _PREDICT_SPANS})
    metrics.update({name: counts[name] for name in _FIT_COUNTS})
    proposals = metrics["trees.propose_move.calls"]
    invalid = sum(counts[f"trees.invalid.{k}"] for k in _MOVE_KINDS)
    steps = metrics["sampler.mh_tree_step.calls"]
    accepted = sum(counts[f"sampler.moves.{k}.accepted"] for k in _MOVE_KINDS)
    metrics["trees.propose_move.valid_frac"] = 1 - invalid / proposals if proposals else 0.0
    metrics["sampler.accept_frac"] = accepted / steps if steps else 0.0
    metrics["sampler.latent_z.frac"] = run_share(
        lambda s: s.get("sampler.latent_z", zero)["ms"])
    metrics["sampler.sigma2_ess"] = recs[0].sigma2_ess or 0.0
    for layer in _LAYERS:
        metrics[f"layer.{layer}.self_frac"] = run_share(
            lambda s, layer=layer: sum(v["self_ms"] for k, v in s.items()
                                       if k.startswith(layer + ".")))
    metrics.update({step: _median(v) for step, v in setup_steps.items()})
    metrics["tracing.overhead_frac"] = (_median(r.fit_s / r.fit_slowdown for r in recs)
                                        / _median(r.fit_s / r.fit_slowdown for r in plain) - 1)

    fingerprints = {r.fingerprint for r in plain + recs}
    if len(fingerprints) != 1:
        tally.problems.append(f"traced and untraced fits drew differently: {sorted(fingerprints)}")
    for i, (_, s, c, _) in enumerate(traced[1:], start=1):
        if c != counts or any(s[k]["calls"] != v["calls"] for k, v in fits[0].items()):
            tally.problems.append(f"traced fit {i} counts differ from traced fit 0")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{w.name}-seed{seed}"
    first[0].save(f"{stem}.fit-spans.npz")
    first[1].save(f"{stem}.predict-spans.npz")
    detail = {
        "samples": {"untraced_fits": len(plain), "traced_fits": len(traced),
                    "setup": SETUP_REPS},
        "counts": dict(counts),
        "fingerprints": sorted(fingerprints),
        "spans": [f"{stem}.fit-spans.npz", f"{stem}.predict-spans.npz"],
    }
    return finish(w, seed, seconds, 1, tally, metrics, PER_LAYER, detail)


def finish(w: Workload, seed: int, seconds: float, trace: int, tally: Tally,
           metrics: dict, units: dict, detail: dict) -> tuple[dict, dict]:
    """The result line printed last, and the detail written beside it.

    A run in which no fit completed reports no metrics and is not correct.
    """
    missing = [name for name in units if name not in metrics]
    if missing:
        tally.problems.append(f"not measured: {', '.join(missing)}")
    out = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: _metric(metrics[name], unit) for name, unit in units.items()
                    if name in metrics},
    }
    detail = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
              "config": w.__dict__, "problems": tally.problems,
              "environment": environment(), **detail}
    return out, detail


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if Path(lmbart.__file__).resolve().parent != (ROOT / "src" / "lmbart").resolve():
        print(f"lmbart imported from {lmbart.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    run = traced_run if args.trace else end_to_end_run
    out, detail = run(WORKLOADS[args.workload], args.seed, args.seconds)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**out, "detail": detail}, indent=1, default=str))
    for name, m in out["metrics"].items():
        print(f"{name:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"details: {path.relative_to(ROOT)}")
    print(json.dumps(out))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900)
        except subprocess.TimeoutExpired:
            print(f"{name}: no result within 900 s", file=sys.stderr)
            return 1
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= out["correct"]
        combined["attempted"] += out["attempted"]
        combined["failed"] += out["failed"]
        for metric, m in out["metrics"].items():
            print(f"{name:<22} {metric:<36} {m['value']:>14.6g} {m['unit']}")
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))
    return 0


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "lmbart": str(Path(lmbart.__file__).resolve().parent),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_pins": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas": _blas(),
    }
    env.update(_git())
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def _git() -> dict:
    """Commit and dirty flag; a checkout without .git reports neither."""
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, env=env)
    try:
        sha = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": None, "git_dirty": None}
    if sha.returncode != 0:
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha.stdout.strip(), "git_dirty": bool(status.stdout.strip())}
