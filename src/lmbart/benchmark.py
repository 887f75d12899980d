"""Synthetic benchmark harness: data generation, RMSE protocol, accounting.

The generator draws the classic five-covariate nonlinear test surface
(sinusoidal interaction + quadratic + two linear terms) with i.i.d. uniform
covariates and Gaussian noise; extra covariates beyond the first five are
generated but never enter the signal. The harness repeats train/test splits
over a scenario grid, fits each configured engine, scores held-out RMSE on
the original scale, and tallies how many leaf parameters each run spent.
"""

from __future__ import annotations

import json
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import (REGRESSION, Dataset, at_least, check_fields, standardize, train_test_split,
                   write_csv)
from .sampler import Hyperparams, PosteriorDraws, predict, run_regression

# `FriedmanSpec` field, or `run_benchmark` setting -> (accepts a value of its type, its range)
_SPEC_RANGES = {"n": at_least(2), "noise_sd": at_least(0), "seed": at_least(0),
                "p": (lambda v: v >= 5, ">= 5 (first five covariates drive the signal)")}
_SETTING_RANGES = {"replicates": at_least(1), "test_fraction": (lambda v: 0 < v < 1, "in (0, 1)"),
                   "master_seed": at_least(0), "jobs": at_least(1)}
_GRID_SETTINGS = ("replicates", "test_fraction", "master_seed")   # those a grid file may hold


@dataclass(frozen=True)
class FriedmanSpec:
    """Size, noise level, and seed of one synthetic scenario; `check_fields`
    refuses a field of the wrong type or out of its range (`_SPEC_RANGES`)."""

    n: int
    p: int = 5
    noise_sd: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_fields(vars(self), FriedmanSpec.__annotations__, _SPEC_RANGES)

    @property
    def label(self) -> str:
        return f"n={self.n},p={self.p}"


def friedman_signal(X: np.ndarray) -> np.ndarray:
    """Noise-free response surface of the benchmark generator."""
    return (10.0 * np.sin(np.pi * X[:, 0] * X[:, 1])
            + 20.0 * (X[:, 2] - 0.5) ** 2
            + 10.0 * X[:, 3] + 5.0 * X[:, 4])


def friedman_generate(spec: FriedmanSpec) -> Dataset:
    """Draw one dataset: covariates U(0,1), response = signal + N(0, noise_sd^2)."""
    rng = np.random.default_rng(spec.seed)
    X = rng.uniform(0.0, 1.0, size=(spec.n, spec.p))
    y = friedman_signal(X) + spec.noise_sd * rng.standard_normal(spec.n)
    names = [f"x{j + 1}" for j in range(spec.p)]
    return Dataset(X, y, names, REGRESSION)


def rmse(predicted: np.ndarray, observed: np.ndarray) -> float:
    predicted = np.asarray(predicted, dtype=float)
    observed = np.asarray(observed, dtype=float)
    if predicted.shape != observed.shape or predicted.ndim != 1 or predicted.size == 0:
        raise ValueError(f"length mismatch: {predicted.shape} vs {observed.shape}")
    return float(np.sqrt(np.mean((predicted - observed) ** 2)))


@dataclass
class ParamAccounting:
    """Parameter spend of one run: leaf parameters summed over trees and iterations."""

    total: int
    mean_params_per_tree: float
    mean_terminal_per_tree: float


def parameter_accounting(draws: PosteriorDraws) -> ParamAccounting:
    """Sum leaf parameters over trees and retained iterations.

    The per-tree means divide the run total by iterations x trees, so the
    identity total == mean_params_per_tree * K * m holds exactly.
    """
    k, m = draws.param_counts.shape
    total = int(draws.param_counts.sum())
    return ParamAccounting(
        total=total,
        mean_params_per_tree=total / (k * m),
        mean_terminal_per_tree=float(draws.terminal_counts.sum()) / (k * m),
    )


@dataclass(frozen=True)
class EngineConfig:
    name: str
    hyperparams: Hyperparams


@dataclass
class CellResult:
    """One (scenario, algorithm) cell of the grid."""

    scenario: str
    algorithm: str
    rmses: list[float] = field(default_factory=list)
    totals: list[int] = field(default_factory=list)
    params_per_tree: list[float] = field(default_factory=list)
    terminal_per_tree: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def median(self) -> float:
        return float(np.median(self.rmses))

    @property
    def quartiles(self) -> tuple[float, float]:
        return (float(np.quantile(self.rmses, 0.25)),
                float(np.quantile(self.rmses, 0.75)))

    def formatted(self) -> str:
        q1, q3 = self.quartiles
        return f"{self.median:.2f} ({q1:.2f};{q3:.2f})"


@dataclass
class BenchmarkResult:
    cells: dict = field(default_factory=dict)    # (scenario, algorithm) -> CellResult

    def cell(self, scenario: str, algorithm: str) -> CellResult:
        key = (scenario, algorithm)
        if key not in self.cells:
            self.cells[key] = CellResult(scenario, algorithm)
        return self.cells[key]


def _replicate_seed(master_seed: int, scenario_idx: int, replicate: int) -> int:
    seq = np.random.SeedSequence([master_seed, scenario_idx, replicate])
    return int(seq.generate_state(1)[0])


def _run_cell(spec: FriedmanSpec, config: EngineConfig, test_fraction: float,
              split_seed: int) -> tuple[float, ParamAccounting]:
    """Fit one engine on one fresh split; returns original-scale test RMSE."""
    data = friedman_generate(spec)
    train, test = train_test_split(data, test_fraction, split_seed)
    train_std, scaling = standardize(train)
    hp = Hyperparams(**{**config.hyperparams.to_dict(),
                        "seed": split_seed, "store_trees": True})
    draws = run_regression(train_std, hp, scaling)
    preds = predict(draws, test.features).mean
    return rmse(preds, test.response), parameter_accounting(draws)


def _cell_job(args):
    spec, config, test_fraction, seed = args
    try:
        cell_rmse, accounting = _run_cell(spec, config, test_fraction, seed)
        return (spec.label, config.name, cell_rmse, accounting, None)
    except Exception:
        return (spec.label, config.name, None, None, traceback.format_exc())


def run_benchmark(scenarios: list[FriedmanSpec], algorithms: list[EngineConfig],
                  replicates: int = 10, test_fraction: float = 0.2,
                  master_seed: int = 0, jobs: int = 1) -> BenchmarkResult:
    """Fit every algorithm on `replicates` fresh splits of every scenario.

    Deterministic given the master seed. Per-cell failures are recorded and
    the rest of the grid keeps running. A setting of the wrong type or out of
    its range (`_SETTING_RANGES`), and two scenarios with one label or two
    algorithms with one name (which would pool their fits in one cell), raise
    ValueError before any fit.
    """
    check_fields({"replicates": replicates, "test_fraction": test_fraction,
                  "master_seed": master_seed, "jobs": jobs},
                 run_benchmark.__annotations__, _SETTING_RANGES)
    for kind, key, names in (("scenarios", "label", [s.label for s in scenarios]),
                             ("algorithms", "name", [a.name for a in algorithms])):
        repeated = [x for i, x in enumerate(names) if x in names[:i]]
        if repeated:
            raise ValueError(f"two {kind} share the {key} {repeated[0]!r}")
    tasks = []
    for s_idx, spec in enumerate(scenarios):
        for rep in range(replicates):
            seed = _replicate_seed(master_seed, s_idx, rep)
            for config in algorithms:
                tasks.append((spec, config, test_fraction, seed))

    result = BenchmarkResult()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_cell_job, tasks))
    else:
        outcomes = [_cell_job(t) for t in tasks]

    for scenario, algorithm, cell_rmse, accounting, failure in outcomes:
        cell = result.cell(scenario, algorithm)
        if failure is not None:
            cell.failures.append(failure)
            continue
        cell.rmses.append(cell_rmse)
        cell.totals.append(accounting.total)
        cell.params_per_tree.append(accounting.mean_params_per_tree)
        cell.terminal_per_tree.append(accounting.mean_terminal_per_tree)
    return result


def write_rmse_table(result: BenchmarkResult, path) -> None:
    rows = []
    for (scenario, algorithm), cell in sorted(result.cells.items()):
        if cell.rmses:
            q1, q3 = cell.quartiles
            rows.append([scenario, algorithm, f"{cell.median:.6f}", f"{q1:.6f}",
                         f"{q3:.6f}", len(cell.rmses), len(cell.failures)])
        else:
            rows.append([scenario, algorithm, "", "", "", 0, len(cell.failures)])
    write_csv(path, ["scenario", "algorithm", "median_rmse", "q1", "q3", "replicates",
                     "failures"], rows)


def write_param_table(result: BenchmarkResult, path) -> None:
    rows = []
    for (scenario, algorithm), cell in sorted(result.cells.items()):
        if not cell.totals:
            rows.append([scenario, algorithm, "", "", "", ""])
            continue
        totals = np.asarray(cell.totals, dtype=float)
        std = totals.std(ddof=1) if totals.size > 1 else 0.0
        rows.append([scenario, algorithm, f"{totals.mean():.1f}", f"{std:.1f}",
                     f"{np.mean(cell.params_per_tree):.3f}",
                     f"{np.mean(cell.terminal_per_tree):.3f}"])
    write_csv(path, ["scenario", "algorithm", "mean_total_params", "std_total_params",
                     "mean_params_per_tree", "mean_terminal_per_tree"], rows)


def format_text_table(result: BenchmarkResult) -> str:
    """Aligned median (q1;q3) table for side-by-side reading."""
    rows = [("scenario", "algorithm", "rmse median (q1;q3)")]
    for (scenario, algorithm), cell in sorted(result.cells.items()):
        body = cell.formatted() if cell.rmses else "failed"
        rows.append((scenario, algorithm, body))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = ["  ".join(r[i].ljust(widths[i]) for i in range(3)) for r in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _require(entry: dict, key: str, path):
    """`entry[key]`; a missing key raises ValueError naming the grid file."""
    if key not in entry:
        raise ValueError(f"{path}: missing key {key!r}")
    return entry[key]


def _entries(cfg: dict, key: str, path) -> list[dict]:
    """`cfg[key]`, which must be a non-empty list of objects; else ValueError
    naming the grid file and the entry."""
    entries = _require(cfg, key, path)
    if not (isinstance(entries, list) and entries):
        raise ValueError(f"{path}: {key!r} must be a non-empty list, got {entries!r}")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: {key[:-1]} {i} must be an object, got {entry!r}")
    return entries


def _refuse_unknown(entry: dict, known, where: str) -> None:
    """ValueError, after the prefix `where`, naming each key of `entry` not in `known`."""
    unknown = [k for k in entry if k not in known]
    if unknown:
        raise ValueError(f"{where}unknown key(s) {', '.join(unknown)}")


def load_grid_config(path) -> dict:
    """Parse a declarative benchmark grid file (JSON) into `run_benchmark`'s
    keyword arguments: `scenarios`, `algorithms` and the `_GRID_SETTINGS` the
    grid holds (the others keep `run_benchmark`'s defaults).

    Invalid JSON, a grid that is not an object, a missing required key, an
    unknown key, `scenarios` or `algorithms` that is not a non-empty list of
    objects, or an algorithm `name` that is not a non-empty string raises
    ValueError naming the file and the entry. So does a value that
    `FriedmanSpec`, `Hyperparams.from_dict` or `run_benchmark` refuses, after
    the file and the scenario's index or the algorithm's name.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: the grid must be an object, got {cfg!r}")
    _refuse_unknown(cfg, ("scenarios", "algorithms", *_GRID_SETTINGS), f"{path}: ")
    scenarios = []
    for i, s in enumerate(_entries(cfg, "scenarios", path)):
        _refuse_unknown(s, FriedmanSpec.__annotations__, f"{path}: scenario {i}: ")
        _require(s, "n", path)
        try:
            scenarios.append(FriedmanSpec(**{"seed": i, **s}))
        except ValueError as exc:
            raise ValueError(f"{path}: scenario {i}: {exc}") from None
    algorithms = []
    for i, a in enumerate(_entries(cfg, "algorithms", path)):
        name = _require(a, "name", path)
        if not (isinstance(name, str) and name):
            raise ValueError(f"{path}: algorithm {i}: 'name' must be a non-empty string, "
                             f"got {name!r}")
        try:
            algorithms.append(EngineConfig(name, Hyperparams.from_dict(
                {k: v for k, v in a.items() if k != "name"})))
        except ValueError as exc:
            raise ValueError(f"{path}: algorithm {name!r}: {exc}") from None
    settings = {key: cfg[key] for key in _GRID_SETTINGS if key in cfg}
    try:
        check_fields(settings, run_benchmark.__annotations__, _SETTING_RANGES)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return {"scenarios": scenarios, "algorithms": algorithms, **settings}
