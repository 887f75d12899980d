"""Synthetic benchmark harness: data generation, RMSE protocol, accounting.

The generator draws the classic five-covariate nonlinear test surface
(sinusoidal interaction + quadratic + two linear terms) with i.i.d. uniform
covariates and Gaussian noise; extra covariates beyond the first five are
generated but never enter the signal. The harness repeats train/test splits
over a scenario grid, fits each configured engine, scores held-out RMSE on
the original scale, and tallies how many leaf parameters each run spent.
"""

from __future__ import annotations

import csv
import json
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import REGRESSION, Dataset, standardize, train_test_split
from .sampler import Hyperparams, PosteriorDraws, predict, run_regression


@dataclass(frozen=True)
class FriedmanSpec:
    """Size, noise level, and seed of one synthetic scenario."""

    n: int
    p: int = 5
    noise_sd: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.p < 5:
            raise ValueError(f"p must be >= 5 (first five covariates drive the "
                             f"signal), got {self.p}")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be >= 0")

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
    mean_per_iteration: float
    std_per_iteration: float
    mean_params_per_tree: float
    mean_terminal_per_tree: float


def parameter_accounting(draws: PosteriorDraws) -> ParamAccounting:
    """Sum leaf parameters over trees and retained iterations.

    The per-tree means divide the run total by iterations x trees, so the
    identity total == mean_params_per_tree * K * m holds exactly.
    """
    per_iter = draws.param_counts.sum(axis=1)
    k, m = draws.param_counts.shape
    return ParamAccounting(
        total=int(per_iter.sum()),
        mean_per_iteration=float(per_iter.mean()),
        std_per_iteration=float(per_iter.std(ddof=1)) if k > 1 else 0.0,
        mean_params_per_tree=float(per_iter.sum()) / (k * m),
        mean_terminal_per_tree=float(draws.terminal_counts.sum()) / (k * m),
    )


def recount_parameters(draws: PosteriorDraws) -> np.ndarray:
    """Recompute per-iteration per-tree parameter counts from stored trees.

    Each serialized linear leaf carries its own coefficient vector, so the
    count is the summed beta lengths; constant leaves count one parameter
    each. Used to check the accounting identity on tree-storing runs.
    """
    if draws.trees is None:
        raise ValueError("run was not tree-storing")

    def count(tree_dict) -> int:
        if tree_dict["kind"] == "leaf":
            return len(tree_dict["beta"]) if "beta" in tree_dict else 1
        return count(tree_dict["left"]) + count(tree_dict["right"])

    return np.array([[count(d) for d in tree_dicts] for tree_dicts in draws.trees],
                    dtype=int)


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
    spec, config, test_fraction, seed, scenario_idx, replicate = args
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
    the rest of the grid keeps running.
    """
    tasks = []
    for s_idx, spec in enumerate(scenarios):
        for rep in range(replicates):
            seed = _replicate_seed(master_seed, s_idx, rep)
            for config in algorithms:
                tasks.append((spec, config, test_fraction, seed, s_idx, rep))

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


def ingest_external_predictions(path, test_set: Dataset) -> tuple[str, float]:
    """Score a prediction file produced elsewhere against the test response.

    The file holds one numeric prediction per test row, in row order; a
    single header line is tolerated. Returns (label from the file stem, RMSE).
    """
    path = Path(path)
    values = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            text = line.strip().split(",")[0]
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                if not values:   # header line
                    continue
                raise ValueError(f"{path}: non-numeric prediction {text!r}") from None
    preds = np.asarray(values)
    if preds.size != test_set.n:
        raise ValueError(f"{path}: {preds.size} predictions for {test_set.n} test rows")
    return path.stem, rmse(preds, test_set.response)


def write_rmse_table(result: BenchmarkResult, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "algorithm", "median_rmse", "q1", "q3",
                         "replicates", "failures"])
        for (scenario, algorithm), cell in sorted(result.cells.items()):
            if cell.rmses:
                q1, q3 = cell.quartiles
                writer.writerow([scenario, algorithm, f"{cell.median:.6f}",
                                 f"{q1:.6f}", f"{q3:.6f}", len(cell.rmses),
                                 len(cell.failures)])
            else:
                writer.writerow([scenario, algorithm, "", "", "", 0,
                                 len(cell.failures)])


def write_param_table(result: BenchmarkResult, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "algorithm", "mean_total_params",
                         "std_total_params", "mean_params_per_tree",
                         "mean_terminal_per_tree"])
        for (scenario, algorithm), cell in sorted(result.cells.items()):
            if not cell.totals:
                writer.writerow([scenario, algorithm, "", "", "", ""])
                continue
            totals = np.asarray(cell.totals, dtype=float)
            std = totals.std(ddof=1) if totals.size > 1 else 0.0
            writer.writerow([
                scenario, algorithm, f"{totals.mean():.1f}", f"{std:.1f}",
                f"{np.mean(cell.params_per_tree):.3f}",
                f"{np.mean(cell.terminal_per_tree):.3f}",
            ])


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


def load_grid_config(path) -> dict:
    """Parse a declarative benchmark grid file (JSON)."""
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    scenarios = [FriedmanSpec(n=int(s["n"]), p=int(s.get("p", 5)),
                              noise_sd=float(s.get("noise_sd", 1.0)),
                              seed=int(s.get("seed", i)))
                 for i, s in enumerate(cfg["scenarios"])]
    algorithms = [EngineConfig(a["name"], Hyperparams.from_dict(
                      {k: v for k, v in a.items() if k != "name"}))
                  for a in cfg["algorithms"]]
    return {
        "scenarios": scenarios,
        "algorithms": algorithms,
        "replicates": int(cfg.get("replicates", 10)),
        "test_fraction": float(cfg.get("test_fraction", 0.2)),
        "master_seed": int(cfg.get("master_seed", 0)),
    }
