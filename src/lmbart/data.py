"""Tabular data: reading and writing CSV tables, validation, scaling, and the type rule.

`read_csv` reads and `write_csv` writes every CSV table the package uses. The
type rule (`is_int`, `is_finite_real`, `check_fields`) checks every number
read from outside: run files, stored trees, grid files, flags and arguments.
All scaling conventions live here: the sampler always sees standardized
features (and, for regression, a response mapped into [-0.5, 0.5]), while
callers get predictions back on the original scale through `ScalingInfo`.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

REGRESSION = "regression"
CLASSIFICATION = "classification"

_TASKS = (REGRESSION, CLASSIFICATION)


class DataError(ValueError):
    """Raised when an input file or dataset violates the data contract."""


def is_int(v) -> bool:
    """Whether `v` is an integer, numpy's included; a bool is not."""
    return type(v) is int or (isinstance(v, numbers.Integral) and not isinstance(v, bool))


def is_finite_real(v) -> bool:
    """Whether `v` is a finite real, numpy's included; a bool is not, nor is
    an int past the float range."""
    try:
        if type(v) is float or type(v) is int:      # skips the slower ABC check
            return math.isfinite(v)
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:         # an int beyond the float range
        return False


# annotation of a checked value -> (accepts a value, what it expects)
_TYPES = {
    "int": (is_int, "an integer"),
    "float": (is_finite_real, "a finite real"),
    "bool": (lambda v: isinstance(v, bool), "a bool"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def at_least(bound):
    """The range `>= bound`, as `check_fields` takes it."""
    return (lambda v: v >= bound), f">= {bound}"


def check_fields(values: dict, annotations: dict, ranges: dict) -> None:
    """Each of the named `values` must hold its type in a dataclass's or a
    function's `annotations`, then lie in its range in `ranges`, else
    ValueError naming it. A None is skipped where its annotation allows it."""
    for name, value in values.items():
        annotation = annotations[name]
        if value is None and annotation.endswith("| None"):
            continue
        accepts, expected = _TYPES[annotation.split(" |")[0]]
        if accepts(value) and name in ranges:
            accepts, expected = ranges[name]
        if not accepts(value):
            raise ValueError(f"{name} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class Dataset:
    """An immutable design matrix plus response.

    Attributes
    ----------
    features : (n, p) float array
    response : (n,) float array; {0, 1} valued for classification
    feature_names : list of p column labels
    task : "regression" or "classification"
    """

    features: np.ndarray
    response: np.ndarray
    feature_names: list[str]
    task: str

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        y = np.asarray(self.response, dtype=float)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "response", y)
        if X.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        n, p = X.shape
        if n < 2 or p < 1:
            raise DataError(f"need n >= 2 and p >= 1, got n={n}, p={p}")
        if y.shape != (n,):
            raise DataError(f"response length {y.shape} does not match n={n}")
        if len(self.feature_names) != p:
            raise DataError("feature_names length does not match p")
        if not np.all(np.isfinite(X)):
            raise DataError("features contain missing or non-finite values")
        if not np.all(np.isfinite(y)):
            raise DataError("response contains missing or non-finite values")
        if self.task not in _TASKS:
            raise DataError(f"unknown task {self.task!r}")
        if self.task == CLASSIFICATION and not np.all(np.isin(y, (0.0, 1.0))):
            bad = y[~np.isin(y, (0.0, 1.0))][0]
            raise DataError(f"response not in {{0,1}}: found {bad!r}")
        X.setflags(write=False)
        y.setflags(write=False)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    def take(self, rows: np.ndarray) -> "Dataset":
        """Row subset as a new Dataset (used by train/test splitting)."""
        return Dataset(self.features[rows], self.response[rows],
                       list(self.feature_names), self.task)


@dataclass(frozen=True)
class ScalingInfo:
    """Invertible record of the standardization applied to a Dataset.

    Features are mapped to (x - center) / scale per column. Constant
    columns get scale 1 and center equal to the constant, so they map to
    zero and invert exactly. The response map (regression only, when
    `response_scaled`) is (y - center) / scale with center the midrange
    and scale the range, so min -> -0.5 and max -> +0.5. Every center and
    scale must be finite and every scale positive, else DataError.
    """

    feature_centers: np.ndarray
    feature_scales: np.ndarray
    response_center: float = 0.0
    response_scale: float = 1.0
    response_scaled: bool = False

    def __post_init__(self):
        c = np.asarray(self.feature_centers, dtype=float)
        s = np.asarray(self.feature_scales, dtype=float)
        object.__setattr__(self, "feature_centers", c)
        object.__setattr__(self, "feature_scales", s)
        for name in ("feature_centers", "feature_scales", "response_center", "response_scale"):
            if not np.isfinite(getattr(self, name)).all():
                raise DataError(f"{name} must be finite, got {getattr(self, name)}")
        if np.any(s <= 0) or self.response_scale <= 0:
            raise DataError("scales must be positive")

    def transform_features(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.feature_centers) / self.feature_scales

    def transform_response(self, y: np.ndarray) -> np.ndarray:
        if not self.response_scaled:
            return np.asarray(y, dtype=float)
        return (np.asarray(y, dtype=float) - self.response_center) / self.response_scale

    def invert_response(self, y: np.ndarray) -> np.ndarray:
        if not self.response_scaled:
            return np.asarray(y, dtype=float)
        return np.asarray(y, dtype=float) * self.response_scale + self.response_center

    def to_dict(self) -> dict:
        return {
            "feature_centers": self.feature_centers.tolist(),
            "feature_scales": self.feature_scales.tolist(),
            "response_center": self.response_center,
            "response_scale": self.response_scale,
            "response_scaled": self.response_scaled,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScalingInfo":
        """Inverse of `to_dict`. A `d` that is not a dict or lacks a key, a center
        or scale that is not a finite real (`is_finite_real`) and a
        `response_scaled` that is not a bool raise DataError naming the key."""
        if not isinstance(d, dict):
            raise DataError(f"scaling {d!r} is not an object")
        missing = [f.name for f in fields(cls) if f.name not in d]
        if missing:
            raise DataError(f"scaling missing key(s) {', '.join(missing)}")
        for key in ("feature_centers", "feature_scales", "response_center", "response_scale"):
            values = d[key] if key.startswith("feature") else [d[key]]
            if not (isinstance(values, list) and all(map(is_finite_real, values))):
                raise DataError(f"{key} must be finite, got {d[key]!r}")
        if not isinstance(d["response_scaled"], bool):
            raise DataError(f"response_scaled must be a bool, got {d['response_scaled']!r}")
        return cls(d["feature_centers"], d["feature_scales"], float(d["response_center"]),
                   float(d["response_scale"]), d["response_scaled"])

    @classmethod
    def identity(cls, p: int) -> "ScalingInfo":
        return cls(np.zeros(p), np.ones(p))


@dataclass(frozen=True)
class SplitDictionary:
    """Per-feature sorted distinct training values, the candidate split points."""

    values: list[np.ndarray] = field(default_factory=list)
    _splittable: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for j, v in enumerate(self.values):
            if v.size == 0:
                raise DataError(f"empty split dictionary for feature {j}")
            if np.any(np.diff(v) <= 0):
                raise DataError(f"split dictionary for feature {j} not strictly increasing")
        mask = np.array([v.size >= 2 for v in self.values], dtype=bool)
        mask.flags.writeable = False
        object.__setattr__(self, "_splittable", mask)   # the dataclass is frozen

    @property
    def p(self) -> int:
        return len(self.values)

    def splittable(self) -> np.ndarray:
        """Boolean mask of features with at least two distinct values.

        A rule on a single-valued feature routes every row one way, so such
        features are never proposed as split covariates. The mask is built
        once, with the dictionary, and is read-only.
        """
        return self._splittable


def parse_cell(path, row: int, column: str, cell: str) -> float:
    """One CSV cell as a finite float; a bad cell raises with its file row and column."""
    where = f"{path}: row {row}, column {column!r}"
    text = cell.strip()
    if text == "":
        raise DataError(f"{where}: empty cell")
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"{where}: non-numeric value {cell!r}") from None
    if not math.isfinite(value):
        raise DataError(f"{where}: non-finite value {cell!r}")
    return value


def read_csv(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Header and data rows of a comma-separated file, each row as (file row, cells).

    The header is row 1. A row whose cells are all blank is skipped; any
    other row must have one cell per header column. A file that cannot be
    opened, is empty, has a blank header or one that names a column twice,
    has a ragged row or has no data rows raises DataError.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        if not any(header):
            raise DataError(f"{path}: row 1 (header) is blank")
        if len(set(header)) < len(header):
            repeated = next(h for i, h in enumerate(header) if h in header[:i])
            raise DataError(f"{path}: row 1 (header) names column {repeated!r} twice")
        records = []
        for row, cells in enumerate(reader, start=2):
            if not any(cell.strip() for cell in cells):
                continue
            if len(cells) != len(header):
                raise DataError(f"{path}: row {row} has {len(cells)} cells, "
                                f"expected {len(header)}")
            records.append((row, cells))
    if not records:
        raise DataError(f"{path}: no data rows")
    return header, records


def write_csv(path, header: list[str], rows) -> None:
    """Write `header`, then `rows`, as a comma-separated utf-8 file, the mirror
    of `read_csv`. Each cell is written by `str`, which for a float or numpy
    float64 is its shortest round-trip form, so `parse_cell` reads it back exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def load_csv(path, target_column: str, task: str) -> Dataset:
    """Load a comma-separated file with a header row into a Dataset.

    The file is read by `read_csv`. Every cell must be a finite number; a
    bad cell is rejected with its file row and column name.
    """
    if task not in _TASKS:
        raise DataError(f"unknown task {task!r}")
    header, records = read_csv(path)
    if target_column not in header:
        raise DataError(f"{path}: target column {target_column!r} not found "
                        f"(columns: {', '.join(header)})")
    target_idx = header.index(target_column)
    feature_names = [h for i, h in enumerate(header) if i != target_idx]
    rows = [[parse_cell(path, row, col, cell) for col, cell in zip(header, cells)]
            for row, cells in records]
    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 data rows, got {len(rows)}")
    data = np.asarray(rows, dtype=float)
    y = data[:, target_idx]
    X = np.delete(data, target_idx, axis=1)
    if task == CLASSIFICATION:
        bad = np.nonzero(~np.isin(y, (0.0, 1.0)))[0]
        if bad.size:
            raise DataError(f"{path}: row {records[bad[0]][0]}, column {target_column!r}: "
                            f"response not in {{0,1}}: {float(y[bad[0]])!r}")
    return Dataset(X, y, feature_names, task)


def load_features(path, feature_names: list[str], target_column: str | None) -> np.ndarray:
    """Feature columns of a file read by `read_csv`, in training order.

    The header less `target_column`, which may be absent and is never
    read, must list `feature_names` in order.
    """
    header, records = read_csv(path)
    present = [h for h in header if h != target_column]
    if present != feature_names:
        for got, expected in zip(present, feature_names):
            if got != expected:
                raise DataError(f"{path}: column {got!r} where training data "
                                f"had {expected!r}")
        raise DataError(f"{path}: expected columns {feature_names}, got {present}")
    columns = [header.index(name) for name in feature_names]
    return np.array([[parse_cell(path, row, name, cells[j])
                      for name, j in zip(feature_names, columns)]
                     for row, cells in records], dtype=float)


def standardize(dataset: Dataset, scale_response: bool = True) -> tuple[Dataset, ScalingInfo]:
    """Standardize features to mean 0 / sample sd 1; optionally map the response.

    Each column is centered on its training mean and divided by its sample
    standard deviation (ddof=1). Constant columns keep scale 1 so the map
    stays invertible. For regression with `scale_response`, the response is
    mapped linearly so its min lands on -0.5 and its max on +0.5.
    """
    X = dataset.features
    centers = X.mean(axis=0)
    scales = X.std(axis=0, ddof=1)
    scales = np.where(scales <= 0, 1.0, scales)     # a constant column keeps scale 1

    y = dataset.response
    if scale_response and dataset.task == REGRESSION:
        lo, hi = float(y.min()), float(y.max())
        center = (lo + hi) / 2.0
        scale = hi - lo if hi > lo else 1.0
        info = ScalingInfo(centers, scales, center, scale, response_scaled=True)
    else:
        info = ScalingInfo(centers, scales)

    scaled = Dataset(info.transform_features(X), info.transform_response(y),
                     list(dataset.feature_names), dataset.task)
    return scaled, info


def split_dictionary(dataset: Dataset) -> SplitDictionary:
    """Collect the sorted distinct values of every (standardized) feature column."""
    return SplitDictionary([np.unique(dataset.features[:, j]) for j in range(dataset.p)])


def split_sizes(n: int, test_fraction: float) -> tuple[int, int]:
    """(train, test) row counts of `train_test_split`: round(n * test_fraction)
    test rows, at least 1 and at most n - 1."""
    n_test = min(max(int(math.floor(n * test_fraction + 0.5)), 1), n - 1)
    return n - n_test, n_test


def train_test_split(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic disjoint row partition of `split_sizes`."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    n_test = split_sizes(dataset.n, test_fraction)[1]
    order = np.random.default_rng(seed).permutation(dataset.n)
    test_rows = np.sort(order[:n_test])
    train_rows = np.sort(order[n_test:])
    return dataset.take(train_rows), dataset.take(test_rows)
