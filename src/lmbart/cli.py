"""Command-line entry point: simulate | train | predict | benchmark | diagnostics.

Train flags mirror `Hyperparams` one-to-one and take their defaults from it;
unknown flags are hard errors. Every command is reproducible from the
metadata it writes.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import benchmark as bm
from . import leaves as lv
from . import sampler as sp
from .data import (CLASSIFICATION, REGRESSION, DataError, ScalingInfo, load_csv,
                   load_features, standardize)


def _bool_flag(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lmbart",
                                     description="Bayesian sum-of-trees regression "
                                                 "with constant or linear leaves")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a synthetic benchmark dataset CSV")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--p", type=int, default=5)
    sim.add_argument("--noise-sd", type=float, default=1.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)

    train = sub.add_parser("train", help="fit the model and persist the draws",
                           argument_default=argparse.SUPPRESS)
    train.add_argument("--data", required=True)
    train.add_argument("--target", required=True)
    train.add_argument("--task", choices=(REGRESSION, CLASSIFICATION),
                       default=REGRESSION)
    train.add_argument("--leaf", dest="leaf_model", choices=(lv.CONSTANT, lv.LINEAR))
    train.add_argument("--trees", dest="m", type=int)
    train.add_argument("--burnin", dest="burn_in", type=int)
    train.add_argument("--iters", dest="post_burn_in", type=int,
                       help="post-burn-in iterations")
    train.add_argument("--thin", type=int)
    train.add_argument("--alpha", type=float)
    train.add_argument("--beta-depth", type=float)
    train.add_argument("--nu", type=float)
    train.add_argument("--lambda", dest="lam", type=float)
    train.add_argument("--c", type=float)
    train.add_argument("--covariate-rule", choices=(lv.TREE_SPLITS, lv.ANCESTORS))
    train.add_argument("--branching", choices=(sp.UNIFORM, sp.DIRICHLET))
    train.add_argument("--vars-inter-slope", type=_bool_flag)
    train.add_argument("--nmin", dest="n_min", type=int)
    train.add_argument("--store-trees", action="store_true")
    train.add_argument("--seed", type=int)
    train.add_argument("--out", required=True, help="output path prefix")

    pred = sub.add_parser("predict", help="replay stored trees on new data")
    pred.add_argument("--run", required=True, help="path prefix used by train")
    pred.add_argument("--data", required=True)
    pred.add_argument("--out", required=True)

    bench = sub.add_parser("benchmark", help="run a scenario/algorithm grid")
    bench.add_argument("--grid", required=True, help="grid config JSON")
    bench.add_argument("--out", required=True, help="output directory")
    bench.add_argument("--replicates", type=int, default=None)
    bench.add_argument("--seed", type=int, default=None, help="master seed override")
    bench.add_argument("--jobs", type=int, default=1)

    diag = sub.add_parser("diagnostics", help="summarize a persisted run")
    diag.add_argument("--run", required=True, help="path prefix used by train")
    diag.add_argument("--out", default=None,
                      help="optional copy destination for the sigma2 trace CSV")
    return parser


def cmd_simulate(args) -> int:
    spec = bm.FriedmanSpec(n=args.n, p=args.p, noise_sd=args.noise_sd, seed=args.seed)
    data = bm.friedman_generate(spec)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.feature_names + ["y"])
        for i in range(data.n):
            writer.writerow([repr(float(v)) for v in data.features[i]]
                            + [repr(float(data.response[i]))])
    print(f"wrote {data.n} rows x {data.p + 1} columns to {args.out}")
    return 0


def _run_paths(prefix: str) -> dict[str, Path]:
    prefix = str(prefix)
    return {
        "draws": Path(prefix + ".draws.jsonl"),
        "meta": Path(prefix + ".meta.json"),
        "trace": Path(prefix + ".sigma2.csv"),
    }


def _read_run(prefix: str) -> tuple[dict[str, Path], dict, list[dict]]:
    """Paths, metadata and draw records of a run; a draws file with no records,
    or another count than the metadata's `retained`, raises ValueError."""
    paths = _run_paths(prefix)
    meta = sp.read_metadata(paths["meta"])
    records = sp.read_draws_jsonl(paths["draws"])
    if len(records) != meta["retained"]:
        raise ValueError(f"{paths['draws']}: {len(records)} draws, but {paths['meta']} "
                         f"records {meta['retained']}; the file may be truncated")
    if not records:
        raise ValueError(f"{paths['draws']}: no retained draws")
    return paths, meta, records


def cmd_train(args) -> int:
    data = load_csv(args.data, args.target, args.task)
    inputs = ("command", "data", "target", "task", "out")
    hp = sp.Hyperparams.from_dict({k: v for k, v in vars(args).items() if k not in inputs})
    scaled, scaling = standardize(data)
    if args.task == REGRESSION:
        draws = sp.run_regression(scaled, hp, scaling)
    else:
        draws = sp.run_classification(scaled, hp, scaling)
    paths = _run_paths(args.out)
    sp.write_draws_jsonl(draws, paths["draws"])
    sp.write_metadata(draws, paths["meta"], target_column=args.target,
                      extra={"inputs": {"data": str(args.data),
                                        "target": args.target,
                                        "task": args.task}})
    sp.write_sigma2_trace(draws, paths["trace"])
    print(f"wrote {paths['draws']}, {paths['meta']}, {paths['trace']}")
    return 0


def cmd_predict(args) -> int:
    paths, meta, records = _read_run(args.run)
    if "trees" not in records[0]:
        print(f"{paths['draws']}: no stored trees; rerun train with --store-trees",
              file=sys.stderr)
        return 1
    X = load_features(args.data, meta["feature_names"], meta.get("target_column"))
    result = sp.predict_stored([r["trees"] for r in records], meta["task"],
                               ScalingInfo.from_dict(meta["scaling"]), X)
    is_classification = meta["task"] == CLASSIFICATION
    label = "probability" if is_classification else "mean"
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([label, "q05", "q95"])
        for m, lo, hi in zip(result.mean, result.lower, result.upper):
            writer.writerow([repr(float(m)), repr(float(lo)), repr(float(hi))])
    print(f"wrote {len(result.mean)} predictions to {args.out}")
    return 0


def cmd_benchmark(args) -> int:
    cfg = bm.load_grid_config(args.grid)
    if args.replicates is not None:
        cfg["replicates"] = args.replicates
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = bm.run_benchmark(cfg["scenarios"], cfg["algorithms"],
                              replicates=cfg["replicates"],
                              test_fraction=cfg["test_fraction"],
                              master_seed=cfg["master_seed"], jobs=args.jobs)
    rmse_path = out_dir / "rmse_table.csv"
    param_path = out_dir / "param_counts.csv"
    bm.write_rmse_table(result, rmse_path)
    bm.write_param_table(result, param_path)
    print(bm.format_text_table(result))
    failures = sum(len(c.failures) for c in result.cells.values())
    if failures:
        print(f"{failures} grid cell(s) failed; see tables for coverage",
              file=sys.stderr)
    print(f"wrote {rmse_path} and {param_path}")
    return 0


def cmd_diagnostics(args) -> int:
    paths, meta, records = _read_run(args.run)
    sigma2 = np.array([r["sigma2"] for r in records])
    terminal = np.array([r["terminal_counts"] for r in records], dtype=float)
    params = np.array([r["param_counts"] for r in records], dtype=float)
    print(f"run: {args.run}")
    print(f"task: {meta['task']}; retained draws: {len(records)}")
    if meta["task"] == CLASSIFICATION:
        print("sigma2: fixed at 1")
    else:
        print(f"sigma2 post-burn-in mean: {sigma2.mean():.6f}  sd: {sigma2.std(ddof=1):.6f}")
    print("acceptance rates per move kind:")
    for kind, rec in meta["acceptance"].items():
        total = sum(rec.values())
        rate = rec["accepted"] / total if total else float("nan")
        print(f"  {kind:<7} accepted {rec['accepted']:>6}  rejected {rec['rejected']:>6}  "
              f"invalid {rec['invalid']:>6}  rate {rate:.3f}")
    print(f"mean terminal nodes per tree: {terminal.mean():.3f}")
    print(f"mean parameters per tree: {params.mean():.3f}")
    if args.out is not None:
        Path(args.out).write_bytes(Path(paths["trace"]).read_bytes())
        print(f"copied sigma2 trace to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "train": cmd_train,
        "predict": cmd_predict,
        "benchmark": cmd_benchmark,
        "diagnostics": cmd_diagnostics,
    }
    try:
        return handlers[args.command](args)
    except (DataError, ValueError, OSError, lv.LeafFactorizationError,
            FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
