"""Command-line entry point: simulate | train | predict | benchmark | diagnostics.

Train flags mirror the `Hyperparams` fields and take their defaults from it,
except `tau_b`, `a0`, `b0`, `a1`, `b1` and `dirichlet_mass`, which have no flag
and are set through the Python API or a grid file. Unknown flags are hard
errors. A trained run is one file, `<out>.draws.jsonl`, whose header line
records everything needed to reproduce it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import benchmark as bm
from . import leaves as lv
from . import runs
from . import sampler as sp
from .data import (CLASSIFICATION, REGRESSION, DataError, load_csv, load_features, standardize,
                   write_csv)


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
                      help="optional path for the sigma2 trace CSV "
                           "(whole chain, burn-in included)")
    return parser


def cmd_simulate(args) -> int:
    spec = bm.FriedmanSpec(n=args.n, p=args.p, noise_sd=args.noise_sd, seed=args.seed)
    data = bm.friedman_generate(spec)
    write_csv(args.out, data.feature_names + ["y"],
              np.column_stack([data.features, data.response]))
    print(f"wrote {data.n} rows x {data.p + 1} columns to {args.out}")
    return 0


def cmd_train(args) -> int:
    data = load_csv(args.data, args.target, args.task)
    inputs = ("command", "data", "target", "task", "out")
    hp = sp.Hyperparams.from_dict({k: v for k, v in vars(args).items() if k not in inputs})
    scaled, scaling = standardize(data)
    if args.task == REGRESSION:
        draws = sp.run_regression(scaled, hp, scaling)
    else:
        draws = sp.run_classification(scaled, hp, scaling)
    path = f"{args.out}.draws.jsonl"
    runs.write_run(draws, path, extra={"target_column": args.target,
                                       "inputs": {"data": str(args.data),
                                                  "target": args.target,
                                                  "task": args.task}})
    print(f"wrote {path}")
    return 0


def cmd_predict(args) -> int:
    path = f"{args.run}.draws.jsonl"
    header, records = runs.read_run(path)
    trees = [record.get("trees") for record in records]   # each a list, or each None
    if trees[0] is None:
        print(f"{path}: no stored trees; rerun train with --store-trees", file=sys.stderr)
        return 1
    X = load_features(args.data, header["feature_names"], header.get("target_column"))
    result = sp.replay_trees(trees, header["task"], header["scaling"], X)
    label = "probability" if header["task"] == CLASSIFICATION else "mean"
    write_csv(args.out, [label, "q05", "q95"],
              np.column_stack([result.mean, result.lower, result.upper]))
    print(f"wrote {len(result.mean)} predictions to {args.out}")
    return 0


def cmd_benchmark(args) -> int:
    cfg = bm.load_grid_config(args.grid)
    flags = {"replicates": args.replicates, "master_seed": args.seed, "jobs": args.jobs}
    cfg.update({key: value for key, value in flags.items() if value is not None})
    result = bm.run_benchmark(**cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    return 1 if failures else 0


def cmd_diagnostics(args) -> int:
    header, records = runs.read_run(f"{args.run}.draws.jsonl")
    sigma2 = np.array([r["sigma2"] for r in records])
    terminal = np.array([r["terminal_counts"] for r in records], dtype=float)
    params = np.array([r["param_counts"] for r in records], dtype=float)
    print(f"run: {args.run}")
    print(f"task: {header['task']}; retained draws: {len(records)}")
    if header["task"] == CLASSIFICATION:
        print("sigma2: fixed at 1")
    else:
        # the sample sd needs two draws
        sd = f"  sd: {sigma2.std(ddof=1):.6f}" if sigma2.size > 1 else ""
        print(f"sigma2 post-burn-in mean: {sigma2.mean():.6f}{sd}")
    print("acceptance rates per move kind:")
    for kind, rec in header["acceptance"].items():
        total = sum(rec.values())
        rate = rec["accepted"] / total if total else float("nan")
        print(f"  {kind:<7} accepted {rec['accepted']:>6}  rejected {rec['rejected']:>6}  "
              f"invalid {rec['invalid']:>6}  rate {rate:.3f}")
    print(f"mean terminal nodes per tree: {terminal.mean():.3f}")
    print(f"mean parameters per tree: {params.mean():.3f}")
    if args.out is not None:
        # float, so a whole-number entry prints as 2.0
        write_csv(args.out, ["iteration", "sigma2"],
                  enumerate(np.asarray(header["sigma2_chain"], dtype=float), start=1))
        print(f"wrote sigma2 trace to {args.out}")
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
