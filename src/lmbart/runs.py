"""The run file, `<out>.draws.jsonl`: `write_run` writes it, `read_run` reads
and checks it, and `predict_stored` checks stored trees by the same rule, then
replays them by `sampler.replay_trees`. The sampler knows nothing of the file.
"""

from __future__ import annotations

import json

import numpy as np

from . import leaves as lv
from . import trees as tr
from .data import (CLASSIFICATION, REGRESSION, ScalingInfo, check_fields, is_finite_real, is_int,
                   one_of)
from .sampler import OUTCOMES, PosteriorDraws, PredictionSummary, replay_trees

# the package version that writes this format; a change of the format bumps both
VERSION = "lmbart 0.2.0"
# the scalar fields of the header and of a draw record, as `check_fields` takes them
_HEADER_FIELDS = {"task": "str", "retained": "int", "target_column": "str | None"}
_DRAW_FIELDS = {"iteration": "int", "sigma2": "float"}
_RANGES = {"task": one_of(REGRESSION, CLASSIFICATION)}
_COUNTS = ("terminal_counts", "param_counts")    # one int per tree
# keys that `read_run` requires: the fields that may not be None, and the keys
# that each have a check of their own
_HEADER_KEYS = ("version", "feature_names", "scaling", "acceptance", "sigma2_chain",
                *(key for key, kind in _HEADER_FIELDS.items() if not kind.endswith("| None")))
_DRAW_KEYS = (*_DRAW_FIELDS, *_COUNTS)


def write_run(draws: PosteriorDraws, path, extra: dict | None = None) -> None:
    """A run as one JSON-lines file.

    The first line is the header: version, task, feature names, resolved
    config and lambda, scaling, acceptance counters, `retained`, the mean
    training fit, the whole sigma^2 chain (burn-in included) and `extra`.
    One line per retained draw follows: sigma2, taus, counts, optional trees.
    """
    header = {
        "version": VERSION,
        "task": draws.task,
        "feature_names": draws.feature_names,
        "config": draws.hyperparams.to_dict(),
        "resolved_lambda": draws.lam,
        "scaling": draws.scaling.to_dict(),
        "acceptance": draws.acceptance,
        "retained": draws.retained,
        "train_yhat_mean": draws.yhat_train.mean(axis=0).tolist(),
        "sigma2_chain": draws.sigma2_chain.tolist(),
        **(extra or {}),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for k in range(draws.retained):
            record = {
                "iteration": int(draws.iterations[k]),
                "sigma2": float(draws.sigma2[k]),
                "terminal_counts": draws.terminal_counts[k].tolist(),
                "param_counts": draws.param_counts[k].tolist(),
            }
            if draws.tau_beta0 is not None:
                record["tau_beta0"] = float(draws.tau_beta0[k])
                record["tau_beta"] = float(draws.tau_beta[k])
            if draws.trees is not None:
                record["trees"] = draws.trees[k]
            fh.write(json.dumps(record) + "\n")


def read_run(path) -> tuple[dict, list[dict]]:
    """(header, draw records) of a `write_run` file, the header's `scaling`
    built as a `ScalingInfo`.

    Raises ValueError naming the file, and the line, draw or tree where there
    is one, when a line is not valid JSON, the file is empty, or
    `_check_header` or `_check_draws` refuses it. The stored trees of a file
    that passes need no further check, so `lmbart predict` replays them unchecked.
    """
    values = []
    try:
        with open(path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, start=1):
                if line.strip():
                    values.append(json.loads(line))
        if not values:
            raise ValueError("empty file, no run header")
        _check_header(values[0])
        _check_draws(values[1:], values[0])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {number} is not valid JSON at column "
                         f"{exc.colno}; the file may be truncated") from None
    except ValueError as exc:       # DataError, from the scaling, is a ValueError
        raise ValueError(f"{path}: {exc}") from None
    return values[0], values[1:]


def _check_header(header) -> None:
    """Refuse a header that is no object, is a draw (a run written with a
    separate metadata file), lacks a key, has another `VERSION` or a value of
    the wrong type; then replace its `scaling` by the built `ScalingInfo`."""
    if not isinstance(header, dict):
        raise ValueError("the header line is not a JSON object")
    if "iteration" in header:
        raise ValueError("no run header (the first line is a draw); runs written with a "
                         "separate metadata file must be trained again")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise ValueError(f"header missing key(s) {', '.join(missing)}")
    if header["version"] != VERSION:
        raise ValueError(f"written by {header['version']!r}, expected {VERSION!r}")
    check_fields({key: header.get(key) for key in _HEADER_FIELDS}, _HEADER_FIELDS, _RANGES)
    names, acceptance = header["feature_names"], header["acceptance"]
    if not (isinstance(names, list) and all(isinstance(name, str) for name in names)
            and len(set(names)) == len(names)):
        raise ValueError(f"feature_names {names!r} is not a list of distinct strings")
    if not (isinstance(acceptance, dict) and sorted(acceptance) == sorted(tr.MOVE_KINDS)
            and all(isinstance(counts, dict) and sorted(counts) == sorted(OUTCOMES)
                    and all(map(is_int, counts.values()))
                    for counts in acceptance.values())):
        raise ValueError(f"acceptance {acceptance!r} does not map each move kind to int "
                         f"{', '.join(OUTCOMES)} counts")
    chain = header["sigma2_chain"]         # the whole chain: left out of the message
    if not (isinstance(chain, list) and all(map(is_finite_real, chain))):
        raise ValueError("sigma2_chain is not a list of finite numbers")
    scaling = ScalingInfo.from_dict(header["scaling"])
    p = len(names)
    if scaling.feature_centers.shape != (p,) or scaling.feature_scales.shape != (p,):
        raise ValueError(f"scaling holds {scaling.feature_centers.size} feature centers and "
                         f"{scaling.feature_scales.size} scales, but the header names "
                         f"{p} features")
    header["scaling"] = scaling


def _check_draws(records: list, header: dict) -> None:
    """Refuse a draw count other than the header's `retained`, or 0; then,
    naming the draw, stored trees that `_stored_draws_problem` refuses, and a
    record that lacks a key or holds a value of the wrong type."""
    if len(records) != header["retained"]:
        raise ValueError(f"{len(records)} draws, but the header records "
                         f"{header['retained']}; the file may be truncated")
    if not records:
        raise ValueError("no retained draws")
    # a record that is not an object holds no list of trees
    problem = _stored_draws_problem([record.get("trees") if isinstance(record, dict) else ()
                                     for record in records], len(header["feature_names"]))
    if problem is not None:
        raise ValueError(problem)
    m = None                 # trees per draw: draw 0's terminal_counts sets it
    for k, record in enumerate(records):
        try:
            missing = [key for key in _DRAW_KEYS if key not in record]
            if missing:
                raise ValueError(f"missing key(s) {', '.join(missing)}")
            check_fields({key: record[key] for key in _DRAW_FIELDS}, _DRAW_FIELDS, {})
            for key in _COUNTS:
                counts = record[key]
                if not (isinstance(counts, list) and counts and all(map(is_int, counts))):
                    raise ValueError(f"{key} is not a non-empty list of ints")
                m = m or len(counts)
                if len(counts) != m:
                    raise ValueError(f"{key} holds {len(counts)} counts, but draw 0's "
                                     f"terminal_counts holds {m}")
        except ValueError as exc:
            raise ValueError(f"draw {k}: {exc}") from None


def _stored_tree_problem(tree_dict, p: int, leaf_model: str, last: int | None) -> str | int:
    """What makes a stored tree record unusable on p features under `leaf_model`,
    else its leaf count; `last` is the previous record's leaf count, None at draw 0.

    A full record's nodes are each a dict whose "kind" is "leaf", with a
    payload that `leaves.stored_leaf_problem` accepts, or "internal", with a
    "left", a "right", a "feature" in [0, p) (a negative one would index from
    the last column) and a finite "threshold" (a NaN one would send every row
    left). A "same" record after draw 0 holds a list of `last` such payloads.
    """
    if isinstance(tree_dict, dict) and tree_dict.get("kind") == "same":
        payloads = tree_dict.get("leaves")
        if last is None:
            return "a 'same' record, but there is no previous draw"
        if not isinstance(payloads, list):
            return "a 'same' record without a list of leaves"
        if len(payloads) != last:
            return (f"a 'same' record of {len(payloads)} leaves, but the tree's record "
                    f"at the previous draw has {last}")
        problems = (lv.stored_leaf_problem(leaf, p, leaf_model) if isinstance(leaf, dict)
                    else f"leaf {leaf!r} is not an object" for leaf in payloads)
        return next((problem for problem in problems if problem is not None), last)
    stack, leaves = [tree_dict], 0
    while stack:
        node = stack.pop()
        if not isinstance(node, dict):
            return f"node {node!r} is not an object"
        kind = node.get("kind")
        if kind == "leaf":
            problem = lv.stored_leaf_problem(node, p, leaf_model)
            if problem is not None:
                return problem
            leaves += 1
        elif kind != "internal":
            return f"unknown node kind {kind!r}"
        elif not is_int(node.get("feature")) or not 0 <= node["feature"] < p:
            return f"split feature {node.get('feature')!r} is not a feature index in [0, {p})"
        elif not is_finite_real(node.get("threshold")):
            return f"split threshold {node.get('threshold')!r} is not a finite number"
        elif "left" not in node or "right" not in node:
            return "split node without a 'left' and a 'right' child"
        else:
            stack += (node["right"], node["left"])
    return leaves


def _stored_draws_problem(draws, p: int) -> str | None:
    """What makes a run's stored draws unusable on p features; None if nothing.

    `draws` holds per draw its list of tree records, or None. Each draw holds a
    list, or every draw None; draw 0's list is not empty and every draw holds
    as many trees as draw 0; every tree, the first included, passes
    `_stored_tree_problem` under the leaf model of the first tree
    (`leaves.stored_leaf_model`). The problem names the draw, and the tree.
    """
    first = kind = leaves = None     # leaves: per tree index, its last record's leaf count
    for k, trees in enumerate(draws):
        if not isinstance(trees, (list, type(None))):
            return f"draw {k} is not an object with a list of trees"
        stored = "no stored trees" if trees is None else f"{len(trees)} stored trees"
        if k == 0:
            if trees == []:
                return "draw 0: an empty list of stored trees"
            first, leaves = stored, [None] * len(trees or ())
        elif stored != first:
            return f"draw {k}: {stored}, but draw 0 has {first}"
        for t, tree_dict in enumerate(trees or ()):
            kind = kind or lv.stored_leaf_model(tree_dict).kind
            leaves[t] = _stored_tree_problem(tree_dict, p, kind, leaves[t])
            if isinstance(leaves[t], str):
                return f"draw {k}, tree {t}: {leaves[t]}"
    return None


def predict_stored(trees: list, task: str, scaling: ScalingInfo,
                   X_new: np.ndarray) -> PredictionSummary:
    """Replay stored trees on new rows as `sampler.replay_trees` does, after
    checking them by `read_run`'s rule, `_stored_draws_problem` on the
    scaling's feature count: a problem raises ValueError in `read_run`'s words.
    """
    problem = (_stored_draws_problem(trees, scaling.feature_centers.size)
               if trees and trees[0] is not None else "no stored draws")
    if problem is not None:
        raise ValueError(problem)
    return replay_trees(trees, task, scaling, X_new)
