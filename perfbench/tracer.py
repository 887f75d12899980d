"""In-memory span tracer that wraps lmbart's layer functions from outside.

A wrapped function records one span per call: a name, its start and end on
`time.perf_counter`, and the span that was open when it was called. The
wrapper is installed on the attribute the calling code looks up at run time
(`lmbart.trees.partition`, not `lmbart.partition`; `Tree.leaf_rows` on the
class), so the package is not modified and leaving the `Tracer` context
restores every original attribute. The wrappers never touch a random
generator, so a traced chain draws exactly what an untraced chain draws.

Spans are stored in flat arrays (about 24 bytes each) and written out only
when asked, after the measured work is done.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from lmbart import leaves, sampler, trees

# MoveProposal.reason -> short metric suffix.
INVALID_REASONS = {
    "no splittable feature": "no_feature",
    "child below minimum node size": "below_n_min",
    "terminal below minimum node size": "below_n_min",
    "no prunable node": "no_target",
    "no internal node with two terminal children": "no_target",
    "fewer than two internal nodes": "no_target",
}


def _count_routed_rows(counts, args, result):
    counts["trees.leaf_rows.rows"] += len(args[1])


def _count_proposal(counts, args, proposal):
    if not proposal.valid:
        counts[f"trees.invalid.{proposal.kind}"] += 1
        reason = INVALID_REASONS.get(proposal.reason, proposal.reason)
        counts[f"trees.invalid.{proposal.kind}.{reason}"] += 1


def _count_design_rows(counts, args, result):
    counts["leaves.build_leaf_design.rows"] += len(args[0])


def _count_leaves(key, from_result):
    def count(counts, args, result):
        counts[key] += len(result if from_result else args[0])
    return count


def _count_tree_step(counts, args, result):
    kind, outcome = result
    counts[f"sampler.moves.{kind}.{outcome}"] += 1


def layer_wraps():
    """(owner, attribute, span name, counter) for every traced lmbart function.

    The counter, when given, is called as counter(counts, args, result)
    after the wrapped call returns.
    """
    return [
        (trees.Tree, "leaf_rows", "trees.leaf_rows", _count_routed_rows),
        (trees.Tree, "from_dict", "trees.from_dict", None),
        (trees, "partition", "trees.partition", None),
        (trees, "propose_move", "trees.propose_move", _count_proposal),
        (trees, "log_tree_prior", "trees.log_tree_prior", None),
        (leaves, "constant_leaf_stats", "leaves.stats",
         _count_leaves("leaves.stats.leaves", True)),
        (leaves, "linear_leaf_stats", "leaves.stats",
         _count_leaves("leaves.stats.leaves", True)),
        (leaves, "build_leaf_design", "leaves.build_leaf_design", _count_design_rows),
        (leaves, "bart_log_marginal", "leaves.log_marginal",
         _count_leaves("leaves.log_marginal.leaves", False)),
        (leaves, "linear_log_marginal", "leaves.log_marginal",
         _count_leaves("leaves.log_marginal.leaves", False)),
        (leaves, "bart_sample_mu", "leaves.sample",
         _count_leaves("leaves.sample.leaves", True)),
        (leaves, "linear_sample_beta", "leaves.sample",
         _count_leaves("leaves.sample.leaves", True)),
        (leaves, "cholesky", "leaves.cholesky", None),
        (leaves, "leaf_covariate_sets", "leaves.covariate_sets", None),
        (leaves, "leaf_parameter_count", "leaves.parameter_count", None),
        (sampler, "mh_tree_step", "sampler.mh_tree_step", _count_tree_step),
        (sampler, "sample_latent_z", "sampler.latent_z", None),
        (sampler, "sample_sigma2", "sampler.globals", None),
        (sampler, "sample_tau_intercept", "sampler.globals", None),
        (sampler, "sample_tau_slopes", "sampler.globals", None),
        (sampler, "dirichlet_update_splitprobs", "sampler.globals", None),
        (sampler, "_split_usage_counts", "sampler.globals", None),
        (sampler, "_gather_coefficients", "sampler.globals", None),
        (sampler, "eval_tree_dict", "sampler.eval_tree_dict", None),
        (sampler, "_serialize_tree", "sampler.serialize_tree", None),
    ]


class Tracer:
    """Records spans of wrapped calls while used as a context manager.

    Entering raises AttributeError if a traced attribute is missing from the
    package (renamed or removed by a later change), so a traced fit fails
    instead of reporting zero for the spans it could not see.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._open = [-1]
        self._patches = []

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name, count in layer_wraps():
                self._wrap(owner, attr, name, count)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, owner, attr, name, count) -> None:
        raw = vars(owner).get(attr)
        if raw is None:
            raise AttributeError(f"{owner.__name__} has no attribute {attr!r} to trace")
        is_classmethod = isinstance(raw, classmethod)
        wrapper = self._wrapper(raw.__func__ if is_classmethod else raw,
                                self._id(name), count)
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def _restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _wrapper(self, fn, nid: int, count):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        open_spans, counts, clock = self._open, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(open_spans[-1])
            end.append(0.0)
            open_spans.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_spans.pop()
            if count is not None:
                count(counts, args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self._open.pop()

    def _arrays(self):
        return (np.array(self.name_id, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=float), np.array(self.end, dtype=float))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: total ms, self ms and calls.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        nid, parent, start, end = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        out = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            out[name] = {"ms": 1e3 * float(dur[sel].sum()),
                         "self_ms": 1e3 * float(own[sel].sum()),
                         "calls": int(sel.sum())}
        return out

    def save(self, path) -> None:
        nid, parent, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=nid,
                            parent=parent, start=start, end=end)
