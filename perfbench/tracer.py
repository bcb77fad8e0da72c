"""Outside-in tracing of bflab.

The tracer wraps public functions and methods of the `bflab` modules by
patching module and class attributes, including every module that
imported a wrapped function by name.  Nothing under `src/` is changed:
`restore()` puts every original back.

Spans form a calling-context tree.  Calls of one name under the same
parent span merge into one span that keeps the first start, the last
end, the call count and the summed duration, so hot kernels called
millions of times cost one record per call path.  A span's self time is
its summed duration minus the summed durations of its child spans.
"""

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np


def _mac(args, kwargs, result):
    rows, inner = np.shape(args[1])
    return {"mac": rows * inner * np.shape(args[2])[1]}


def _cells(args, kwargs, result):
    return {"cells": int(np.size(args[1]))}


def _search(args, kwargs, result):
    vector, record = result
    return {"samples": record["samples"],
            "exhaustive": int(record["exhaustive"]),
            "hits": int(vector is not None)}


@dataclass(frozen=True)
class Target:
    """A traced callable: metric name, module, attribute path in it."""
    name: str
    module: str
    attr: str
    stats: object = None      # (args, kwargs, result) -> {stat: increment}


# Layer groups, in the order the results print.  `moves` names the
# end-to-end metric and workloads each group is expected to move.
LAYERS = [
    {"layer": "kernels",
     "moves": "wall_s on catalog and a5-analyze",
     "targets": [
         Target("linalg.matmul", "bflab.linalg", "matmul", _mac),
         Target("linalg.rref", "bflab.linalg", "rref", _cells),
         Target("radical.charpoly", "bflab.radical", "charpoly"),
         Target("radical.radical_rows", "bflab.radical", "radical_rows"),
         Target("gf.mul", "bflab.gf", "FiniteField.mul"),
         Target("gf.vec_sum", "bflab.gf", "FiniteField.vec_sum"),
         Target("algebra.lmul_matrix", "bflab.algebra",
                "AlgebraContext.lmul_matrix"),
         Target("algebra.subalgebra", "bflab.algebra",
                "AlgebraContext.subalgebra"),
     ]},
    {"layer": "block pipeline",
     "moves": "wall_s on a5-analyze; near zero on the single-block "
              "pipelines of catalog",
     "targets": [
         Target("blocks.analyze_block", "bflab.blocks", "analyze_block"),
         Target("idempotents.block_idempotents", "bflab.idempotents",
                "block_idempotents"),
         Target("idempotents.primitive_decomposition", "bflab.idempotents",
                "primitive_decomposition"),
         Target("points.unit_decomposition", "bflab.points",
                "unit_decomposition"),
         Target("fusion.BrauerPairPoset", "bflab.fusion",
                "BrauerPairPoset.__init__"),
         Target("fusion.defect_groups", "bflab.fusion", "defect_groups"),
         Target("interior.brauer", "bflab.interior", "InteriorAlgebra.brauer"),
         Target("interior.quotient_algebra", "bflab.interior",
                "BrauerQuotient.algebra"),
     ]},
    {"layer": "fusion and shapes",
     "moves": "wall_s on catalog (its 2-groups and SL(2,3) at p = 2)",
     "targets": [
         Target("fusion.fixed_point_presystem", "bflab.fusion",
                "fixed_point_presystem"),
         Target("fusion.block_fusion", "bflab.fusion", "block_fusion"),
         Target("bisets.shape_from_brauer_dims", "bflab.bisets",
                "shape_from_brauer_dims"),
         Target("bisets.characteristic_report", "bflab.bisets",
                "characteristic_report"),
         Target("bisets.explicit_invariant_basis", "bflab.bisets",
                "explicit_invariant_basis"),
         Target("blocks.proved_conditions_report", "bflab.blocks",
                "proved_conditions_report"),
     ]},
    {"layer": "group combinatorics",
     "moves": "wall_s on catalog (its 2-groups at p = 2); "
              "about 1% of a5-analyze",
     "targets": [
         Target("groups.all_subgroups", "bflab.groups", "all_subgroups"),
         Target("groups.injective_maps", "bflab.groups", "injective_maps"),
         Target("groups.TwistedClasses", "bflab.groups",
                "TwistedClasses.__init__"),
     ]},
    {"layer": "equivalence suite",
     "moves": "wall_s on catalog; zero on a5-analyze",
     "targets": [
         Target("conjecture.build_unital_basis", "bflab.conjecture",
                "build_unital_basis"),
         Target("conjecture.has_all_twisted_units", "bflab.conjecture",
                "has_all_twisted_units"),
         Target("conjecture.intrinsic_balance_report", "bflab.conjecture",
                "intrinsic_balance_report"),
         Target("conjecture.ambient_balance_report", "bflab.conjecture",
                "ambient_balance_report"),
         Target("conjecture.twisted_unit_laws_report", "bflab.conjecture",
                "twisted_unit_laws_report"),
         Target("conjecture.unit_in_subspace", "bflab.conjecture",
                "unit_in_subspace", _search),
     ]},
]

# The front end reports derived metrics instead of per-target ones:
# `cli.field_retries` counts calls of `group_algebra_over`, which runs
# only when the field is doubled, and `report.serialize_s` is the self
# time of `make_report` plus `dump_report`.
FRONT_END = [
    Target("cli.group_algebra_over", "bflab.cli", "group_algebra_over"),
    Target("report.make_report", "bflab.report", "make_report"),
    Target("report.dump_report", "bflab.report", "dump_report"),
]

TARGETS = [t for group in LAYERS for t in group["targets"]] + FRONT_END


class Span:
    """One node of the calling-context tree."""

    __slots__ = ("id", "parent", "pipeline", "name", "start", "end",
                 "calls", "total", "children")

    def __init__(self, id, parent, pipeline, name):
        self.id = id
        self.parent = parent
        self.pipeline = pipeline
        self.name = name
        self.start = None
        self.end = None
        self.calls = 0
        self.total = 0.0
        self.children = {}

    def record(self):
        return {"id": self.id, "parent": self.parent,
                "pipeline": self.pipeline, "name": self.name,
                "start": self.start, "end": self.end,
                "calls": self.calls, "total_s": self.total}


class Tracer:
    """Installs wrappers for `TARGETS`, records spans, restores originals.

    Use as a context manager around the calls to trace, and open one
    `pipeline(...)` span around each pipeline.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._root = Span(0, None, None, "root")
        self._stack = [self._root]
        self._patches = []        # (owner, attr, original, owned)
        self._origin = time.perf_counter()

    # -- patching ---------------------------------------------------------

    def install(self):
        for target in TARGETS:
            module = importlib.import_module(target.module)
            *path, attr = target.attr.split(".")
            owner = module
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrapper(target, original)
            self._patch(owner, attr, wrapper)
            if not path:
                for other in _bflab_modules():
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, key, wrapper)
        return self

    def _patch(self, owner, attr, value):
        owned = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), owned))
        setattr(owner, attr, value)

    def restore(self):
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- spans ------------------------------------------------------------

    def _child(self, parent, name):
        span = Span(len(self.spans) + 1, parent.id, parent.pipeline, name)
        parent.children[name] = span
        self.spans.append(span)
        return span

    def _wrapper(self, target, fn):
        name, stats, stack, counts = target.name, target.stats, \
            self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = parent.children.get(name)
            if span is None:
                span = self._child(parent, name)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span.calls += 1
                span.total += t1 - t0
                if span.start is None:
                    span.start = t0
                span.end = t1
            if stats is not None:
                for key, value in stats(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return wrapper

    @contextlib.contextmanager
    def pipeline(self, pipeline_id):
        """One top-level span per (group, prime) pipeline."""
        span = Span(len(self.spans) + 1, self._root.id, pipeline_id,
                    "pipeline")
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            span.calls, span.total = 1, span.end - span.start
            self._stack.pop()

    def records(self):
        """Spans as plain dicts, times in seconds from tracer creation."""
        out = []
        for span in self.spans:
            rec = span.record()
            for k in ("start", "end"):
                if rec[k] is not None:
                    rec[k] -= self._origin
            out.append(rec)
        return out

    def write_jsonl(self, path, header=None):
        with open(path, "w") as fh:
            if header is not None:
                fh.write(json.dumps(header, sort_keys=True) + "\n")
            for rec in self.records():
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)},
                                sort_keys=True) + "\n")


def _bflab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "bflab" or name.startswith("bflab."))]


def self_times(records):
    """Self time and call count per span name.

    `records` are span dicts with `id`, `parent`, `name`, `calls` and
    `total_s`; a span's self time is its `total_s` minus the `total_s`
    of its direct children.
    """
    child_total = defaultdict(float)
    for rec in records:
        child_total[rec["parent"]] += rec["total_s"]
    self_s = defaultdict(float)
    calls = Counter()
    for rec in records:
        self_s[rec["name"]] += rec["total_s"] - child_total[rec["id"]]
        calls[rec["name"]] += rec["calls"]
    return dict(self_s), dict(calls)


def layer_metrics(records, counts):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    self_s, calls = self_times(records)
    out = {}
    for group in LAYERS:
        for t in group["targets"]:
            out[f"{t.name}.calls"] = (calls.get(t.name, 0), "count")
            out[f"{t.name}.self_s"] = (self_s.get(t.name, 0.0), "s")
    for stat in ("linalg.matmul.mac", "linalg.rref.cells",
                 "conjecture.unit_in_subspace.samples",
                 "conjecture.unit_in_subspace.exhaustive"):
        out[stat] = (counts.get(stat, 0), "count")
    searches = calls.get("conjecture.unit_in_subspace", 0)
    hits = counts.get("conjecture.unit_in_subspace.hits", 0)
    out["conjecture.unit_in_subspace.hit_ratio"] = (
        hits / searches if searches else 0.0, "ratio")
    out["cli.field_retries"] = (calls.get("cli.group_algebra_over", 0),
                                "count")
    out["report.serialize_s"] = (self_s.get("report.make_report", 0.0)
                                 + self_s.get("report.dump_report", 0.0), "s")
    return out
