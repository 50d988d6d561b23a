"""Outside-in layer trace: wraps the program's layer boundaries from the
benchmark's own files and turns the recorded spans into per-layer metrics.

Nothing in the program changes.  ``install`` replaces each boundary
function or method with a wrapper that appends a span ``(name, start, end,
parent, counts)`` to an in-memory list; module-level functions are
replaced under every name any ``xxzquench`` module binds them to, so
``from .model import neel_state``-style imports are covered too.
``functools.lru_cache`` counters are read after the run.

A boundary that is gone, a counter that no longer fits its call and a
cache that is gone are recorded in ``Tracer.problems``; their metrics
would otherwise read 0, as for a layer the workload never enters, so the
benchmark refuses a traced run that has any.
"""

from __future__ import annotations

import functools
import json
import operator
import sys
import time

import numpy as np


def _points(args, kwargs):
    return {"points": int(np.size(args[1] if len(args) > 1 else kwargs["ts"]))}


def _ff_counts(args, kwargs):
    # end_spin_series(realization, ts, initial="mixture"): per Neel
    # component two end rows, each a (T x n) by (n x n) complex-by-real
    # product of 4 flops per multiply-add; computed, not counted.
    realization = args[0] if args else kwargs["realization"]
    ts = args[1] if len(args) > 1 else kwargs["ts"]
    initial = args[2] if len(args) > 2 else kwargs.get("initial", "mixture")
    points = int(np.size(ts))
    components = 2 if initial == "mixture" else 1
    return {"points": points, "flop": components * 2 * 4 * points * realization.n ** 2}


def _dim(args, kwargs, result):
    return {"dim_sum": result.basis.dim, "dim_max": result.basis.dim}


def _rounds(args, kwargs, result):
    return {"rounds": result.iterations}


# (module, attribute path, span name, counts from arguments, counts from result)
BOUNDARIES = (
    ("cli", "main", "cli.main", None, None),
    ("model", "realize_couplings", "model.realize_couplings", None, None),
    ("freefermion", "end_spin_series", "freefermion.end_spin_series", _ff_counts, None),
    ("exactdiag", "build_sector_hamiltonian", "exactdiag.build_sector_hamiltonian", None, _dim),
    ("exactdiag", "ground_mixture", "exactdiag.ground_mixture", None, None),
    ("exactdiag", "QuenchEvolution.__init__", "exactdiag.QuenchEvolution.init", None, None),
    ("exactdiag", "QuenchEvolution.end_spin_series", "exactdiag.end_spin_series", _points, None),
    ("entangle", "find_tmax", "entangle.find_tmax", None, None),
    ("entangle", "CurveEvaluator.__init__", "entangle.CurveEvaluator.init", None, None),
    ("entangle", "CurveEvaluator.fef_series", "entangle.fef_series", _points, None),
    ("entangle", "golden_section_max", "entangle.golden_section_max", None, None),
    ("entangle", "first_peak_index", "entangle.first_peak_index", None, None),
    ("purify", "purify_until", "purify.purify_until", None, _rounds),
)

# Spans whose whole subtree counts as their own time in the layer table: a
# refinement's one-point evaluations cost call overhead, not kernel time.
COLLAPSED = frozenset({"entangle.golden_section_max"})

# Per-layer metrics and their units; layer_metrics fills in every one.
UNITS = {
    "model.realize_couplings.calls": "count",
    "model.realize_couplings.busy_s": "s",
    "freefermion.end_spin_series.calls": "count",
    "freefermion.end_spin_series.points": "count",
    "freefermion.end_spin_series.busy_s": "s",
    "freefermion.end_rows.gflop": "GFLOP",
    "freefermion.end_rows.gflop_per_s": "GFLOP/s",
    "freefermion.chain.builds": "count",
    "freefermion.chain.hit_ratio": "ratio",
    "exactdiag.build_sector_hamiltonian.calls": "count",
    "exactdiag.build_sector_hamiltonian.busy_s": "s",
    "exactdiag.build_sector_hamiltonian.dim_sum": "count",
    "exactdiag.ground_mixture.busy_s": "s",
    "exactdiag.QuenchEvolution.init.self_s": "s",
    "exactdiag.sector_dim_max": "count",
    "exactdiag.end_spin_series.points": "count",
    "exactdiag.end_spin_series.busy_s": "s",
    "exactdiag.end_spin_series.s_per_point": "s",
    "exactdiag.evolver_cache.currsize": "count",
    "exactdiag.sector_basis.hit_ratio": "ratio",
    "entangle.find_tmax.calls": "count",
    "entangle.find_tmax.busy_s": "s",
    "entangle.CurveEvaluator.init.calls": "count",
    "entangle.CurveEvaluator.init.busy_s": "s",
    "entangle.fef_series.calls": "count",
    "entangle.fef_series.points": "count",
    "entangle.fef_series.busy_s": "s",
    "entangle.golden_section_max.calls": "count",
    "entangle.golden_section_max.evals": "count",
    "entangle.golden_section_max.busy_s": "s",
    "entangle.first_peak_index.busy_s": "s",
    "purify.purify_until.calls": "count",
    "purify.purify_until.rounds": "count",
    "purify.purify_until.busy_s": "s",
    "cli.main.busy_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_s": "s",
    "host.calib_s": "s",
}


class Tracer:
    """Spans of one process, kept in memory until ``write``."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.problems: list[str] = []

    def _safe(self, name, counter, *args):
        """Counts for one span; a counter that no longer fits the boundary's
        signature is recorded once as a problem rather than failing the
        program's call."""
        if counter is None:
            return None
        try:
            return counter(*args)
        except (AttributeError, IndexError, KeyError, TypeError) as exc:
            problem = f"counter of {name} failed: {exc!r}"
            if problem not in self.problems:
                self.problems.append(problem)
            return None

    def _wrap(self, fn, name, arg_counts, result_counts):
        spans, stack, safe = self.spans, self._stack, self._safe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            counts = safe(name, arg_counts, args, kwargs)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, counts)
            if result_counts:
                counts = safe(name, result_counts, args, kwargs, result)
                spans[sid] = (name, start, end, parent, counts)
            return result

        return traced

    def install(self) -> None:
        pkg = [m for k, m in sys.modules.items() if k == "xxzquench" or k.startswith("xxzquench.")]
        for module, path, name, arg_counts, result_counts in BOUNDARIES:
            owner = sys.modules.get(f"xxzquench.{module}")
            *cls, attr = path.split(".")
            for part in cls:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.problems.append(f"boundary {name} is gone")
                continue
            traced = self._wrap(fn, name, arg_counts, result_counts)
            if cls:
                setattr(owner, attr, traced)
                continue
            for mod in pkg:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)

    def _child_s(self) -> list[float]:
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        return child_s

    def table(self) -> dict[str, dict]:
        """Per span name: calls, busy and self seconds, direct children, and
        the boundary counts (``*_max`` kept as a maximum, others summed)."""
        child_s = self._child_s()
        out: dict[str, dict] = {}
        for i, (name, start, end, parent, counts) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "children": 0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_s[i]
            if parent >= 0:
                out[self.spans[parent][0]]["children"] += 1
            for key, value in (counts or {}).items():
                merge = max if key.endswith("_max") else operator.add
                row[key] = merge(row.get(key, 0), value)
        return out

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer, subtrees of COLLAPSED spans charged to them."""
        child_s = self._child_s()
        owner = [-1] * len(self.spans)
        shares: dict[str, float] = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0 and owner[parent] >= 0:
                owner[i] = owner[parent]
            elif name in COLLAPSED:
                owner[i] = i
            layer = self.spans[owner[i]][0] if owner[i] >= 0 else name
            shares[layer] = shares.get(layer, 0.0) + end - start - child_s[i]
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))

    def write(self, path: str, metrics: dict) -> None:
        doc = {
            "problems": self.problems,
            "layer_self_s": self.layer_self(),
            "spans_by_name": self.table(),
            "metrics": metrics,
            "spans": [list(s) for s in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _cache_info(tracer: Tracer, module: str, attr: str):
    """cache_info() of an lru_cache-wrapped function; None, recorded as a
    problem, if it is gone."""
    fn = getattr(sys.modules.get(f"xxzquench.{module}"), attr, None)
    if not hasattr(fn, "cache_info"):
        tracer.problems.append(f"cache {module}.{attr} is gone")
        return None
    return fn.cache_info()


def _hit_ratio(info) -> float:
    lookups = info.hits + info.misses if info else 0
    return info.hits / lookups if lookups else 0.0


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict[str, float]:
    """Every UNITS metric except the two the parent adds (trace.overhead_s,
    host.calib_s); a layer the workload never enters reads 0."""
    table = tracer.table()

    def stat(span: str, key: str) -> float:
        return table.get(span, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    chain = _cache_info(tracer, "freefermion", "_chain")
    evolver = _cache_info(tracer, "exactdiag", "_evolver")
    basis = _cache_info(tracer, "exactdiag", "sector_basis")
    ff, ed, bsh = "freefermion.end_spin_series", "exactdiag.end_spin_series", "exactdiag.build_sector_hamiltonian"
    gflop = stat(ff, "flop") / 1e9
    return {
        "model.realize_couplings.calls": stat("model.realize_couplings", "calls"),
        "model.realize_couplings.busy_s": stat("model.realize_couplings", "busy_s"),
        "freefermion.end_spin_series.calls": stat(ff, "calls"),
        "freefermion.end_spin_series.points": stat(ff, "points"),
        "freefermion.end_spin_series.busy_s": stat(ff, "busy_s"),
        "freefermion.end_rows.gflop": gflop,
        "freefermion.end_rows.gflop_per_s": ratio(gflop, stat(ff, "busy_s")),
        "freefermion.chain.builds": chain.misses if chain else 0,
        "freefermion.chain.hit_ratio": _hit_ratio(chain),
        "exactdiag.build_sector_hamiltonian.calls": stat(bsh, "calls"),
        "exactdiag.build_sector_hamiltonian.busy_s": stat(bsh, "busy_s"),
        "exactdiag.build_sector_hamiltonian.dim_sum": stat(bsh, "dim_sum"),
        "exactdiag.ground_mixture.busy_s": stat("exactdiag.ground_mixture", "busy_s"),
        "exactdiag.QuenchEvolution.init.self_s": stat("exactdiag.QuenchEvolution.init", "self_s"),
        "exactdiag.sector_dim_max": stat(bsh, "dim_max"),
        "exactdiag.end_spin_series.points": stat(ed, "points"),
        "exactdiag.end_spin_series.busy_s": stat(ed, "busy_s"),
        "exactdiag.end_spin_series.s_per_point": ratio(stat(ed, "busy_s"), stat(ed, "points")),
        "exactdiag.evolver_cache.currsize": evolver.currsize if evolver else 0,
        "exactdiag.sector_basis.hit_ratio": _hit_ratio(basis),
        "entangle.find_tmax.calls": stat("entangle.find_tmax", "calls"),
        "entangle.find_tmax.busy_s": stat("entangle.find_tmax", "busy_s"),
        "entangle.CurveEvaluator.init.calls": stat("entangle.CurveEvaluator.init", "calls"),
        "entangle.CurveEvaluator.init.busy_s": stat("entangle.CurveEvaluator.init", "busy_s"),
        "entangle.fef_series.calls": stat("entangle.fef_series", "calls"),
        "entangle.fef_series.points": stat("entangle.fef_series", "points"),
        "entangle.fef_series.busy_s": stat("entangle.fef_series", "busy_s"),
        "entangle.golden_section_max.calls": stat("entangle.golden_section_max", "calls"),
        "entangle.golden_section_max.evals": stat("entangle.golden_section_max", "children"),
        "entangle.golden_section_max.busy_s": stat("entangle.golden_section_max", "busy_s"),
        "entangle.first_peak_index.busy_s": stat("entangle.first_peak_index", "busy_s"),
        "purify.purify_until.calls": stat("purify.purify_until", "calls"),
        "purify.purify_until.rounds": stat("purify.purify_until", "rounds"),
        "purify.purify_until.busy_s": stat("purify.purify_until", "busy_s"),
        "cli.main.busy_s": stat("cli.main", "busy_s"),
        "cli.self_s": stat("cli.main", "self_s"),
        "cli.bytes_written": bytes_written,
    }
