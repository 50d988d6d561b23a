"""Command-line orchestration: quench curves, size scans, disorder
ensembles, engine cross-checks and purification traces.

Every command writes CSV/JSON data plus a JSON manifest recording the
tool version, the fully resolved configuration, the master seed and the
produced files.  Re-running a command with the configuration from its
manifest reproduces the data files byte for byte; per-record runtimes
live in the manifest so parallelism never touches output bytes.

Exit codes: 0 success, 1 usage error, 2 validation failure,
3 numerical fault.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone

import numpy as np

from . import __version__, entangle, model, purify
from .errors import (
    ConvergenceError,
    NoPeakError,
    NotPurifiableError,
    NumericalFaultError,
)

TOOL_NAME = "xxzquench"
ED_COMPARE_TOL = 1e-8

CONVENTIONS = {
    "t_max": "first strict local maximum of fef(t) above the t=0 value, "
             "else (and on even chains always) the first strict local "
             "maximum of any height, golden-section refined to 1e-6/j; the "
             "scan stops at the first grid chunk that confirms it",
    "disorder_peak": "per realization: the first strict local maximum of "
                     "fef(t) above the t=0 value, else the first strict local "
                     "maximum of any height, both golden-section refined to "
                     "1e-6/j, else the unrefined grid maximum; the mean "
                     "curve's peak is its first strict local maximum above "
                     "the t=0 value, else its grid maximum, unrefined",
    "ground_preparation": "equal-weight mixture over the degenerate ground "
                          "multiplet; ideal Neel mixture when delta1=inf",
    "disorder_sub_seeds": "seed XOR realization-index",
}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def default_scan_sizes() -> list[int]:
    """Every odd chain length 3..49, then steps of ten up to 241."""
    return list(range(3, 50, 2)) + list(range(59, 240, 10)) + [241]


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _field(kind: type) -> str:
    """The %-conversion that renders a value of type ``kind`` as :func:`_fmt`."""
    if issubclass(kind, (int, np.integer)):
        return "%d"
    if issubclass(kind, float):
        return "%.17g"
    return "%s"


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """Write rows as :func:`_fmt` renders them, one %-string per row; the
    conversions are picked per column, so each column holds one kind."""
    line = ""
    if rows:
        fields = []
        for column in zip(*rows):
            kinds = {_field(kind) for kind in set(map(type, column))}
            assert len(kinds) == 1, f"mixed column {kinds} in {path}"
            fields += kinds
        line = ",".join(fields) + "\n"
        assert line % tuple(rows[0]) == ",".join(map(_fmt, rows[0])) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(row) for row in rows)


def _write_manifest(
    path: str, command: str, config: dict, outputs: list[str], **extra
) -> str:
    manifest_path = path + ".manifest.json"
    doc = {
        "tool": TOOL_NAME,
        "version": __version__,
        "command": command,
        "config": config,
        "master_seed": config.get("seed"),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": [os.path.basename(p) for p in outputs],
        "conventions": CONVENTIONS,
    }
    doc.update(extra)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path


def _positive_int(text: str) -> int:
    """Argument type for a whole number of at least one (a usage error
    otherwise)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


_positive_int.__name__ = "positive int"


def _list_of(convert):
    """Argument type for a comma-separated list of ``convert`` values that
    refuses an empty list and a repeated value (a usage error)."""

    def parse(text: str) -> list:
        values = [convert(tok) for tok in text.split(",") if tok.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"empty list {text!r}")
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise argparse.ArgumentTypeError(f"repeated values {repeated} in {text!r}")
        return values

    parse.__name__ = f"{convert.__name__} list"
    return parse


def _spec_from_args(args, **resolved) -> model.ChainSpec:
    """The chain of the parsed flags, with the fields the command
    ``resolved`` in place of theirs."""
    return model.ChainSpec(**{"n": args.n, "j": args.j, "delta1": args.delta1,
                              "delta2": args.delta2, "disorder_sigma": args.sigma,
                              "seed": args.seed, **resolved})


def _config(args, *flags, **resolved) -> dict:
    """A manifest's config: the parsed ``flags`` under their own names (an
    infinite delta1 as "inf"), ``out`` as the file's base name, then the
    values the command ``resolved``."""
    config = {flag: getattr(args, flag) for flag in flags}
    if "delta1" in config and math.isinf(args.delta1):
        config["delta1"] = "inf"
    return {**config, "out": os.path.basename(args.out), **resolved}


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def _plan(specs, engine: str, jobs: int, kept: int = 0, kept_what: str = "") -> tuple:
    """The blocks of a command's member ``specs`` on ``engine``, as ranges of
    their positions, each one :class:`entangle.CurveEvaluator`, and the
    workers that run them, checked against physical memory once, before a
    draw.  Members that stack (:func:`entangle.stacks`) make a block per
    worker, dealt round-robin when their lengths differ, so that long
    chains spread out, else contiguous; any other member is a block of its
    own.  Workers never exceed ``jobs``, the members or the cores, as each
    is forked up front.  The check charges the ``kept`` bytes of
    ``kept_what`` plus every worker at the largest block's
    :func:`entangle.block_charge`.  Lazy ``specs`` (as long as
    --realizations) are listed only once the kept bytes fit.  The output
    does not depend on the cut."""
    have = _physical_memory()
    need, held = kept, [kept_what] if kept else []
    if have is None or need <= have:
        specs = list(specs)
        count = len(specs)
        workers = max(1, min(jobs, count, os.cpu_count() or 1))
        if not entangle.stacks(specs[0], engine):
            blocks = [range(k, k + 1) for k in range(count)]
        elif len({spec.n for spec in specs}) > 1:
            blocks = [range(b, count, workers) for b in range(workers)]
        else:
            edges = [-(-b * count // workers) for b in range(workers + 1)]
            blocks = [range(lo, hi) for lo, hi in zip(edges, edges[1:])]
        charge, what = max((entangle.block_charge([specs[k] for k in block], engine)
                            for block in blocks), key=lambda c: c[0])
        need += workers * charge
        held.append(f"{workers} {what} at once")
    if have is not None and need > have:
        raise UsageError(
            f"{' and '.join(held)} need about {need / 2**20:.0f} MiB, more than the "
            f"{have / 2**20:.0f} MiB of physical memory"
        )
    return blocks, workers


class UsageError(Exception):
    """A usage error: main() writes its message to stderr and exits 1."""


# Errors of the program's own making, which name the member they arise in
_MEMBER_ERRORS = (ValueError, NoPeakError, ConvergenceError, NumericalFaultError)


@contextmanager
def _naming(label: str):
    """Prefix ``label`` to the message of a program error raised inside,
    keeping its type and so its exit code."""
    try:
        yield
    except _MEMBER_ERRORS as exc:
        exc.args = (f"{label}: {exc}",)
        raise


def _lockstep(step, labels: list[str]):
    """One lockstep ``step`` over every member of a block,
    ``step(slice(None))``.  A step covers the whole block, so on a
    program error each member is re-run alone, ``step(slice(k, k + 1))``
    under its label, to name the one that fails."""
    try:
        return step(slice(None))
    except _MEMBER_ERRORS:
        for k, label in enumerate(labels):
            with _naming(label):
                step(slice(k, k + 1))
        raise


# --- quench ---------------------------------------------------------------


def cmd_quench(args) -> int:
    spec = _spec_from_args(args)
    engine = entangle.resolve_engine(spec, args.engine)
    _plan([spec], engine, 1)
    horizon, step, ts = entangle.resolve_grid(spec, args.t_max_horizon, args.grid_step)
    a, b, c = entangle.CurveEvaluator([spec], engine).series(ts)[:, 0]
    fef = entangle._fef(a, b, c)
    neg = entangle._negativity(a, c)
    rows = np.column_stack([ts, a, b, c, fef, neg]).tolist()
    _write_csv(args.out, ["t", "a", "b", "c", "fef", "negativity"], rows)
    config = _config(args, "seed", spec=spec.to_json_dict(), engine=engine,
                     t_max_horizon=horizon, grid_step=step)
    _write_manifest(args.out, "quench", config, [args.out])
    print(f"quench: n={spec.n} engine={engine} rows={len(rows)} -> {args.out}")
    return EXIT_OK


# --- scan-n ----------------------------------------------------------------


def _scan_label(spec: model.ChainSpec) -> str:
    return f"scan-n n={spec.n} sigma={spec.disorder_sigma:g} sub-seed={spec.seed}"


def _scan_block(item: dict) -> dict:
    """First peaks of one block of sizes on one evaluator: each size's
    grid is scanned on its own, then all of them are refined together in
    one lockstep."""
    specs, engine = item["members"], item["engine"]
    labels = [_scan_label(spec) for spec in specs]
    t0 = time.perf_counter()
    evaluator = _lockstep(lambda part: entangle.CurveEvaluator(specs[part], engine), labels)
    setup_ms = 1000.0 * (time.perf_counter() - t0)
    records, found = [], []
    for k, spec in enumerate(specs):
        t0 = time.perf_counter()
        with _naming(labels[k]):
            _, _, ts = entangle.resolve_grid(spec, item["horizon"], item["step"])
            found.append(entangle.tmax_peak(evaluator[k:k + 1], ts))
        records.append({"spec": spec, "engine": engine, "scanned_points": found[k][2],
                        "runtime_ms": 1000.0 * (time.perf_counter() - t0)})
    t0 = time.perf_counter()
    t_max, fef = _lockstep(lambda part: entangle.refine_peaks(evaluator[part], found[part]), labels)
    refine_ms = 1000.0 * (time.perf_counter() - t0)
    for record, t, f in zip(records, t_max.tolist(), fef.tolist()):
        record.update(t_max=t, fef_at_tmax=f)
    return {"records": records, "setup_ms": setup_ms, "refine_ms": refine_ms}


def cmd_scan_n(args) -> int:
    sizes = args.n if args.n is not None else default_scan_sizes()
    even = [n for n in sizes if n % 2 == 0]
    if even and not args.allow_even:
        raise UsageError(
            f"even chain lengths {even} give separable end-spin states; "
            f"pass --allow-even to scan them anyway"
        )
    specs = [_spec_from_args(args, n=n, seed=model.sub_seed(args.seed, n)) for n in sorted(sizes)]
    for spec in specs:  # every size's grid is checked before any size is set up
        entangle.search_grid(spec, args.t_max_horizon, args.grid_step)
    engine = entangle.resolve_engine(specs[0], args.engine)  # it depends on delta2 only
    cut, workers = _plan(specs, engine, args.jobs)
    items = [{"members": [specs[k] for k in block], "engine": engine,
              "horizon": args.t_max_horizon, "step": args.grid_step} for block in cut]
    blocks = _run_parallel(_scan_block, items, workers)
    records = sorted((r for b in blocks for r in b["records"]), key=lambda r: r["spec"].n)

    header = ["n", "delta1", "delta2", "disorder_sigma", "seed", "engine", "t_max", "fef_at_tmax"]
    rows = [
        [r["spec"].n, float(r["spec"].delta1), float(r["spec"].delta2),
         float(r["spec"].disorder_sigma), int(r["spec"].seed), r["engine"],
         r["t_max"], r["fef_at_tmax"]]
        for r in records
    ]
    _write_csv(args.out, header, rows)

    fit_doc = None
    odd_only = all(r["spec"].n % 2 == 1 for r in records)
    analytic = args.delta2 == 0.0 and math.isinf(args.delta1)
    fit_points = [(r["spec"].n, r["fef_at_tmax"]) for r in records if r["spec"].n >= 25]
    if odd_only and analytic and len(fit_points) >= 3:
        fit = entangle.fit_power_law(fit_points)
        fit_doc = {
            "amplitude": fit.amplitude,
            "exponent": fit.exponent,
            "fit_range": list(fit.fit_range),
            "residual": fit.residual,
            "points": len(fit_points),
        }
        print(
            f"power-law fit (n >= 25): {fit.amplitude:.4f} * N^(-{fit.exponent:.4f})"
            f"  [rms log residual {fit.residual:.3e}]"
        )
    config = _config(args, "j", "delta1", "delta2", "sigma", "seed", "t_max_horizon",
                     "grid_step", "jobs", "allow_even",
                     n_list=[r["spec"].n for r in records], engine=engine)
    _write_manifest(
        args.out, "scan-n", config, [args.out],
        fit=fit_doc,
        runtimes_ms={str(r["spec"].n): r["runtime_ms"] for r in records},
        scanned_points={str(r["spec"].n): r["scanned_points"] for r in records},
        setup_ms=sum(b["setup_ms"] for b in blocks),
        refine_ms=sum(b["refine_ms"] for b in blocks),
    )
    print(f"scan-n: {len(records)} records -> {args.out}")
    return EXIT_OK


def _run_parallel(worker, items: list, workers: int) -> list:
    """``worker`` over ``items`` on the :func:`_plan`'s ``workers``."""
    if workers == 1:
        return [worker(it) for it in items]
    # imported here, so that a serial run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, items))


# --- disorder ---------------------------------------------------------------


def _disorder_block(item: dict) -> dict:
    """Curves and refined peaks of one block of the ensemble's (sigma,
    realization) members, of any sigmas, on one
    :class:`entangle.CurveEvaluator` from its scan to its lockstep
    refinement.  Every curve and peak is that realization's own, bit for
    bit, so a program error re-runs each realization alone to name it."""
    ts, base = item["ts"], item["spec"]
    specs = [dataclasses.replace(base, disorder_sigma=sigma, seed=model.sub_seed(base.seed, r))
             for sigma, r in item["members"]]
    labels = [f"disorder n={spec.n} sigma={spec.disorder_sigma:g} realization {r} "
              f"sub-seed={spec.seed}" for (_, r), spec in zip(item["members"], specs)]

    def peaks(part):
        evaluator = entangle.CurveEvaluator(specs[part], item["engine"])
        curves = evaluator.fef_series(ts)
        return (curves, *entangle.refine_peaks(evaluator, [entangle.first_peak(
            [(ts, curve)], any_height_fallback=True, argmax_fallback=True) for curve in curves]))

    curves, peak_t, peak_f = _lockstep(peaks, labels)
    return {"curves": curves, "peak_t": peak_t, "peak_f": peak_f}


def _mean_and_stderr(values: np.ndarray) -> tuple[float, float]:
    """Mean of ``values`` and its standard error, 0 for one value.  Values
    beyond 1 are first divided by a power of two, which puts the largest
    in [1, 2): the scaling is exact, so the sum and the squares of peak
    times as long as 1e300 (from a tiny --j) cannot overflow, and the
    bits are those of the unscaled statistics wherever those are finite."""
    scale = 2.0 ** max(0, math.frexp(float(np.abs(values).max()))[1] - 1)
    scaled = values / scale
    spread = scaled.std(ddof=1) / np.sqrt(len(values)) if len(values) > 1 else 0.0
    return float(scaled.mean()) * scale, float(spread) * scale


def cmd_disorder(args) -> int:
    sigmas = args.sigma
    base = _spec_from_args(args, disorder_sigma=max(sigmas))
    engine = entangle.resolve_engine(base, args.engine)
    horizon, step, ts = entangle.search_grid(base, args.t_max_horizon, args.grid_step)
    counts = [1 if sigma == 0.0 else args.realizations for sigma in sigmas]
    # every realization's curve is kept until the summary is written
    kept = sum(counts)

    def members():  # listed only once the plan has charged their curves
        return ((sigma, r) for sigma, count in zip(sigmas, counts) for r in range(count))

    cut, workers = _plan(
        (dataclasses.replace(base, disorder_sigma=sigma, seed=model.sub_seed(base.seed, r))
         for sigma, r in members()), engine, args.jobs,
        kept * ts.nbytes, f"the fef curves of {kept} realizations over {len(ts)} points")
    listed = list(members())
    items = [{"spec": base, "engine": engine, "ts": ts, "members": listed[b.start:b.stop]}
             for b in cut]
    results = _run_parallel(_disorder_block, items, workers)

    def gathered(key: str, lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi of the members' ``key``, a view of one block's rows
        unless they span blocks, which are contiguous: the members share
        one length."""
        parts = [result[key][max(lo - b.start, 0):hi - b.start]
                 for b, result in zip(cut, results) if lo < b.stop and b.start < hi]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    mean_curves: dict[float, np.ndarray] = {}
    summary_rows = []
    lo = 0
    for sigma, nr in zip(sigmas, counts):
        mean_curve = gathered("curves", lo, lo + nr).mean(axis=0)
        mean_curves[sigma] = mean_curve
        mean_f, stderr_f = _mean_and_stderr(gathered("peak_f", lo, lo + nr))
        mean_t, stderr_t = _mean_and_stderr(gathered("peak_t", lo, lo + nr))
        lo += nr
        (_, curve_t, _, curve_f), _, _ = entangle.first_peak(
            [(ts, mean_curve)], argmax_fallback=True)
        summary_rows.append(
            [sigma, nr, mean_f, stderr_f, mean_t, stderr_t, float(curve_f), float(curve_t)])

    ts_path = _sibling_path(args.out, "_timeseries")
    header = ["t"] + [f"fef_mean_sigma={s:g}" for s in sigmas]
    rows = np.column_stack([ts] + [mean_curves[s] for s in sigmas]).tolist()
    _write_csv(ts_path, header, rows)
    _write_csv(
        args.out,
        ["sigma", "realizations", "mean_peak_fef", "stderr_peak_fef",
         "mean_peak_time", "stderr_peak_time",
         "meancurve_peak_fef", "meancurve_peak_time"],
        summary_rows,
    )
    config = _config(args, "n", "j", "delta1", "delta2", "realizations", "seed", "jobs",
                     sigma_list=sigmas, t_max_horizon=horizon, grid_step=step, engine=engine,
                     sub_seed_rule=CONVENTIONS["disorder_sub_seeds"])
    _write_manifest(args.out, "disorder", config, [args.out, ts_path])
    print(f"disorder: n={args.n} sigmas={sigmas} -> {args.out}")
    return EXIT_OK


def _sibling_path(path: str, suffix: str) -> str:
    root, ext = os.path.splitext(path)
    return root + suffix + (ext or ".csv")


# --- ed-compare --------------------------------------------------------------


def cmd_ed_compare(args) -> int:
    sizes = sorted(args.n)
    specs = [model.ChainSpec(n=n, j=args.j, delta1=args.delta1, seed=args.seed) for n in sizes]
    _plan(specs, "exactdiag", 1)
    if not 1 <= args.grid_points <= entangle.MAX_GRID_POINTS:
        raise UsageError(
            f"--grid-points must lie in [1, {entangle.MAX_GRID_POINTS}], got {args.grid_points}")
    horizons = [entangle.resolve_grid(spec)[0] for spec in specs]  # refused as by quench
    rows = []
    worst = 0.0
    for spec, horizon in zip(specs, horizons):
        ts = np.linspace(0.0, horizon, args.grid_points)
        ff = entangle.CurveEvaluator([spec], "freefermion").series(ts)
        ed = entangle.CurveEvaluator([spec], "exactdiag").series(ts)
        devs = [float(np.max(np.abs(ff[k] - ed[k]))) for k in range(3)]
        dev = max(devs)
        worst = max(worst, dev)
        neg = float(np.max(entangle._negativity(ff[0], ff[2])))
        rows.append([spec.n, devs[0], devs[1], devs[2], dev, neg])
        print(f"ed-compare: n={spec.n} max deviation {dev:.3e} max negativity {neg:.3e}")
    _write_csv(
        args.out,
        ["n", "max_dev_a", "max_dev_b", "max_dev_c", "max_dev", "max_negativity"],
        rows,
    )
    config = _config(args, "j", "delta1", "grid_points", "seed", n_list=sizes,
                     tolerance=ED_COMPARE_TOL)
    _write_manifest(args.out, "ed-compare", config, [args.out], max_deviation=worst)
    if worst > ED_COMPARE_TOL:
        print(f"ed-compare FAILED: max deviation {worst:.3e} > {ED_COMPARE_TOL}")
        return EXIT_VALIDATION
    print(f"ed-compare passed: max deviation {worst:.3e}")
    return EXIT_OK


# --- purify -------------------------------------------------------------------


def _fidelity_from_record(path: str, record_n: int | None) -> float:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    try:
        n_col = header.index("n")
        f_col = header.index("fef_at_tmax")
    except ValueError as exc:
        raise UsageError(f"{path} is not a scan-n record file: {exc}")
    for row in rows:
        if len(row) != len(header):
            raise UsageError(
                f"{path}: a record row has {len(row)} fields, its header {len(header)}")

    def number(row: list[str], col: int, kind: type):
        try:
            return kind(row[col])
        except ValueError:
            raise UsageError(
                f"{path}: field {header[col]} reads {row[col]!r}, not a number") from None

    if record_n is not None:
        rows = [r for r in rows if number(r, n_col, int) == record_n]
    if len(rows) != 1:
        raise UsageError(f"need exactly one record (use --record-n to pick), found {len(rows)}")
    return number(rows[0], f_col, float)


def cmd_purify(args) -> int:
    if (args.fef is None) == (args.record is None):
        raise UsageError("give exactly one of --fef or --record")
    if args.record_n is not None and args.record is None:
        raise UsageError("--record-n picks a row of --record; give --record too")
    if args.fef is not None:
        fidelity = args.fef
        source = {"kind": "fef-value", "fef": fidelity}
    else:
        fidelity = _fidelity_from_record(args.record, args.record_n)
        source = {
            "kind": "scan-record",
            "file": os.path.basename(args.record),
            "n": args.record_n,
            "fef": fidelity,
        }
    state = purify.BellDiagonal.from_fidelity(fidelity)
    try:
        trace = purify.purify_until(state, threshold=args.threshold)
        doc = {"purifiable": True, "source": source, **trace.to_json_dict()}
        print(
            f"purify: f={fidelity:.6g} -> {trace.iterations} iterations, "
            f"final fidelity {trace.final_fidelity:.6g}, "
            f"expected pairs {trace.expected_pairs:.4g}"
        )
    except NotPurifiableError as exc:
        doc = {
            "purifiable": False,
            "source": source,
            "threshold": args.threshold,
            "input_fidelity": fidelity,
            "reason": str(exc),
            "criterion": "purifiable iff fidelity > 1/2",
        }
        print(f"purify: f={fidelity:.6g} is not purifiable (criterion f > 1/2)")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(args.out, "purify", _config(args, "threshold", source=source, seed=None),
                    [args.out])
    return EXIT_OK


# --- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: error: {message}")


def _add_physics_flags(p: argparse.ArgumentParser, n_help: str, n_type=int, n_required=True):
    p.add_argument("--n", type=n_type, required=n_required, help=n_help)
    p.add_argument("--j", type=float, default=1.0, help="base coupling (default 1)")
    p.add_argument(
        "--delta1", type=float, default=model.INFINITE_ANISOTROPY,
        help='pre-quench anisotropy, a number or "inf" (default inf)',
    )
    p.add_argument(
        "--delta2", type=float, default=0.0,
        help="post-quench anisotropy (default 0)",
    )
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument(
        "--t-max-horizon", type=float, default=None,
        help="scan horizon in units 1/j (default 2n/(pi j))",
    )
    p.add_argument(
        "--grid-step", type=float, default=None,
        help="time grid step (default min(0.02/j, horizon/2000))",
    )
    p.add_argument(
        "--engine", choices=["auto", "ff", "ed"], default="auto",
        help="evolution engine (default auto)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog=TOOL_NAME, description=__doc__)
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    q = sub.add_parser("quench", help="fef(t) time series for one chain")
    _add_physics_flags(q, "chain length")
    q.add_argument("--sigma", type=float, default=0.0, help="disorder std dev")
    q.add_argument("--out", default="quench.csv")
    q.set_defaults(func=cmd_quench)

    s = sub.add_parser("scan-n", help="first-peak fef across chain lengths")
    _add_physics_flags(s, "comma-separated lengths (default: built-in list)",
                       n_type=_list_of(int), n_required=False)
    s.add_argument("--sigma", type=float, default=0.0, help="disorder std dev")
    s.add_argument("--allow-even", action="store_true",
                   help="permit even lengths (separable end spins)")
    s.add_argument("--jobs", type=_positive_int, default=os.cpu_count() or 1)
    s.add_argument("--out", default="scan.csv")
    s.set_defaults(func=cmd_scan_n)

    d = sub.add_parser("disorder", help="seeded disorder ensemble at fixed length")
    _add_physics_flags(d, "chain length")
    d.add_argument("--sigma", type=_list_of(float), default="0,0.1,0.2,0.3",
                   help="comma-separated disorder std devs")
    d.add_argument("--realizations", type=_positive_int, default=100)
    d.add_argument("--jobs", type=_positive_int, default=os.cpu_count() or 1)
    d.add_argument("--out", default="disorder.csv")
    d.set_defaults(func=cmd_disorder)

    e = sub.add_parser("ed-compare", help="free-fermion vs exact-diagonalization check")
    e.add_argument("--n", type=_list_of(int), default="3,5,7,9,11",
                   help="comma-separated lengths (default 3,5,7,9,11)")
    e.add_argument("--j", type=float, default=1.0)
    e.add_argument(
        "--delta1", type=float, default=model.INFINITE_ANISOTROPY,
        help='pre-quench anisotropy, a number or "inf" (default inf); delta2 is 0',
    )
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--grid-points", type=int, default=50)
    e.add_argument("--out", default="ed_compare.csv")
    e.set_defaults(func=cmd_ed_compare)

    p = sub.add_parser("purify", help="recurrence purification trace")
    p.add_argument("--fef", type=float, default=None, help="source fidelity value")
    p.add_argument("--record", default=None, help="scan-n CSV to read the source from")
    p.add_argument("--record-n", type=int, default=None,
                   help="chain length selecting the record row")
    p.add_argument("--threshold", type=float, default=0.99)
    p.add_argument("--out", default="purify.json")
    p.set_defaults(func=cmd_purify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        # an OSError names the file it could not open
        print(f"{TOOL_NAME}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NoPeakError, ConvergenceError) as exc:
        print(f"{TOOL_NAME}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalFaultError as exc:
        print(f"{TOOL_NAME}: numerical fault: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
