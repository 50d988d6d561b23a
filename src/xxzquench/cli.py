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
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from datetime import datetime, timezone

import numpy as np

from . import __version__, entangle, exactdiag, freefermion, model, purify
from .errors import (
    ConvergenceError,
    NoPeakError,
    NotPurifiableError,
    NumericalFaultError,
)

TOOL_NAME = "xxzquench"
ED_COMPARE_TOL = 1e-8
ED_COMPARE_MAX_N = 13
# Realizations per disorder block; blocks refine their peaks in lockstep.
DISORDER_BLOCK = 64

CONVENTIONS = {
    "t_max": "first strict local maximum of fef(t) above the t=0 value, "
             "golden-section refined to 1e-6/j; the scan stops at the "
             "first grid chunk that confirms it",
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


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


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


def _parse_delta1(text: str) -> float:
    if text.strip().lower() == "inf":
        return model.INFINITE_ANISOTROPY
    return float(text)


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


def _spec_from_args(args, n: int | None = None, seed: int | None = None) -> model.ChainSpec:
    return model.ChainSpec(
        n=n if n is not None else args.n,
        j=args.j,
        delta1=args.delta1,
        delta2=args.delta2,
        disorder_sigma=args.sigma,
        seed=seed if seed is not None else args.seed,
    )


def _resolve_grid(args, spec: model.ChainSpec) -> tuple[float, float, np.ndarray]:
    horizon = (
        args.t_max_horizon
        if args.t_max_horizon is not None
        else entangle.default_horizon(spec)
    )
    step = (
        args.grid_step
        if args.grid_step is not None
        else entangle.default_grid_step(spec, max(horizon, 1e-9))
    )
    return horizon, step, entangle.time_grid(horizon, step)


def _check_engine(spec: model.ChainSpec, requested: str) -> str:
    engine = entangle.resolve_engine(spec, requested)
    if engine == "exactdiag" and spec.n > exactdiag.MAX_SITES:
        raise SystemExit2(
            f"exact diagonalization is capped at {exactdiag.MAX_SITES} sites "
            f"(requested n={spec.n}); this quench needs the free-fermion "
            f"engine, which only covers delta1=inf, delta2=0",
            EXIT_USAGE,
        )
    return engine


class SystemExit2(Exception):
    """Message plus exit code, handled in main()."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


@contextmanager
def _naming(label: str):
    """Prefix ``label`` to the message of a program error raised inside,
    keeping its type and so its exit code."""
    try:
        yield
    except (ValueError, NoPeakError, ConvergenceError, NumericalFaultError) as exc:
        exc.args = (f"{label}: {exc}",)
        raise


# --- quench ---------------------------------------------------------------


def cmd_quench(args) -> int:
    spec = _spec_from_args(args)
    engine = _check_engine(spec, args.engine)
    horizon, step, ts = _resolve_grid(args, spec)
    if len(ts) < 1:
        raise SystemExit2("empty time grid", EXIT_USAGE)
    evaluator = entangle.CurveEvaluator(spec, engine)
    a, b, c = evaluator.series(ts)
    fef = entangle._fef(a, b, c)
    neg = entangle._negativity(a, c)
    rows = [
        [float(ts[i]), float(a[i]), float(b[i]), float(c[i]), float(fef[i]), float(neg[i])]
        for i in range(len(ts))
    ]
    _write_csv(args.out, ["t", "a", "b", "c", "fef", "negativity"], rows)
    config = {
        "spec": spec.to_json_dict(),
        "engine": engine,
        "t_max_horizon": horizon,
        "grid_step": step,
        "seed": spec.seed,
        "out": os.path.basename(args.out),
    }
    _write_manifest(args.out, "quench", config, [args.out])
    print(f"quench: n={spec.n} engine={engine} rows={len(rows)} -> {args.out}")
    return EXIT_OK


# --- scan-n ----------------------------------------------------------------


def _scan_one(item: dict) -> dict:
    spec = model.ChainSpec.from_json_dict(item["spec"])
    t0 = time.perf_counter()
    with _naming(f"scan-n n={spec.n} sigma={spec.disorder_sigma:g} sub-seed={spec.seed}"):
        result = entangle.find_tmax(
            item["engine"],
            spec,
            search_horizon=item["horizon"],
            grid_step=item["step"],
            require_above_baseline=spec.n % 2 == 1,
        )
    runtime_ms = 1000.0 * (time.perf_counter() - t0)
    return {
        "n": spec.n,
        "spec": spec.to_json_dict(),
        "engine": item["engine"],
        "t_max": result.t_max,
        "fef_at_tmax": result.fef_at_tmax,
        "scan_resolution": result.scan_resolution,
        "runtime_ms": runtime_ms,
    }


def cmd_scan_n(args) -> int:
    sizes = args.n if args.n is not None else default_scan_sizes()
    even = [n for n in sizes if n % 2 == 0]
    if even and not args.allow_even:
        raise SystemExit2(
            f"even chain lengths {even} give separable end-spin states; "
            f"pass --allow-even to scan them anyway",
            EXIT_USAGE,
        )
    items = []
    for n in sorted(sizes):
        spec = model.ChainSpec(
            n=n,
            j=args.j,
            delta1=args.delta1,
            delta2=args.delta2,
            disorder_sigma=args.sigma,
            seed=model.sub_seed(args.seed, n),
        )
        engine = _check_engine(spec, args.engine)
        items.append(
            {
                "spec": spec.to_json_dict(),
                "engine": engine,
                "horizon": args.t_max_horizon,
                "step": args.grid_step,
            }
        )
    records = _run_parallel(_scan_one, items, args.jobs)
    records.sort(key=lambda r: r["n"])

    header = [
        "n", "delta1", "delta2", "disorder_sigma", "seed",
        "engine", "t_max", "fef_at_tmax",
    ]
    rows = []
    for r in records:
        s = r["spec"]
        d1 = math.inf if s["delta1"] == "inf" else float(s["delta1"])
        rows.append(
            [r["n"], d1, float(s["delta2"]), float(s["disorder_sigma"]),
             int(s["seed"]), r["engine"], r["t_max"], r["fef_at_tmax"]]
        )
    _write_csv(args.out, header, rows)

    fit_doc = None
    odd_only = all(r["n"] % 2 == 1 for r in records)
    analytic = args.delta2 == 0.0 and math.isinf(args.delta1)
    fit_points = [(r["n"], r["fef_at_tmax"]) for r in records if r["n"] >= 25]
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
    config = {
        "n_list": [r["n"] for r in records],
        "j": args.j,
        "delta1": "inf" if math.isinf(args.delta1) else args.delta1,
        "delta2": args.delta2,
        "sigma": args.sigma,
        "seed": args.seed,
        "t_max_horizon": args.t_max_horizon,
        "grid_step": args.grid_step,
        "engine": args.engine,
        "jobs": args.jobs,
        "allow_even": args.allow_even,
        "out": os.path.basename(args.out),
    }
    _write_manifest(
        args.out, "scan-n", config, [args.out],
        fit=fit_doc,
        runtimes_ms={str(r["n"]): r["runtime_ms"] for r in records},
    )
    print(f"scan-n: {len(records)} records -> {args.out}")
    return EXIT_OK


def _run_parallel(worker, items: list, jobs: int) -> list:
    if jobs <= 1 or len(items) <= 1:
        return [worker(it) for it in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, items))


# --- disorder ---------------------------------------------------------------


def _disorder_block(item: dict) -> dict:
    """Curves and refined peaks of one block of realizations of one sigma."""
    ts, rs, master = item["ts"], range(item["first"], item["stop"]), item["spec"]
    specs = [dataclasses.replace(master, seed=model.sub_seed(master.seed, r)) for r in rs]

    def label(r, spec):
        return (f"disorder n={spec.n} sigma={spec.disorder_sigma:g} "
                f"realization {r} sub-seed={spec.seed}")

    evaluators, curves = [], np.empty((len(rs), len(ts)))
    for k, (r, spec) in enumerate(zip(rs, specs)):
        with _naming(label(r, spec)):
            evaluators.append(entangle.CurveEvaluator(spec, item["engine"]))
            curves[k] = evaluators[k].fef_series(ts)
    rule = {"any_height_fallback": True, "argmax_fallback": True}
    try:
        peak_t, peak_f = entangle.locate_first_peak(curves, ts, evaluators, **rule)
    except NumericalFaultError:
        # a lockstep step covers the whole block: refine the members one
        # at a time to name the one that fails
        for k, (r, spec) in enumerate(zip(rs, specs)):
            with _naming(label(r, spec)):
                entangle.locate_first_peak(curves[k:k + 1], ts, evaluators[k:k + 1], **rule)
        raise
    return {"sigma": master.disorder_sigma, "first": item["first"],
            "curves": curves, "peak_t": peak_t, "peak_f": peak_f}


def _block_size(n: int, engine: str, realizations: int, jobs: int) -> int:
    """Realizations per block: at most DISORDER_BLOCK, their eigenbases
    within freefermion.CHUNK_BYTES, and few enough that one sigma's
    realizations fill every worker.  The output does not depend on it."""
    budget = freefermion.CHUNK_BYTES // entangle.CurveEvaluator.eigenbasis_bytes(n, engine)
    per_worker = -(-realizations // max(jobs, 1))
    return max(1, min(DISORDER_BLOCK, budget, per_worker))


def cmd_disorder(args) -> int:
    sigmas = args.sigma
    if args.realizations < 1:
        raise SystemExit2("need at least one realization", EXIT_USAGE)
    base = model.ChainSpec(
        n=args.n, j=args.j, delta1=args.delta1, delta2=args.delta2,
        disorder_sigma=0.0, seed=args.seed,
    )
    engine = _check_engine(base, args.engine)
    horizon, step, ts = _resolve_grid(args, base)

    block = _block_size(args.n, engine, args.realizations, args.jobs)
    items = []
    for sigma in sigmas:
        spec = dataclasses.replace(base, disorder_sigma=sigma)
        n_real = 1 if sigma == 0.0 else args.realizations
        for first in range(0, n_real, block):
            items.append({"spec": spec, "engine": engine, "ts": ts,
                          "first": first, "stop": min(first + block, n_real)})
    results = _run_parallel(_disorder_block, items, args.jobs)
    results.sort(key=lambda d: (d["sigma"], d["first"]))

    mean_curves: dict[float, np.ndarray] = {}
    summary_rows = []
    for sigma in sigmas:
        group = [d for d in results if d["sigma"] == sigma]
        curves = np.concatenate([d["curves"] for d in group])
        mean_curve = curves.mean(axis=0)
        mean_curves[sigma] = mean_curve
        peaks_f = np.concatenate([d["peak_f"] for d in group])
        peaks_t = np.concatenate([d["peak_t"] for d in group])
        nr = len(curves)
        stderr_f = float(peaks_f.std(ddof=1) / np.sqrt(nr)) if nr > 1 else 0.0
        stderr_t = float(peaks_t.std(ddof=1) / np.sqrt(nr)) if nr > 1 else 0.0
        (mean_t,), (mean_f,) = entangle.locate_first_peak(
            mean_curve[None], ts, argmax_fallback=True
        )
        summary_rows.append(
            [sigma, nr, float(peaks_f.mean()), stderr_f,
             float(peaks_t.mean()), stderr_t, float(mean_f), float(mean_t)]
        )

    ts_path = _sibling_path(args.out, "_timeseries")
    header = ["t"] + [f"fef_mean_sigma={s:g}" for s in sigmas]
    rows = [
        [float(ts[i])] + [float(mean_curves[s][i]) for s in sigmas]
        for i in range(len(ts))
    ]
    _write_csv(ts_path, header, rows)
    _write_csv(
        args.out,
        ["sigma", "realizations", "mean_peak_fef", "stderr_peak_fef",
         "mean_peak_time", "stderr_peak_time",
         "meancurve_peak_fef", "meancurve_peak_time"],
        summary_rows,
    )
    config = {
        "n": args.n, "j": args.j,
        "delta1": "inf" if math.isinf(args.delta1) else args.delta1,
        "delta2": args.delta2,
        "sigma_list": sigmas,
        "realizations": args.realizations,
        "seed": args.seed,
        "t_max_horizon": horizon,
        "grid_step": step,
        "engine": engine,
        "jobs": args.jobs,
        "out": os.path.basename(args.out),
        "sub_seed_rule": "seed XOR realization-index",
    }
    _write_manifest(args.out, "disorder", config, [args.out, ts_path])
    print(f"disorder: n={args.n} sigmas={sigmas} -> {args.out}")
    return EXIT_OK


def _sibling_path(path: str, suffix: str) -> str:
    root, ext = os.path.splitext(path)
    return root + suffix + (ext or ".csv")


# --- ed-compare --------------------------------------------------------------


def cmd_ed_compare(args) -> int:
    sizes = sorted(args.n)
    bad = [n for n in sizes if n > ED_COMPARE_MAX_N or n < 2]
    if bad:
        raise SystemExit2(
            f"engine comparison supports 2 <= n <= {ED_COMPARE_MAX_N}, got {bad}",
            EXIT_USAGE,
        )
    if not 1 <= args.grid_points <= entangle.MAX_GRID_POINTS:
        raise SystemExit2(
            f"--grid-points must lie in [1, {entangle.MAX_GRID_POINTS}], "
            f"got {args.grid_points}",
            EXIT_USAGE,
        )
    rows = []
    worst = 0.0
    for n in sizes:
        spec = model.ChainSpec(n=n, j=args.j, seed=args.seed)
        horizon = entangle.default_horizon(spec)
        ts = np.linspace(0.0, horizon, args.grid_points)
        ff = entangle.CurveEvaluator(spec, "freefermion").series(ts)
        ed = entangle.CurveEvaluator(spec, "exactdiag").series(ts)
        devs = [float(np.max(np.abs(ff[k] - ed[k]))) for k in range(3)]
        dev = max(devs)
        worst = max(worst, dev)
        neg = float(np.max(entangle._negativity(ff[0], ff[2])))
        rows.append([n, devs[0], devs[1], devs[2], dev, neg])
        print(f"ed-compare: n={n} max deviation {dev:.3e} max negativity {neg:.3e}")
    _write_csv(
        args.out,
        ["n", "max_dev_a", "max_dev_b", "max_dev_c", "max_dev", "max_negativity"],
        rows,
    )
    config = {
        "n_list": sizes,
        "j": args.j,
        "grid_points": args.grid_points,
        "seed": args.seed,
        "tolerance": ED_COMPARE_TOL,
        "out": os.path.basename(args.out),
    }
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
        raise SystemExit2(f"{path} is not a scan-n record file: {exc}", EXIT_USAGE)
    if record_n is not None:
        rows = [r for r in rows if int(r[n_col]) == record_n]
    if len(rows) != 1:
        raise SystemExit2(
            f"need exactly one record (use --record-n to pick), found {len(rows)}",
            EXIT_USAGE,
        )
    return float(rows[0][f_col])


def cmd_purify(args) -> int:
    if (args.fef is None) == (args.record is None):
        raise SystemExit2("give exactly one of --fef or --record", EXIT_USAGE)
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
    config = {
        "source": source,
        "threshold": args.threshold,
        "seed": None,
        "out": os.path.basename(args.out),
    }
    _write_manifest(args.out, "purify", config, [args.out])
    return EXIT_OK


# --- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise SystemExit2(f"{self.prog}: error: {message}", EXIT_USAGE)


def _add_physics_flags(p: argparse.ArgumentParser, n_help: str, n_type=int):
    p.add_argument("--n", type=n_type, help=n_help)
    p.add_argument("--j", type=float, default=1.0, help="base coupling (default 1)")
    p.add_argument(
        "--delta1", type=_parse_delta1, default=model.INFINITE_ANISOTROPY,
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
    q.set_defaults(func=cmd_quench, require_n=True)

    s = sub.add_parser("scan-n", help="first-peak fef across chain lengths")
    _add_physics_flags(s, "comma-separated lengths (default: built-in list)",
                       n_type=_list_of(int))
    s.add_argument("--sigma", type=float, default=0.0, help="disorder std dev")
    s.add_argument("--allow-even", action="store_true",
                   help="permit even lengths (separable end spins)")
    s.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    s.add_argument("--out", default="scan.csv")
    s.set_defaults(func=cmd_scan_n, require_n=False)

    d = sub.add_parser("disorder", help="seeded disorder ensemble at fixed length")
    _add_physics_flags(d, "chain length")
    d.add_argument("--sigma", type=_list_of(float), default="0,0.1,0.2,0.3",
                   help="comma-separated disorder std devs")
    d.add_argument("--realizations", type=int, default=100)
    d.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    d.add_argument("--out", default="disorder.csv")
    d.set_defaults(func=cmd_disorder, require_n=True)

    e = sub.add_parser("ed-compare", help="free-fermion vs exact-diagonalization check")
    e.add_argument("--n", type=_list_of(int), default="3,5,7,9,11",
                   help="comma-separated lengths (default 3,5,7,9,11)")
    e.add_argument("--j", type=float, default=1.0)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--grid-points", type=int, default=50)
    e.add_argument("--out", default="ed_compare.csv")
    e.set_defaults(func=cmd_ed_compare, require_n=False)

    p = sub.add_parser("purify", help="recurrence purification trace")
    p.add_argument("--fef", type=float, default=None, help="source fidelity value")
    p.add_argument("--record", default=None, help="scan-n CSV to read the source from")
    p.add_argument("--record-n", type=int, default=None,
                   help="chain length selecting the record row")
    p.add_argument("--threshold", type=float, default=0.99)
    p.add_argument("--out", default="purify.json")
    p.set_defaults(func=cmd_purify, require_n=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "require_n", False) and args.n is None:
            raise SystemExit2(f"{parser.prog}: error: --n is required", EXIT_USAGE)
        return args.func(args)
    except SystemExit2 as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except ValueError as exc:
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
