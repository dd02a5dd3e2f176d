"""Command-line interface.

Subcommands: discover, predict, kkt-report, gen-data (local|extreme|
scaled), bench, import-case.  Every error family maps to a distinct
exit code (see EXIT_CODES); all randomness flows through --seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import dcopf, errors
from .discovery import (
    DiscoveryLog,
    SearchPattern,
    axis_sweep_pattern,
    default_tol,
    discover,
    feasible_extent,
    scaled_base_pattern,
)
from .model import batch_forward, deserialize, forward, serialize
from .oracle import MAX_ENUM_M2, brute_force_solve, kkt_report
from .problem import MpQpProblem, ParameterPoint

EXIT_CODES = {
    "usage": 2,
    "infeasible": 3,
    "singular": 4,
    "digest": 5,
    "format": 6,
    "transition": 7,
    "network": 8,
}

_ERROR_FAMILY = [
    ((errors.InfeasibleStart, errors.Infeasible), "infeasible"),
    ((errors.SingularJacobian, errors.SingularActiveJacobian), "singular"),
    ((errors.DigestMismatch,), "digest"),
    ((errors.MalformedModel, errors.ProblemFormatError), "format"),
    ((errors.UnresolvableTransition,), "transition"),
    ((errors.DisconnectedNetwork, errors.MissingSlack), "network"),
]


class CliError(Exception):
    def __init__(self, message, code=EXIT_CODES["usage"]):
        super().__init__(message)
        self.code = code


def _exit_code(exc: Exception) -> int:
    for types, family in _ERROR_FAMILY:
        if isinstance(exc, types):
            return EXIT_CODES[family]
    return 1


def _load_problem(args) -> MpQpProblem:
    if getattr(args, "problem", None):
        return MpQpProblem.from_json(Path(args.problem).read_text())
    if getattr(args, "case", None):
        case = dcopf.PowerCase.from_json(Path(args.case).read_text())
        if getattr(args, "lines", False):
            problem, _ = dcopf.build_dcopf_with_lines(case)
        else:
            problem, _ = dcopf.build_dcopf(case)
        return problem
    raise CliError("one of --problem or --case is required")


def _load_case(args) -> dcopf.PowerCase:
    if not getattr(args, "case", None):
        raise CliError("--case is required")
    return dcopf.PowerCase.from_json(Path(args.case).read_text())


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError as exc:
        raise CliError(f"cannot parse vector {text!r}: {exc}")


def _theta_from_args(problem: MpQpProblem, args) -> ParameterPoint:
    if getattr(args, "theta0", None):
        vec = _parse_vector(args.theta0)
        if vec.shape != (problem.m1,):
            raise CliError(
                f"--theta0 must list {problem.m1} equality-RHS entries, got {vec.size}"
            )
        return ParameterPoint.of_theta_e(problem, vec)
    return ParameterPoint.zeros(problem)


def _finite(theta: ParameterPoint, where: str) -> ParameterPoint:
    if not np.isfinite(theta.stacked()).all():
        raise CliError(f"{where}: theta has non-finite entries")
    return theta


def _jsonl_thetas(problem: MpQpProblem, path: str, text: str) -> List[Tuple[dict, ParameterPoint]]:
    """(record, theta) for every JSON-lines record; theta_c and theta_C
    default to zeros."""
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            rec = json.loads(line)
            theta = ParameterPoint(
                np.asarray(rec.get("theta_c", np.zeros(problem.n)), dtype=float),
                np.asarray(rec["theta_e"], dtype=float),
                np.asarray(rec.get("theta_C", np.zeros(problem.m2)), dtype=float),
            ).check_dims(problem)
        except (AttributeError, KeyError, TypeError, ValueError,
                errors.ProblemFormatError) as exc:
            raise CliError(f"{where}: bad dataset record: {exc!r}")
        out.append((rec, _finite(theta, where)))
    return out


def _read_thetas(problem: MpQpProblem, path: str) -> List[ParameterPoint]:
    """Dataset rows: JSON-lines records or CSV rows of either m1
    (theta_e only) or d (stacked) numeric columns."""
    text = Path(path).read_text()
    if path.endswith(".jsonl") or text.lstrip()[:1] == "{":
        return [theta for _, theta in _jsonl_thetas(problem, path, text)]
    thetas = []
    for lineno, row in enumerate(csv.reader(text.splitlines()), 1):
        if not row or row[0].strip().startswith("#"):
            continue
        if lineno == 1 and any(not _is_number(tok) for tok in row if tok.strip()):
            continue  # header row
        where = f"{path}:{lineno}"
        try:
            vals = np.array([float(tok) for tok in row if tok.strip() != ""])
        except ValueError as exc:
            raise CliError(f"{where}: bad CSV row: {exc}")
        if vals.size == problem.m1:
            theta = ParameterPoint.of_theta_e(problem, vals)
        elif vals.size == problem.d:
            theta = ParameterPoint.from_stacked(problem, vals)
        else:
            raise CliError(
                f"{where}: expected {problem.m1} or {problem.d} columns, got {vals.size}"
            )
        thetas.append(_finite(theta, where))
    return thetas


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# subcommands


def cmd_discover(args) -> int:
    problem = _load_problem(args)
    theta0 = _theta_from_args(problem, args)
    tol = args.tol if args.tol is not None else default_tol(args.precision)

    if args.pattern == "axis":
        if args.extent:
            pattern = axis_sweep_pattern(theta0, _parse_vector(args.extent), args.steps)
        else:
            # Default: sweep each theta_e axis both ways, out to the
            # bisected feasible boundary.
            up = np.zeros(problem.m1)
            down = np.zeros(problem.m1)
            for i in range(problem.m1):
                unit = np.zeros(problem.m1)
                unit[i] = 1.0
                direction = ParameterPoint.of_theta_e(problem, unit)
                up[i] = feasible_extent(problem, theta0, direction)
                down[i] = -feasible_extent(problem, theta0, direction.scale(-1.0))
            pattern = SearchPattern(
                axis_sweep_pattern(theta0, up, args.steps).directions
                + axis_sweep_pattern(theta0, down, args.steps).directions
            )
    else:
        if not args.extent:
            raise CliError("--extent is required for the scaled pattern")
        scales = [float(s) for s in args.scales.split(",")]
        pattern = scaled_base_pattern(
            theta0, scales, args.steps, _parse_vector(args.extent)
        )

    log = DiscoveryLog(args.log)
    start = time.perf_counter()
    model = discover(
        problem, theta0, pattern, tol=tol, precision=args.precision, log=log,
        strict=not args.lenient,
    )
    elapsed = time.perf_counter() - start
    log.close()

    if args.out:
        Path(args.out).write_bytes(serialize(model))
    print(f"regions: {model.k}")
    for region in model.regions:
        print(f"  region {region.id}: active set {sorted(region.active_set)}")
    print(f"wall time: {elapsed:.3f} s")
    if args.out:
        print(f"model written to {args.out}")
    return 0


def cmd_predict(args) -> int:
    problem = _load_problem(args)
    model = deserialize(Path(args.model).read_bytes(), problem)
    thetas = _read_thetas(problem, args.thetas)
    start = time.perf_counter()
    solutions = batch_forward(model, thetas)
    elapsed = time.perf_counter() - start

    out = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(out)
    header = (
        [f"x{i+1}" for i in range(problem.n)]
        + [f"lambda{i+1}" for i in range(problem.m1)]
        + [f"mu{i+1}" for i in range(problem.m2)]
        + ["objective", "kkt1", "kkt2_eq", "kkt2_ineq", "kkt3", "kkt4"]
    )
    writer.writerow(header)
    for theta, sol in zip(thetas, solutions):
        rep = kkt_report(problem, sol, theta)
        writer.writerow(
            [repr(float(v)) for v in sol.x]
            + [repr(float(v)) for v in sol.lam]
            + [repr(float(v)) for v in sol.mu]
            + [repr(sol.objective)]
            + [repr(float(np.mean(getattr(rep, name)))) for name in
               ("kkt1", "kkt2_eq", "kkt2_ineq", "kkt3", "kkt4")]
        )
    if args.out:
        out.close()
    print(f"batch of {len(thetas)} evaluated in {elapsed:.4f} s", file=sys.stderr)
    return 0


def cmd_kkt_report(args) -> int:
    problem = _load_problem(args)
    model = deserialize(Path(args.model).read_bytes(), problem)
    rows = _jsonl_thetas(problem, args.dataset, Path(args.dataset).read_text())
    records = [
        kkt_report(problem, forward(model, theta), theta)
        for rec, theta in rows
        if rec.get("feasible", True)
    ]
    skipped = len(rows) - len(records)

    if not records:
        print("warning: empty dataset (no feasible rows)", file=sys.stderr)
        return 0

    groups = problem.variable_groups or {}
    columns = []
    for name, idx in groups.items():
        columns.append((f"KKT1-{name}", [r.kkt1[list(idx)] for r in records]))
    if not groups:
        columns.append(("KKT1", [r.kkt1 for r in records]))
    columns += [
        ("KKT2(=)", [r.kkt2_eq for r in records]),
        ("KKT2(<=)", [r.kkt2_ineq for r in records]),
        ("KKT3", [r.kkt3 for r in records]),
        ("KKT4", [r.kkt4 for r in records]),
    ]
    rows = []
    for name, vecs in columns:
        stacked = np.concatenate(vecs)
        rows.append((name, float(stacked.mean()), float(stacked.max())))

    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["condition", "mean", "worst"])
            for name, mean, worst in rows:
                w.writerow([name, repr(mean), repr(worst)])
    print(f"{'condition':12s} {'mean':>12s} {'worst':>12s}")
    for name, mean, worst in rows:
        print(f"{name:12s} {mean:12.3e} {worst:12.3e}")
    print(f"feasible rows: {len(records)}, infeasible rows excluded: {skipped}")
    return 0


def cmd_gen_data(args) -> int:
    case = _load_case(args)
    if args.lines:
        problem, _ = dcopf.build_dcopf_with_lines(case)
    else:
        problem, _ = dcopf.build_dcopf(case)
    if args.kind == "local":
        points = dcopf.local_perturbation_dataset(
            case, args.count, args.seed, problem=problem
        )
    elif args.kind == "extreme":
        points = dcopf.extreme_dataset(case, steps=args.steps, problem=problem)
    else:
        scales = [float(s) for s in args.scales.split(",")]
        points = dcopf.scaled_dataset(
            case, scales, args.count, args.seed, problem=problem
        )
        counts = dcopf.survival_counts(points)
        for scale, count in counts.items():
            print(f"scale {scale:g}: {count} of {args.count} feasible")
    out = open(args.out, "w") if args.out else sys.stdout
    if args.format == "jsonl":
        for p in points:
            rec = {
                "theta_e": p.theta.theta_e.tolist(),
                "feasible": p.feasible,
            }
            if p.scale is not None:
                rec["scale"] = p.scale
            out.write(json.dumps(rec) + "\n")
    else:
        writer = csv.writer(out)
        writer.writerow(
            [f"theta_e{i+1}" for i in range(problem.m1)] + ["feasible", "scale"]
        )
        for p in points:
            writer.writerow(
                [repr(float(v)) for v in p.theta.theta_e]
                + [int(p.feasible), "" if p.scale is None else repr(p.scale)]
            )
    if args.out:
        out.close()
        print(f"{len(points)} points written to {args.out}")
    return 0


def cmd_bench(args) -> int:
    problem = _load_problem(args)
    model = deserialize(Path(args.model).read_bytes(), problem)
    rng = np.random.default_rng(args.seed)
    thetas = []
    for _ in range(args.count):
        jitter = rng.uniform(-1.0, 1.0, problem.m1) * args.jitter
        thetas.append(
            model.regions[0].witness_theta
            + ParameterPoint.of_theta_e(problem, jitter)
        )

    model_times = []
    for _ in range(5):
        start = time.perf_counter()
        batch_forward(model, thetas)
        model_times.append(time.perf_counter() - start)
    model_time = statistics.median(model_times)
    print(f"model batch: {args.count} points in {model_time:.4f} s (median of 5)")

    if problem.m2 > MAX_ENUM_M2:
        print(f"oracle skipped: m2={problem.m2} exceeds the enumeration "
              f"guard ({MAX_ENUM_M2}); model-only benchmark")
        return 0
    oracle_times = []
    for _ in range(5):
        start = time.perf_counter()
        for theta in thetas:
            brute_force_solve(problem, theta)
        oracle_times.append(time.perf_counter() - start)
    oracle_time = statistics.median(oracle_times)
    print(f"oracle: {args.count} solves in {oracle_time:.4f} s (median of 5)")
    if args.count >= 10 and model_time > 0:
        print(f"speedup: {oracle_time / model_time:.1f}x")
    else:
        print("speedup: not reported (sample too small for timer resolution)")
    return 0


def cmd_import_case(args) -> int:
    case = dcopf.parse_matpower(
        Path(args.matpower).read_text(),
        name=Path(args.matpower).stem,
        half_quadratic=args.half_quadratic,
    )
    text = case.to_json(indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"case written to {args.out}")
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfqp",
        description="Exact closed-form solution functions for multiparametric "
        "QPs, with a DC-OPF front end.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, model=False):
        p.add_argument("--problem", help="problem JSON file")
        p.add_argument("--case", help="power case JSON file")
        p.add_argument("--lines", action="store_true",
                       help="include line-flow limits when building from a case")
        p.add_argument("--precision", type=int, choices=(32, 64), default=64)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=0)
        if model:
            p.add_argument("--model", required=True, help="model file")

    p = sub.add_parser("discover", help="run region discovery and write a model")
    add_common(p)
    p.add_argument("--theta0", help="comma-separated theta_e anchor (default zeros)")
    p.add_argument("--pattern", choices=("axis", "scaled"), default="axis")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--scales", default="1",
                   help="comma-separated scale factors (scaled pattern)")
    p.add_argument("--extent", help="comma-separated per-axis sweep extents "
                   "(default: bisected feasible extent, axis pattern only)")
    p.add_argument("--lenient", action="store_true",
                   help="log and skip unresolvable points instead of failing")
    p.add_argument("--out", help="model output path")
    p.add_argument("--log", help="JSON-lines discovery log path")
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("predict", help="batch-evaluate a model on a theta file")
    add_common(p, model=True)
    p.add_argument("--thetas", required=True, help="CSV or JSON-lines theta file")
    p.add_argument("--out", help="solutions CSV path (default stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("kkt-report", help="mean/worst KKT table on a dataset")
    add_common(p, model=True)
    p.add_argument("--dataset", required=True, help="JSON-lines dataset with feasible flags")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_kkt_report)

    p = sub.add_parser("gen-data", help="generate theta datasets from a case")
    p.add_argument("kind", choices=("local", "extreme", "scaled"))
    add_common(p)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--scales", default="1,1.125,1.25,1.375,1.5,1.625,1.75,1.875,2")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("bench", help="model batch vs oracle timing")
    add_common(p, model=True)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--jitter", type=float, default=1.0,
                   help="theta_e jitter radius around the root witness")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("import-case", help="convert a MATPOWER-style case file")
    p.add_argument("--matpower", required=True)
    p.add_argument("--half-quadratic", action="store_true",
                   help="cost tables use (1/2) x^T H x; halve on ingestion")
    p.add_argument("--out", help="case JSON output path (default stdout)")
    p.set_defaults(func=cmd_import_case)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except errors.CfqpError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
