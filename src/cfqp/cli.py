"""Command-line interface.

Subcommands: discover, predict, kkt-report, gen-data (local|extreme|
scaled), import-case.  Every error family maps to a distinct
exit code (see EXIT_CODES); all randomness flows through --seed.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import functools
import itertools
import json
import math
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterator, List, Optional, TextIO, Tuple

import numpy as np

from . import dcopf, errors
# feasible_extent, batch_forward, forward, kkt_report and brute_force_solve
# are not called here but stay bound: benchmark/tracing.py wraps these
# module attributes.
from .discovery import (  # noqa: F401
    DiscoveryLog,
    SearchPattern,
    axis_sweep_pattern,
    discover,
    feasible_extent,
    feasible_extents,
    scaled_base_pattern,
)
from .model import (  # noqa: F401
    batch_forward,
    deserialize,
    forward,
    forward_chunks,
    serialize,
)
from .oracle import (  # noqa: F401
    brute_force_solve,
    kkt_batch,
    kkt_means,
    kkt_report,
)
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
    ((errors.EnumerationLimit,), "usage"),
    ((errors.InfeasibleStart, errors.Infeasible), "infeasible"),
    ((errors.SingularJacobian, errors.SingularActiveJacobian), "singular"),
    ((errors.DigestMismatch,), "digest"),
    ((errors.MalformedModel, errors.ProblemFormatError), "format"),
    ((errors.UnresolvableTransition,), "transition"),
    ((errors.DisconnectedNetwork, errors.MissingSlack), "network"),
]


class CliError(Exception):
    """A bad command-line value or input file; exits with the usage code."""


def _exit_code(exc: Exception) -> int:
    for types, family in _ERROR_FAMILY:
        if isinstance(exc, types):
            return EXIT_CODES[family]
    return 1


def _load_case(args) -> Tuple[dcopf.PowerCase, MpQpProblem]:
    """The --case power case and its DC-OPF problem, with line-flow
    limits under --lines."""
    if not getattr(args, "case", None):
        raise CliError("--case is required")
    case = dcopf.PowerCase.from_json(Path(args.case).read_text())
    build = dcopf.build_dcopf_with_lines if args.lines else dcopf.build_dcopf
    return case, build(case)[0]


def _load_problem(args) -> MpQpProblem:
    if getattr(args, "problem", None):
        return MpQpProblem.from_json(Path(args.problem).read_text())
    if getattr(args, "case", None):
        return _load_case(args)[1]
    raise CliError("one of --problem or --case is required")


def _floats(tokens) -> List[float]:
    """The nonblank tokens (text cells, or the entries of a JSON list) as
    finite floats; raises TypeError or ValueError otherwise."""
    vals = [float(tok) for tok in tokens if not isinstance(tok, str) or tok.strip()]
    if not all(map(math.isfinite, vals)):
        raise ValueError("non-finite entries")
    return vals


def _parse_vector(text: str, flag: str) -> np.ndarray:
    try:
        return np.array(_floats(text.split(",")))
    except ValueError as exc:
        raise CliError(f"cannot parse {flag} {text!r}: {exc}")


def _parse_theta_e(problem: MpQpProblem, text: str, flag: str) -> np.ndarray:
    vec = _parse_vector(text, flag)
    if vec.shape != (problem.m1,):
        raise CliError(f"{flag} must list {problem.m1} equality-RHS entries, got {vec.size}")
    return vec


def _parse_scales(text: str) -> List[float]:
    scales = _parse_vector(text, "--scales").tolist()
    if not scales or sorted(set(scales)) != scales:
        raise CliError(f"--scales {text!r} must be a nonempty strictly ascending list")
    return scales


def _theta_from_args(problem: MpQpProblem, args) -> ParameterPoint:
    if getattr(args, "theta0", None):
        return ParameterPoint.of_theta_e(problem, _parse_theta_e(problem, args.theta0, "--theta0"))
    return ParameterPoint.zeros(problem)


#: Characters of a dataset file :func:`_read_dataset` reads at a time
#: (about 30,000 lines of six numbers, fewer of wider rows): the memory a
#: block takes does not grow with the file.
_BLOCK_CHARS = 1 << 21

Block = Tuple[np.ndarray, np.ndarray]


def _csv_header(problem: MpQpProblem, row: List[str]):
    """None when the file's first CSV row holds numbers; when it is a
    header (it has a non-numeric field), the columns it selects: the
    indices of theta_e1..theta_e{m1} if it names them all, and that of
    ``feasible``, each None if absent."""
    try:
        [float(tok) for tok in row if tok.strip()]
        return None
    except ValueError:
        header = [tok.strip() for tok in row]
        names = [f"theta_e{i+1}" for i in range(problem.m1)]
        columns = flag_at = None
        if names and set(names) <= set(header):
            columns = [header.index(name) for name in names]
        if "feasible" in header:
            flag_at = header.index("feasible")
        return columns, flag_at


def _loadtxt_block(problem: MpQpProblem, lines: List[str]) -> Optional[Block]:
    """A block of CSV lines parsed by ``np.loadtxt``, or None when the line
    loop must read it: loadtxt raised (on '1_0', a blank cell, a quote or
    '4,5,6 # tail', all of which the line loop reads or rejects itself),
    gave a width other than m1 or d or a non-finite value, or a line
    holds one of '\\x1c'-'\\x1f', which loadtxt strips around a number
    and ``float()`` rejects."""
    n, m1, d = problem.n, problem.m1, problem.d
    data = [line for line in lines if (s := line.lstrip()) and s[0] != "#"]  # no blank or comment
    if not data:
        return np.empty((0, d)), np.empty(0, bool)
    if any(map("".join(data).__contains__, "\x1c\x1d\x1e\x1f")):
        return None
    try:
        table = np.loadtxt(data, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        return None
    if table.shape[1] not in (m1, d) or not np.isfinite(table).all():
        return None
    if table.shape[1] != d:
        table = np.hstack([np.zeros((len(table), n)), table, np.zeros((len(table), problem.m2))])
    return table, np.ones(len(table), bool)


def _line_loop(problem: MpQpProblem, path: str, lines: List[str], lineno: int, jsonl: bool,
               columns: Optional[List[int]], flag_at: Optional[int]) -> Block:
    """A block of lines, the first of them line ``lineno + 1``, read one
    line at a time; ``columns`` and ``flag_at`` are what the CSV header
    selects.  Each CSV line is split on its own, so a quoted cell left
    open ends with its line.  A malformed or non-finite row is a usage
    error naming its file:line."""
    n, m1, m2, d = problem.n, problem.m1, problem.m2, problem.d
    pad_c, pad_C = [0.0] * n, [0.0] * m2
    rows, flags = [], []
    for lineno, line in enumerate(lines, lineno + 1):
        if not line.strip() or not jsonl and line.lstrip().startswith("#"):
            continue  # blank (empty or whitespace-only) or comment line
        flag = True
        try:
            if jsonl:
                rec = json.loads(line.removesuffix("\n"))  # an error's position stays on line 1
                if not isinstance(rec, dict):
                    raise ValueError("not a JSON object")
                parts = [rec.get("theta_c", pad_c), rec.get("theta_e"), rec.get("theta_C", pad_C)]
                if [len(p) if isinstance(p, list) else None for p in parts] != [n, m1, m2]:
                    raise ValueError(f"theta_c, theta_e and theta_C must be lists of {n}, "
                                     f"{m1} and {m2} numbers")
                flag = _floats([rec.get("feasible", True)]) != [0.0]  # as a CSV cell
                vals = _floats(parts[0] + parts[1] + parts[2])
            else:
                row = next(csv.reader([line]))
                if flag_at is not None:  # 0 is false; a missing cell, true
                    flag = _floats(row[flag_at:flag_at + 1]) != [0.0]
                if columns is not None:
                    row = [row[c] if c < len(row) else "" for c in columns]
                vals = _floats(row)
                if len(vals) == m1:
                    vals = pad_c + vals + pad_C
            if len(vals) != d:
                raise ValueError(f"expected {m1} or {d} columns, got {len(vals)}")
        except (TypeError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
            raise CliError(f"{path}:{lineno}: bad dataset row: {exc}")
        rows.append(vals)
        flags.append(flag)
    return np.array(rows, dtype=np.float64).reshape(len(rows), d), np.array(flags, bool)


def _read_dataset(problem: MpQpProblem, path: str) -> Iterator[Block]:
    """A dataset's rows, a block at a time: per block an (r, d) array of
    stacked thetas and their r feasible flags (True where a row gives
    none).  At least one block is yielded, an empty one for a file with no
    rows.

    A JSON-lines file (``.jsonl``, or text starting with '{') holds one
    record per line with ``theta_e`` and optionally ``theta_c``,
    ``theta_C`` (zeros by default) and ``feasible``, read as a CSV flag
    cell is (a boolean, a finite number or numeric text; 0 is false).
    A CSV file may have '#' comments, blank lines and a header: the first
    other row, if it has a non-numeric field.  A header naming theta_e1..theta_e{m1} (as
    ``gen-data --format csv`` writes) selects those columns and one named
    ``feasible`` gives the flags (0 is false); otherwise a row has either
    m1 (theta_e only) or d (stacked) numeric columns.  A malformed or
    non-finite row is a usage error naming its file:line.

    Lines end where the file iterator ends them, at '\\n', '\\r\\n' or
    '\\r' (not at the other ends ``str.splitlines`` knows, such as '\\f'
    or '\\u2028').  The file is read in blocks of whole lines
    (``readlines``), each ending at the first line end at or past
    _BLOCK_CHARS characters.  A CSV block goes through ``np.loadtxt``
    and, only where that rejects it (or the header selects columns),
    through the line loop; both give the floats ``float()`` gives.
    JSON-lines blocks go through the line loop."""
    jsonl = True if path.endswith(".jsonl") else None  # None: not known yet
    first = True  # the first data line, which may be a header, is still to come
    columns = flag_at = None
    lineno = 0
    with open(path) as fh:
        # readlines stops once its lines exceed the hint; a hint of 0 reads all
        for lines in iter(lambda: fh.readlines(max(_BLOCK_CHARS - 1, 1)), []):
            if jsonl is None:
                jsonl = next((s[0] == "{" for line in lines if (s := line.lstrip())), None)
            if first and not jsonl:
                at = next((i for i, line in enumerate(lines)
                           if (s := line.lstrip()) and s[0] != "#"), None)
                if at is not None:
                    first = False
                    header = _csv_header(problem, next(csv.reader([lines[at]])))
                    if header is not None:
                        columns, flag_at = header
                        lines[at] = ""  # now a blank line, which both readers skip
            block = None
            if not jsonl and columns is None and flag_at is None:
                block = _loadtxt_block(problem, lines)
            if block is None:
                block = _line_loop(problem, path, lines, lineno, bool(jsonl), columns, flag_at)
            yield block
            lineno += len(lines)
    if not lineno:
        yield np.empty((0, problem.d)), np.empty(0, bool)


def _csv_rows(table: np.ndarray) -> str:
    """CSV lines (CRLF-terminated) of a float64 table, each cell the
    shortest repr of its value, calling ``repr`` once per distinct bit
    pattern: complementary slackness and feasibility make many cells
    exactly 0.  Keying on the bits, not the value, keeps -0.0 apart
    from 0.0.  The cells and their separators are joined in one pass."""
    bits, where = np.unique(table.view(np.uint64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    parts = np.empty((len(table), 2 * table.shape[1]), dtype=object)
    parts[:, 0::2] = text[where.reshape(table.shape)]
    parts[:, 1::2] = ","
    parts[:, -1] = "\r\n"
    return "".join(parts.ravel().tolist())


@contextlib.contextmanager
def _output(path: Optional[str]) -> Iterator[TextIO]:
    """A text stream for ``path``, or stdout when there is none.  A regular
    file is written under a temporary name beside it and moved into place
    only when the block exits cleanly, so a failed run leaves no file."""
    if path is None:
        yield sys.stdout
        return
    target = Path(path)
    if target.exists() and not target.is_file():  # a device or a pipe: write in place
        with open(target, "w", newline="") as out:
            yield out
        return
    target = target.resolve()  # through a symlink: replace the file, keep the link
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    out = open(tmp, "x", newline="")
    try:
        with out:
            yield out
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# subcommands


def cmd_discover(args) -> int:
    if args.steps < 2:
        raise CliError(f"--steps must be >= 2, got {args.steps}")
    if not 0.0 < args.tol < np.inf:
        raise CliError(f"--tol must be positive and finite, got {args.tol}")
    problem = _load_problem(args)
    theta0 = _theta_from_args(problem, args)

    with _output(args.out) if args.out else contextlib.nullcontext() as out:
        extent_s = 0.0
        if args.pattern == "axis":
            if args.extent:
                extent = _parse_theta_e(problem, args.extent, "--extent")
                pattern = axis_sweep_pattern(theta0, extent, args.steps)
            else:
                # Default: sweep each theta_e axis both ways, out to the
                # bisected feasible boundary.
                start = time.perf_counter()
                units = [ParameterPoint.of_theta_e(problem, unit) for unit in np.eye(problem.m1)]
                extents = np.array(feasible_extents(
                    problem, theta0, units + [unit.scale(-1.0) for unit in units]))
                up, down = extents[:problem.m1], -extents[problem.m1:]
                extent_s = time.perf_counter() - start
                pattern = SearchPattern(
                    axis_sweep_pattern(theta0, up, args.steps).directions
                    + axis_sweep_pattern(theta0, down, args.steps).directions
                )
        else:
            if not args.extent:
                raise CliError("--extent is required for the scaled pattern")
            pattern = scaled_base_pattern(
                theta0, _parse_scales(args.scales), args.steps,
                _parse_theta_e(problem, args.extent, "--extent"),
            )

        with DiscoveryLog(args.log) as log:
            start = time.perf_counter()
            model = discover(
                problem, theta0, pattern, tol=args.tol, precision=args.precision, log=log,
                strict=not args.lenient,
            )
            elapsed = time.perf_counter() - start
        if args.out:
            out.write(serialize(model).decode())
    print(f"regions: {model.k}")
    for region in model.regions:
        print(f"  region {region.id}: active set {sorted(region.active_set)}")
    events = collections.Counter(record["event"] for record in log.records)
    # halvings is always 0; the field stays for readers of this line
    print(f"counters: points {events['point']}, halvings 0, "
          f"transitions {events['transition']}, boundary {events['boundary']}, "
          f"warnings {events['warning']}, extent bisection {extent_s:.3f} s")
    print(f"wall time: {elapsed:.3f} s")
    if args.out:
        print(f"model written to {args.out}")
    return 0


def _chunk_texts(problem: MpQpProblem, model, Theta: np.ndarray) -> Iterator[str]:
    """The CSV text of each :func:`forward_chunks` chunk of Theta's rows:
    the solution, the objective and the five KKT means."""
    for rows, X, Lam, Mu, objective in forward_chunks(model, Theta):
        table = np.hstack([X, Lam, Mu, objective[:, None], kkt_means(problem, X, Lam, Mu, rows)])
        yield _csv_rows(table)


def _fork_run(problem: MpQpProblem, model, Theta: np.ndarray, spill: TextIO) -> int:
    """Fork a worker that writes the CSV text of Theta's rows to ``spill``
    and exits 0, or replaces them with its error and exits 1; return its
    pid.  The worker never returns: ``os._exit`` skips every flush and
    clean-up of the parent's buffers and files."""
    # Safe though the parent may hold OpenBLAS threads, of which Python
    # >= 3.12 warns here with a DeprecationWarning: the child has only the
    # forking thread and calls no BLAS or LAPACK, only einsum, elementwise
    # numpy and repr on the model's layers, which cmd_predict built before
    # any fork.  It writes to nothing of the parent's but its spill.
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        for text in _chunk_texts(problem, model, Theta):
            spill.write(text)
        spill.flush()
        code = 0
    except Exception as exc:  # the error replaces the rows written so far
        os.ftruncate(spill.fileno(), 0)
        os.pwrite(spill.fileno(), f"{type(exc).__name__}: {exc}".encode(), 0)
    finally:
        os._exit(code)


def _write_block(out: TextIO, problem: MpQpProblem, model, Theta: np.ndarray) -> int:
    """Write the CSV rows of a block of thetas to ``out`` in row order and
    return the number of processes that evaluated them.

    The block's chunks are split into W contiguous runs, W being the
    CPUs this process may run on, at most the chunks, and 1 where it
    cannot fork.  W - 1 forked workers each evaluate a later run into an
    unlinked temporary file while this process writes run 0; then it
    reaps them all and appends their files in order.  A row's text does
    not depend on the run it falls in, so the bytes are those of one
    process.  If run 0 raises, the workers are killed before they are
    reaped; a failed worker is a ChildProcessError."""
    step = model.chunk_rows
    chunks = max(-(-len(Theta) // step), 1)
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    processes = min(len(os.sched_getaffinity(0)), chunks) if can_fork else 1
    cuts = [step * (chunks * r // processes) for r in range(processes)] + [len(Theta)]
    workers = []
    with contextlib.ExitStack() as spills:
        try:
            for lo, hi in zip(cuts[1:], cuts[2:]):
                spill = spills.enter_context(tempfile.TemporaryFile("w+", newline=""))
                workers.append((_fork_run(problem, model, Theta[lo:hi], spill), spill))
            for text in _chunk_texts(problem, model, Theta[:cuts[1]]):
                out.write(text)
        except BaseException:
            for pid, _ in workers:
                os.kill(pid, signal.SIGKILL)  # a worker holds nothing to clean up
            raise
        finally:
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in workers]
        for (pid, spill), code in zip(workers, codes):
            spill.seek(0)
            if code:
                reason = spill.read() if code == 1 else ""
                raise ChildProcessError(
                    f"predict worker {pid} failed: {reason or f'exit code {code}'}")
            shutil.copyfileobj(spill, out)
    return processes


def cmd_predict(args) -> int:
    problem = _load_problem(args)
    model = deserialize(Path(args.model).read_bytes(), problem)
    model._layers  # built here, once, so that no forked worker builds it
    header = (
        [f"x{i+1}" for i in range(problem.n)]
        + [f"lambda{i+1}" for i in range(problem.m1)]
        + [f"mu{i+1}" for i in range(problem.m2)]
        + ["objective", "kkt1", "kkt2_eq", "kkt2_ineq", "kkt3", "kkt4"]
    )
    start = time.perf_counter()
    blocks = _read_dataset(problem, args.thetas)
    first = next(blocks)  # read before any output, so a bad row in it prints nothing
    count = processes = 0
    with _output(args.out) as out:
        out.write(",".join(header) + "\r\n")
        for thetas, _ in itertools.chain([first], blocks):
            count += len(thetas)
            processes = max(processes, _write_block(out, problem, model, thetas))
    elapsed = time.perf_counter() - start
    print(f"batch of {count} evaluated in {elapsed:.4f} s on {processes} "
          f"process{'es' if processes > 1 else ''}", file=sys.stderr)
    return 0


def cmd_kkt_report(args) -> int:
    problem = _load_problem(args)
    model = deserialize(Path(args.model).read_bytes(), problem)
    with _output(args.out) if args.out else contextlib.nullcontext() as fh:
        parts, count, skipped, rows = [], 0, 0, []
        for thetas, feasible in _read_dataset(problem, args.dataset):
            count += int(feasible.sum())
            skipped += len(thetas) - int(feasible.sum())
            parts += [kkt_batch(problem, X, Lam, Mu, rows)
                      for rows, X, Lam, Mu, _ in forward_chunks(model, thetas[feasible])]
        if count:
            kkt1, kkt2_eq, kkt2_ineq, kkt3, kkt4 = (np.concatenate(v) for v in zip(*parts))
            groups = problem.variable_groups or {}
            columns = [(f"KKT1-{name}", kkt1[:, list(idx)]) for name, idx in groups.items()]
            if not groups:
                columns.append(("KKT1", kkt1))
            columns += [
                ("KKT2(=)", kkt2_eq),
                ("KKT2(<=)", kkt2_ineq),
                ("KKT3", kkt3),
                ("KKT4", kkt4),
            ]
            rows = [(name, float(v.mean()), float(v.max())) for name, v in columns]
        if args.out:  # no feasible row writes the header only, as predict does
            w = csv.writer(fh)
            w.writerow(["condition", "mean", "worst"])
            for name, mean, worst in rows:
                w.writerow([name, repr(mean), repr(worst)])

    if not count:
        print("warning: empty dataset (no feasible rows)", file=sys.stderr)
        return 0
    print(f"{'condition':12s} {'mean':>12s} {'worst':>12s}")
    for name, mean, worst in rows:
        print(f"{name:12s} {mean:12.3e} {worst:12.3e}")
    print(f"feasible rows: {count}, infeasible rows excluded: {skipped}")
    return 0


def cmd_gen_data(args) -> int:
    size, flag = (args.steps, "--steps") if args.kind == "extreme" else (args.count, "--count")
    if size < 1:
        raise CliError(f"{flag} must be >= 1, got {size}")
    if not 0 <= args.seed < 2 ** 128:  # the Philox key is 128 bits
        raise CliError(f"--seed must be in [0, 2**128), got {args.seed}")
    case, problem = _load_case(args)
    with _output(args.out) as out:
        scale_of = itertools.repeat(None)  # each row's scale, for scaled only
        if args.kind == "local":
            theta_e, feasible = dcopf.local_perturbation_dataset(
                case, args.count, args.seed, problem=problem
            )
        elif args.kind == "extreme":
            theta_e, feasible = dcopf.extreme_dataset(case, steps=args.steps, problem=problem)
        else:
            scales = _parse_scales(args.scales)
            theta_e, feasible = dcopf.scaled_dataset(
                case, scales, args.count, args.seed, problem=problem
            )
            counts = feasible.reshape(len(scales), -1).sum(1).tolist()
            for scale, count in zip(scales, counts):
                print(f"scale {scale:g}: {count} of {args.count} feasible", file=sys.stderr)
            scale_of = np.repeat(scales, args.count).tolist()
        rows = zip(theta_e.tolist(), feasible.tolist(), scale_of)
        if args.format == "jsonl":
            for theta, flag, scale in rows:
                rec = {"theta_e": theta, "feasible": flag}
                if scale is not None:
                    rec["scale"] = scale
                out.write(json.dumps(rec) + "\n")
        else:
            writer = csv.writer(out)
            writer.writerow(
                [f"theta_e{i+1}" for i in range(problem.m1)] + ["feasible", "scale"]
            )
            writer.writerows(
                list(map(repr, theta)) + [int(flag), "" if scale is None else repr(scale)]
                for theta, flag, scale in rows
            )
    if args.out:
        print(f"{len(theta_e)} points written to {args.out}", file=sys.stderr)
    return 0


def cmd_import_case(args) -> int:
    with _output(args.out) as out:
        case = dcopf.parse_matpower(
            Path(args.matpower).read_text(),
            name=Path(args.matpower).stem,
            half_quadratic=args.half_quadratic,
        )
        out.write(case.to_json(indent=2) + "\n")
    if args.out:
        print(f"case written to {args.out}")
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process because building
    one makes reference cycles.  Parsing leaves it unchanged; callers
    must not change it."""
    parser = argparse.ArgumentParser(
        prog="cfqp",
        description="Exact closed-form solution functions for multiparametric "
        "QPs, with a DC-OPF front end.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_case(p):
        p.add_argument("--case", help="power case JSON file")
        p.add_argument("--lines", action="store_true",
                       help="include line-flow limits when building from a case")

    def add_common(p, model=False):
        p.add_argument("--problem", help="problem JSON file")
        add_case(p)
        if model:
            p.add_argument("--model", required=True, help="model file")

    p = sub.add_parser("discover", help="run region discovery and write a model")
    add_common(p)
    p.add_argument("--precision", type=int, choices=(32, 64), default=64)
    p.add_argument("--tol", type=float, default=1e-10)
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
    p.add_argument("--dataset", required=True,
                   help="CSV or JSON-lines dataset; rows flagged infeasible are skipped")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_kkt_report)

    p = sub.add_parser("gen-data", help="generate theta datasets from a case")
    p.add_argument("kind", choices=("local", "extreme", "scaled"))
    add_case(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--scales", default="1,1.125,1.25,1.375,1.5,1.625,1.75,1.875,2")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_gen_data)

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
        return EXIT_CODES["usage"]
    except errors.CfqpError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
