#!/usr/bin/env python3
"""The cfqp benchmark: one command for every workload.

    python3 benchmark/run.py --workload predict-renewable --seed 1 \\
        --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is the result object
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before it
is the run record (machine, versions, seed, why the workload exists).
``--trace 1`` reports the per-layer metrics instead of the end-to-end
ones and writes the spans to ``benchmark/runs/``.  See README.md.
"""

import os

# One BLAS/OpenMP thread: pinned before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = BENCH_DIR / "runs"


def git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def blas_info(numpy):
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # the config layout differs between numpy versions
        return None


def workload_reasons():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return {w["name"]: w["why"] for w in spec["workloads"]}
    except (OSError, ValueError, KeyError):
        return {}


def run_record(workload, seed, seconds, trace):
    import numpy
    import scipy

    return {
        "workload": workload,
        "why": workload_reasons().get(workload),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(numpy),
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cfqp" / "__init__.py").is_file():
        print(f"error: no cfqp sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cfqp
    import workloads

    if not Path(cfqp.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: cfqp was imported from {cfqp.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    RUNS.mkdir(exist_ok=True)
    record = run_record(args.workload, args.seed, args.seconds, args.trace)
    trace_path = RUNS / f"trace-{args.workload}-seed{args.seed}.json" if args.trace else None
    with tempfile.TemporaryDirectory(dir=RUNS) as work_dir:
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        out = workloads.measure(workload, args.seconds, bool(args.trace), trace_path)
    record.update(out["record"])
    print(json.dumps(record))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
