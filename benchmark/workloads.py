"""The cfqp benchmark workloads and the loop that measures them.

Every workload is a closed loop with one caller in one process: it
drives the program through in-process ``cfqp.cli.main([...])`` calls and
the library's public functions, repeats its operation until the time
budget is spent, and checks every output outside the timed window.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
from collections import namedtuple
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from calibration import LoadClock, PlainClock, corrected
from tracing import Tracer, plain_call

#: Units of the end-to-end metrics (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

FIXTURES = ("two_parameter", "case6", "case6_lines")
_DISCOVERY_EVENTS = ("points", "transitions", "boundary", "halvings")

#: Units of the per-layer metrics (``--trace 1``).  Every workload reports
#: every name; a layer the workload does not reach reads 0.
PER_LAYER = {
    "fail_share": "share",
    "trace.wall_s": "s",
    "trace.unwrapped_s": "s",
    "trace.overhead_share": "share",
    "cli.self_s": "s",
    "model.self_s": "s",
    "oracle.self_s": "s",
    "core.self_s": "s",
    "discovery.self_s": "s",
    "dcopf.self_s": "s",
    "cli.predict.self_s": "s",
    "cli.discover.self_s": "s",
    "cli.gen_data.self_s": "s",
    "model.deserialize_s": "s",
    "model.batch_forward_us_per_pt": "us",
    "model.forward.calls": "count",
    "model.forward_us": "us",
    "model.forward_p50_us": "us",
    "model.forward_p99_us": "us",
    "model.forward.samples": "count",
    "model.locate_region.calls": "count",
    "model.locate_region_us": "us",
    "model.expand.calls": "count",
    "model.expand_ms": "ms",
    "model.serialize_ms": "ms",
    "oracle.kkt_report.calls": "count",
    "oracle.kkt_report_us": "us",
    "oracle.is_feasible.calls": "count",
    "oracle.is_feasible_ms": "ms",
    "oracle.brute_force_solve.calls": "count",
    "core.solve_active_set.calls": "count",
    "core.solve_active_set.singular": "count",
    "core.solve_active_set_us": "us",
    "core.solves_per_label": "count",
    "core.useful_share": "share",
    "core.region_slopes.calls": "count",
    "core.region_slopes_us": "us",
    "discovery.feasible_extent.calls": "count",
    "discovery.feasible_extent_s": "s",
    "discovery.discover_self_s": "s",
    **{f"discovery.{e}": "count" for e in _DISCOVERY_EVENTS},
    **{f"discovery.{f}.{e}": "count" for f in FIXTURES for e in _DISCOVERY_EVENTS},
    **{f"discovery.{f}_s": "s" for f in FIXTURES},
    "dcopf.scaled_dataset_self_s": "s",
    "dcopf.build_s": "s",
    "reference.model_us_per_pt": "us",
    "reference.bruteforce_us_per_pt": "us",
    "reference.slsqp_us_per_pt": "us",
    "reference.slsqp_iterations": "count",
    "reference.samples": "count",
    "speedup_vs_bruteforce_x": "x",
    "speedup_vs_slsqp_x": "x",
}


def import_cfqp() -> SimpleNamespace:
    """Import the cfqp package afresh, so set-up pays for it every time."""
    for name in [m for m in sys.modules if m == "cfqp" or m.startswith("cfqp.")]:
        del sys.modules[name]
    return SimpleNamespace(**{
        name: importlib.import_module(f"cfqp.{name}")
        for name in ("cases", "cli", "dcopf", "discovery", "model", "oracle", "problem")
    })


class Workload:
    """One workload: set-up, the repeated operation, and its checks."""

    name = ""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.dir = Path(work_dir)
        self.call = plain_call  # Tracer.call during traced rounds
        self.cf = None
        self.clock = PlainClock()  # a LoadClock in untraced runs
        self.begin_round()

    def begin_round(self) -> None:
        self.parts, self.kernels = [], []

    def timed(self, fn, *args):
        """Run one user-visible call; keep its time and the clock's mean
        reference-kernel time."""
        out, seconds, kernel_s = self.clock.time(fn, *args)
        self.parts.append(seconds)
        self.kernels.append(kernel_s)
        return out

    def setup(self) -> None:
        raise NotImplementedError

    def operation(self) -> int:
        """Run once, timing each user-visible call with :meth:`timed`;
        return the number of items processed."""
        raise NotImplementedError

    def digest(self) -> str:
        """Fingerprint of the last round's outputs."""
        raise NotImplementedError

    def keep_first(self) -> None:
        """Keep the first round's outputs for :meth:`check`."""

    def check(self):
        """Check the first round's outputs; return (attempted, failed)."""
        raise NotImplementedError

    def layer_metrics(self, untraced_rounds) -> dict:
        return {}

    def traced_context(self):
        """Extra instrumentation for traced rounds."""
        return contextlib.nullcontext()

    def end_round(self, traced: bool) -> None:
        """Called after each round, outside its timing."""

    def write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text)
        return str(path)

    def run_cli(self, span: str, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.call(span, self.cf.cli.main, argv)
        return code, out.getvalue()


def _file_digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        p = Path(path)
        h.update(p.read_bytes() if p.exists() else b"<missing>")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# predict-renewable


#: Per-row KKT level: criterion 9's bound on the mean scalar.
KKT_LEVEL = 1e-18
_LOAD_BUSES = (3, 4, 5)


def box_pattern(cf, problem, extent_up=87.0, extent_dn=56.0, steps=40):
    """Criterion 9's discovery pattern on the case6 box problem: one
    uniform load-bus direction plus per-load-bus sweeps, both ways."""
    theta0 = cf.problem.ParameterPoint.zeros(problem)
    load = np.zeros(problem.m1)
    load[list(_LOAD_BUSES)] = 1.0
    directions = []
    for ext in (extent_up, -extent_dn):
        uniform = cf.problem.ParameterPoint.of_theta_e(problem, load * ext / steps)
        directions.append(cf.discovery.Direction(start=theta0, step=uniform, max_steps=steps))
        directions.extend(cf.discovery.axis_sweep_pattern(theta0, load * ext, steps).directions)
    return theta0, cf.discovery.SearchPattern(directions)


def flip_direction(payload: bytes, region: int) -> bytes:
    """A corrupted model: one region's direction sign flipped, with the
    stored incidence kept consistent so the file still loads."""
    doc = json.loads(payload)
    doc["regions"][region]["direction"] *= -1
    for triplet in doc["incidence"]:
        if triplet[1] == region:
            triplet[2] *= -1
    return json.dumps(doc, separators=(",", ":")).encode()


class PredictRenewable(Workload):
    """``predict`` on the 24-hour renewable sweep, then single-theta
    ``forward`` calls on the same thetas."""

    name = "predict-renewable"

    def __init__(self, seed, work_dir, hours=24, samples=500,
                 forward_calls=1000, oracle_samples=50, reference_samples=40,
                 corrupt=False):
        super().__init__(seed, work_dir)
        self.hours, self.samples = hours, samples
        self.forward_calls = forward_calls
        self.oracle_samples = oracle_samples
        self.reference_samples = reference_samples
        self.corrupt = corrupt
        self.untraced_latencies_ns = []

    def setup(self):
        cf = self.cf = import_cfqp()
        case = cf.cases.case6()
        problem, _ = cf.dcopf.build_dcopf(case)
        theta0, pattern = box_pattern(cf, problem)
        payload = cf.model.serialize(cf.discovery.discover(problem, theta0, pattern))
        if self.corrupt:
            payload = flip_direction(payload, region=1)
        P_d = case.demand_vector()
        samples = cf.dcopf.renewable_samples(self.samples, len(_LOAD_BUSES), seed=self.seed)
        rows = []
        for h in np.linspace(0.7, 1.2, self.hours):
            base_shift = (1.0 - h) * P_d
            for sample in samples:
                ren = np.zeros(problem.m1)
                ren[list(_LOAD_BUSES)] = 30.0 * sample
                rows.append(base_shift + ren)
        rows = np.array(rows)
        self.thetas = [cf.problem.ParameterPoint.of_theta_e(problem, r) for r in rows]
        self.problem = problem
        self.case_file = self.write("case6.json", case.to_json())
        self.model_file = self.dir / "model.json"
        self.model_file.write_bytes(payload)
        self.theta_file = self.write(
            "thetas.csv", "".join(",".join(map(repr, r.tolist())) + "\n" for r in rows))
        self.out_file = self.dir / "solutions.csv"
        self.model = cf.model.deserialize(payload, problem)
        self.forward = cf.model.forward  # unpatched: traced rounds add one span
        rng = np.random.default_rng(self.seed)
        self.picks = rng.integers(len(self.thetas), size=self.forward_calls)

    def operation(self):
        self.code, _ = self.timed(self.run_cli, "cli.predict", [
            "predict", "--case", self.case_file, "--model", str(self.model_file),
            "--thetas", self.theta_file, "--out", str(self.out_file),
        ])
        self.forward_out = {}
        self.latencies_ns = []
        for i in self.picks:
            t0 = time.perf_counter_ns()
            sol = self.call("model.forward", self.forward, self.model, self.thetas[i])
            self.latencies_ns.append(time.perf_counter_ns() - t0)
            self.forward_out[int(i)] = sol
        return len(self.thetas)

    def end_round(self, traced):
        if not traced:
            self.untraced_latencies_ns.extend(self.latencies_ns)

    def digest(self):
        h = hashlib.sha256(_file_digest(self.out_file).encode())
        h.update(str(self.code).encode())
        for i in sorted(self.forward_out):
            sol = self.forward_out[i]
            h.update(np.concatenate([sol.x, sol.lam, sol.mu]).tobytes())
        return h.hexdigest()

    def keep_first(self):
        self.first_file = self.out_file.with_name("first-" + self.out_file.name)
        self.out_file.replace(self.first_file)
        self.first_code, self.first_forward = self.code, self.forward_out

    def check(self):
        problem, cf = self.problem, self.cf
        n, m1, m2 = problem.n, problem.m1, problem.m2
        rows = len(self.thetas)
        if self.first_code:
            return rows, rows
        data = np.loadtxt(self.first_file, delimiter=",", skiprows=1, ndmin=2)
        if data.shape != (rows, n + m1 + m2 + 6):
            return rows, rows
        bad = ~np.isfinite(data).all(axis=1)
        for i, theta in enumerate(self.thetas):
            if bad[i]:
                continue
            x, lam, mu = data[i, :n], data[i, n:n + m1], data[i, n + m1:n + m1 + m2]
            sol = cf.problem.PrimalDualSolution(x=x, lam=lam, mu=mu, objective=data[i, n + m1 + m2])
            if (cf.model.locate_region(self.model, theta) is None
                    or cf.oracle.kkt_report(problem, sol, theta).scalar > KKT_LEVEL):
                bad[i] = True
        # single-theta forward must equal the batch row bit for bit
        for i, sol in self.first_forward.items():
            single = np.concatenate([sol.x, sol.lam, sol.mu, [sol.objective]])
            if not np.array_equal(single, data[i, :n + m1 + m2 + 1]):
                bad[i] = True
        # the multiplier support must be the enumeration oracle's active set
        rng = np.random.default_rng([self.seed, 1])
        for i in rng.choice(rows, size=min(self.oracle_samples, rows), replace=False):
            mu = data[i, n + m1:n + m1 + m2]
            support = {k + 1 for k in np.flatnonzero(mu > 1e-9 * max(1.0, np.abs(mu).max()))}
            if support != set(cf.oracle.brute_force_solve(problem, self.thetas[i]).active_set):
                bad[i] = True
        return rows, int(bad.sum())

    def layer_metrics(self, untraced_rounds):
        lat = np.array(self.untraced_latencies_ns) / 1e3
        out = {
            "model.forward_p50_us": float(np.percentile(lat, 50)),
            "model.forward_p99_us": float(np.percentile(lat, 99)),
            "model.forward.samples": int(lat.size),
        }
        out.update(self.reference())
        return out

    def reference(self):
        """Re-solving the same thetas: enumeration and a scipy SLSQP solve
        at ftol 1e-10, against ``batch_forward``.  Reported, not gated."""
        from scipy.optimize import minimize

        problem, cf = self.problem, self.cf
        rng = np.random.default_rng([self.seed, 2])
        picks = rng.choice(len(self.thetas), size=min(self.reference_samples, len(self.thetas)),
                           replace=False)
        start = time.perf_counter()
        cf.model.batch_forward(self.model, self.thetas)
        model_us = (time.perf_counter() - start) / len(self.thetas) * 1e6

        bf_us, sq_us, iterations = [], [], []
        Q, C, A_e, A_C = problem.Q, problem.C, problem.A_e, problem.A_C
        for i in picks:
            theta = self.thetas[i]
            t0 = time.perf_counter()
            cf.oracle.brute_force_solve(problem, theta)
            bf_us.append((time.perf_counter() - t0) * 1e6)
            c = C + theta.theta_c
            b_e = problem.b_e + theta.theta_e
            b_C = problem.b_C + theta.theta_C
            t0 = time.perf_counter()
            res = minimize(
                lambda x: x @ Q @ x + c @ x + problem.C0, np.zeros(problem.n),
                jac=lambda x: 2.0 * Q @ x + c, method="SLSQP",
                constraints=[
                    {"type": "eq", "fun": lambda x: A_e @ x - b_e, "jac": lambda x: A_e},
                    {"type": "ineq", "fun": lambda x: A_C @ x - b_C, "jac": lambda x: A_C},
                ],
                options={"ftol": 1e-10, "maxiter": 500},
            )
            sq_us.append((time.perf_counter() - t0) * 1e6)
            iterations.append(res.nit)
        bf, sq = statistics.median(bf_us), statistics.median(sq_us)
        return {
            "reference.model_us_per_pt": model_us,
            "reference.bruteforce_us_per_pt": bf,
            "reference.slsqp_us_per_pt": sq,
            "reference.slsqp_iterations": statistics.median(iterations),
            "reference.samples": len(picks),
            "speedup_vs_bruteforce_x": bf / model_us,
            "speedup_vs_slsqp_x": sq / model_us,
        }


# ---------------------------------------------------------------------------
# discover-fixtures


#: Region active sets, in discovery order, that the reference commit
#: builds for each fixture (see README.md).
EXPECTED_REGIONS = {
    "two_parameter": [[3, 4], [1, 3, 4], [1, 3, 4, 5], [1, 3, 4, 6]],
    "case6": [[], [6], [4, 6], [1], [1, 3]],
    "case6_lines": [[], [6], [4, 6], [1], [1, 3]],
}


class DiscoverFixtures(Workload):
    """``discover`` on the three bundled fixtures with the default axis
    pattern; the inputs are fixed, so the seed is unused."""

    name = "discover-fixtures"

    def setup(self):
        cf = self.cf = import_cfqp()
        problem_json = cf.cases.bundled_problem_json()
        problem_file = self.write("two_parameter.json", problem_json)
        case_json = cf.cases.bundled_case_json()
        case_file = self.write("case6.json", case_json)
        case = cf.dcopf.PowerCase.from_json(case_json)
        self.problems = {
            "two_parameter": cf.problem.MpQpProblem.from_json(problem_json),
            "case6": cf.dcopf.build_dcopf(case)[0],
            "case6_lines": cf.dcopf.build_dcopf_with_lines(case)[0],
        }
        self.argv = {
            "two_parameter": ["--problem", problem_file, "--theta0", "100,100", "--steps", "200"],
            "case6": ["--case", case_file, "--steps", "40"],
            "case6_lines": ["--case", case_file, "--lines", "--steps", "40", "--lenient"],
        }
        self.models = {f: self.dir / f"model-{f}.json" for f in FIXTURES}

    def operation(self):
        self.codes = {}
        for fixture in FIXTURES:
            code, _ = self.timed(self.run_cli, "cli.discover", [
                "discover", *self.argv[fixture], "--out", str(self.models[fixture]),
            ])
            self.codes[fixture] = code
        return len(FIXTURES)

    def digest(self):
        return _file_digest(*self.models.values()) + json.dumps(self.codes, sort_keys=True)

    def keep_first(self):
        self.first = {f: (self.codes[f], self.models[f].read_bytes()
                          if self.models[f].exists() else b"") for f in FIXTURES}

    def check(self):
        cf = self.cf
        failed = 0
        for fixture, (code, payload) in self.first.items():
            problem = self.problems[fixture]
            ok = code == 0
            if ok:
                model = cf.model.deserialize(payload, problem)
                found = [sorted(r.active_set) for r in model.regions]
                ok = found == EXPECTED_REGIONS[fixture] and all(
                    cf.oracle.brute_force_solve(problem, r.witness_theta).active_set
                    == r.active_set
                    for r in model.regions
                )
            failed += not ok
        return len(FIXTURES), failed

    def layer_metrics(self, untraced_rounds):
        out = {
            f"discovery.{f}_s": min(r.parts[j] for r in untraced_rounds)
            for j, f in enumerate(FIXTURES)
        }
        for fixture, log in zip(FIXTURES, self.logs):
            points = [r for r in log.records if r["event"] == "point"]
            counts = {
                "points": len(points),
                "transitions": sum(r["event"] == "transition" for r in log.records),
                "boundary": sum(r["event"] == "boundary" for r in log.records),
                "halvings": sum(r["depth"] > 0 for r in points),
            }
            for event, value in counts.items():
                out[f"discovery.{fixture}.{event}"] = value
                out[f"discovery.{event}"] = out.get(f"discovery.{event}", 0) + value
        return out

    @contextlib.contextmanager
    def traced_context(self):
        """Keep the DiscoveryLog objects ``cmd_discover`` creates, to read
        their public records after the round."""
        cli = self.cf.cli
        original = cli.DiscoveryLog
        self.logs = []

        def make_log(*args, **kwargs):
            log = original(*args, **kwargs)
            self.logs.append(log)
            return log

        cli.DiscoveryLog = make_log
        try:
            yield
        finally:
            cli.DiscoveryLog = original


# ---------------------------------------------------------------------------
# label-scaled


SCALES = [1.0 + 0.125 * i for i in range(9)]


class LabelScaled(Workload):
    """``gen-data scaled`` on the line-limited case6 problem: criterion 7's
    nine load scales, every point labelled by enumeration.

    One call per scale with the same seed gives every scale the same
    demand ratios, so each ratio vector traces a ray of growing load."""

    name = "label-scaled"

    def __init__(self, seed, work_dir, per_scale=20):
        super().__init__(seed, work_dir)
        self.per_scale = per_scale

    def setup(self):
        cf = self.cf = import_cfqp()
        case_json = cf.cases.bundled_case_json()
        self.case_file = self.write("case6.json", case_json)
        self.problem, _ = cf.dcopf.build_dcopf_with_lines(cf.dcopf.PowerCase.from_json(case_json))
        self.out_files = [self.dir / f"scaled-{k}.jsonl" for k in range(len(SCALES))]

    def operation(self):
        self.codes = []
        for scale, out_file in zip(SCALES, self.out_files):
            code, _ = self.timed(self.run_cli, "cli.gen_data", [
                "gen-data", "scaled", "--case", self.case_file, "--lines",
                "--count", str(self.per_scale), "--seed", str(self.seed),
                "--scales", repr(scale), "--out", str(out_file),
            ])
            self.codes.append(code)
        return self.per_scale * len(SCALES)

    def digest(self):
        return _file_digest(*self.out_files) + str(self.codes)

    def keep_first(self):
        self.first_codes = self.codes
        self.first = [f.read_text() if f.exists() else "" for f in self.out_files]

    def check(self):
        """A point fails when its label disagrees with an LP feasibility
        check of the constraint set, or when it is labelled feasible while
        its ray was infeasible at a smaller scale.  Zero load is feasible
        and the feasible set is convex, so survival can only fall along a
        ray, and the survival counts fall with scale as criterion 7
        requires."""
        from scipy.optimize import linprog

        p = self.problem
        points = self.per_scale * len(SCALES)
        labels = []
        for code, text in zip(self.first_codes, self.first):
            records = [json.loads(line) for line in text.splitlines() if line.strip()]
            if code != 0 or len(records) != self.per_scale:
                return points, points
            scale_labels = []
            for rec in records:
                res = linprog(
                    np.zeros(p.n), A_ub=-p.A_C, b_ub=-p.b_C,
                    A_eq=p.A_e, b_eq=p.b_e + np.asarray(rec["theta_e"]),
                    bounds=[(None, None)] * p.n, method="highs",
                )
                agrees = res.status in (0, 2) and (res.status == 0) == rec["feasible"]
                scale_labels.append(rec["feasible"] if agrees else None)
            labels.append(scale_labels)
        return points, label_failures(labels)


def label_failures(labels) -> int:
    """Points whose label disagreed with the LP (None), plus points labelled
    feasible after their ray was labelled infeasible at a smaller scale.
    ``labels[j][i]`` is point ``i`` at scale ``j``."""
    failed = 0
    for ray in zip(*labels):
        ended = False
        for label in ray:
            failed += label is None or (label and ended)
            ended = ended or label is False
    return failed


WORKLOADS = {w.name: w for w in (PredictRenewable, DiscoverFixtures, LabelScaled)}


# ---------------------------------------------------------------------------
# measurement


def _timed_setup(workload: Workload):
    """Set the workload up; return (seconds, mean kernel seconds)."""
    return workload.clock.time(workload.setup)[1:]


Round = namedtuple("Round", "wall parts kernels items traced same")


def _done(rounds, trace, deadline) -> bool:
    """Stop before a round that would end past the deadline, once there is
    a round (and, when tracing, a traced one)."""
    if not rounds or (trace and not any(r.traced for r in rounds)):
        return False
    return time.perf_counter() + rounds[-1].wall > deadline


def measure(workload: Workload, seconds: float, trace: bool, trace_path=None) -> dict:
    """Set up, repeat the operation for ``seconds``, check the outputs and
    return the result object (metrics, attempted, failed) plus a record.

    The end-to-end times are load-corrected (see calibration.py):
    ``op_s`` adds up, over the calls an operation makes, the median over
    the rounds of each call's corrected time, and ``setup_s`` is the
    median corrected set-up time.  The raw times are kept in the record.

    With ``trace`` the rounds alternate untraced and traced; the untraced
    ones give the overhead base and untraced latencies, the traced ones
    the per-layer numbers.  Traced runs report no end-to-end times, so
    they do not run the reference kernel."""
    workload.clock = PlainClock() if trace else LoadClock()
    # Set-up runs three times up front and again before every later round,
    # so that its median samples the whole run rather than one moment of
    # the host's load.
    setups = [_timed_setup(workload) for _ in range(3)]
    tracer = Tracer()
    rounds = []
    first_digest = None
    deadline = time.perf_counter() + seconds
    while not _done(rounds, trace, deadline):
        traced = trace and len(rounds) % 2 == 1
        if rounds:
            setups.append(_timed_setup(workload))
        workload.begin_round()
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(tracer.patched())
                stack.enter_context(workload.traced_context())
                workload.call = tracer.call
            start = time.perf_counter()
            try:
                items = workload.operation()
            finally:
                wall = time.perf_counter() - start
                workload.call = plain_call
        workload.end_round(traced)
        digest = workload.digest()
        if first_digest is None:
            first_digest = digest
            workload.keep_first()
        rounds.append(Round(wall, workload.parts, workload.kernels, items, traced,
                            digest == first_digest))

    checked, failed_first = workload.check()
    attempted = checked * len(rounds)
    failed = sum(failed_first if r.same else checked for r in rounds)
    record = {
        "rounds": len(rounds),
        "items_per_op": rounds[0].items,
        "op_s_per_round": [r.parts for r in rounds],
        "setup_s_per_rep": [t for t, _ in setups],
    }
    if not trace:
        record["kernel_s_per_round"] = [r.kernels for r in rounds]
        record["kernel_s_per_setup"] = [k for _, k in setups]
        record["op_s_raw"] = sum(statistics.median(parts)
                                 for parts in zip(*(r.parts for r in rounds)))
        op_s = sum(
            statistics.median(corrected(t, k) for t, k in zip(parts, kernels))
            for parts, kernels in zip(zip(*(r.parts for r in rounds)),
                                      zip(*(r.kernels for r in rounds)))
        )
        metrics = {
            "setup_s": statistics.median(corrected(t, k) for t, k in setups),
            "op_s": op_s,
            "items_per_s": rounds[0].items / op_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        untraced = [r for r in rounds if not r.traced]
        traced = [r for r in rounds if r.traced]
        metrics = _per_layer(tracer.summary(), untraced, traced)
        metrics["fail_share"] = failed / attempted
        metrics.update(workload.layer_metrics(untraced))
        units = PER_LAYER
        if trace_path is not None:
            tracer.dump(trace_path)
    unknown = set(metrics) - set(units)
    if unknown:
        raise KeyError(f"metrics missing from the unit table: {sorted(unknown)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit}
                    for name, unit in units.items()},
    }
    return {"result": result, "record": record}


def _per_layer(s, untraced, traced) -> dict:
    R = len(traced)

    def per_call(name, scale):
        return s.total[name] / s.calls[name] * scale if s.calls[name] else 0.0

    wall = sum(r.wall for r in traced) / R
    batch_points = s.count("model.forward", parent="model.batch_forward")
    enum_solves = s.count("core.solve_active_set", parent="oracle.brute_force_solve")
    labels = s.calls["oracle.is_feasible"]
    out = {
        "trace.wall_s": wall,
        "trace.unwrapped_s": wall - s.root_total / R,
        "trace.overhead_share":
            min(r.wall for r in traced) / min(r.wall for r in untraced) - 1.0,
        "cli.predict.self_s": s.self_time["cli.predict"] / R,
        "cli.discover.self_s": s.self_time["cli.discover"] / R,
        "cli.gen_data.self_s": s.self_time["cli.gen_data"] / R,
        "model.deserialize_s": s.total["model.deserialize"] / R,
        "model.batch_forward_us_per_pt":
            s.total["model.batch_forward"] / batch_points * 1e6 if batch_points else 0.0,
        "model.forward_us": per_call("model.forward", 1e6),
        "model.locate_region_us": per_call("model.locate_region", 1e6),
        "model.expand_ms": per_call("model.expand", 1e3),
        "model.serialize_ms": per_call("model.serialize", 1e3),
        "oracle.kkt_report_us": per_call("oracle.kkt_report", 1e6),
        "oracle.is_feasible_ms": per_call("oracle.is_feasible", 1e3),
        "core.solve_active_set_us": per_call("core.solve_active_set", 1e6),
        "core.solve_active_set.singular": s.raised.get("core.solve_active_set", 0) / R,
        "core.solves_per_label":
            s.count("core.solve_active_set", ancestor="oracle.is_feasible") / labels
            if labels else 0.0,
        "core.useful_share":
            s.count("oracle.kkt_report", parent="oracle.brute_force_solve") / enum_solves
            if enum_solves else 0.0,
        "core.region_slopes_us": per_call("core.region_slopes", 1e6),
        "discovery.feasible_extent_s": s.total["discovery.feasible_extent"] / R,
        "discovery.discover_self_s": s.self_time["discovery.discover"] / R,
        "dcopf.scaled_dataset_self_s": s.self_time["dcopf.scaled_dataset"] / R,
        "dcopf.build_s": per_call("dcopf.build", 1.0),
    }
    for module in ("cli", "model", "oracle", "core", "discovery", "dcopf"):
        out[f"{module}.self_s"] = s.module_self(module) / R
    for name in ("model.forward", "model.locate_region", "model.expand",
                 "oracle.kkt_report", "oracle.is_feasible", "oracle.brute_force_solve",
                 "core.solve_active_set", "core.region_slopes",
                 "discovery.feasible_extent"):
        out[f"{name}.calls"] = s.calls[name] / R
    return out
