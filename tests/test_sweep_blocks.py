"""discover evaluates each sweep in blocks and replays them in order; its
model and log must be exactly those of the point-by-point walk
(conftest.reference_discover), abandoned points included."""

import collections
import contextlib
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cfqp.cli
import cfqp.oracle
from cfqp import discovery
from cfqp.cases import bundled_case_json, bundled_problem_json
from cfqp.discovery import (
    Direction,
    DiscoveryLog,
    SearchPattern,
    axis_sweep_pattern,
    discover,
    identify_transition,
    scaled_base_pattern,
)
from cfqp.errors import DuplicateRegion, UnresolvableTransition
from cfqp.model import serialize
from cfqp.problem import ParameterPoint

from conftest import box_pattern, box_qp, reference_discover, two_param_pattern


def walk(fn, *args, **kwargs):
    """(serialized model, or the error message when the walk raised; the
    JSON text of every log record)."""
    log = DiscoveryLog()
    try:
        out = serialize(fn(*args, log=log, **kwargs))
    except UnresolvableTransition as exc:
        out = str(exc)
    return out, [json.dumps(record) for record in log.records]


def assert_same_walk(*args, **kwargs):
    assert walk(discover, *args, **kwargs) == walk(reference_discover, *args, **kwargs)


@pytest.fixture()
def files(tmp_path):
    problem = tmp_path / "two_parameter.json"
    problem.write_text(bundled_problem_json())
    case = tmp_path / "case6.json"
    case.write_text(bundled_case_json())
    return {"problem": str(problem), "case": str(case)}


#: The benchmark's three fixtures.
BENCHMARK_ARGVS = [
    ["--problem", "{problem}", "--theta0", "100,100", "--steps", "200"],
    ["--case", "{case}", "--steps", "40"],
    ["--case", "{case}", "--lines", "--steps", "40", "--lenient"],
]


@pytest.mark.parametrize("argv", BENCHMARK_ARGVS + [
    # criterion 6's coarse sweep
    ["--problem", "{problem}", "--theta0", "100,100", "--steps", "8"],
    ["--problem", "{problem}", "--theta0", "100,100", "--pattern", "scaled",
     "--scales", "1,1.5,2", "--extent", "300,300", "--steps", "50"],
], ids=["two_parameter", "case6", "case6_lines", "two_parameter_8", "scaled"])
def test_cli_outputs_match_reference_walk(files, tmp_path, monkeypatch, argv):
    argv = [arg.format(**files) for arg in argv]
    outputs = []
    for name, fn in (("blocks", discover), ("reference", reference_discover)):
        monkeypatch.setattr(cfqp.cli, "discover", fn)
        model, log = tmp_path / f"{name}.model", tmp_path / f"{name}.log"
        assert cfqp.cli.main(["discover", *argv, "--out", str(model), "--log", str(log)]) == 0
        outputs.append((model.read_bytes(), log.read_bytes()))
    assert outputs[0] == outputs[1]


#: sha256 of each benchmark fixture's model file, and of its log with every
#: record's ``kkt`` value removed.
FIXTURE_DIGESTS = {
    "two_parameter": (
        "8a4009b5429a2f444b3b960d53a3fa43a4d9e83807438bc5eb95d7786c75248d",
        "dd8414965cc744f487e0e8cfa7aca68e4c93c9a12a2b377d8f184feeea4cc35e",
    ),
    "case6": (
        "f840e46a4f54d09c8fcd4106e030cedf8f04982064fffe742f00aeb4c390084d",
        "8f8154837c8de84e160b7d634924c1abc61f503a205b27fe4f09566e3bb794c4",
    ),
    "case6_lines": (
        "de6e50076f5aa2d5f7287bcd884ed3ce7bddcabb7ce1d1f046563b021668332c",
        "089b6942ffa570073963fd4d4e525f2b574b9c33afdbfbc7eb10979c6f38af43",
    ),
}


def pinned_discover(files, tmp_path, argv):
    """Run ``discover`` on argv: its exit code, the sha256 of its model
    file and of its log with every record's ``kkt`` value removed, and
    its stdout lines."""
    model, log = tmp_path / "model.json", tmp_path / "log.jsonl"
    argv = [arg.format(**files) for arg in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cfqp.cli.main(["discover", *argv, "--out", str(model), "--log", str(log)])
    records = (json.loads(line) for line in log.read_text().splitlines())
    text = "".join(json.dumps({key: value for key, value in record.items() if key != "kkt"})
                   + "\n" for record in records)
    return (code, hashlib.sha256(model.read_bytes()).hexdigest(),
            hashlib.sha256(text.encode()).hexdigest(), out.getvalue().splitlines())


@pytest.mark.parametrize("argv,name", zip(BENCHMARK_ARGVS, FIXTURE_DIGESTS),
                         ids=list(FIXTURE_DIGESTS))
def test_fixture_outputs_are_pinned(files, tmp_path, argv, name):
    """The benchmark fixtures' models and logs, which a change to discovery
    or to the kernels it reads is expected to leave byte-identical.  The
    models are pinned whole.  The logs are pinned without the points'
    ``kkt`` values: those are einsum sums, whose last bit may differ
    between numpy versions, while witnesses, sets, directions and events
    do not.  A change that moves a digest must say why in CHANGES.md."""
    code, *digests, _ = pinned_discover(files, tmp_path, argv)
    assert code == 0 and tuple(digests) == FIXTURE_DIGESTS[name]


def test_lenient_unresolved_walk_is_pinned(files, tmp_path):
    """The lenient walk from (700, 100), pinned as the fixtures are, with
    its counters: 314 of its 810 points have no single transition that
    explains their violation and are abandoned (with one
    multi_constraint_jump, its 315 warnings), so most blocks resume after
    an abandoned point, which the fixtures' walks never do."""
    code, *digests, lines = pinned_discover(files, tmp_path, [
        "--problem", "{problem}", "--theta0", "700,100", "--steps", "200", "--lenient"])
    assert code == 0 and tuple(digests) == (
        "b6251d05c5ececaf7a223b83c4d1469e5a316f8ef07f3404f3c96bf3400dcf73",
        "1c7c20aba6a7f6d4719acb882d22a66125533e08ce18bbac7cf17c74f6a72837",
    )
    assert [line.rsplit(", extent", 1)[0] for line in lines if line.startswith("counters:")] == [
        "counters: points 810, halvings 0, transitions 5, boundary 0, warnings 315"]


def test_benchmark_discover_traffic(files, tmp_path, monkeypatch):
    """The model and oracle calls of the benchmark's three discover runs
    together.  Each point is evaluated once per model: a sweep's anchor
    region comes from its first block and a failing row's scalar from its
    block, so there is one forward_array and kkt_scalars pass per block
    or re-evaluated point, 2,238 rows.  locate_array evaluates only the
    rows the replay reads, 1,788: each block's passing prefix (and row 0
    of a sweep's first block) and each point that passes after an
    expansion.  The extent bisection asks is_feasible only for the three
    start checks, and feasible_array once for the 20
    in-band probes of the two unbounded two-parameter rays.  Each anchor
    solves only the one active set the feasibility kernel accepts there,
    not the 52, 19 and 73 nonsingular sets, and none falls back to
    brute_force_solve."""
    calls, rows = collections.Counter(), collections.Counter()
    for module, name in [(discovery, name) for name in (
            "forward_array", "kkt_scalars", "locate_array", "is_feasible",
            "feasible_array", "brute_force_solve")] + [(cfqp.oracle, "solve_active_set")]:
        def counting(*args, fn=getattr(module, name), name=name):
            calls[name] += 1
            if name in ("forward_array", "kkt_scalars", "locate_array", "feasible_array"):
                rows[name] += len(args[-1])  # the theta rows
            return fn(*args)
        monkeypatch.setattr(module, name, counting)
    for argv in BENCHMARK_ARGVS:
        argv = [arg.format(**files) for arg in argv]
        assert cfqp.cli.main(["discover", *argv, "--out", str(tmp_path / "model")]) == 0
    assert calls == {"forward_array": 50, "kkt_scalars": 50, "locate_array": 50,
                     "is_feasible": 3, "feasible_array": 1, "solve_active_set": 3}
    assert rows == {"forward_array": 2238, "kkt_scalars": 2238, "locate_array": 1788,
                    "feasible_array": 20}


def test_criterion_9_box_pattern_matches_reference_walk(box_problem):
    problem, _ = box_problem
    theta0, pattern = box_pattern(problem, extent_up=87.0, extent_dn=56.0)
    assert_same_walk(problem, theta0, pattern)


def test_criterion_7_pattern_matches_reference_walk(power_case, line_problem, monkeypatch):
    """Criterion 7's scaled sweeps of the line-limited case: some
    transitions lead to a region the model already has, which changes the
    current region but not the model, so the point's scalar stands."""
    problem, _ = line_problem
    demand = power_case.demand_vector()
    origin = ParameterPoint.of_theta_e(problem, demand)
    base = ParameterPoint.of_theta_e(problem, -demand)
    extent = np.zeros(problem.m1)
    extent[3:] = 0.8 * demand[3:]
    scales = [1.0 + 0.125 * i for i in range(9)]
    pattern = SearchPattern([
        direction for ext in (extent, -extent)
        for direction in scaled_base_pattern(base, scales, 30, ext, origin=origin).directions])
    duplicates = []
    expand = discovery.expand

    def recording(*args):
        try:
            return expand(*args)
        except DuplicateRegion:
            duplicates.append(args[2])
            raise

    monkeypatch.setattr(discovery, "expand", recording)
    assert_same_walk(problem, origin + base, pattern, strict=False)
    assert duplicates


@pytest.mark.parametrize("fixture", ["two_parameter", "box"])
def test_block_boundaries_mid_direction(two_param, theta0_2d, box_problem, monkeypatch,
                                        fixture):
    """A sweep longer than a block, at blocks of a few hundred rows on the
    two-parameter problem and of a few rows on the box problem, so that
    boundaries fall before, at and after the points that expand the
    model."""
    if fixture == "two_parameter":
        monkeypatch.setattr(cfqp.oracle, "_CHUNK_ELEMENTS", 8000)
        problem, theta0, pattern = two_param, theta0_2d, two_param_pattern(theta0_2d, 1500)
    else:
        monkeypatch.setattr(cfqp.oracle, "_CHUNK_ELEMENTS", 100)
        problem, _ = box_problem
        theta0, pattern = box_pattern(problem, extent_up=87.0, extent_dn=56.0)
    blocks = []
    locate_array = discovery.locate_array
    monkeypatch.setattr(discovery, "locate_array", lambda model, Theta: (
        blocks.append((len(Theta), model.region_kernel.chunk_rows)),
        locate_array(model, Theta))[1])
    model = discover(problem, theta0, pattern)
    assert max(d.max_steps for d in pattern.directions) > model.region_kernel.chunk_rows
    assert all(rows <= cap for rows, cap in blocks)
    assert any(rows == cap for rows, cap in blocks)
    assert_same_walk(problem, theta0, pattern)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    q_vals=st.lists(st.floats(min_value=0.5, max_value=8.0), min_size=4, max_size=4),
    c_vals=st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=4, max_size=4),
    extents=st.lists(st.floats(min_value=-30.0, max_value=30.0).filter(bool),
                     min_size=1, max_size=3),
    steps=st.integers(min_value=2, max_value=60),
    strict=st.booleans(),
)
# a subnormal extent whose per-step delta underflows to 0.0
@example(n=2, q_vals=[1.0] * 4, c_vals=[0.0] * 4, extents=[5e-324], steps=2, strict=False)
def test_random_box_qps_match_reference_walk(n, q_vals, c_vals, extents, steps, strict):
    """Sweeps of sum(x) from 0, some past the feasible boundary
    |sum(x)| <= 6n."""
    problem = box_qp(n, q_vals, c_vals, bound=6.0)
    theta0 = ParameterPoint.zeros(problem)
    pattern = SearchPattern([
        direction
        for extent in extents
        for direction in axis_sweep_pattern(theta0, [extent], steps).directions
    ])
    assert_same_walk(problem, theta0, pattern, strict=strict)


# ---------------------------------------------------------------------------
# Abandoned points, forced by refusing identify_transition


class Refuse:
    """identify_transition, except that it raises UnresolvableTransition
    at thetas where ``refuse(theta)`` holds, at most ``times`` times."""

    def __init__(self, refuse, times=None):
        self.refuse, self.times = refuse, times

    def __call__(self, problem, model, region, theta):
        if self.refuse(theta) and self.times != 0:
            self.times = None if self.times is None else self.times - 1
            raise UnresolvableTransition("refused")
        return identify_transition(problem, model, region, theta)


def at(point):
    return lambda theta: np.array_equal(theta.stacked(), point.stacked())


def refused_walks(monkeypatch, make_refuse, *args, **kwargs):
    """The block and reference walks, each with a fresh refusing
    identify_transition; asserts they agree and returns the serialized
    model or error message, and the records."""
    walks = []
    for fn in (discover, reference_discover):
        monkeypatch.setattr(discovery, "identify_transition", make_refuse())
        walks.append(walk(fn, *args, **kwargs))
    assert walks[0] == walks[1]
    out, lines = walks[0]
    return out, [json.loads(line) for line in lines]


#: Direction 0 of the two-parameter sweep expands the model at this point,
#: in the middle of its first block.
EXPANDING_POINT = 43


def test_refused_point_matches_reference_walk(two_param, theta0_2d, monkeypatch):
    """The point that expands the model, refused once: the lenient walk
    abandons it at once, with its one point record, and the strict walk
    raises there, chained to the refusal."""
    pattern = two_param_pattern(theta0_2d)
    lines = walk(discover, two_param, theta0_2d, pattern)[1]
    assert any(f'"index": {EXPANDING_POINT}, "kind": "add"' in line for line in lines)
    target = pattern.directions[0].point(EXPANDING_POINT)

    def refuse():
        return Refuse(at(target), times=1)

    _, records = refused_walks(monkeypatch, refuse, two_param, theta0_2d, pattern,
                               strict=False)
    at_target = [(r["event"], r.get("reason")) for r in records
                 if r.get("direction") == 0 and r.get("index") == EXPANDING_POINT]
    assert at_target == [("point", None), ("warning", "no_transition")]
    assert records[-1]["regions"] == 4
    error, records = refused_walks(monkeypatch, refuse, two_param, theta0_2d, pattern)
    assert error == (f"cannot resolve KKT violation at direction 0 point {EXPANDING_POINT} "
                     "(no_transition)")
    assert (records[-1]["event"], records[-1]["index"]) == ("point", EXPANDING_POINT)
    monkeypatch.setattr(discovery, "identify_transition", refuse())
    with pytest.raises(UnresolvableTransition) as info:
        discover(two_param, theta0_2d, pattern)
    assert str(info.value.__cause__) == "refused"


def test_sweep_start_keeps_negative_zero_witness():
    """A sweep start outside the root region, with a -0.0 theta_e entry:
    the region it opens keeps the start itself, -0.0 included, as its
    witness."""
    problem = box_qp(3, [1.0] * 3, [0.0] * 3, bound=6.0)
    theta0 = ParameterPoint.zeros(problem)
    # x1 = -10 without bounds, so constraint 4 (x1 >= -6) binds at the start
    start = ParameterPoint(np.array([30.0, 0.0, 0.0]), np.array([-0.0]), np.zeros(problem.m2))
    pattern = SearchPattern([
        Direction(start=start, step=ParameterPoint.of_theta_e(problem, [0.5]), max_steps=4)])
    assert_same_walk(problem, theta0, pattern)
    model = discover(problem, theta0, pattern)
    assert [list(r.active_set) for r in model.regions] == [[], [4]]
    assert np.signbit(model.regions[1].witness_theta.theta_e[0])


def test_abandoned_point_resets_the_sweep_anchor(two_param, theta0_2d, monkeypatch):
    """Point 43 is always refused and point 44 once: each is abandoned at
    once, and the sweep goes on against the model it had, to its last
    point."""
    direction = two_param_pattern(theta0_2d).directions[0]
    pattern = SearchPattern([direction])
    lo, hi = (direction.point(i).theta_e[0] for i in (EXPANDING_POINT - 1, EXPANDING_POINT))
    after = direction.point(EXPANDING_POINT + 1)

    def make_refuse():
        segment = Refuse(lambda theta: lo < theta.theta_e[0] <= hi)
        once = Refuse(at(after), times=1)
        return lambda *args: (segment if segment.refuse(args[-1]) else once)(*args)

    _, records = refused_walks(monkeypatch, make_refuse, two_param, theta0_2d, pattern,
                               strict=False)
    warnings = [r for r in records if r["event"] == "warning"]
    assert [(w["kind"], w["index"], w["reason"]) for w in warnings] == [
        ("unresolved", EXPANDING_POINT, "no_transition"),
        ("unresolved", EXPANDING_POINT + 1, "no_transition")]
    indices = [r["index"] for r in records if r["event"] == "point"]
    assert indices[-1] == direction.max_steps
    assert EXPANDING_POINT + 2 in indices
