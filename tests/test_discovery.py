import gc
import inspect
import json
from unittest import mock

import numpy as np
import pytest

import cfqp.discovery
from cfqp.cases import two_parameter_problem, two_parameter_theta0
from cfqp.cli import build_parser
from cfqp.discovery import (
    Direction,
    DiscoveryLog,
    SearchPattern,
    Transition,
    axis_sweep_pattern,
    discover,
    feasible_extent,
    feasible_extents,
    identify_transition,
    scaled_base_pattern,
)
from cfqp.errors import InfeasibleStart, ProblemFormatError, UnresolvableTransition
from cfqp.model import cast, init_model, serialize
from cfqp.oracle import feasible_array, is_feasible
from cfqp.problem import ActiveSet, ParameterPoint

from conftest import box_pattern, box_qp, reference_feasible_extent, two_param_pattern


class TestPatterns:
    def test_direction_points(self, two_param, theta0_2d):
        step = ParameterPoint.of_theta_e(two_param, [4.0, 0.0])
        d = Direction(start=theta0_2d, step=step, max_steps=10)
        assert np.array_equal(d.point(0).theta_e, [100.0, 100.0])
        assert np.array_equal(d.point(3).theta_e, [112.0, 100.0])

    def test_direction_validation(self, two_param, theta0_2d):
        zero = ParameterPoint.zeros(two_param)
        with pytest.raises(ValueError):
            Direction(start=theta0_2d, step=zero, max_steps=5)
        step = ParameterPoint.of_theta_e(two_param, [1.0, 0.0])
        with pytest.raises(ValueError):
            Direction(start=theta0_2d, step=step, max_steps=0)

    def test_transition_kind_validated(self):
        Transition("add", 1)
        Transition("drop", 2)
        with pytest.raises(ValueError):
            Transition("swap", 1)

    def test_axis_sweep_pattern(self, two_param, theta0_2d):
        pattern = axis_sweep_pattern(theta0_2d, [800.0, 400.0], 100)
        assert len(pattern.directions) == 2
        d1, d2 = pattern.directions
        assert np.allclose(d1.step.theta_e, [8.0, 0.0])
        assert np.allclose(d2.step.theta_e, [0.0, 4.0])
        assert d1.max_steps == 100
        # zero-extent axes produce no direction
        assert len(axis_sweep_pattern(theta0_2d, [800.0, 0.0], 100).directions) == 1

    def test_scaled_base_pattern_anchors(self, two_param):
        base = ParameterPoint.of_theta_e(two_param, [10.0, 20.0])
        pattern = scaled_base_pattern(base, [1.0, 2.0], 5, [4.0, 4.0])
        assert len(pattern.directions) == 4
        assert np.allclose(pattern.directions[0].start.theta_e, [10.0, 20.0])
        assert np.allclose(pattern.directions[2].start.theta_e, [20.0, 40.0])

    def test_scaled_base_pattern_origin_offset(self, two_param):
        base = ParameterPoint.of_theta_e(two_param, [-10.0, -10.0])
        origin = ParameterPoint.of_theta_e(two_param, [10.0, 10.0])
        pattern = scaled_base_pattern(base, [0.5], 5, [1.0, 1.0], origin=origin)
        assert np.allclose(pattern.directions[0].start.theta_e, [5.0, 5.0])

    def test_scales_must_ascend(self, two_param):
        base = ParameterPoint.of_theta_e(two_param, [1.0, 1.0])
        with pytest.raises(ValueError):
            scaled_base_pattern(base, [2.0, 1.0], 5, [1.0, 1.0])
        with pytest.raises(ValueError, match="strictly ascending"):
            scaled_base_pattern(base, [1.0, 1.0, 1.5], 5, [1.0, 1.0])


class TestFeasibleExtent:
    def test_known_boundary(self, two_param, theta0_2d):
        # from (100, 100) along (1, 1): boundary theta1+theta2 = 1000 at t = 400
        direction = ParameterPoint.of_theta_e(two_param, [1.0, 1.0])
        t = feasible_extent(two_param, theta0_2d, direction)
        assert t == pytest.approx(400.0, abs=1e-3)

    def test_axis_boundary(self, two_param, theta0_2d):
        direction = ParameterPoint.of_theta_e(two_param, [1.0, 0.0])
        t = feasible_extent(two_param, theta0_2d, direction)
        assert t == pytest.approx(800.0, abs=1e-3)

    def test_infeasible_start(self, two_param):
        start = ParameterPoint.of_theta_e(two_param, [800.0, 800.0])
        direction = ParameterPoint.of_theta_e(two_param, [1.0, 0.0])
        with pytest.raises(InfeasibleStart):
            feasible_extent(two_param, start, direction)

    def test_direction_must_fit_the_problem(self, two_param, theta0_2d):
        """One theta_e entry on the two-parameter problem would broadcast
        to the ray along (1, 1)."""
        direction = ParameterPoint.of_theta_e(two_param, [1.0])
        with pytest.raises(ProblemFormatError, match="dimensions do not match"):
            feasible_extent(two_param, theta0_2d, direction)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_direction_must_be_finite(self, two_param, theta0_2d, bad):
        direction = ParameterPoint.of_theta_e(two_param, [1.0, bad])
        with pytest.raises(ProblemFormatError, match="^direction has non-finite entries$"):
            feasible_extent(two_param, theta0_2d, direction)

    def test_direction_must_be_nonzero(self, two_param, theta0_2d):
        with pytest.raises(ValueError, match="^direction must be nonzero$"):
            feasible_extent(two_param, theta0_2d, ParameterPoint.zeros(two_param))

    @pytest.mark.parametrize("axis, length, extent", [
        (3, 1e300, 0.0),  # theta_e: every probe in the band overflows
        (0, -1e300, 0.0),  # theta_c: infeasible at t = 1, its far probes overflow
        (0, 1e290, 1e9),  # theta_c: feasible up to the cap, no probe overflows
    ])
    def test_far_probes_match_plain_bisection(self, axis, length, extent):
        """On rays so long that their far doubling probes overflow, the
        extent is the plain bisection's, with no warning: the probes the
        loop never reaches are asked in the batch but not read."""
        problem = box_qp(3, [1.0, 2.0, 3.0, 1.0], [0.5, -1.0, 0.0, 0.0], bound=6.0)
        theta0 = ParameterPoint.zeros(problem)
        stacked = np.zeros(problem.d)
        stacked[axis] = length
        direction = ParameterPoint.from_stacked(problem, stacked)
        assert feasible_extent(problem, theta0, direction) == extent
        assert reference_feasible_extent(problem, theta0, direction) == extent

    def test_fixture_extents(self, fixture_rays):
        """The 28 extents of the benchmark fixtures' default axis pattern,
        bit for bit those of the plain bisection, with at most 3 oracle
        questions per ray, start checks included (the plain bisection asks
        863).  Past its start check, only the two unbounded two-parameter
        rays ask the oracle: their brackets end near 1.2e6, where the
        rounding bound exceeds half the primal tolerance, so their
        doubling probes from 2**21 up to the cap 1e9 are in the band."""
        calls = []

        def counting(problem, theta):
            calls.append(theta)
            return is_feasible(problem, theta)

        def counting_rows(problem, Theta):
            calls.extend(Theta)
            return feasible_array(problem, Theta)

        with mock.patch.object(cfqp.discovery, "is_feasible", counting), \
                mock.patch.object(cfqp.discovery, "feasible_array", counting_rows):
            got = [feasible_extent(*ray).hex() for ray in fixture_rays]
        assert got == (
            ["0x1.9000000000000p+9", "0x1.dcd6500000000p+29"] * 2  # two-parameter: 800, 1e9
            + ["0x1.a400000000000p+8", "0x1.4a00000000000p+8"] * 6  # case6: 420, 330
            + ["0x1.a400000000000p+8", "0x1.4a00000000000p+8"] * 3  # case6 lines: 420, 330
            + ["0x1.5400000000000p+8", "0x1.e000000000000p+5"] * 3  # then 340, 60
        )
        assert len(calls) <= 3 * len(fixture_rays)

    def test_fixture_extents_in_one_pass(self, fixture_rays):
        """feasible_extents on each fixture's rays, as discover's default
        pattern asks for them, gives feasible_extent's floats with one
        start check per fixture, 3 is_feasible calls, and one
        feasible_array pass for the 20 in-band probes of the two
        unbounded two-parameter rays."""
        calls, passes = [], []

        def counting(problem, theta):
            calls.append(theta)
            return is_feasible(problem, theta)

        def counting_rows(problem, Theta):
            passes.append(len(Theta))
            return feasible_array(problem, Theta)

        fixtures = {}
        for problem, theta0, direction in fixture_rays:
            fixtures.setdefault(id(problem), (problem, theta0, []))[2].append(direction)
        for problem, theta0, directions in fixtures.values():
            single = [feasible_extent(problem, theta0, d).hex() for d in directions]
            with mock.patch.object(cfqp.discovery, "is_feasible", counting), \
                    mock.patch.object(cfqp.discovery, "feasible_array", counting_rows):
                batched = feasible_extents(problem, theta0, directions)
            assert [t.hex() for t in batched] == single
        assert len(fixtures) == 3 and len(calls) == 3 and passes == [20]


class TestIdentifyTransition:
    def test_add_detected(self, two_param, theta0_2d):
        model = init_model(two_param, ActiveSet([3, 4]), theta0_2d)
        theta = ParameterPoint.of_theta_e(two_param, [300.0, 100.0])
        tr = identify_transition(two_param, model, model.regions[0], theta)
        assert tr.kind == "add" and tr.constraint == 1

    def test_drop_detected(self, two_param):
        anchor = ParameterPoint.of_theta_e(two_param, [400.0, 100.0])
        model = init_model(two_param, ActiveSet([1, 3, 4]), anchor)
        theta = ParameterPoint.of_theta_e(two_param, [150.0, 100.0])
        tr = identify_transition(two_param, model, model.regions[0], theta)
        assert tr.kind == "drop" and tr.constraint == 1

    def test_unresolvable_inside_region(self, two_param, theta0_2d):
        model = init_model(two_param, ActiveSet([3, 4]), theta0_2d)
        with pytest.raises(UnresolvableTransition):
            identify_transition(two_param, model, model.regions[0], theta0_2d)


class TestDiscover:
    def test_finds_the_four_regions(self, model_2d):
        assert {tuple(r.active_set) for r in model_2d.regions} == {
            (3, 4),
            (1, 3, 4),
            (1, 3, 4, 5),
            (1, 3, 4, 6),
        }

    def test_coarse_steps_resolved_by_halving(self, two_param, theta0_2d):
        # 8 steps of 100 MW skip whole regions; halving must recover all 4
        model = discover(
            two_param, theta0_2d, two_param_pattern(theta0_2d, steps=8)
        )
        assert model.k == 4

    def test_leaves_no_cyclic_garbage(self):
        """discover's helpers hold no reference cycle, so the model, the
        log and the problem go when the caller drops them, not at the
        next full collection."""
        problem, theta0 = two_parameter_problem(), two_parameter_theta0()
        gc.collect()
        gc.disable()
        try:
            discover(problem, theta0, two_param_pattern(theta0, steps=20))
            del problem
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            left = {type(obj).__name__ for obj in gc.garbage}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert not left & {"ClosedFormModel", "DiscoveryLog", "MpQpProblem"}

    def test_infeasible_anchor(self, two_param):
        theta = ParameterPoint.of_theta_e(two_param, [600.0, 600.0])
        with pytest.raises(InfeasibleStart):
            discover(two_param, theta, two_param_pattern(theta))

    def test_log_records_lifecycle(self, two_param, theta0_2d, tmp_path):
        path = tmp_path / "log.jsonl"
        with DiscoveryLog(str(path)) as log:
            discover(two_param, theta0_2d, two_param_pattern(theta0_2d), log=log)
        events = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "init" and kinds[-1] == "end"
        transitions = [e for e in events if e["event"] == "transition"]
        assert {(t["kind"], t["constraint"]) for t in transitions} >= {
            ("add", 1),
            ("add", 5),
            ("add", 6),
        }
        assert events[-1]["regions"] == 4

    def test_single_constraint_transitions_along_sweeps(
        self, two_param, theta0_2d
    ):
        log = DiscoveryLog()
        discover(two_param, theta0_2d, two_param_pattern(theta0_2d), log=log)
        jumps = [
            r for r in log.records
            if r["event"] == "warning" and r.get("kind") == "multi_constraint_jump"
        ]
        assert jumps == []

    def test_boundary_terminates_direction(self, two_param, theta0_2d):
        # sweep deliberately past the feasible boundary
        pattern = axis_sweep_pattern(theta0_2d, [950.0, 0.0], 50)
        pattern = SearchPattern([pattern.directions[0]])
        log = DiscoveryLog()
        model = discover(two_param, theta0_2d, pattern, log=log)
        assert any(r["event"] == "boundary" for r in log.records)
        assert model.k == 3  # {3,4}, {1,3,4}, {1,3,4,5}

    def test_default_tol(self):
        """One default tolerance, at every precision: the library's and
        the command line's."""
        assert inspect.signature(discover).parameters["tol"].default == 1e-10
        assert build_parser().parse_args(["discover"]).tol == 1e-10

    @pytest.mark.parametrize("run", ["two_parameter", "criterion_9_box"])
    def test_32_bit_discovery_is_cast_of_64_bit(self, request, run):
        if run == "two_parameter":
            problem = request.getfixturevalue("two_param")
            theta0 = request.getfixturevalue("theta0_2d")
            pattern = two_param_pattern(theta0)
        else:
            problem, _ = request.getfixturevalue("box_problem")
            theta0, pattern = box_pattern(problem, extent_up=87.0, extent_dn=56.0)
        log64, log32 = DiscoveryLog(), DiscoveryLog()
        model64 = discover(problem, theta0, pattern, log=log64)
        model32 = discover(problem, theta0, pattern, precision=32, log=log32)
        assert serialize(model32) == serialize(cast(model64, 32))
        assert log32.records == log64.records
