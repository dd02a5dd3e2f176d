import gc
import weakref
from unittest import mock

import numpy as np
import pytest

import cfqp.discovery
import cfqp.oracle
from cfqp.cases import bundled_case_json, bundled_problem_json, two_parameter_problem
from cfqp.cli import main
from cfqp.errors import Infeasible, ProblemFormatError
from cfqp.model import forward, forward_array
from cfqp.oracle import (
    MAX_ENUM_M2,
    ORACLE_TOL,
    _accepted,
    brute_force_solve,
    feasible_array,
    is_feasible,
    kkt_means,
    kkt_report,
    solve,
)
from cfqp.problem import ActiveSet, MpQpProblem, ParameterPoint, PrimalDualSolution

from conftest import (
    box_qp,
    local_samples_6bus,
    on_sweep_samples_2d,
    reference_feasible_extent,
    reference_nonsingular_sets,
)


class TestBruteForceFrozenValues:
    """Reference optima computed by exhaustive enumeration, frozen."""

    def test_anchor_point(self, two_param):
        theta = ParameterPoint.of_theta_e(two_param, [100.0, 100.0])
        result = brute_force_solve(two_param, theta)
        assert result.active_set == {3, 4}
        assert not result.degenerate
        sol = result.solution
        assert np.allclose(
            sol.x,
            [20.0, 20.0, 30.534351145, 35.3982300885, 49.465648855, 44.6017699115],
            atol=1e-8,
        )
        assert np.allclose(
            sol.mu, [0.0, 0.0, 3653.12977099, 2440.3539823, 0.0, 0.0], atol=1e-7
        )
        assert sol.objective == pytest.approx(884739.3501317302, rel=1e-12)

    def test_mid_demand_point(self, two_param):
        theta = ParameterPoint.of_theta_e(two_param, [400.0, 400.0])
        result = brute_force_solve(two_param, theta)
        assert result.active_set == {1, 3, 4}
        sol = result.solution
        assert np.allclose(
            sol.x,
            [20.0, 20.0, 259.3442622951, 300.6557377049, 120.6557377049, 79.3442622951],
            atol=1e-8,
        )
        assert np.allclose(
            sol.mu,
            [59896.39344262, 0.0, 77787.54098361, 69285.24590164, 0.0, 0.0],
            atol=1e-6,
        )
        assert sol.objective == pytest.approx(24518190.16393442, rel=1e-12)

    def test_infeasible_point(self, two_param):
        theta = ParameterPoint.of_theta_e(two_param, [600.0, 600.0])
        with pytest.raises(Infeasible):
            brute_force_solve(two_param, theta)

    def test_result_unpacks(self, two_param):
        theta = ParameterPoint.of_theta_e(two_param, [100.0, 100.0])
        sol, active = brute_force_solve(two_param, theta)
        assert isinstance(sol, PrimalDualSolution)
        assert active == {3, 4}

    def test_transition_thresholds(self, two_param):
        """Active-set switch points along +theta1 and +theta2 sweeps."""
        def active(t1, t2):
            return brute_force_solve(
                two_param, ParameterPoint.of_theta_e(two_param, [t1, t2])
            ).active_set

        assert active(271.0, 100.0) == {3, 4}
        assert active(273.0, 100.0) == {1, 3, 4}
        assert active(696.0, 100.0) == {1, 3, 4}
        assert active(698.0, 100.0) == {1, 3, 4, 5}
        assert active(100.0, 290.0) == {3, 4}
        assert active(100.0, 292.0) == {1, 3, 4}
        assert active(100.0, 641.0) == {1, 3, 4}
        assert active(100.0, 643.0) == {1, 3, 4, 6}


class TestOracleSanity:
    def test_solution_satisfies_kkt(self, two_param):
        rng = np.random.default_rng(7)
        for _ in range(20):
            t1 = rng.uniform(0.0, 900.0)
            t2 = rng.uniform(0.0, 1000.0 - t1)
            theta = ParameterPoint.of_theta_e(two_param, [t1, t2])
            sol, _ = brute_force_solve(two_param, theta)
            rep = kkt_report(two_param, sol, theta)
            assert rep.scalar < 1e-12
            assert (sol.mu >= -ORACLE_TOL * max(1.0, np.abs(sol.mu).max())).all()

    def test_is_feasible(self, two_param):
        assert is_feasible(two_param, ParameterPoint.of_theta_e(two_param, [500.0, 499.0]))
        assert not is_feasible(two_param, ParameterPoint.of_theta_e(two_param, [500.0, 501.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta_is_format_error(self, two_param, bad):
        """A NaN fails no comparison, so it would pass every acceptance
        test; a non-finite theta is rejected before enumeration."""
        theta = ParameterPoint.of_theta_e(two_param, [bad, 100.0])
        with pytest.raises(ProblemFormatError):
            brute_force_solve(two_param, theta)
        with pytest.raises(ProblemFormatError):
            is_feasible(two_param, theta)

    def test_degenerate_flag_on_weakly_active_optimum(self):
        # min x^2 with x >= 0: the constraint is active with mu = 0.
        problem = MpQpProblem(
            Q=np.array([[1.0]]),
            C=np.zeros(1),
            C0=0.0,
            A_e=np.zeros((0, 1)),
            b_e=np.zeros(0),
            A_C=np.array([[1.0]]),
            b_C=np.zeros(1),
        )
        result = brute_force_solve(problem, ParameterPoint.zeros(problem))
        assert result.degenerate

    def test_enumeration_guard(self):
        n = 26
        problem = MpQpProblem(
            Q=np.eye(n),
            C=np.zeros(n),
            C0=0.0,
            A_e=np.ones((1, n)),
            b_e=np.zeros(1),
            A_C=-np.eye(n),
            b_C=np.full(n, -10.0),
        )
        assert problem.m2 > MAX_ENUM_M2
        for oracle in (brute_force_solve, is_feasible, lambda p, _: p.nonsingular_sets):
            with pytest.raises(
                ValueError, match=f"^active-set enumeration is limited to m2 <= {MAX_ENUM_M2}, "
            ):
                oracle(problem, ParameterPoint.zeros(problem))


class TestFeasibilityKernel:
    """is_feasible decides from the problem's Schur-complement kernel;
    brute_force_solve stays the literal enumeration.  They must agree
    everywhere: a disagreement is a bug, not a tolerance to tune."""

    def test_discovery_calls_match_enumeration(self, tmp_path, fixture_rays):
        """Every is_feasible call and every feasible_array row of the
        three benchmark fixtures' discover runs, and every probe of the
        plain bisection on their 28 default-pattern rays (the last ones
        lie within 1e-6 relative of the boundary), replayed against the
        first accepted set of the enumeration.  At each probe, the closed-form decision (a
        comparison with the kernel's ray extent outside its band, the
        oracle inside) must be the oracle's answer."""
        problem_file = tmp_path / "two_parameter.json"
        problem_file.write_text(bundled_problem_json())
        case_file = tmp_path / "case6.json"
        case_file.write_text(bundled_case_json())
        calls = []

        def recording(problem, theta):
            feasible = is_feasible(problem, theta)
            calls.append((problem, theta, feasible))
            return feasible

        def recording_rows(problem, Theta):
            feasible = feasible_array(problem, Theta)
            calls.extend((problem, ParameterPoint.from_stacked(problem, theta), answer)
                         for theta, answer in zip(Theta, feasible.tolist()))
            return feasible

        with mock.patch.object(cfqp.discovery, "is_feasible", recording), \
                mock.patch.object(cfqp.discovery, "feasible_array", recording_rows):
            for argv in (
                ["--problem", str(problem_file), "--theta0", "100,100", "--steps", "200"],
                ["--case", str(case_file), "--steps", "40"],
                ["--case", str(case_file), "--lines", "--steps", "40", "--lenient"],
            ):
                assert main(["discover", *argv, "--out", str(tmp_path / "model.json")]) == 0
        for problem, theta0, direction in fixture_rays:
            probes = []
            reference_feasible_extent(problem, theta0, direction, probes)
            (t_in,), (t_out,) = problem.feasibility_kernel.ray_extents(
                problem, theta0.stacked(), direction.stacked()[None])
            for t, feasible in probes:
                if not t_in < t <= t_out:
                    assert feasible == (t <= t_in), (t, t_in, t_out)
                calls.append((problem, theta0 + direction.scale(t), feasible))
        assert len(calls) > 800
        assert {feasible for _, _, feasible in calls} == {True, False}
        disagree = [
            theta.stacked() for problem, theta, feasible in calls
            if feasible != (next(_accepted(problem, theta), None) is not None)
        ]
        assert disagree == []

    @pytest.mark.parametrize("A_e, A_C", [
        (np.ones((1, 3)), np.zeros((0, 3))),  # no inequality: only the empty set
        (np.eye(3), np.eye(3)),  # n = m1: the rank cap leaves only the empty set
        # parallel rows: every pair is singular, so the enumeration stops at one
        (np.zeros((0, 3)), np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [-1.0, -1.0, 0.0]])),
    ])
    def test_small_stacks_match_enumeration(self, A_e, A_C):
        problem = MpQpProblem(
            Q=np.eye(3), C=np.zeros(3), C0=0.0, A_e=A_e, b_e=np.zeros(len(A_e)),
            A_C=A_C, b_C=np.zeros(len(A_C)),
        )
        rng = np.random.default_rng(3)
        for _ in range(100):
            theta = ParameterPoint.from_stacked(problem, rng.uniform(-5.0, 5.0, problem.d))
            assert is_feasible(problem, theta) == (next(_accepted(problem, theta), None) is not None)

    def test_dual_rows_decide_near_the_boundary(self):
        """A 2-variable QP at a theta_C near its feasible boundary where
        every set passes the primal test of some row but none passes both:
        a kernel without its dual rows would answer True here."""
        problem = MpQpProblem(
            Q=[[3.92333949198051, -2.5226605689179276],
               [-2.5226605689179276, 2.3399237254303547]],
            C=[2.4898121127481283, -0.0917264789213937], C0=0.0,
            A_e=np.zeros((0, 2)), b_e=np.zeros(0),
            A_C=[[-0.414234225676356, -2.5071319369808713],
                 [1.7104520165245896, 0.3081821779926003],
                 [-1.8839408205022823, 0.8713568934768913]],
            b_C=[0.6138812820393205, -0.35439962315536616, -0.5578363689123994],
        )
        theta = ParameterPoint(
            np.zeros(2), np.zeros(0), [0.2971179041170053, 0.2890498334363271, 0.1842340239575927])
        assert next(_accepted(problem, theta), None) is None
        assert not is_feasible(problem, theta)
        with pytest.raises(Infeasible):
            brute_force_solve(problem, theta)

    @staticmethod
    def large_theta_c(t):
        """A box QP that is feasible for every t, at theta_c = (0, 5t): its
        multipliers reach about 5e9 and its base solution 8e8, while the
        primal tolerance stays 1e-8."""
        problem = box_qp(2, [1, 2, 1, 1], [0, 0, 0, 0], 6.0)
        return problem, ParameterPoint([0.0, 5 * t], [0.0], np.zeros(4))

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 3: the primal tolerance does not grow with |A_C x| "
        "or the multipliers, so each path's rounding decides the boolean",
    )
    @pytest.mark.parametrize("t", [9.7e8, 1e9])
    def test_agrees_with_enumeration_at_large_theta_c(self, t):
        problem, theta = self.large_theta_c(t)
        assert is_feasible(problem, theta) == (next(_accepted(problem, theta), None) is not None)

    @pytest.mark.parametrize("t", [9.7e8, 1e9])
    def test_solve_falls_back_to_enumeration(self, t):
        """While the kernel accepts no set here (the xfail above), solve
        gets the enumeration's answer from brute_force_solve itself."""
        problem, theta = self.large_theta_c(t)
        got, want = solve(problem, theta), brute_force_solve(problem, theta)
        assert got.active_set == want.active_set == ActiveSet([4])
        assert got.degenerate == want.degenerate
        for name in ("x", "lam", "mu"):
            assert getattr(got.solution, name).tobytes() == getattr(want.solution, name).tobytes()

    def test_cached_kernel_leaves_no_cycle(self):
        """The kernel and the walk's set list are cached on the problem
        and hold arrays and tuples only, so a problem that went through
        is_feasible and brute_force_solve is freed by its reference count
        alone once dropped."""
        problem = two_parameter_problem()
        gc.collect()
        gc.disable()
        try:
            theta = ParameterPoint.of_theta_e(problem, [100.0, 100.0])
            assert is_feasible(problem, theta)
            brute_force_solve(problem, theta)
            assert "feasibility_kernel" in vars(problem)
            assert "nonsingular_sets" in vars(problem)
            ref = weakref.ref(problem)
            del problem
            assert ref() is None
        finally:
            gc.enable()


class TestNonsingularSets:
    """The rank-pruned walk, run a cardinality level at a time and cached
    on the problem, against the set-by-set reference walk."""

    def test_fixtures_match_reference_walk(self, two_param, box_problem, line_problem):
        for problem in (two_param, box_problem[0], line_problem[0]):
            assert problem.nonsingular_sets == tuple(reference_nonsingular_sets(problem))

    def test_one_walk_per_problem(self, box_problem):
        """is_feasible builds the list; two brute_force_solve calls then
        read it and pivot-test no level again."""
        problem = MpQpProblem.from_dict(box_problem[0].to_dict())
        theta = ParameterPoint.zeros(problem)
        with mock.patch.object(cfqp.oracle, "nonsingular", wraps=cfqp.oracle.nonsingular) as test:
            assert is_feasible(problem, theta)
            passes = test.call_count
            assert passes >= 1
            brute_force_solve(problem, theta)
            brute_force_solve(problem, theta.scale(0.5))
            assert test.call_count == passes

    def test_brute_force_leaves_kernel_unbuilt(self, two_param):
        problem = MpQpProblem.from_dict(two_param.to_dict())
        brute_force_solve(problem, ParameterPoint.of_theta_e(problem, [100.0, 100.0]))
        assert "nonsingular_sets" in vars(problem)
        assert "feasibility_kernel" not in vars(problem)

    def test_solves_every_listed_set(self, two_param):
        """brute_force_solve still solves each listed set at theta through
        the oracle's solve_active_set, in the list's order."""
        theta = ParameterPoint.of_theta_e(two_param, [100.0, 100.0])
        with mock.patch.object(
                cfqp.oracle, "solve_active_set", wraps=cfqp.oracle.solve_active_set) as solve:
            brute_force_solve(two_param, theta)
        assert [c.args[1].indices for c in solve.call_args_list] == list(two_param.nonsingular_sets)


class TestKktReport:
    def test_zero_at_oracle_optimum(self, two_param):
        theta = ParameterPoint.of_theta_e(two_param, [100.0, 100.0])
        sol, _ = brute_force_solve(two_param, theta)
        rep = kkt_report(two_param, sol, theta)
        stacked = rep.stacked()
        assert stacked.shape == (two_param.n + two_param.m1 + 3 * two_param.m2,)
        assert rep.scalar == pytest.approx(float(stacked.mean()))
        assert rep.scalar < 1e-14

    def test_detects_each_violation_kind(self, two_param):
        theta = ParameterPoint.of_theta_e(two_param, [100.0, 100.0])
        good, _ = brute_force_solve(two_param, theta)
        # negative multiplier -> kkt3; nonzero mu on slack row -> kkt4
        bad_mu = good.mu.copy()
        bad_mu[0] = -2.0
        bad = PrimalDualSolution(good.x, good.lam, bad_mu, good.objective)
        rep = kkt_report(two_param, bad, theta)
        assert rep.kkt3[0] == pytest.approx(2.0)
        assert rep.kkt4[0] > 1.0
        # wrong primal -> kkt2_eq
        bad = PrimalDualSolution(good.x + 1.0, good.lam, good.mu, good.objective)
        rep = kkt_report(two_param, bad, theta)
        assert rep.kkt2_eq.max() > 1.0

    def test_kkt3_never_negative_zero(self, two_param):
        theta = ParameterPoint.of_theta_e(two_param, [100.0, 100.0])
        sol, _ = brute_force_solve(two_param, theta)
        rep = kkt_report(two_param, sol, theta)
        assert not np.signbit(rep.kkt3).any()

    def test_promotes_float32_input_to_float64(self, two_param):
        theta = ParameterPoint.of_theta_e(two_param, [100.0, 100.0])
        sol, _ = brute_force_solve(two_param, theta)
        sol32 = PrimalDualSolution(
            sol.x.astype(np.float32),
            sol.lam.astype(np.float32),
            sol.mu.astype(np.float32),
            sol.objective,
        )
        rep = kkt_report(two_param, sol32, theta)
        assert rep.kkt1.dtype == np.float64

    def test_batched_means_match_per_row_reports(
        self, model_2d, two_param, box_model, power_case
    ):
        """kkt_means against per-row kkt_report, inside the certified
        domain and far outside it (theta = (5000, 5000) breaks
        theta1 + theta2 <= 1000, and its KKT4 is about 1e20), and on the
        case6 box model.  Both run the same row kernel, so they agree bit
        for bit."""
        names = ("kkt1", "kkt2_eq", "kkt2_ineq", "kkt3", "kkt4")

        def means(model, thetas):
            problem = model.problem
            Theta = np.array([t.stacked() for t in thetas])
            X, Lam, Mu, _ = forward_array(model, Theta)
            got = kkt_means(problem, X, Lam, Mu, Theta)
            ref = np.array([
                [np.mean(getattr(kkt_report(problem, forward(model, t), t), k))
                 for k in names]
                for t in thetas
            ])
            return got, ref

        got, ref = means(model_2d, on_sweep_samples_2d(two_param, 100, seed=4) + [
            ParameterPoint.of_theta_e(two_param, te)
            for te in ([5000.0, 5000.0], [850.0, 100.0], [-300.0, 50.0])
        ])
        assert ref[-3, 4] > 1e19
        assert np.array_equal(got, ref)
        got, ref = means(box_model, local_samples_6bus(power_case, box_model.problem, 100, 4))
        assert np.array_equal(got, ref)
