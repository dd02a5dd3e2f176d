import numpy as np
import pytest

from cfqp.errors import Infeasible
from cfqp.model import forward, forward_array
from cfqp.oracle import (
    MAX_ENUM_M2,
    ORACLE_TOL,
    brute_force_solve,
    is_feasible,
    kkt_means,
    kkt_report,
)
from cfqp.problem import ActiveSet, MpQpProblem, ParameterPoint, PrimalDualSolution

from conftest import on_sweep_samples_2d


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
        with pytest.raises(ValueError):
            brute_force_solve(problem, ParameterPoint.zeros(problem))


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

    def test_to_dict_groups(self, box_problem):
        problem, _ = box_problem
        theta = ParameterPoint.zeros(problem)
        sol, _ = brute_force_solve(problem, theta)
        d = kkt_report(problem, sol, theta).to_dict(problem)
        assert set(d["kkt1_groups"]) == {"P_g", "delta"}
        for stats in d["kkt1_groups"].values():
            assert set(stats) == {"mean", "max"}

    def test_batched_means_match_per_row_reports(self, model_2d, two_param):
        """kkt_means against per-row kkt_report, inside the certified
        domain and far outside it (theta = (5000, 5000) breaks
        theta1 + theta2 <= 1000, and its KKT4 is about 1e20).  The two
        sum the same products in different orders, so the tolerance is
        relative for large residuals and, for rounding-sized ones, an
        absolute slack two decades under the 1e-18 KKT level."""
        names = ("kkt1", "kkt2_eq", "kkt2_ineq", "kkt3", "kkt4")
        thetas = on_sweep_samples_2d(two_param, 100, seed=4) + [
            ParameterPoint.of_theta_e(two_param, te)
            for te in ([5000.0, 5000.0], [850.0, 100.0], [-300.0, 50.0])
        ]
        Theta = np.array([t.stacked() for t in thetas])
        X, Lam, Mu, _ = forward_array(model_2d, Theta)
        got = kkt_means(two_param, X, Lam, Mu, Theta)
        ref = np.array([
            [np.mean(getattr(kkt_report(two_param, forward(model_2d, t), t), k))
             for k in names]
            for t in thetas
        ])
        assert ref[-3, 4] > 1e19
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-20)
