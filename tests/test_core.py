import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from cfqp.cases import bundled_case_json, bundled_problem_json, case6
from cfqp.cli import main
from cfqp.core import (
    JacobianFactors,
    active_factors,
    factorize,
    lagrangian_gradients,
    objective_value,
    region_slopes,
    solve_active_set,
)
from cfqp.dcopf import build_dcopf, build_dcopf_with_lines
from cfqp.errors import SingularActiveJacobian, SingularJacobian
from cfqp.model import deserialize, forward, init_model
from cfqp.problem import ActiveSet, MpQpProblem, ParameterPoint

from conftest import (
    assemble_active_jacobian,
    box_qp,
    reference_region_slopes,
    reference_solve_active_set,
)


class TestJacobians:
    def test_base_jacobian_blocks(self, two_param):
        J = assemble_active_jacobian(two_param, ActiveSet())
        n, m1 = two_param.n, two_param.m1
        assert J.shape == (n + m1, n + m1)
        assert np.array_equal(J[:n, :n], 2.0 * two_param.Q)
        assert np.array_equal(J[:n, n:], -two_param.A_e.T)
        assert np.array_equal(J[n:, :n], -two_param.A_e)
        assert not J[n:, n:].any()

    def test_active_jacobian_blocks(self, two_param):
        B = ActiveSet([3, 4])
        J = assemble_active_jacobian(two_param, B)
        n, m1 = two_param.n, two_param.m1
        assert J.shape == (n + m1 + 2, n + m1 + 2)
        A_B = two_param.A_C[B.as_index_array()]
        assert np.array_equal(J[: n, n + m1:], -A_B.T)
        assert np.array_equal(J[n + m1:, :n], -A_B)

    def test_factorize_singular_raises(self):
        with pytest.raises(SingularJacobian):
            factorize(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularJacobian):
            factorize(np.zeros((2, 2)))

    def test_factorize_solve_matches_numpy(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        b = rng.standard_normal(6)
        f = factorize(A)
        assert np.allclose(f.solve(b), np.linalg.solve(A, b))
        assert np.allclose(f.inverse() @ A, np.eye(6), atol=1e-12)

    def test_duplicate_active_rows_singular(self, two_param):
        # constraints 2 and 3+4 are linearly dependent with 3, 4 present
        with pytest.raises(SingularActiveJacobian):
            solve_active_set(
                two_param,
                ActiveSet([2, 3, 4]),
                ParameterPoint.of_theta_e(two_param, [100.0, 100.0]),
            )


def _upper_with_pivots(pivots, seed):
    """A row-permuted upper-triangular matrix whose partial-pivoted LU has
    exactly these pivots (a column holds one nonzero below the rows
    already eliminated), with entries in [-1, 1]."""
    rng = np.random.default_rng(seed)
    U = np.triu(rng.uniform(-1.0, 1.0, (len(pivots), len(pivots))), 1) + np.diag(pivots)
    return U[rng.permutation(len(pivots))]


class TestJacobianFactorsMatchesScipy:
    """JacobianFactors calls LAPACK getrf/getrs itself; its factors, solves
    and inverse are scipy.linalg.lu_factor/lu_solve's bit for bit, and its
    pivot test refuses exactly the matrices whose min pivot is below
    1e-12 times their largest entry."""

    @staticmethod
    def assert_same_bits(A):
        f = JacobianFactors(A)
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
        assert f._lu.tobytes() == lu.tobytes() and np.array_equal(f._piv, piv)
        rng = np.random.default_rng(len(A))
        for rhs in (rng.standard_normal(len(A)), rng.standard_normal((len(A), 3))):
            got, ref = f.solve(rhs), scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        ref = scipy.linalg.lu_solve((lu, piv), np.eye(len(A)), check_finite=False)
        assert f.inverse().tobytes() == ref.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(min_value=1, max_value=9), seed=st.integers(0, 2**32 - 1))
    def test_random_matrices(self, size, seed):
        self.assert_same_bits(np.random.default_rng(seed).standard_normal((size, size)))

    @pytest.mark.parametrize("seed", range(3))
    def test_pivot_threshold(self, seed):
        passing = _upper_with_pivots([1.0, 0.5, 2e-12, -0.25], seed)
        failing = _upper_with_pivots([1.0, 0.5, 0.5e-12, -0.25], seed)
        for A, ratio in ((passing, 2.0), (failing, 0.5)):
            lu, _ = scipy.linalg.lu_factor(A, check_finite=False)
            assert np.abs(np.diag(lu)).min() == ratio * 1e-12 * np.abs(A).max()
        self.assert_same_bits(passing)
        with pytest.raises(SingularJacobian):
            JacobianFactors(failing)

    def test_exactly_singular_raises_without_warning(self):
        A = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 1.0, 3.0]])
        with pytest.warns(scipy.linalg.LinAlgWarning):
            scipy.linalg.lu_factor(A, check_finite=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularJacobian):
                JacobianFactors(A)


class TestSolveActiveSet:
    def test_matches_frozen_solution(self, two_param):
        theta = ParameterPoint.of_theta_e(two_param, [100.0, 100.0])
        sol = solve_active_set(two_param, ActiveSet([3, 4]), theta)
        assert np.allclose(
            sol.x,
            [20.0, 20.0, 30.534351145, 35.3982300885, 49.465648855, 44.6017699115],
            atol=1e-8,
        )
        assert np.allclose(sol.lam, [9918.129770992367, 8945.353982300885])
        assert np.allclose(
            sol.mu, [0.0, 0.0, 3653.12977099, 2440.3539823, 0.0, 0.0], atol=1e-7
        )
        assert sol.objective == pytest.approx(884739.3501317302, rel=1e-12)

    def test_constraints_hold_exactly(self, two_param):
        theta = ParameterPoint.of_theta_e(two_param, [300.0, 250.0])
        B = ActiveSet([3, 4])
        sol = solve_active_set(two_param, B, theta)
        assert np.allclose(two_param.A_e @ sol.x, theta.theta_e, atol=1e-9)
        idx = B.as_index_array()
        assert np.allclose(
            (two_param.A_C @ sol.x)[idx], two_param.b_C[idx], atol=1e-9
        )

    def test_solve_with_mu_consistency(self, two_param):
        """The active-set solution's mu, pushed through the base KKT
        system [x; lambda] = J^{-1} [-C - theta_c + A_C^T mu; -b_e - theta_e],
        gives back its x and lambda."""
        theta = ParameterPoint.of_theta_e(two_param, [100.0, 100.0])
        sol = solve_active_set(two_param, ActiveSet([3, 4]), theta)
        factors = factorize(assemble_active_jacobian(two_param, ActiveSet()))
        x_lam = factors.solve(np.concatenate([
            -two_param.C - theta.theta_c + two_param.A_C.T @ sol.mu,
            -two_param.b_e - theta.theta_e,
        ]))
        assert np.allclose(x_lam[:two_param.n], sol.x, atol=1e-9)
        assert np.allclose(x_lam[two_param.n:], sol.lam, atol=1e-6)


class TestRegionSlopes:
    def test_affine_map_reproduces_solutions(self, two_param):
        B = ActiveSet([3, 4])
        grad_mu = region_slopes(two_param, B)
        model = init_model(two_param, B, ParameterPoint.of_theta_e(two_param, [100.0, 100.0]))
        for te in ([100.0, 100.0], [150.0, 120.0], [90.0, 260.0]):
            theta = ParameterPoint.of_theta_e(two_param, te)
            z = -two_param.stacked_coefficients() - theta.stacked()
            ref = solve_active_set(two_param, B, theta)
            assert np.allclose(grad_mu @ z, ref.mu, atol=1e-6)
            # x and lambda follow from mu through the base inverse
            got = forward(model, theta)
            assert np.allclose(got.x, ref.x, atol=1e-9)
            assert np.allclose(got.lam, ref.lam, atol=1e-6)

    def test_inactive_rows_and_columns_zero(self, two_param):
        grad_mu = region_slopes(two_param, ActiveSet([3, 4]))
        inactive = [0, 1, 4, 5]  # 0-based rows of constraints 1, 2, 5, 6
        assert not grad_mu[inactive].any()
        n, m1 = two_param.n, two_param.m1
        cols = [n + m1 + i for i in inactive]
        assert not grad_mu[:, cols].any()

    def test_shapes(self, two_param):
        grad_mu = region_slopes(two_param, ActiveSet([3, 4]))
        assert grad_mu.shape == (two_param.m2, two_param.d)


class TestGradientsAndObjective:
    def test_gradients_vanish_at_active_set_solution(self, two_param):
        theta = ParameterPoint.of_theta_e(two_param, [100.0, 100.0])
        sol = solve_active_set(two_param, ActiveSet([3, 4]), theta)
        dx, dlam, dmu = lagrangian_gradients(two_param, sol, theta)
        assert np.abs(dx).max() < 1e-8
        assert np.abs(dlam).max() < 1e-10
        # binding rows have zero residual; the rest are strictly slack
        assert np.abs(dmu[[2, 3]]).max() < 1e-10
        assert (dmu[[0, 1, 4, 5]] < -1e-6).all()

    def test_objective_value(self, two_param):
        theta = ParameterPoint.zeros(two_param)
        x = np.ones(6)
        expected = float(np.ones(6) @ two_param.Q @ np.ones(6) + 6 * 25.0)
        assert objective_value(two_param, x, theta) == pytest.approx(expected)

    def test_theta_c_shifts_gradient(self, two_param):
        theta = ParameterPoint(
            np.full(6, 2.0), np.array([100.0, 100.0]), np.zeros(6)
        )
        base = ParameterPoint.of_theta_e(two_param, [100.0, 100.0])
        sol = solve_active_set(two_param, ActiveSet([3, 4]), base)
        dx_base, _, _ = lagrangian_gradients(two_param, sol, base)
        dx_shift, _, _ = lagrangian_gradients(two_param, sol, theta)
        assert np.allclose(dx_shift - dx_base, 2.0)


# ---------------------------------------------------------------------------
# The base-factorization kernel against whole J_B solves.  The enumeration
# oracle, the region slopes and the feasibility kernel all read
# MpQpProblem.base_inverse and schur_complement, so an error common to them
# would pass the oracle-equivalence criteria; these tests certify the kernel
# against the assembled J_B instead.


def relative_error(got, ref):
    """max |got - ref| over max |ref|."""
    return np.abs(got - ref).max(initial=0.0) / max(np.abs(ref).max(initial=0.0), 1e-300)


def assert_matches_jacobian_reference(problem, B, theta):
    """solve_active_set and region_slopes agree with the J_B solve and
    inverse rows to 1e-9 relative, and active_factors raises
    SingularActiveJacobian exactly where J_B fails the pivot test."""
    try:
        ref = reference_solve_active_set(problem, B, theta)
    except SingularJacobian:
        with pytest.raises(SingularActiveJacobian):
            active_factors(problem, B)
        return
    sol = solve_active_set(problem, B, theta)  # raises if H_BB alone is singular
    assert relative_error(np.concatenate([sol.x, sol.lam, sol.mu]), np.concatenate(ref)) <= 1e-9
    slopes = region_slopes(problem, B)
    assert relative_error(slopes, reference_region_slopes(problem, B)) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    q_vals=st.lists(st.floats(min_value=0.5, max_value=8.0), min_size=4, max_size=4),
    c_vals=st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=4, max_size=4),
    bound=st.floats(min_value=0.5, max_value=10.0),
    active=st.sets(st.integers(min_value=1, max_value=8), min_size=1, max_size=5),
    stacked=st.lists(st.floats(min_value=-30.0, max_value=30.0), min_size=13, max_size=13),
)
def test_kernel_matches_jacobian_reference_box_qp(n, q_vals, c_vals, bound, active, stacked):
    """Random box QPs and random active sets, singular ones included (both
    bounds of one variable, or all n variables bound)."""
    problem = box_qp(n, q_vals, c_vals, bound)
    B = ActiveSet(i for i in active if i <= problem.m2)
    theta = ParameterPoint.from_stacked(problem, np.asarray(stacked[:problem.d]))
    assert_matches_jacobian_reference(problem, B, theta)


@pytest.mark.parametrize("argv", [
    ["--problem", "{problem}", "--theta0", "100,100", "--steps", "200"],
    ["--case", "{case}", "--steps", "40"],
    ["--case", "{case}", "--lines", "--steps", "40", "--lenient"],
], ids=["two_parameter", "case6", "case6_lines"])
def test_kernel_matches_jacobian_reference_fixture_regions(tmp_path, argv):
    """Every region of the benchmark fixtures' models, at its witness."""
    files = {"problem": tmp_path / "problem.json", "case": tmp_path / "case6.json"}
    files["problem"].write_text(bundled_problem_json())
    files["case"].write_text(bundled_case_json())
    out = tmp_path / "model.json"
    assert main(["discover", *[a.format(**files) for a in argv], "--out", str(out)]) == 0
    if "--problem" in argv:
        problem = MpQpProblem.from_json(bundled_problem_json())
    else:
        problem = (build_dcopf_with_lines if "--lines" in argv else build_dcopf)(case6())[0]
    model = deserialize(out.read_bytes(), problem)
    assert model.k > 1
    for region in model.regions:
        assert_matches_jacobian_reference(problem, region.active_set, region.witness_theta)
