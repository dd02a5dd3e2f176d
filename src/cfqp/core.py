"""Dense linear-algebra kernels: Jacobian assembly, factorization,
active-set solves, region slopes, Lagrangian gradients, objective.

All operations accept a ``dtype`` so the whole pipeline can run in
float32 or float64.
"""

from __future__ import annotations

import warnings
from typing import Tuple

import numpy as np
import scipy.linalg

from .errors import SingularActiveJacobian, SingularJacobian
from .problem import ActiveSet, MpQpProblem, ParameterPoint, PrimalDualSolution

__all__ = [
    "JacobianFactors",
    "assemble_base_jacobian",
    "assemble_active_jacobian",
    "factorize",
    "solve_with_mu",
    "solve_active_set",
    "region_slopes",
    "lagrangian_gradients",
    "objective_value",
    "rowwise_matvec",
]

# Relative pivot threshold below which an LU factorization is declared
# singular.  float32 needs a looser threshold than float64 because its
# representation noise alone produces pivots around 1e-7 * scale; 1e-6
# sits above that noise floor while staying below the smallest relative
# pivot seen in well-conditioned KKT systems (~7e-6).
_PIVOT_RTOL = {np.dtype(np.float64): 1e-12, np.dtype(np.float32): 1e-6}


class JacobianFactors:
    """Partial-pivoted LU factors of a square matrix, with singularity
    detection and on-demand explicit inverse."""

    __slots__ = ("matrix", "_lu", "_piv", "_inv", "dtype")

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("factorize expects a square matrix")
        self.matrix = matrix
        self.dtype = matrix.dtype
        with warnings.catch_warnings():
            # Exactly-singular matrices are detected by the pivot check
            # below; scipy's advisory warning is redundant here.
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(matrix, check_finite=False)
        scale = np.abs(matrix).max()
        rtol = _PIVOT_RTOL.get(np.dtype(matrix.dtype), 1e-12)
        pivots = np.abs(np.diag(lu))
        if scale == 0.0 or pivots.min() < rtol * scale:
            raise SingularJacobian(
                f"matrix is numerically singular (min pivot {pivots.min() if scale else 0.0:g}, "
                f"scale {scale:g})"
            )
        self._lu = lu
        self._piv = piv
        self._inv = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=self.dtype)
        return scipy.linalg.lu_solve((self._lu, self._piv), rhs, check_finite=False)

    def inverse(self) -> np.ndarray:
        """Explicit inverse, cached (matrices here are small and the
        inverse is reused many times)."""
        if self._inv is None:
            eye = np.eye(self.matrix.shape[0], dtype=self.dtype)
            inv = scipy.linalg.lu_solve((self._lu, self._piv), eye, check_finite=False)
            inv.setflags(write=False)
            self._inv = inv
        return self._inv


def assemble_base_jacobian(problem: MpQpProblem, dtype=np.float64) -> np.ndarray:
    """J = [[2Q, -A_e^T], [-A_e, 0]], square of size n + m1."""
    n, m1 = problem.n, problem.m1
    J = np.zeros((n + m1, n + m1), dtype=dtype)
    J[:n, :n] = 2.0 * problem.Q
    J[:n, n:] = -problem.A_e.T
    J[n:, :n] = -problem.A_e
    return J


def assemble_active_jacobian(
    problem: MpQpProblem, B: ActiveSet, dtype=np.float64
) -> np.ndarray:
    """J_B = [[2Q, -A_e^T, -A_B^T], [-A_e, 0, 0], [-A_B, 0, 0]]."""
    B.validate(problem)
    n, m1 = problem.n, problem.m1
    A_B = problem.A_C[B.as_index_array()]
    k = len(B)
    size = n + m1 + k
    J = np.zeros((size, size), dtype=dtype)
    J[:n, :n] = 2.0 * problem.Q
    J[:n, n:n + m1] = -problem.A_e.T
    J[:n, n + m1:] = -A_B.T
    J[n:n + m1, :n] = -problem.A_e
    J[n + m1:, :n] = -A_B
    return J


def factorize(J: np.ndarray) -> JacobianFactors:
    """LU-factorize a square matrix; raises SingularJacobian on rank
    deficiency (relative pivot test)."""
    return JacobianFactors(np.asarray(J))


def solve_with_mu(
    problem: MpQpProblem,
    factors: JacobianFactors,
    mu: np.ndarray,
    theta: ParameterPoint,
) -> Tuple[np.ndarray, np.ndarray]:
    """Recover (x, lambda) from known inequality multipliers:
    [x; lambda] = J^{-1} [-C - theta_c + A_C^T mu; -b_e - theta_e]."""
    theta.check_dims(problem)
    dtype = factors.dtype
    mu = np.asarray(mu, dtype=dtype)
    top = (-problem.C - theta.theta_c).astype(dtype) + problem.A_C.T.astype(dtype) @ mu
    bottom = (-problem.b_e - theta.theta_e).astype(dtype)
    sol = factors.solve(np.concatenate([top, bottom]))
    return sol[: problem.n], sol[problem.n:]


def solve_active_set(
    problem: MpQpProblem, B: ActiveSet, theta: ParameterPoint, dtype=np.float64
) -> PrimalDualSolution:
    """Solve the KKT equality system for a given active set.

    Returns the full (x, lambda, mu) with mu zero outside B and the
    objective value filled in.
    """
    theta.check_dims(problem)
    J = assemble_active_jacobian(problem, B, dtype=dtype)
    try:
        factors = JacobianFactors(J)
    except SingularJacobian as exc:
        raise SingularActiveJacobian(
            f"active set {sorted(B)} yields a singular KKT system: {exc}"
        ) from exc
    idx = B.as_index_array()
    rhs = np.concatenate(
        [
            (-problem.C - theta.theta_c),
            (-problem.b_e - theta.theta_e),
            (-problem.b_C[idx] - theta.theta_C[idx]),
        ]
    ).astype(dtype)
    sol = factors.solve(rhs)
    n, m1 = problem.n, problem.m1
    x = sol[:n]
    lam = sol[n:n + m1]
    mu = np.zeros(problem.m2, dtype=dtype)
    mu[idx] = sol[n + m1:]
    return PrimalDualSolution(
        x=x, lam=lam, mu=mu, objective=objective_value(problem, x, theta)
    )


def region_slopes(problem: MpQpProblem, B: ActiveSet, dtype=np.float64) -> np.ndarray:
    """Affine sensitivity of mu to the stacked input z = -B - theta for
    the critical region generated by active set B: the (m2, d) block
    with mu(theta) = grad_mu @ z.

    The multiplier rows of the inverse of J_B are scattered into a
    zero-padded matrix whose columns follow the fixed layout
    [cost (n) | equality (m1) | inequality (m2)]; rows and inequality
    columns of non-active constraints stay zero.  x and lambda follow
    from mu through the base inverse (see ``model.region_maps``).
    """
    B.validate(problem)
    J = assemble_active_jacobian(problem, B, dtype=dtype)
    try:
        inv = JacobianFactors(J).inverse()
    except SingularJacobian as exc:
        raise SingularActiveJacobian(
            f"active set {sorted(B)} yields a singular KKT system: {exc}"
        ) from exc
    n, m1 = problem.n, problem.m1
    idx = B.as_index_array()
    # Columns of the stacked input that actually enter the KKT system.
    cols = np.concatenate([np.arange(n + m1), n + m1 + idx]).astype(np.intp)
    grad_mu = np.zeros((problem.m2, problem.d), dtype=dtype)
    grad_mu[np.ix_(idx, cols)] = inv[n + m1:, :]
    return grad_mu


def lagrangian_gradients(
    problem: MpQpProblem, sol: PrimalDualSolution, theta: ParameterPoint
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact affine Lagrangian gradients (no clipping):

    dL/dx      = 2 Q x + C + theta_c - A_e^T lambda - A_C^T mu
    dL/dlambda = b_e + theta_e - A_e x
    dL/dmu     = b_C + theta_C - A_C x
    """
    theta.check_dims(problem)
    x = np.asarray(sol.x, dtype=np.float64)
    lam = np.asarray(sol.lam, dtype=np.float64)
    mu = np.asarray(sol.mu, dtype=np.float64)
    dL_dx = (
        2.0 * problem.Q @ x
        + problem.C
        + theta.theta_c
        - problem.A_e.T @ lam
        - problem.A_C.T @ mu
    )
    dL_dlambda = problem.b_e + theta.theta_e - problem.A_e @ x
    dL_dmu = problem.b_C + theta.theta_C - problem.A_C @ x
    return dL_dx, dL_dlambda, dL_dmu


def objective_value(problem: MpQpProblem, x: np.ndarray, theta: ParameterPoint) -> float:
    """z = x^T Q x + (C + theta_c)^T x + C0."""
    x = np.asarray(x, dtype=np.float64)
    return float(
        x @ problem.Q @ x + (problem.C + theta.theta_c) @ x + problem.C0
    )


def rowwise_matvec(A: np.ndarray, V: np.ndarray) -> np.ndarray:
    """A @ v for every row v of the (N, c) array V, as an (N, r) array.

    Each row's products are summed on their own, by a reduction over the
    last axis of a C-ordered (N, r, c) array, so a row's result is
    bitwise the same whatever the other rows are.  A gemm (``V @ A.T``) blocks its sums
    by the shape of the whole batch and gives a 1-row batch other bits.
    """
    return np.add.reduce(np.multiply(A, V[:, None, :], order="C"), -1)
