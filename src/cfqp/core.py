"""Dense linear-algebra kernels: factorization, active-set solves,
region slopes, Lagrangian gradients, objective.

Everything here runs at float64.  Every active-set system is solved from
the base factorization: J_B = [[2Q, -A_e^T, -A_B^T], [-A_e, 0, 0],
[-A_B, 0, 0]] is the base KKT matrix J0 bordered by the rows A_B, and
its Schur complement is -H_BB, with H = A_C K A_C^T
(``MpQpProblem.schur_complement``) and K the x-block of J0^{-1}
(``MpQpProblem.base_inverse``).  So only the k x k matrix H_BB is
factored per active set.  The region slopes, the network's first layer,
are built here; a model rounds them to its own precision.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import SingularActiveJacobian, SingularJacobian
from .problem import ActiveSet, MpQpProblem, ParameterPoint, PrimalDualSolution

__all__ = [
    "JacobianFactors",
    "factorize",
    "nonsingular",
    "active_factors",
    "solve_active_set",
    "region_slopes",
    "gradient_rows",
    "lagrangian_gradients",
    "objective_value",
    "rowwise_matvec",
]

# Relative pivot threshold below which an LU factorization is declared
# singular.
_PIVOT_RTOL = 1e-12


def _fails_pivot_test(matrices: np.ndarray, lus: np.ndarray) -> np.ndarray:
    """The pivot test over the last two axes of matrices and their getrf
    factors: min |u_ii| < _PIVOT_RTOL max |a_ij|, or an all-zero matrix."""
    scale = np.abs(matrices).max((-2, -1))
    pivots = np.abs(np.diagonal(lus, axis1=-2, axis2=-1)).min(-1)
    return (scale == 0.0) | (pivots < _PIVOT_RTOL * scale)


class JacobianFactors:
    """Partial-pivoted LU factors of a square matrix (LAPACK getrf, as
    ``scipy.linalg.lu_factor``), with singularity detection and an
    explicit inverse on request."""

    __slots__ = ("_lu", "_piv")

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("factorize expects a square matrix")
        # info > 0 marks an exactly zero pivot, which the pivot test refuses
        self._lu, self._piv, _ = dgetrf(matrix)
        if _fails_pivot_test(matrix, self._lu):
            raise SingularJacobian(
                f"matrix is numerically singular (min pivot "
                f"{np.abs(np.diag(self._lu)).min():g}, scale {np.abs(matrix).max():g})"
            )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return dgetrs(self._lu, self._piv, np.asarray(rhs, dtype=np.float64))[0]

    def inverse(self) -> np.ndarray:
        """Explicit inverse (the matrices here are small)."""
        return self.solve(np.eye(self._lu.shape[0]))


def nonsingular(matrices: np.ndarray) -> np.ndarray:
    """Whether each matrix of a (c, k, k) stack passes
    :class:`JacobianFactors`' pivot test, from one getrf per matrix."""
    lus = np.empty_like(matrices)
    for lu, matrix in zip(lus, matrices):
        lu[...] = dgetrf(matrix)[0]
    return ~_fails_pivot_test(matrices, lus)


def factorize(J: np.ndarray) -> JacobianFactors:
    """LU-factorize a square matrix; raises SingularJacobian on rank
    deficiency (relative pivot test)."""
    return JacobianFactors(np.asarray(J))


def active_factors(problem: MpQpProblem, B: ActiveSet) -> JacobianFactors:
    """The LU factors of H_BB for a nonempty B (see the module
    docstring); J_B is singular exactly when H_BB is, and a singular
    H_BB is SingularActiveJacobian."""
    idx = B.validate(problem).as_index_array()
    try:
        return JacobianFactors(problem.schur_complement[np.ix_(idx, idx)])
    except SingularJacobian as exc:
        raise SingularActiveJacobian(
            f"active set {sorted(B)} yields a singular KKT system: {exc}"
        ) from exc


def solve_active_set(
    problem: MpQpProblem, B: ActiveSet, theta: ParameterPoint
) -> PrimalDualSolution:
    """Solve the KKT equality system for a given active set.

    Returns the full (x, lambda, mu) with mu zero outside B and the
    objective value filled in.  With y0 = (x0, lambda0) the base
    solution and s = A_C x0 - b_C - theta_C, mu_B = -H_BB^{-1} s_B and
    (x, lambda) = y0 + J0^{-1} [A_B^T mu_B; 0]; the empty set's solution
    is y0.
    """
    theta.check_dims(problem)
    n = problem.n
    y = problem.base_inverse @ np.concatenate(
        [-problem.C - theta.theta_c, -problem.b_e - theta.theta_e])
    mu = np.zeros(problem.m2)
    if B:
        idx = B.as_index_array()
        A_B = problem.A_C[idx]
        mu[idx] = active_factors(problem, B).solve(
            problem.b_C[idx] + theta.theta_C[idx] - A_B @ y[:n])
        y = y + problem.base_inverse[:, :n] @ (A_B.T @ mu[idx])
    x = y[:n]
    return PrimalDualSolution(
        x=x, lam=y[n:], mu=mu, objective=objective_value(problem, x, theta)
    )


def region_slopes(problem: MpQpProblem, B: ActiveSet) -> np.ndarray:
    """Affine sensitivity of mu to the stacked input z = -B - theta for
    the critical region generated by active set B: the (m2, d) block
    with mu(theta) = grad_mu @ z.

    Since s = -A_C J0^{-1}[:n] z[:n+m1] - z[n+m1:], the rows B are
    -H_BB^{-1} [A_B J0^{-1}[:n] | I_B], scattered into a zero-padded
    matrix whose columns follow the fixed layout
    [cost (n) | equality (m1) | inequality (m2)]; rows and inequality
    columns of non-active constraints stay zero.  x and lambda follow
    from mu through the base inverse (see ``model.region_residuals``).
    The empty set's block is zero.
    """
    grad_mu = np.zeros((problem.m2, problem.d))
    if B:
        n, m1 = problem.n, problem.m1
        idx = B.as_index_array()
        # Columns of the stacked input that actually enter the KKT system.
        cols = np.concatenate([np.arange(n + m1), n + m1 + idx]).astype(np.intp)
        rhs = np.hstack([problem.A_C[idx] @ problem.base_inverse[:n], np.eye(len(idx))])
        # the explicit inverse, as the feasibility kernel's: on the
        # two-parameter fixture it leaves smaller KKT residuals than a solve
        grad_mu[np.ix_(idx, cols)] = -active_factors(problem, B).inverse() @ rhs
    return grad_mu


def gradient_rows(
    problem: MpQpProblem, X: np.ndarray, Lam: np.ndarray, Mu: np.ndarray, Theta: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact affine Lagrangian gradients (no clipping) of N solutions at
    once, at float64, as (N, n), (N, m1) and (N, m2) arrays:

    dL/dx      = 2 Q x + C + theta_c - A_e^T lambda - A_C^T mu
    dL/dlambda = b_e + theta_e - A_e x
    dL/dmu     = b_C + theta_C - A_C x

    Row i is that of (X[i], Lam[i], Mu[i]) at the stacked theta Theta[i].
    The products run through ``rowwise_matvec``, so a row's values do
    not depend on the other rows.  A_e x and A_C x are one product over
    the stacked rows, which sums each row as the separate products do;
    the transposed products stay apart, since stacking them would change
    the order of each sum."""
    n, m1 = problem.n, problem.m1
    x, lam, mu = (np.asarray(a, dtype=np.float64) for a in (X, Lam, Mu))
    dL_dx = (rowwise_matvec(problem.two_Q, x) + problem.C + Theta[:, :n]
             - rowwise_matvec(problem.A_e.T, lam)
             - rowwise_matvec(problem.A_C.T, mu))
    Ax = rowwise_matvec(problem.A_stacked, x)
    dL_dlam = problem.b_e + Theta[:, n:n + m1] - Ax[:, :m1]
    dL_dmu = problem.b_C + Theta[:, n + m1:] - Ax[:, m1:]
    return dL_dx, dL_dlam, dL_dmu


def lagrangian_gradients(
    problem: MpQpProblem, sol: PrimalDualSolution, theta: ParameterPoint
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`gradient_rows` of one solution: dL/dx, dL/dlambda and
    dL/dmu, bitwise equal to its row in any batch."""
    theta.check_dims(problem)
    X, Lam, Mu, Theta = (v[None] for v in (sol.x, sol.lam, sol.mu, theta.stacked()))
    return tuple(g[0] for g in gradient_rows(problem, X, Lam, Mu, Theta))


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
