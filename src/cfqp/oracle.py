"""Ground-truth solver by exhaustive active-set enumeration, plus the
five-part KKT violation metric used for validation and inside the
discovery loop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import gradient_rows, lagrangian_gradients, solve_active_set
from .errors import Infeasible, ProblemFormatError, SingularActiveJacobian
from .problem import ActiveSet, MpQpProblem, ParameterPoint, PrimalDualSolution

__all__ = [
    "KktReport",
    "OracleResult",
    "kkt_report",
    "kkt_batch",
    "kkt_means",
    "brute_force_solve",
    "is_feasible",
]

#: Hard guard on enumeration size.
MAX_ENUM_M2 = 24

#: Oracle acceptance tolerance on dual negativity and primal
#: violation (64-bit).  Chosen strictly tighter than every downstream
#: acceptance threshold this oracle certifies.
ORACLE_TOL = 1e-8


@dataclass(frozen=True)
class KktReport:
    """Elementwise KKT violations.

    kkt1      (dL/dx)^2                    squared stationarity, per variable
    kkt2_eq   (dL/dlambda)^2               squared equality residuals
    kkt2_ineq [max(0, dL/dmu)]^2           squared clamped inequality residuals
    kkt3      max(0, -mu)                  clamped dual negativity (not squared)
    kkt4      (mu * dL/dmu)^2              squared complementary slackness
    scalar    mean over all stacked entries
    """

    kkt1: np.ndarray
    kkt2_eq: np.ndarray
    kkt2_ineq: np.ndarray
    kkt3: np.ndarray
    kkt4: np.ndarray
    scalar: float

    def stacked(self) -> np.ndarray:
        return np.concatenate(
            [self.kkt1, self.kkt2_eq, self.kkt2_ineq, self.kkt3, self.kkt4]
        )


def _violations(mu, dL_dx, dL_dlam, dL_dmu):
    """The five violation vectors, elementwise from the gradients."""
    return (
        dL_dx ** 2,
        dL_dlam ** 2,
        np.maximum(0.0, dL_dmu) ** 2,
        np.maximum(0.0, -mu) + 0.0,  # + 0.0 clears negative zeros
        (mu * dL_dmu) ** 2,
    )


def _report(mu: np.ndarray, gradients) -> KktReport:
    """The report of one solution, from its multipliers and gradients."""
    vectors = _violations(np.asarray(mu, dtype=np.float64), *gradients)
    return KktReport(*vectors, scalar=float(np.concatenate(vectors).mean()))


def kkt_report(
    problem: MpQpProblem, sol: PrimalDualSolution, theta: ParameterPoint
) -> KktReport:
    """Evaluate the five KKT violation vectors at 64-bit (inputs of any
    precision are promoted, so the report measures the true residual of
    whatever solution it is handed).  They are bitwise the row of
    :func:`kkt_batch` for this solution."""
    return _report(sol.mu, lagrangian_gradients(problem, sol, theta))


def kkt_batch(
    problem: MpQpProblem, X: np.ndarray, Lam: np.ndarray, Mu: np.ndarray, Theta: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`kkt_report`'s five violation vectors for N solutions at
    once, at float64: (N, n), (N, m1), (N, m2), (N, m2) and (N, m2)
    arrays for kkt1, kkt2_eq, kkt2_ineq, kkt3 and kkt4.

    Row i is the report of (X[i], Lam[i], Mu[i]) at the stacked theta
    Theta[i], bit for bit (see ``gradient_rows``)."""
    mu = np.asarray(Mu, dtype=np.float64)
    return _violations(mu, *gradient_rows(problem, X, Lam, mu, Theta))


def kkt_means(
    problem: MpQpProblem,
    X: np.ndarray,
    Lam: np.ndarray,
    Mu: np.ndarray,
    Theta: np.ndarray,
) -> np.ndarray:
    """(N, 5) per-row means of :func:`kkt_batch`'s five vectors (an empty
    vector's mean is 0)."""
    return np.column_stack([
        v.sum(-1) / max(v.shape[1], 1)
        for v in kkt_batch(problem, X, Lam, Mu, Theta)
    ])


@dataclass(frozen=True)
class OracleResult:
    """Brute-force solve outcome; iterable as (solution, active_set)."""

    solution: PrimalDualSolution
    active_set: ActiveSet
    degenerate: bool

    def __iter__(self):
        return iter((self.solution, self.active_set))


def _accepted(problem: MpQpProblem, theta: ParameterPoint):
    """Yield each accepted active set, in enumeration order, as
    (key, solution, active_set, weakly_active) with key
    (KktReport scalar, cardinality, indices).

    Enumeration is pruned by rank: an active-set KKT system is singular
    whenever |B| > n - m1, and any superset of a rank-deficient row
    selection stays rank-deficient, so those branches are skipped.
    Acceptance requires mu_B >= -ORACLE_TOL and all inequality
    residuals <= ORACLE_TOL (both scaled by the data magnitude).  A
    weakly active set has a binding constraint with mu ~ 0.
    """
    theta.check_dims(problem)
    if not np.isfinite(theta.stacked()).all():
        raise ProblemFormatError("theta has non-finite entries")
    if problem.m2 > MAX_ENUM_M2:
        raise ValueError(
            f"brute_force_solve is limited to m2 <= {MAX_ENUM_M2}, got {problem.m2}"
        )
    n, m1, m2 = problem.n, problem.m1, problem.m2
    cap = max(0, min(n - m1, m2))

    rhs_scale = max(
        1.0, float(np.abs(problem.b_C + theta.theta_C).max()) if m2 else 1.0
    )
    primal_tol = ORACLE_TOL * rhs_scale

    singular: list[frozenset] = []
    for k in range(cap + 1):
        for combo in itertools.combinations(range(1, m2 + 1), k):
            cset = frozenset(combo)
            if any(s <= cset for s in singular):
                continue
            B = ActiveSet(combo)
            try:
                sol = solve_active_set(problem, B, theta)
            except SingularActiveJacobian:
                singular.append(cset)
                continue
            idx = B.as_index_array()
            mu_B = sol.mu[idx]
            dual_scale = max(1.0, float(np.abs(mu_B).max()) if k else 1.0)
            if k and mu_B.min() < -ORACLE_TOL * dual_scale:
                continue
            gradients = lagrangian_gradients(problem, sol, theta)
            if m2 and gradients[2].max() > primal_tol:
                continue
            weak = bool(k and mu_B.min() <= ORACLE_TOL * dual_scale)
            yield (_report(sol.mu, gradients).scalar, k, combo), sol, B, weak


def brute_force_solve(
    problem: MpQpProblem,
    theta: ParameterPoint,
) -> OracleResult:
    """Enumerate every active subset and return the KKT-optimal one:
    among the accepted sets the minimal KktReport scalar wins, ties
    broken by smaller cardinality then lexicographic order.

    The ``degenerate`` flag marks weakly active constraints (a binding
    constraint with mu ~ 0) or boundary ties between active sets.
    """
    found = list(_accepted(problem, theta))
    if not found:
        raise Infeasible("no active set satisfies the KKT conditions at this theta")
    _, sol, B, weak = min(found, key=lambda c: c[0])
    return OracleResult(solution=sol, active_set=B, degenerate=weak or len(found) > 1)


def is_feasible(problem: MpQpProblem, theta: ParameterPoint) -> bool:
    """True iff some active set is accepted at this theta, i.e. iff
    :func:`brute_force_solve` succeeds; stops at the first one."""
    return next(_accepted(problem, theta), None) is not None
