"""Ground-truth solver by exhaustive active-set enumeration, plus the
five-part KKT violation metric used for validation and inside the
discovery loop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import lagrangian_gradients, rowwise_matvec, solve_active_set
from .errors import Infeasible, SingularActiveJacobian
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

#: Default oracle acceptance tolerance on dual negativity and primal
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

    def to_dict(self, problem: Optional[MpQpProblem] = None) -> dict:
        """Per-condition mean and max, with the stationarity column split
        per variable group when the problem declares groups."""

        def stats(vec):
            vec = np.asarray(vec)
            if vec.size == 0:
                return {"mean": 0.0, "max": 0.0}
            return {"mean": float(vec.mean()), "max": float(vec.max())}

        out = {
            "kkt1": stats(self.kkt1),
            "kkt2_eq": stats(self.kkt2_eq),
            "kkt2_ineq": stats(self.kkt2_ineq),
            "kkt3": stats(self.kkt3),
            "kkt4": stats(self.kkt4),
            "scalar": self.scalar,
        }
        if problem is not None and problem.variable_groups:
            out["kkt1_groups"] = {
                name: stats(self.kkt1[list(idx)])
                for name, idx in problem.variable_groups.items()
            }
        return out


def kkt_report(
    problem: MpQpProblem, sol: PrimalDualSolution, theta: ParameterPoint
) -> KktReport:
    """Evaluate the five KKT violation vectors at 64-bit (inputs of any
    precision are promoted, so the report measures the true residual of
    whatever solution it is handed)."""
    dL_dx, dL_dlam, dL_dmu = lagrangian_gradients(problem, sol, theta)
    mu = np.asarray(sol.mu, dtype=np.float64)
    kkt1 = dL_dx ** 2
    kkt2_eq = dL_dlam ** 2
    kkt2_ineq = np.maximum(0.0, dL_dmu) ** 2
    kkt3 = np.maximum(0.0, -mu) + 0.0  # + 0.0 clears negative zeros
    kkt4 = (mu * dL_dmu) ** 2
    stacked = np.concatenate([kkt1, kkt2_eq, kkt2_ineq, kkt3, kkt4])
    return KktReport(
        kkt1=kkt1,
        kkt2_eq=kkt2_eq,
        kkt2_ineq=kkt2_ineq,
        kkt3=kkt3,
        kkt4=kkt4,
        scalar=float(stacked.mean()),
    )


def kkt_batch(
    problem: MpQpProblem,
    X: np.ndarray,
    Lam: np.ndarray,
    Mu: np.ndarray,
    Theta: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`kkt_report`'s five violation vectors for N solutions at
    once, at float64: (N, n), (N, m1), (N, m2), (N, m2) and (N, m2)
    arrays for kkt1, kkt2_eq, kkt2_ineq, kkt3 and kkt4.

    Row i is the report of (X[i], Lam[i], Mu[i]) at the stacked theta
    Theta[i].  The products run through ``rowwise_matvec``, so a row's
    values do not depend on the other rows; they match ``kkt_report``,
    which uses BLAS products, up to rounding."""
    n, m1 = problem.n, problem.m1
    x, lam, mu = (np.asarray(a, dtype=np.float64) for a in (X, Lam, Mu))
    dL_dx = (
        rowwise_matvec(2.0 * problem.Q, x)
        + problem.C
        + Theta[:, :n]
        - rowwise_matvec(problem.A_e.T, lam)
        - rowwise_matvec(problem.A_C.T, mu)
    )
    dL_dlam = problem.b_e + Theta[:, n:n + m1] - rowwise_matvec(problem.A_e, x)
    dL_dmu = problem.b_C + Theta[:, n + m1:] - rowwise_matvec(problem.A_C, x)
    return (
        dL_dx ** 2,
        dL_dlam ** 2,
        np.maximum(0.0, dL_dmu) ** 2,
        np.maximum(0.0, -mu) + 0.0,  # + 0.0 clears negative zeros
        (mu * dL_dmu) ** 2,
    )


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


def brute_force_solve(
    problem: MpQpProblem,
    theta: ParameterPoint,
    tol: float = ORACLE_TOL,
    max_cardinality: Optional[int] = None,
) -> OracleResult:
    """Enumerate active subsets and return the KKT-optimal one.

    Enumeration is pruned by rank: an active-set KKT system is singular
    whenever |B| > n - m1, and any superset of a rank-deficient row
    selection stays rank-deficient, so those branches are skipped.
    Acceptance requires mu_B >= -tol and all inequality residuals
    <= tol (both scaled by the data magnitude); among acceptors the
    minimal KktReport scalar wins, ties broken by smaller cardinality
    then lexicographic order.

    The ``degenerate`` flag marks weakly active constraints (a binding
    constraint with mu ~ 0) or boundary ties between active sets.
    """
    theta.check_dims(problem)
    if problem.m2 > MAX_ENUM_M2:
        raise ValueError(
            f"brute_force_solve is limited to m2 <= {MAX_ENUM_M2}, got {problem.m2}"
        )
    n, m1, m2 = problem.n, problem.m1, problem.m2
    cap = n - m1 if max_cardinality is None else min(max_cardinality, n - m1)
    cap = max(0, min(cap, m2))

    rhs_scale = max(
        1.0, float(np.abs(problem.b_C + theta.theta_C).max()) if m2 else 1.0
    )
    primal_tol = tol * rhs_scale

    best = None  # (scalar, cardinality, indices, sol, weakly_active)
    singular: list[frozenset] = []
    candidates = 0
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
            if k and mu_B.min() < -tol * dual_scale:
                continue
            _, _, dL_dmu = lagrangian_gradients(problem, sol, theta)
            if m2 and dL_dmu.max() > primal_tol:
                continue
            report = kkt_report(problem, sol, theta)
            weak = bool(k and mu_B.min() <= tol * dual_scale)
            key = (report.scalar, k, combo)
            candidates += 1
            if best is None or key < best[0]:
                best = (key, sol, B, weak)
    if best is None:
        raise Infeasible("no active set satisfies the KKT conditions at this theta")
    _, sol, B, weak = best
    return OracleResult(
        solution=sol, active_set=B, degenerate=weak or candidates > 1
    )


def is_feasible(problem: MpQpProblem, theta: ParameterPoint, tol: float = ORACLE_TOL) -> bool:
    """True iff brute_force_solve succeeds at this theta."""
    try:
        brute_force_solve(problem, theta, tol=tol)
        return True
    except Infeasible:
        return False
