"""Ground-truth solver by exhaustive active-set enumeration, a
feasibility test that decides the same question from one base
factorization, and the five-part KKT violation metric used for
validation and inside the discovery loop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import active_factors, gradient_rows, lagrangian_gradients, solve_active_set
from .errors import EnumerationLimit, Infeasible, ProblemFormatError, SingularActiveJacobian
from .problem import ActiveSet, MpQpProblem, ParameterPoint, PrimalDualSolution

__all__ = [
    "KktReport",
    "OracleResult",
    "kkt_report",
    "kkt_batch",
    "kkt_means",
    "kkt_scalars",
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


def kkt_scalars(
    problem: MpQpProblem,
    X: np.ndarray,
    Lam: np.ndarray,
    Mu: np.ndarray,
    Theta: np.ndarray,
) -> np.ndarray:
    """(N,) :class:`KktReport` scalars: the mean of each row's five
    :func:`kkt_batch` vectors, concatenated.  Row i is bitwise
    ``kkt_report(...).scalar`` of (X[i], Lam[i], Mu[i]) at Theta[i]."""
    return np.concatenate(kkt_batch(problem, X, Lam, Mu, Theta), axis=1).mean(-1)


@dataclass(frozen=True)
class OracleResult:
    """Brute-force solve outcome; iterable as (solution, active_set)."""

    solution: PrimalDualSolution
    active_set: ActiveSet
    degenerate: bool

    def __iter__(self):
        return iter((self.solution, self.active_set))


def _check_enumerable(problem: MpQpProblem, theta: ParameterPoint) -> None:
    """Both oracles' guards: theta must fit the problem and be finite (a
    NaN fails no comparison, so it would pass every acceptance test), and
    m2 must not exceed the enumeration's ``MAX_ENUM_M2``."""
    theta.check_dims(problem)
    if not np.isfinite(theta.stacked()).all():
        raise ProblemFormatError("theta has non-finite entries")
    if problem.m2 > MAX_ENUM_M2:
        raise EnumerationLimit(
            f"active-set enumeration is limited to m2 <= {MAX_ENUM_M2}, got {problem.m2}"
        )


def _nonsingular_sets(problem: MpQpProblem, visit):
    """Yield (B, visit(B)) for every active set B whose J_B is
    nonsingular, by cardinality and then lexicographically; ``visit``
    raises SingularActiveJacobian for a singular J_B.  The walk is pruned
    by rank: J_B is singular whenever |B| > n - m1, and so is J_B of any
    superset of a set whose J_B is singular."""
    n, m1, m2 = problem.n, problem.m1, problem.m2
    singular: list[frozenset] = []
    for k in range(max(0, min(n - m1, m2)) + 1):
        kept = False
        for combo in itertools.combinations(range(1, m2 + 1), k):
            cset = frozenset(combo)
            if any(s <= cset for s in singular):
                continue
            B = ActiveSet(combo)
            try:
                value = visit(B)
            except SingularActiveJacobian:
                singular.append(cset)
                continue
            kept = True
            yield B, value
        if not kept:  # every larger set contains a singular one
            return


def _accepted(problem: MpQpProblem, theta: ParameterPoint):
    """Yield each accepted active set, in enumeration order, as
    (key, solution, active_set, weakly_active) with key
    (KktReport scalar, cardinality, indices).

    Every set of :func:`_nonsingular_sets` is solved at theta.
    Acceptance requires mu_B >= -ORACLE_TOL and all inequality
    residuals <= ORACLE_TOL (both scaled by the data magnitude).  A
    weakly active set has a binding constraint with mu ~ 0.
    """
    _check_enumerable(problem, theta)
    primal_tol = ORACLE_TOL * float(np.abs(problem.b_C + theta.theta_C).max(initial=1.0))
    for B, sol in _nonsingular_sets(problem, lambda B: solve_active_set(problem, B, theta)):
        k = len(B)
        mu_B = sol.mu[B.as_index_array()]
        dual_scale = float(np.abs(mu_B).max(initial=1.0))
        if k and mu_B.min() < -ORACLE_TOL * dual_scale:
            continue
        gradients = lagrangian_gradients(problem, sol, theta)
        if problem.m2 and gradients[2].max() > primal_tol:
            continue
        weak = bool(k and mu_B.min() <= ORACLE_TOL * dual_scale)
        yield (_report(sol.mu, gradients).scalar, k, B.indices), sol, B, weak


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


class FeasibilityKernel:
    """:func:`_accepted`'s acceptance test for every active set at once,
    from one base factorization; built once per problem and cached as
    ``MpQpProblem.feasibility_kernel``.

    With K the x-block of the base inverse J0^{-1} and H = A_C K A_C^T,
    the active-set system J_B is J0 bordered by the rows A_B, and its
    Schur complement is -H_BB.  So at theta, with x0 the base solution
    and s = A_C x0 - b_C - theta_C, the multipliers are
    mu_B = -H_BB^{-1} s_B and the inequality residuals
    b_C + theta_C - A_C x are -s + H[:, B] H_BB^{-1} s_B.  Only s depends
    on theta.  The sets are those :func:`_accepted` solves, from the same
    walk, :func:`_nonsingular_sets`, with J_B's pivot test alone in place
    of the solve (J0's own is the problem's, see ``MpQpProblem``).

    The sets are padded to the largest cardinality k_max so that one
    product serves them all.  Row i of the (S, k_max) index array holds
    set i's 1-based indices, then zeros, which pick 0 from [0, s].
    Matrix i of the (S, k_max + 1 + m2, k_max) stack holds
    [-H_BB^{-1}; 0; H[:, B] H_BB^{-1}] in its first |B| columns and zeros
    elsewhere.  So its product v with the picked slacks gives the
    multipliers as v[:k_max + 1] and the residuals as v[k_max:] - [0, s],
    each with zeros added; a zero changes neither test (both tolerances
    are positive) and keeps the reductions defined when k_max or m2 is 0.
    """

    __slots__ = ("_index", "_stack")

    def __init__(self, problem: MpQpProblem):
        n, m2 = problem.n, problem.m2
        H = problem.A_C @ problem.base_inverse[:n, :n] @ problem.A_C.T
        # J_B's pivot test alone; the empty set's J_B is the base matrix
        sets = [B.indices for B, _ in _nonsingular_sets(
            problem, lambda B: B and active_factors(problem, B))]
        k_max = len(sets[-1])  # the walk goes by cardinality, the empty set first
        self._index = np.zeros((len(sets), k_max), dtype=np.intp)
        self._stack = np.zeros((len(sets), k_max + 1 + m2, k_max))
        for k in range(1, k_max + 1):
            rows = [i for i, B in enumerate(sets) if len(B) == k]
            B = np.array([sets[i] for i in rows], dtype=np.intp) - 1
            H_inv = np.linalg.inv(H[B[:, :, None], B[:, None, :]])
            self._index[rows, :k] = B + 1
            self._stack[rows, :k, :k] = -H_inv
            self._stack[rows, k_max + 1:, :k] = H[:, B].transpose(1, 0, 2) @ H_inv

    def feasible(self, problem: MpQpProblem, theta: ParameterPoint) -> bool:
        """True iff some set passes :func:`_accepted`'s dual and primal
        tests, with the same scalings."""
        rhs = problem.b_C + theta.theta_C
        x0 = problem.base_inverse[:problem.n] @ np.concatenate([-problem.C - theta.theta_c,
                                                               -problem.b_e - theta.theta_e])
        s = np.concatenate([[0.0], problem.A_C @ x0 - rhs])
        v = (self._stack @ s[self._index][:, :, None])[:, :, 0]
        k_max = self._index.shape[1]
        mu, residual = v[:, :k_max + 1], v[:, k_max:] - s
        dual_ok = mu.min(1) >= -ORACLE_TOL * np.maximum(np.abs(mu).max(1), 1.0)
        primal_tol = ORACLE_TOL * float(np.abs(rhs).max(initial=1.0))
        return bool((dual_ok & (residual.max(1) <= primal_tol)).any())


def is_feasible(problem: MpQpProblem, theta: ParameterPoint) -> bool:
    """True iff some active set is accepted at this theta, i.e. iff
    :func:`brute_force_solve` succeeds, decided by the problem's
    :class:`FeasibilityKernel` without solving any J_B."""
    _check_enumerable(problem, theta)
    return problem.feasibility_kernel.feasible(problem, theta)
