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
    """Yield (B, visit(B)) for every active set B whose J_B (so H_BB) is
    nonsingular, by cardinality and then lexicographically; ``visit``
    raises SingularActiveJacobian for a singular one.  The walk is pruned
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

    With H = ``MpQpProblem.schur_complement`` (see ``cfqp.core``), x0 the
    base solution and s = A_C x0 - b_C - theta_C, a set's multipliers are
    mu_B = -H_BB^{-1} s_B, as ``core.solve_active_set`` computes them, and
    its inequality residuals b_C + theta_C - A_C x are
    -s + H[:, B] H_BB^{-1} s_B.  Only s depends on theta.  The sets are
    those :func:`_accepted` solves, from the same walk,
    :func:`_nonsingular_sets`, with H_BB's pivot test
    (``core.active_factors``) alone in place of the solve.

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
        H = problem.schur_complement
        # H_BB's pivot test alone; the empty set has no H_BB
        sets = [B.indices for B, _ in _nonsingular_sets(
            problem, lambda B: B and active_factors(problem, B))]
        k_max = len(sets[-1])  # the walk goes by cardinality, the empty set first
        self._index = np.zeros((len(sets), k_max), dtype=np.intp)
        self._stack = np.zeros((len(sets), k_max + 1 + problem.m2, k_max))
        for k in range(1, k_max + 1):
            rows = [i for i, B in enumerate(sets) if len(B) == k]
            B = np.array([sets[i] for i in rows], dtype=np.intp) - 1
            H_inv = np.linalg.inv(H[B[:, :, None], B[:, None, :]])
            self._index[rows, :k] = B + 1
            self._stack[rows, :k, :k] = -H_inv
            self._stack[rows, k_max + 1:, :k] = H[:, B].transpose(1, 0, 2) @ H_inv

    def _sets(self, problem: MpQpProblem, theta: ParameterPoint):
        """Every set's (S, k_max + 1) multipliers and (S, 1 + m2)
        residuals at theta, and the primal tolerance there."""
        rhs = problem.b_C + theta.theta_C
        x0 = problem.base_inverse[:problem.n] @ np.concatenate([-problem.C - theta.theta_c,
                                                               -problem.b_e - theta.theta_e])
        s = np.concatenate([[0.0], problem.A_C @ x0 - rhs])
        v = (self._stack @ s[self._index][:, :, None])[:, :, 0]
        k_max = self._index.shape[1]
        primal_tol = ORACLE_TOL * float(np.abs(rhs).max(initial=1.0))
        return v[:, :k_max + 1], v[:, k_max:] - s, primal_tol

    def feasible(self, problem: MpQpProblem, theta: ParameterPoint) -> bool:
        """True iff some set passes :func:`_accepted`'s dual and primal
        tests, with the same scalings."""
        mu, residual, primal_tol = self._sets(problem, theta)
        dual_ok = mu.min(1) >= -ORACLE_TOL * np.maximum(np.abs(mu).max(1), 1.0)
        return bool((dual_ok & (residual.max(1) <= primal_tol)).any())

    def ray_extent(
        self, problem: MpQpProblem, theta0: ParameterPoint, direction: ParameterPoint
    ) -> Tuple[float, float]:
        """(t_in, t_out) on the ray theta0 + t * direction, t > 0, for a
        finite direction with no theta_C part: :meth:`feasible` at
        ``theta0 + direction.scale(t)`` is True for every t <= t_in and
        False for every t > t_out.

        On such a ray the primal tolerance is constant and every set's
        rows are affine in t, given by their values at t = 0 and 1.  A
        ratio test per set gives the t where it passes the tightest form
        of each tolerance (dual scale 1, halved), which implies
        :meth:`feasible`'s tests, and the loosest (dual scale bounded along
        the ray, doubled), which they imply.  Both allow for an a priori
        bound on the rounding error, and each interval end for its
        division.  t_out is the largest end of a loose interval; t_in is
        the end of the chain of tight intervals from 0, since one past a
        gap says nothing about the gap.
        """
        n, m1 = problem.n, problem.m1
        (mu0, r0, primal_tol), (mu1, r1, _) = (
            self._sets(problem, theta0), self._sets(problem, theta0 + direction))
        k = mu0.shape[1]
        v0 = np.hstack([mu0, -r0])  # a set passes where every v >= -tol
        slope = np.hstack([mu1, -r1]) - v0
        # The rounding bound: eps times the operation count times the
        # magnitudes summed, |stack| |s_B| (plus |s| on a residual row), at
        # theta0 and per unit t.  The probe and the two evaluations here
        # each stay within it; doubled again for the ratio test's own sums.
        z = np.abs([theta0.stacked()[:n + m1], direction.stacked()[:n + m1]])
        z[0] += np.abs(np.concatenate([problem.C, problem.b_e]))
        sig = np.abs(problem.A_C) @ np.abs(problem.base_inverse[:n]) @ z.T
        sig[:, 0] += np.abs(problem.b_C + theta0.theta_C)
        sig = np.vstack([[0.0, 0.0], sig])  # padded as s is
        w = np.abs(self._stack) @ sig[self._index]
        phi = np.concatenate([w[:, :k], w[:, k - 1:] + sig], axis=1)
        gamma = 4 * (2 * n + m1 + k + 6) * np.finfo(float).eps
        err0 = gamma * phi[..., 0]
        err1 = gamma * (phi[..., 0] + phi[..., 1] + np.abs(slope))
        if not np.isfinite(err1).all():  # an overflow: leave every probe to feasible
            return 0.0, np.inf
        # Rows 0..S-1 test the tight form, rows S.. the loose one.
        S = len(v0)
        tol = np.repeat([ORACLE_TOL, primal_tol], [k, v0.shape[1] - k])
        a = np.vstack([v0 + (tol / 2 - err0), v0 + (2 * tol + err0)])
        b = np.vstack([slope - err1, slope + err1])
        a[S:, :k] += 2 * ORACLE_TOL * (np.abs(v0) + err0)[:, :k].max(1, keepdims=True)
        b[S:, :k] += 2 * ORACLE_TOL * (np.abs(slope) + err1)[:, :k].max(1, keepdims=True)
        lo, hi = _ratio_test(a, b)
        rho = 4 * np.finfo(float).eps
        lo_out, hi_out = lo[S:] * (1 - rho), hi[S:] * (1 + rho)
        t_out = hi_out[lo_out <= hi_out].max(initial=-np.inf)
        order = np.argsort(lo[:S])
        lo, reach = lo[order] * (1 + rho), np.maximum.accumulate(np.append(0.0, hi[order] * (1 - rho)))
        # Sorted by lo, an empty interval (lo > hi) lies under the reach
        # or past the chain's end, so it never moves t_in.
        return float(reach[np.logical_and.accumulate(lo <= reach[:-1]).sum()]), float(t_out)


def _ratio_test(a, b):
    """Per row of a and b, the t >= 0 where a + t * b >= 0 in every
    column, as arrays (lo, hi): an empty interval has lo > hi."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        root = -a / b
    lo = np.where(b > 0, root, np.where(a >= 0, 0.0, np.inf)).max(1, initial=0.0)
    return lo, np.where(b < 0, root, np.inf).min(1, initial=np.inf)


def is_feasible(problem: MpQpProblem, theta: ParameterPoint) -> bool:
    """True iff some active set is accepted at this theta, i.e. iff
    :func:`brute_force_solve` succeeds, decided by the problem's
    :class:`FeasibilityKernel` without solving any active set."""
    _check_enumerable(problem, theta)
    return problem.feasibility_kernel.feasible(problem, theta)
