"""Ground-truth solver by exhaustive active-set enumeration, a
feasibility test that decides the same question from one base
factorization, and the five-part KKT violation metric used for
validation and inside the discovery loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import gradient_rows, lagrangian_gradients, nonsingular, solve_active_set
from .errors import EnumerationLimit, Infeasible, ProblemFormatError
from .problem import ActiveSet, MpQpProblem, ParameterPoint, PrimalDualSolution

__all__ = [
    "KktReport",
    "OracleResult",
    "kkt_report",
    "kkt_batch",
    "kkt_means",
    "kkt_scalars",
    "brute_force_solve",
    "solve",
    "is_feasible",
    "feasible_array",
]

#: Hard guard on enumeration size.
MAX_ENUM_M2 = 24

#: Oracle acceptance tolerance on dual negativity and primal
#: violation (64-bit).  Chosen strictly tighter than every downstream
#: acceptance threshold this oracle certifies.
ORACLE_TOL = 1e-8

#: Candidate active sets whose H_BB the walk gathers and pivot-tests at
#: once; bounds the transient memory of one cardinality level.
_WALK_CHUNK = 512

#: Elements the largest temporary of one :func:`feasible_array` chunk may
#: hold (2 MiB at float64), as in ``cfqp.model``.
_CHUNK_ELEMENTS = 1 << 18


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


def _finite_rows(problem: MpQpProblem, Theta) -> np.ndarray:
    """Both oracles' guard: Theta as an (N, d) float64 array of finite
    stacked thetas (a NaN fails no comparison, so it would pass every
    acceptance test); a wrong shape or a non-finite entry is a
    ProblemFormatError."""
    Theta = problem.theta_rows(Theta)
    if not np.isfinite(Theta).all():
        raise ProblemFormatError("theta has non-finite entries")
    return Theta


def _nonsingular_sets(problem: MpQpProblem) -> tuple:
    """Every active set whose J_B (so H_BB) is nonsingular, as 1-based
    index tuples, by cardinality and then lexicographically; cached as
    ``MpQpProblem.nonsingular_sets``.

    The walk is pruned by rank: J_B is singular whenever |B| > n - m1,
    and so is J_B of any superset of a set whose J_B is singular.  A set
    contains a known singular set exactly when one of its subsets one
    smaller is not listed, so a level's candidates are the previous
    level's sets extended by a larger index, kept when each such subset's
    bitmask is listed; a level with no nonsingular set leaves none.  Their
    H_BB are gathered and pivot-tested ``_WALK_CHUNK`` at a time
    (``core.nonsingular``).  m2 must not exceed ``MAX_ENUM_M2``."""
    if problem.m2 > MAX_ENUM_M2:
        raise EnumerationLimit(
            f"active-set enumeration is limited to m2 <= {MAX_ENUM_M2}, got {problem.m2}"
        )
    H = problem.schur_complement
    found = [()]
    level, masks = np.zeros((1, 0), dtype=np.intp), np.zeros(1, dtype=np.intp)
    for _ in range(min(problem.n - problem.m1, problem.m2)):
        # row-major, so each set's extensions follow in lexicographic order
        rows, last = np.nonzero(np.arange(problem.m2) > level.max(1, initial=-1)[:, None])
        B = np.column_stack([level[rows], last])
        bits = 1 << B
        B = B[np.isin(bits.sum(1, keepdims=True) - bits, masks).all(1)]
        level = np.concatenate([
            chunk[nonsingular(H[chunk[:, :, None], chunk[:, None, :]])]
            for chunk in np.split(B, range(_WALK_CHUNK, len(B), _WALK_CHUNK))])
        masks = (1 << level).sum(1)
        found += map(tuple, (level + 1).tolist())
    return tuple(found)


def _accepted(problem: MpQpProblem, theta: ParameterPoint, sets=None):
    """Yield each accepted active set, in enumeration order, as
    (key, solution, active_set, weakly_active) with key
    (KktReport scalar, cardinality, indices).

    Every set of ``MpQpProblem.nonsingular_sets``, or of ``sets``, a
    subset in that order, is solved at theta.  Acceptance requires mu_B >=
    -ORACLE_TOL and all inequality residuals <= ORACLE_TOL (both scaled by
    the data magnitude).  A weakly active set has a binding constraint
    with mu ~ 0.
    """
    _finite_rows(problem, theta.check_dims(problem).stacked()[None])
    primal_tol = ORACLE_TOL * float(np.abs(problem.b_C + theta.theta_C).max(initial=1.0))
    for indices in problem.nonsingular_sets if sets is None else sets:
        B = ActiveSet(indices)
        sol = solve_active_set(problem, B, theta)
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


def _optimum(found: list) -> OracleResult:
    """:func:`brute_force_solve`'s choice among :func:`_accepted`'s candidates."""
    if not found:
        raise Infeasible("no active set satisfies the KKT conditions at this theta")
    _, sol, B, weak = min(found, key=lambda c: c[0])
    return OracleResult(solution=sol, active_set=B, degenerate=weak or len(found) > 1)


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
    return _optimum(list(_accepted(problem, theta)))


def solve(problem: MpQpProblem, theta: ParameterPoint) -> OracleResult:
    """:func:`brute_force_solve`'s choice among the sets the problem's
    :class:`FeasibilityKernel` accepts at theta; where its test accepts none
    of them, :func:`brute_force_solve` itself.  The two agree wherever the
    kernel's per-set decisions are the enumeration's."""
    Theta = _finite_rows(problem, theta.check_dims(problem).stacked()[None])
    mask = problem.feasibility_kernel.accepts(problem, Theta)[0]
    sets = [B for B, ok in zip(problem.nonsingular_sets, mask) if ok]
    found = list(_accepted(problem, theta, sets))
    return _optimum(found) if found else brute_force_solve(problem, theta)


class FeasibilityKernel:
    """:func:`_accepted`'s acceptance test for every active set at once,
    from one base factorization; built once per problem and cached as
    ``MpQpProblem.feasibility_kernel``.

    With H = ``MpQpProblem.schur_complement`` (see ``cfqp.core``), x0 the
    base solution and s = A_C x0 - b_C - theta_C, a set's multipliers are
    mu_B = -H_BB^{-1} s_B, as ``core.solve_active_set`` computes them, and
    its inequality residuals b_C + theta_C - A_C x are
    -s + H[:, B] H_BB^{-1} s_B.  Only s depends on theta.  The sets are
    those :func:`_accepted` solves, ``MpQpProblem.nonsingular_sets``.

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

    __slots__ = ("_index", "_stack", "_z0")

    def __init__(self, problem: MpQpProblem):
        H = problem.schur_complement
        # x0 is the base inverse's first n rows times z0 - [theta_c, theta_e]
        self._z0 = -np.concatenate([problem.C, problem.b_e])
        sets = problem.nonsingular_sets
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

    @property
    def chunk_rows(self) -> int:
        """Thetas :func:`feasible_array` evaluates at a time, so that its largest
        temporary, the (rows, S, k_max + 1 + m2) product with the stack,
        stays within _CHUNK_ELEMENTS."""
        return max(1, _CHUNK_ELEMENTS // (self._stack.shape[0] * self._stack.shape[1]))

    def _rows(self, problem: MpQpProblem, Theta: np.ndarray):
        """Every set's (N, S, k_max + 1) multipliers and (N, S, 1 + m2)
        residuals at each row of an (N, d) theta array, and the (N,)
        primal tolerances.  Every product is a matrix-vector product per
        row and set, so a row's values are bitwise the same whatever N and
        the other rows."""
        n, m1, k_max = problem.n, problem.m1, self._index.shape[1]
        rhs = problem.b_C + Theta[:, n + m1:]
        x0 = problem.base_inverse[:n] @ (self._z0 - Theta[:, :n + m1])[:, :, None]
        s = np.zeros((len(Theta), 1 + problem.m2))
        np.subtract((problem.A_C @ x0)[..., 0], rhs, out=s[:, 1:])
        v = (self._stack @ s[:, self._index, None])[..., 0]
        primal_tol = ORACLE_TOL * np.abs(rhs).max(1, initial=1.0)
        return v[..., :k_max + 1], v[..., k_max:] - s[:, None], primal_tol

    def accepts(self, problem: MpQpProblem, Theta: np.ndarray) -> np.ndarray:
        """(N, S) booleans: set j passes :func:`_accepted`'s dual and primal
        tests, with the same scalings, at row i of an (N, d) theta array."""
        mu, residual, primal_tol = self._rows(problem, Theta)
        return ((mu.min(-1) >= -ORACLE_TOL * np.abs(mu).max(-1, initial=1.0))
                & (residual.max(-1) <= primal_tol[:, None]))

    def ray_extents(
        self, problem: MpQpProblem, theta0: np.ndarray, D: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(t_in, t_out), two (R,) arrays, for the rays theta0 + t * D[r],
        t > 0, from a stacked theta0 along the R finite rows of D, none
        with a theta_C part: :func:`feasible_array` at theta0 + t * D[r] is
        True for every t <= t_in[r] and False for every t > t_out[r].

        On such a ray the primal tolerance is constant and every set's
        rows are affine in t, given by their values at t = 0 and 1, so
        theta0 and theta0 + D[r] are evaluated in one block.  A ratio test
        per set gives the t where it passes the tightest form of each
        tolerance (dual scale 1, halved), which implies the kernel's tests,
        and the loosest (dual scale bounded along the ray, doubled), which
        they imply.  Both allow for an a priori bound on the rounding
        error, and each interval end for its division.  t_out is the
        largest end of a loose interval; t_in is the least t >= 0 that no
        tight interval starting at or below it passes, the end of the
        chain of tight intervals from 0, since one past a gap says nothing
        about the gap.  A ray whose rounding bound overflows gets
        (0, inf), which leaves every probe to the kernel.  Every ray's
        bracket is bitwise what a block of that ray alone gives.

        The rays are bracketed _CHUNK_ELEMENTS // (20 * 2 S (k_max + 2 +
        m2)) at a time (at least one), so that the ratio test's
        temporaries, about twenty (rays, 2 S, k_max + 2 + m2) arrays, stay
        within _CHUNK_ELEMENTS together.
        """
        S, k_max = self._index.shape
        step = max(1, _CHUNK_ELEMENTS // (20 * 2 * S * (k_max + 2 + problem.m2)))
        if len(D) > step:
            return tuple(np.concatenate(ends) for ends in zip(*(
                self.ray_extents(problem, theta0, D[lo:lo + step])
                for lo in range(0, len(D), step))))
        n, m1 = problem.n, problem.m1
        mu, r, tol = self._rows(problem, np.vstack([theta0, theta0 + D]))
        v = np.concatenate([mu, -r], 2)  # a set passes where every v >= -tol
        v0, slope, k, S = v[0], v[1:] - v[0], mu.shape[2], mu.shape[1]
        # The rounding bound: eps times the operation count times the
        # magnitudes summed, |stack| |s_B| (plus |s| on a residual row), at
        # theta0 and per unit t.  The probe and the two evaluations here
        # each stay within it; doubled again for the ratio test's own sums.
        z = np.abs(np.stack(np.broadcast_arrays(theta0[:n + m1], D[:, :n + m1]), 1))
        z[:, 0] += np.abs(self._z0)
        sig = np.abs(problem.A_C) @ np.abs(problem.base_inverse[:n]) @ z.transpose(0, 2, 1)
        sig[..., 0] += np.abs(problem.b_C + theta0[n + m1:])
        sig = np.concatenate([np.zeros((len(D), 1, 2)), sig], 1)  # padded as s is
        phi = np.abs(self._stack) @ sig[:, self._index]
        phi = np.concatenate([phi[:, :, :k], phi[:, :, k - 1:] + sig[:, None]], 2)
        gamma = 4 * (2 * n + m1 + k + 6) * np.finfo(float).eps
        err0, err1 = gamma * phi[..., 0], gamma * (phi[..., 0] + phi[..., 1] + np.abs(slope))
        tol = np.repeat([ORACLE_TOL, tol[0]], [k, v0.shape[1] - k])
        rho = 4 * np.finfo(float).eps
        with np.errstate(all="ignore"):  # an overflowed ray's bracket is replaced below
            # Along axis 1, rows 0..S-1 test the tight form, rows S.. the loose one.
            a = np.concatenate([v0 + (tol / 2 - err0), v0 + (2 * tol + err0)], 1)
            b = np.concatenate([slope - err1, slope + err1], 1)
            a[:, S:, :k] += 2 * ORACLE_TOL * (np.abs(v0) + err0)[..., :k].max(-1, keepdims=True)
            b[:, S:, :k] += 2 * ORACLE_TOL * (np.abs(slope) + err1)[..., :k].max(-1, keepdims=True)
            # Per row, the t >= 0 where a + t * b >= 0 in every column:
            # [lo, hi], empty when lo > hi.
            root = -a / b
            lo = np.where(b > 0, root, np.where(a >= 0, 0.0, np.inf)).max(-1, initial=0.0)
            hi = np.where(b < 0, root, np.inf).min(-1, initial=np.inf)
            lo_out, hi_out = lo[:, S:] * (1 - rho), hi[:, S:] * (1 + rho)
            t_out = np.where(lo_out <= hi_out, hi_out, -np.inf).max(-1, initial=-np.inf)
            lo, hi, t_in, last = lo[:, :S] * (1 + rho), hi[:, :S] * (1 - rho), np.zeros(len(D)), None
            # An empty interval (lo > hi) that starts below t_in ends below it too.
            while not np.array_equal(t_in, last, equal_nan=True):
                last, t_in = t_in, np.maximum(t_in, np.where(lo <= t_in[:, None], hi, 0.0).max(-1))
        ok = np.isfinite(err1).all((1, 2))
        return np.where(ok, t_in, 0.0), np.where(ok, t_out, np.inf)


def feasible_array(problem: MpQpProblem, Theta: np.ndarray) -> np.ndarray:
    """(N,) booleans for an (N, d) float64 array of stacked thetas: True
    where some active set is accepted, i.e. where :func:`brute_force_solve`
    succeeds, decided by the problem's :class:`FeasibilityKernel` without
    solving any active set: per row, some set passes :func:`_accepted`'s
    dual and primal tests, with the same scalings.  A wrong shape or a
    non-finite entry is a ProblemFormatError.  The rows are evaluated
    ``FeasibilityKernel.chunk_rows`` at a time."""
    Theta, kernel = _finite_rows(problem, Theta), problem.feasibility_kernel
    parts = []
    for lo in range(0, max(len(Theta), 1), kernel.chunk_rows):
        parts.append(kernel.accepts(problem, Theta[lo:lo + kernel.chunk_rows]).any(-1))
    return np.concatenate(parts)


def is_feasible(problem: MpQpProblem, theta: ParameterPoint) -> bool:
    """True iff some active set is accepted at this theta: the one-row
    case of :func:`feasible_array`."""
    return bool(feasible_array(problem, theta.check_dims(problem).stacked()[None])[0])
