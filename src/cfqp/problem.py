"""Problem representation for multiparametric QPs.

The problem class stores

    min_x   x^T Q x + (C + theta_c)^T x + C0
    s.t.    A_e x = b_e + theta_e          (multipliers lambda)
            A_C x >= b_C + theta_C         (multipliers mu >= 0)

Sign convention: inequality constraints are stored in ">=" form, so a
resource cap such as x_i <= u enters as the row -x_i >= -u.  With this
orientation the Lagrangian

    L = f(x) + lambda^T (b_e + theta_e - A_e x)
             + mu^T    (b_C + theta_C - A_C x)

has dL/dmu = b_C + theta_C - A_C x <= 0 at feasible points and the
multipliers of binding constraints are nonnegative.

The stacked coefficient vector is B = [C, b_e, b_C] of length
d = n + m1 + m2, and parameter points stack the same way.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import ProblemFormatError, SingularJacobian

__all__ = [
    "MpQpProblem",
    "ParameterPoint",
    "ActiveSet",
    "PrimalDualSolution",
    "resolve_dtype",
]

_SYM_TOL = 1e-9
_PSD_EIG_TOL = -1e-8
_PSD_CHECK_MAX_N = 200


def resolve_dtype(precision: int) -> np.dtype:
    """Map a precision flag (32 or 64) to a numpy float dtype."""
    if precision == 64:
        return np.dtype(np.float64)
    if precision == 32:
        return np.dtype(np.float32)
    raise ValueError(f"precision must be 32 or 64, got {precision!r}")


def _as_matrix(name, value, rows, cols):
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != (rows, cols):
        raise ProblemFormatError(
            f"{name} must have shape ({rows}, {cols}), got {arr.shape}"
        )
    return arr


def _as_vector(name, value, length):
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != (length,):
        raise ProblemFormatError(
            f"{name} must have shape ({length},), got {arr.shape}"
        )
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MpQpProblem:
    """Immutable mp-QP data: coefficients, dimensions, optional variable groups.

    ``variable_groups`` optionally names disjoint slices of the primal
    vector (e.g. generator outputs vs. voltage angles) so stationarity
    violations can be reported per group.

    The base KKT matrix [[2Q, -A_e^T], [-A_e, 0]] must pass the relative
    pivot test of ``core.JacobianFactors``: every active-set system is a
    bordering of it, and the forward pass applies its inverse,
    :attr:`base_inverse`.
    """

    Q: np.ndarray
    C: np.ndarray
    C0: float
    A_e: np.ndarray
    b_e: np.ndarray
    A_C: np.ndarray
    b_C: np.ndarray
    variable_groups: Optional[Mapping[str, tuple]] = None

    def __post_init__(self):
        n = np.asarray(self.Q).shape[0] if np.asarray(self.Q).ndim == 2 else -1
        if n <= 0:
            raise ProblemFormatError("Q must be a square 2-D matrix")
        object.__setattr__(self, "Q", _freeze(_as_matrix("Q", self.Q, n, n)))
        object.__setattr__(self, "C", _freeze(_as_vector("C", self.C, n)))
        object.__setattr__(self, "C0", float(self.C0))

        A_e = np.asarray(self.A_e, dtype=np.float64)
        if A_e.ndim != 2 or A_e.shape[1] != n:
            raise ProblemFormatError(f"A_e must be m1 x {n}, got {A_e.shape}")
        m1 = A_e.shape[0]
        object.__setattr__(self, "A_e", _freeze(A_e))
        object.__setattr__(self, "b_e", _freeze(_as_vector("b_e", self.b_e, m1)))

        A_C = np.asarray(self.A_C, dtype=np.float64)
        if A_C.ndim != 2 or A_C.shape[1] != n:
            raise ProblemFormatError(f"A_C must be m2 x {n}, got {A_C.shape}")
        m2 = A_C.shape[0]
        object.__setattr__(self, "A_C", _freeze(A_C))
        object.__setattr__(self, "b_C", _freeze(_as_vector("b_C", self.b_C, m2)))
        for name in ("Q", "C", "C0", "A_e", "b_e", "A_C", "b_C"):
            if not np.isfinite(getattr(self, name)).all():
                raise ProblemFormatError(f"{name} has non-finite entries")

        if not np.allclose(self.Q, self.Q.T, atol=_SYM_TOL * max(1.0, np.abs(self.Q).max())):
            raise ProblemFormatError("Q must be symmetric")
        if n <= _PSD_CHECK_MAX_N:
            w = np.linalg.eigvalsh(0.5 * (self.Q + self.Q.T))
            if w.min() < _PSD_EIG_TOL * max(1.0, abs(w).max()):
                raise ProblemFormatError("Q must be positive semidefinite")
        if m1 > 0 and np.linalg.matrix_rank(self.A_e) < m1:
            raise ProblemFormatError("A_e must have full row rank")
        self.base_inverse  # factors the base KKT matrix: a singular one is refused

        if self.variable_groups is not None:
            groups = {}
            seen = set()
            for name, idx in self.variable_groups.items():
                idx = tuple(int(i) for i in idx)
                if not idx:
                    raise ProblemFormatError(f"variable group {name!r} is empty")
                for i in idx:
                    if not (0 <= i < n):
                        raise ProblemFormatError(
                            f"variable group {name!r} index {i} out of range"
                        )
                    if i in seen:
                        raise ProblemFormatError(
                            f"variable group index {i} appears twice"
                        )
                    seen.add(i)
                groups[str(name)] = idx
            object.__setattr__(self, "variable_groups", groups)

    # -- dimensions ------------------------------------------------------
    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def m1(self) -> int:
        return self.A_e.shape[0]

    @property
    def m2(self) -> int:
        return self.A_C.shape[0]

    @property
    def d(self) -> int:
        return self.n + self.m1 + self.m2

    @cached_property
    def two_Q(self) -> np.ndarray:
        """2Q, the Hessian of the objective, (n, n)."""
        return _freeze(2.0 * self.Q)

    @cached_property
    def A_stacked(self) -> np.ndarray:
        """[A_e; A_C], the equality rows above the inequality rows,
        (m1 + m2, n)."""
        return _freeze(np.vstack([self.A_e, self.A_C]))

    @cached_property
    def base_inverse(self) -> np.ndarray:
        """The inverse of the base KKT matrix [[2Q, -A_e^T], [-A_e, 0]],
        (n+m1, n+m1), at float64: the one place that matrix is built and factored."""
        from .core import factorize  # core builds on this module
        J0 = np.block([[self.two_Q, -self.A_e.T], [-self.A_e, np.zeros((self.m1, self.m1))]])
        try:
            return _freeze(factorize(J0).inverse())
        except SingularJacobian as exc:
            raise ProblemFormatError(
                "the base KKT matrix [[2Q, -A_e^T], [-A_e, 0]] is singular, so Q "
                f"is not positive definite on the null space of A_e ({exc})"
            ) from None

    @cached_property
    def schur_complement(self) -> np.ndarray:
        """H = A_C K A_C^T, (m2, m2), with K the x-block of
        :attr:`base_inverse`: -H_BB is the Schur complement of the base
        matrix in the active-set KKT matrix J_B (see ``cfqp.core``)."""
        n = self.n
        return _freeze(self.A_C @ self.base_inverse[:n, :n] @ self.A_C.T)

    @cached_property
    def nonsingular_sets(self) -> tuple:
        """The active sets whose KKT system is nonsingular, as 1-based
        index tuples by cardinality and then lexicographically: the sets
        both oracles enumerate, walked once (``cfqp.oracle``).  Tuples of
        ints only, so caching them here makes no reference cycle."""
        from .oracle import _nonsingular_sets  # the oracle builds on this module
        return _nonsingular_sets(self)

    @cached_property
    def feasibility_kernel(self):
        """The oracle's :class:`~cfqp.oracle.FeasibilityKernel` of this
        problem, built on first use.  It holds arrays only, so caching it
        here makes no reference cycle."""
        from .oracle import FeasibilityKernel  # the oracle builds on this module
        return FeasibilityKernel(self)

    def theta_rows(self, Theta) -> np.ndarray:
        """Theta as an (N, d) float64 array of finite stacked thetas: the
        one guard every kernel's theta goes through (a NaN fails no
        comparison, so it would pass every acceptance test).  Another
        shape or a non-finite entry is a ProblemFormatError."""
        Theta = np.asarray(Theta, dtype=np.float64)
        if Theta.ndim != 2 or Theta.shape[1] != self.d:
            raise ProblemFormatError(
                f"theta array must have shape (N, {self.d}), got {Theta.shape}")
        if not np.isfinite(Theta).all():
            raise ProblemFormatError("theta has non-finite entries")
        return Theta

    def stacked_coefficients(self, dtype=np.float64) -> np.ndarray:
        """B = [C, b_e, b_C], length d."""
        return np.concatenate([self.C, self.b_e, self.b_C]).astype(dtype)

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "m1": self.m1,
            "m2": self.m2,
            "Q": self.Q.tolist(),
            "C": self.C.tolist(),
            "C0": self.C0,
            "A_e": self.A_e.tolist(),
            "b_e": self.b_e.tolist(),
            "A_C": self.A_C.tolist(),
            "b_C": self.b_C.tolist(),
        }
        if self.variable_groups:
            out["variable_groups"] = {k: list(v) for k, v in self.variable_groups.items()}
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping) -> "MpQpProblem":
        required = {"n", "m1", "m2", "Q", "C", "C0", "A_e", "b_e", "A_C", "b_C"}
        missing = required - set(data)
        if missing:
            raise ProblemFormatError(f"problem JSON missing fields: {sorted(missing)}")
        prob = cls(
            Q=data["Q"],
            C=data["C"],
            C0=data["C0"],
            A_e=data["A_e"],
            b_e=data["b_e"],
            A_C=data["A_C"],
            b_C=data["b_C"],
            variable_groups=data.get("variable_groups"),
        )
        for key in ("n", "m1", "m2"):
            if int(data[key]) != getattr(prob, key):
                raise ProblemFormatError(
                    f"declared {key}={data[key]} does not match matrix shapes "
                    f"({key}={getattr(prob, key)})"
                )
        return prob

    @classmethod
    def from_json(cls, text: str) -> "MpQpProblem":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"invalid problem JSON: {exc}") from exc
        return cls.from_dict(data)

    def canonical_json(self) -> str:
        """Deterministic JSON used for model-binding digests."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ParameterPoint:
    """The uncertainty vector theta = (theta_c, theta_e, theta_C)."""

    theta_c: np.ndarray
    theta_e: np.ndarray
    theta_C: np.ndarray

    def __post_init__(self):
        for name in ("theta_c", "theta_e", "theta_C"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 1:
                raise ProblemFormatError(f"{name} must be a 1-D vector")
            object.__setattr__(self, name, _freeze(arr))

    @classmethod
    def zeros(cls, problem: MpQpProblem) -> "ParameterPoint":
        return cls(np.zeros(problem.n), np.zeros(problem.m1), np.zeros(problem.m2))

    @classmethod
    def of_theta_e(cls, problem: MpQpProblem, theta_e) -> "ParameterPoint":
        """Pure equality-RHS perturbation (the common experimental case)."""
        return cls(np.zeros(problem.n), np.asarray(theta_e, dtype=np.float64),
                   np.zeros(problem.m2))

    @classmethod
    def from_stacked(cls, problem: MpQpProblem, stacked) -> "ParameterPoint":
        arr = np.asarray(stacked, dtype=np.float64)
        if arr.shape != (problem.d,):
            raise ProblemFormatError(
                f"stacked parameter must have length {problem.d}, got {arr.shape}"
            )
        n, m1 = problem.n, problem.m1
        return cls(arr[:n], arr[n:n + m1], arr[n + m1:])

    def stacked(self) -> np.ndarray:
        """[theta_c, theta_e, theta_C], aligned with B."""
        return np.concatenate([self.theta_c, self.theta_e, self.theta_C])

    def check_dims(self, problem: MpQpProblem) -> "ParameterPoint":
        if (self.theta_c.shape != (problem.n,)
                or self.theta_e.shape != (problem.m1,)
                or self.theta_C.shape != (problem.m2,)):
            raise ProblemFormatError(
                "parameter point dimensions do not match the problem "
                f"(expected {problem.n}/{problem.m1}/{problem.m2}, got "
                f"{self.theta_c.shape[0]}/{self.theta_e.shape[0]}/{self.theta_C.shape[0]})"
            )
        return self

    def __add__(self, other: "ParameterPoint") -> "ParameterPoint":
        return ParameterPoint(
            self.theta_c + other.theta_c,
            self.theta_e + other.theta_e,
            self.theta_C + other.theta_C,
        )

    def __sub__(self, other: "ParameterPoint") -> "ParameterPoint":
        return ParameterPoint(
            self.theta_c - other.theta_c,
            self.theta_e - other.theta_e,
            self.theta_C - other.theta_C,
        )

    def scale(self, factor: float) -> "ParameterPoint":
        return ParameterPoint(
            factor * self.theta_c, factor * self.theta_e, factor * self.theta_C
        )


class ActiveSet:
    """A sorted, duplicate-free set of binding inequality indices.

    Indices are 1-based constraint numbers in 1..m2, matching how
    constraints are reported; use :meth:`as_index_array` for 0-based
    numpy indexing.
    """

    __slots__ = ("indices",)

    def __init__(self, indices: Iterable[int] = ()):  # noqa: D107
        idx = tuple(sorted({int(i) for i in indices}))
        for i in idx:
            if i < 1:
                raise ProblemFormatError(f"active-set indices are 1-based, got {i}")
        object.__setattr__(self, "indices", idx)

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("ActiveSet is immutable")

    def validate(self, problem: MpQpProblem) -> "ActiveSet":
        if self.indices and self.indices[-1] > problem.m2:
            raise ProblemFormatError(
                f"active-set index {self.indices[-1]} exceeds m2={problem.m2}"
            )
        return self

    def as_index_array(self) -> np.ndarray:
        """0-based numpy index array."""
        return np.asarray(self.indices, dtype=np.intp) - 1

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, item):
        return int(item) in self.indices

    def __eq__(self, other):
        if isinstance(other, ActiveSet):
            return self.indices == other.indices
        if isinstance(other, (tuple, list, set, frozenset)):
            return self.indices == tuple(sorted(int(i) for i in other))
        return NotImplemented

    def __hash__(self):
        return hash(self.indices)

    def __repr__(self):
        return f"ActiveSet({set(self.indices) if self.indices else '{}'})"


@dataclass(frozen=True)
class PrimalDualSolution:
    """Optimal (x, lambda, mu) and the objective value."""

    x: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    objective: float

    def __post_init__(self):
        for name in ("x", "lam", "mu"):
            arr = np.asarray(getattr(self, name))
            if arr.ndim != 1:
                raise ProblemFormatError(f"{name} must be a 1-D vector")
            object.__setattr__(self, name, _freeze(arr))
        object.__setattr__(self, "objective", float(self.objective))
