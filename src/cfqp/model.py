"""The closed-form solver network.

A :class:`ClosedFormModel` is the exact piecewise-linear solution map
built from region slopes:

* shadow-price subnetwork: first layer W0 stacks each region's
  ``grad_mu`` block; the incidence layer combines candidate shadow
  prices of a region with its discovery-tree parent; ReLU applies to
  the combined differences; the direction vector signs each block's
  contribution.  mu*(theta) is the signed sum of all blocks.
* solution subnetwork: the fixed base inverse J^{-1} recovers
  (x, lambda) from mu* and theta.

The model is immutable; ``expand`` returns a new model value.
``forward_chunks`` and ``forward_array`` evaluate the network on an
array of thetas with row-independent products; ``forward`` is their
one-row case, bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    assemble_base_jacobian,
    factorize,
    region_slopes,
    rowwise_matvec,
)
from .errors import DigestMismatch, DuplicateRegion, MalformedModel, ProblemFormatError
from .problem import (
    ActiveSet,
    MpQpProblem,
    ParameterPoint,
    PrimalDualSolution,
    resolve_dtype,
)

__all__ = [
    "RegionEntry",
    "ClosedFormModel",
    "init_model",
    "forward_mu",
    "forward",
    "forward_array",
    "forward_chunks",
    "expand",
    "cast",
    "batch_forward",
    "region_maps",
    "locate_region",
    "serialize",
    "deserialize",
]

_FORMAT = "cfqp-model"
_VERSION = 2

#: Elements the largest temporary of one :func:`forward_chunks` chunk may
#: hold (2 MiB at float64); it sets :attr:`ClosedFormModel.chunk_rows`.
_CHUNK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class RegionEntry:
    """One critical region: its active set, discovery-tree parent and a
    parameter point known to lie inside it.  Its slopes are row ``id``
    of the model's W0."""

    id: int
    active_set: ActiveSet
    parent_id: Optional[int]
    witness_theta: ParameterPoint


@dataclass(frozen=True)
class ClosedFormModel:
    problem: MpQpProblem
    precision: int
    regions: Tuple[RegionEntry, ...]
    direction: Tuple[int, ...]
    W0: np.ndarray  # (k, m2, d) stacked grad_mu blocks
    base_inverse: np.ndarray  # (n+m1, n+m1)
    problem_digest: str

    def __post_init__(self):
        for row, region in enumerate(self.regions):
            if region.id != row:
                raise MalformedModel(f"region id {region.id} is stored at row {row}")
            if region.parent_id is not None and not 0 <= region.parent_id < row:
                raise MalformedModel(
                    f"region {row} has parent {region.parent_id}, not an earlier region"
                )
        w0 = np.ascontiguousarray(self.W0)
        w0.setflags(write=False)
        object.__setattr__(self, "W0", w0)
        inv = np.ascontiguousarray(self.base_inverse)
        inv.setflags(write=False)
        object.__setattr__(self, "base_inverse", inv)

    @property
    def k(self) -> int:
        return len(self.regions)

    @property
    def dtype(self) -> np.dtype:
        return resolve_dtype(self.precision)

    @cached_property
    def chunk_rows(self) -> int:
        """Rows :func:`forward_chunks` evaluates at a time, so that its
        largest temporaries, the (rows, m2 * (k+1), d) first-layer
        products and the (rows, n+m1, n+m1) solution-layer products,
        stay within _CHUNK_ELEMENTS."""
        p = self.problem
        per_row = max(p.m2 * (self.k + 1) * p.d, (p.n + p.m1) ** 2)
        return max(1, _CHUNK_ELEMENTS // per_row)

    @cached_property
    def _layers(self) -> tuple:
        """The network's constants in the layout the array kernel reads,
        built once per model, at model precision unless noted:

        * -B, the negated stacked coefficients, (d,)
        * W0 reordered to (m2 * (k+1), d): per constraint, the k
          regions' rows and a zero row k
        * each row's parent, (k+1,); a root and the zero row take the
          zero row
        * lower and upper ReLU clip bounds per row, (k+1,) each: [0, inf)
          for direction +1, (-inf, 0] for -1 and [0, 0] for the zero row
        * A_C^T, (n, m2)
        * -[C, b_e] at float64, (n + m1,)
        """
        dtype = self.dtype
        p = self.problem
        k = self.k
        W = np.zeros((p.m2, k + 1, p.d), dtype=dtype)
        W[:, :k] = self.W0.transpose(1, 0, 2)
        v = np.array(self.direction)
        return (
            -p.stacked_coefficients(dtype),
            W.reshape(-1, p.d),
            np.array([k if r.parent_id is None else r.parent_id
                      for r in self.regions] + [k], dtype=np.intp),
            np.append(np.where(v > 0, 0.0, -np.inf), 0.0).astype(dtype),
            np.append(np.where(v > 0, np.inf, 0.0), 0.0).astype(dtype),
            np.ascontiguousarray(p.A_C.T, dtype=dtype),
            -p.stacked_coefficients()[:p.n + p.m1],
        )

    @cached_property
    def _inverse64(self) -> np.ndarray:
        """The solution layer at float64 for region maps.  A 32-bit
        model derives it from the problem (never serialized): its own
        float32 inverse is too coarse to place region boundaries."""
        if self.base_inverse.dtype == np.float64:
            return self.base_inverse
        return factorize(assemble_base_jacobian(self.problem)).inverse()

    def incidence_matrix(self) -> np.ndarray:
        """Dense k x k signed incidence: root column (0,0)=+1; column j
        has entries -v_j at the parent row and +v_j at row j."""
        k = self.k
        inc = np.zeros((k, k), dtype=np.int64)
        for j, region in enumerate(self.regions):
            v = self.direction[j]
            inc[j, j] = v
            if region.parent_id is not None:
                inc[region.parent_id, j] = -v
        return inc


def init_model(
    problem: MpQpProblem,
    B0: ActiveSet,
    theta0: ParameterPoint,
    precision: int = 64,
) -> ClosedFormModel:
    """One-region model anchored at the confirmed active set of theta0."""
    dtype = resolve_dtype(precision)
    theta0.check_dims(problem)
    root = RegionEntry(id=0, active_set=B0, parent_id=None, witness_theta=theta0)
    base_inv = factorize(assemble_base_jacobian(problem, dtype=dtype)).inverse()
    return ClosedFormModel(
        problem=problem,
        precision=precision,
        regions=(root,),
        direction=(1,),
        W0=region_slopes(problem, B0, dtype=dtype)[None],
        base_inverse=base_inv,
        problem_digest=problem.digest(),
    )


def _stacked_input(model: ClosedFormModel, theta: ParameterPoint) -> np.ndarray:
    """z = -B - theta at model precision."""
    dtype = model.dtype
    B = model.problem.stacked_coefficients(dtype)
    return (-B - theta.stacked(dtype)).astype(dtype)


def _forward_rows(model: ClosedFormModel, Theta: np.ndarray):
    """The network on a block of stacked thetas, all rows at once.

    Every matrix product goes through ``rowwise_matvec`` and every other
    step is elementwise or a reduction over a row's own last axis, so a
    row's results do not depend on the other rows of the block."""
    problem = model.problem
    n, m1 = problem.n, problem.m1
    neg_B, W, parent, lower, upper, A_C_T, neg_rhs = model._layers
    dtype = W.dtype
    # shadow-price subnetwork: candidate prices h per region, the tree
    # incidence (h_j - h_parent, with the zero row as the roots' parent),
    # then v * relu(v * .), which for v = +-1 is a clip to the half-line
    # of v's sign
    Z = np.subtract(neg_B, Theta, dtype=dtype)
    H = rowwise_matvec(W, Z).reshape(len(Theta), problem.m2, len(parent))
    D = H - H.take(parent, -1)
    Mu = np.add.reduce(D.clip(lower, upper), -1, initial=0.0)  # +0.0 start clears -0.0
    # solution subnetwork: the base inverse maps [z_c + A_C^T mu; z_e]
    # (rounded from float64) to (x, lambda)
    rhs = (neg_rhs - Theta[:, :n + m1]).astype(dtype, copy=False)
    rhs[:, :n] += rowwise_matvec(A_C_T, Mu)
    S = rowwise_matvec(model.base_inverse, rhs)
    X = S[:, :n]
    x = X.astype(np.float64)
    Qx_c = rowwise_matvec(problem.Q, x) + problem.C + Theta[:, :n]
    objective = np.add.reduce(x * Qx_c, -1) + problem.C0
    return X, S[:, n:], Mu, objective


def forward_chunks(
    model: ClosedFormModel, Theta: np.ndarray
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Evaluate the network on an (N, d) float64 array of stacked thetas
    ([theta_c, theta_e, theta_C] per row), ``model.chunk_rows`` rows at a
    time, so its temporaries stay bounded for any N.

    Yields (rows, X, Lam, Mu, objective) per chunk, where ``rows`` is the
    chunk's slice of Theta and the others have shapes (r, n), (r, m1),
    (r, m2) and (r,); X, Lam and Mu are at model precision, the objective
    at float64.  An empty Theta yields one empty chunk.  Rows are
    independent: each row's results are bitwise what :func:`forward`
    gives for that theta, whatever N and the other rows.
    """
    Theta = np.asarray(Theta, dtype=np.float64)
    if Theta.ndim != 2 or Theta.shape[1] != model.problem.d:
        raise ProblemFormatError(
            f"theta array must have shape (N, {model.problem.d}), got {Theta.shape}"
        )
    step = model.chunk_rows
    for lo in range(0, max(len(Theta), 1), step):
        rows = Theta[lo:lo + step]
        yield (rows, *_forward_rows(model, rows))


def forward_array(
    model: ClosedFormModel, Theta: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(X, Lam, Mu, objective) for all N rows of Theta: the chunks of
    :func:`forward_chunks`, joined."""
    parts = [chunk[1:] for chunk in forward_chunks(model, Theta)]
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def forward(model: ClosedFormModel, theta: ParameterPoint) -> PrimalDualSolution:
    """Full solution at one theta: the one-row case of :func:`forward_array`."""
    theta.check_dims(model.problem)
    Theta = np.concatenate([theta.theta_c, theta.theta_e, theta.theta_C])[None]
    X, Lam, Mu, objective = _forward_rows(model, Theta)
    return PrimalDualSolution(x=X[0], lam=Lam[0], mu=Mu[0], objective=objective[0])


def forward_mu(model: ClosedFormModel, theta: ParameterPoint) -> np.ndarray:
    """mu*(theta) from the shadow-price subnetwork."""
    return forward(model, theta).mu


def expand(
    model: ClosedFormModel,
    parent_id: int,
    new_set: ActiveSet,
    probe_theta: ParameterPoint,
) -> ClosedFormModel:
    """Register a newly discovered region adjacent to ``parent_id``.

    The sign of the new direction entry comes from the slope-difference
    test at the probe point: delta = (W0_new - W0_parent) z_probe, and
    the sign of delta's largest-magnitude entry decides whether the new
    block is added or subtracted.
    """
    problem = model.problem
    new_set.validate(problem)
    for r in model.regions:
        if r.active_set == new_set:
            raise DuplicateRegion(
                f"active set {sorted(new_set)} is already region {r.id}"
            )
    grad_mu = region_slopes(problem, new_set, dtype=model.dtype)
    z = _stacked_input(model, probe_theta)
    delta = (grad_mu - model.W0[parent_id]) @ z
    pick = int(np.argmax(np.abs(delta)))
    v = 1 if delta[pick] >= 0.0 else -1
    entry = RegionEntry(
        id=model.k,
        active_set=new_set,
        parent_id=parent_id,
        witness_theta=probe_theta,
    )
    return ClosedFormModel(
        problem=problem,
        precision=model.precision,
        regions=model.regions + (entry,),
        direction=model.direction + (v,),
        W0=np.concatenate([model.W0, grad_mu[None]]),
        base_inverse=model.base_inverse,
        problem_digest=model.problem_digest,
    )


def cast(model: ClosedFormModel, precision: int) -> ClosedFormModel:
    """Re-express a model's weights at another precision.

    Useful for evaluating a 64-bit-discovered model at 32 bits on
    problems whose magnitudes put 32-bit KKT noise above any workable
    discovery tolerance.
    """
    if precision == model.precision:
        return model
    dtype = resolve_dtype(precision)
    return ClosedFormModel(
        problem=model.problem,
        precision=precision,
        regions=model.regions,
        direction=model.direction,
        W0=model.W0.astype(dtype),
        base_inverse=model.base_inverse.astype(dtype),
        problem_digest=model.problem_digest,
    )


def batch_forward(
    model: ClosedFormModel, thetas: Sequence[ParameterPoint]
) -> List[PrimalDualSolution]:
    """Evaluate many parameter points with :func:`forward_array`;
    identical (bitwise, at fixed precision) to mapping :func:`forward`
    elementwise, order preserved."""
    d = model.problem.d
    Theta = np.array(
        [theta.check_dims(model.problem).stacked() for theta in thetas]
    ).reshape(len(thetas), d)
    X, Lam, Mu, objective = forward_array(model, Theta)
    return [
        PrimalDualSolution(x=x, lam=lam, mu=mu, objective=obj)
        for x, lam, mu, obj in zip(X, Lam, Mu, objective)
    ]


def region_maps(
    model: ClosedFormModel, theta: ParameterPoint
) -> Tuple[np.ndarray, np.ndarray]:
    """Every region's own affine solution at theta, in float64: the
    (k, n) primal points and (k, m2) candidate multipliers.

    Region i's multipliers are mu_i = W0[i] z with z = -B - theta; its
    primal point is the solution layer applied to
    [z_c + A_C^T mu_i; z_e], exactly as :func:`forward` recovers x.
    """
    problem = model.problem
    n = problem.n
    z = (-problem.stacked_coefficients() - theta.stacked()).astype(np.float64)
    mu = np.asarray(model.W0, dtype=np.float64) @ z
    z_e = np.broadcast_to(z[n:n + problem.m1], (model.k, problem.m1))
    x = np.hstack([z[:n] + mu @ problem.A_C, z_e]) @ model._inverse64[:n].T
    return x, mu


def locate_region(
    model: ClosedFormModel, theta: ParameterPoint, tol: float = 1e-7
) -> Optional[RegionEntry]:
    """Which discovered critical region contains theta, if any.

    A region contains theta when its own affine map gives a primal
    feasible point with nonnegative active multipliers (the defining
    inequalities of the critical region).  Tolerances are relative to
    the data scale.
    """
    problem = model.problem
    xs, mus = region_maps(model, theta)
    rhs = problem.b_C + theta.theta_C
    rhs_scale = max(1.0, float(np.abs(rhs).max()) if problem.m2 else 1.0)
    best = None
    best_violation = np.inf
    for region, x, mu in zip(model.regions, xs, mus):
        primal = float((rhs - problem.A_C @ x).max()) if problem.m2 else 0.0
        idx = region.active_set.as_index_array()
        dual = float(-mu[idx].min()) if len(idx) else 0.0
        mu_scale = max(1.0, float(np.abs(mu[idx]).max()) if len(idx) else 1.0)
        violation = max(primal / rhs_scale, dual / mu_scale)
        if violation <= tol and violation < best_violation:
            best = region
            best_violation = violation
    return best


# ---------------------------------------------------------------------------
# serialization


def _incidence_triplets(model: ClosedFormModel) -> List[Tuple[int, int, int]]:
    inc = model.incidence_matrix()
    return sorted((int(i), int(j), int(inc[i, j])) for i, j in zip(*np.nonzero(inc)))


def serialize(model: ClosedFormModel) -> bytes:
    """Versioned JSON container holding the network's weights: the region
    tree, W0 and the base inverse.  Floats survive bit-exactly at the
    stored precision because shortest-repr doubles round-trip."""
    regions = [
        {
            "id": r.id,
            "active_set": list(r.active_set),
            "parent": r.parent_id,
            "direction": model.direction[r.id],
            "witness": {
                "theta_c": r.witness_theta.theta_c.tolist(),
                "theta_e": r.witness_theta.theta_e.tolist(),
                "theta_C": r.witness_theta.theta_C.tolist(),
            },
            "grad_mu": model.W0[r.id].tolist(),
        }
        for r in model.regions
    ]
    payload = {
        "format": _FORMAT,
        "version": _VERSION,
        "precision": model.precision,
        "digest": model.problem_digest,
        "regions": regions,
        "incidence": [list(t) for t in _incidence_triplets(model)],
        "base_inverse": model.base_inverse.tolist(),
    }
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def deserialize(data: bytes, problem: MpQpProblem) -> ClosedFormModel:
    """Load a serialized model, re-verifying the problem digest."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedModel(f"cannot parse model payload: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise MalformedModel("not a cfqp model container")
    if payload.get("version") != _VERSION:
        raise MalformedModel(
            f"unsupported model version {payload.get('version')!r} (this build "
            f"reads version {_VERSION}; re-run discover to rebuild the model)"
        )
    if payload.get("digest") != problem.digest():
        raise DigestMismatch(
            "model was built for a different problem (digest mismatch)"
        )
    try:
        precision = int(payload["precision"])
        dtype = resolve_dtype(precision)
        records = payload["regions"]
        regions = tuple(
            RegionEntry(
                id=int(rec["id"]),
                active_set=ActiveSet(rec["active_set"]).validate(problem),
                parent_id=None if rec["parent"] is None else int(rec["parent"]),
                witness_theta=ParameterPoint(
                    np.asarray(rec["witness"]["theta_c"], dtype=np.float64),
                    np.asarray(rec["witness"]["theta_e"], dtype=np.float64),
                    np.asarray(rec["witness"]["theta_C"], dtype=np.float64),
                ),
            )
            for rec in records
        )
        W0 = np.asarray([rec["grad_mu"] for rec in records], dtype=dtype)
        if W0.shape != (len(records), problem.m2, problem.d):
            raise MalformedModel("grad_mu shape does not match the problem")
        base_inverse = np.asarray(payload["base_inverse"], dtype=dtype)
        if base_inverse.shape != (problem.n + problem.m1, problem.n + problem.m1):
            raise MalformedModel("base_inverse shape does not match the problem")
        model = ClosedFormModel(
            problem=problem,
            precision=precision,
            regions=regions,
            direction=tuple(int(rec["direction"]) for rec in records),
            W0=W0,
            base_inverse=base_inverse,
            problem_digest=payload["digest"],
        )
        stored = sorted(tuple(t) for t in payload.get("incidence", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedModel(f"model payload is structurally invalid: {exc}") from exc
    if stored != _incidence_triplets(model):
        raise MalformedModel("incidence triplets inconsistent with region tree")
    return model
