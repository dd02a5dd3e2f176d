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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    assemble_base_jacobian,
    factorize,
    objective_value,
    region_slopes,
)
from .errors import DigestMismatch, DuplicateRegion, MalformedModel
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


def forward_mu(model: ClosedFormModel, theta: ParameterPoint) -> np.ndarray:
    """mu*(theta) from the shadow-price subnetwork."""
    theta.check_dims(model.problem)
    z = _stacked_input(model, theta)
    h1 = model.W0 @ z  # (k, m2) candidate shadow prices per region
    mu = np.zeros(model.problem.m2, dtype=model.dtype)
    for j, region in enumerate(model.regions):
        v = model.direction[j]
        if region.parent_id is None:
            pre = v * h1[j]
        else:
            pre = v * (h1[j] - h1[region.parent_id])
        mu += v * np.maximum(pre, 0.0).astype(model.dtype)
    return mu


def forward(model: ClosedFormModel, theta: ParameterPoint) -> PrimalDualSolution:
    """Full solution: shadow prices, then (x, lambda) via the base inverse."""
    problem = model.problem
    dtype = model.dtype
    mu = forward_mu(model, theta)
    top = (
        (-problem.C - theta.theta_c).astype(dtype)
        + problem.A_C.T.astype(dtype) @ mu
    )
    bottom = (-problem.b_e - theta.theta_e).astype(dtype)
    sol = model.base_inverse @ np.concatenate([top, bottom]).astype(dtype)
    x = sol[: problem.n]
    lam = sol[problem.n:]
    return PrimalDualSolution(
        x=x, lam=lam, mu=mu, objective=objective_value(problem, x, theta)
    )


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
    """Evaluate many parameter points; identical (bitwise, at fixed
    precision) to mapping :func:`forward` elementwise, order preserved."""
    return [forward(model, theta) for theta in thetas]


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
