"""The closed-form solver network.

A :class:`ClosedFormModel` is the exact piecewise-linear solution map
built from region slopes:

* shadow-price subnetwork: first layer W0 stacks each region's
  ``grad_mu`` block, of which forward multiplies only the nonzero rows
  (those of the region's active constraints); the incidence layer
  combines candidate shadow prices of a region with its discovery-tree
  parent; ReLU applies to the combined differences; the direction
  vector signs each block's contribution.  mu*(theta) is the signed
  sum of all blocks.
* solution subnetwork: the fixed base inverse J^{-1}
  (``MpQpProblem.base_inverse``) recovers (x, lambda) from mu* and theta.

Every weight follows from the problem: W0 holds each region's float64
``core.region_slopes`` block and the base inverse is derived from the
problem, so a model is its region tree.  The precision only sets the
dtype forward rounds the weights to and evaluates in.

The model is immutable; ``expand`` returns a new model value.
``forward_chunks`` and ``forward_array`` evaluate the network on an
array of thetas with row-independent products; ``forward`` is their
one-row case, bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

# factorize is not called here but stays bound: benchmark/tracing.py
# wraps this module attribute.
from .core import factorize, region_slopes, rowwise_matvec  # noqa: F401
from .errors import (
    DigestMismatch,
    DuplicateRegion,
    MalformedModel,
    ProblemFormatError,
    SingularActiveJacobian,
)
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
    "forward",
    "forward_array",
    "forward_chunks",
    "expand",
    "cast",
    "batch_forward",
    "region_residuals",
    "locate_array",
    "locate_region",
    "serialize",
    "deserialize",
]

_FORMAT = "cfqp-model"
_VERSION = 3

#: Elements the largest temporaries of one :func:`forward_chunks` chunk may
#: hold together (2 MiB at float64); it sets
#: :attr:`ClosedFormModel.chunk_rows`.
_CHUNK_ELEMENTS = 1 << 18

#: Largest normalized critical-region violation :func:`locate_region`
#: accepts.
LOCATE_TOL = 1e-7


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
    W0: np.ndarray  # (k, m2, d) stacked float64 grad_mu blocks

    def __post_init__(self):
        resolve_dtype(self.precision)
        if len(self.direction) != len(self.regions) or not set(self.direction) <= {1, -1}:
            raise MalformedModel("direction must give +1 or -1 for every region")
        for row, region in enumerate(self.regions):
            if region.id != row:
                raise MalformedModel(f"region id {region.id} is stored at row {row}")
            if region.parent_id is not None and not 0 <= region.parent_id < row:
                raise MalformedModel(
                    f"region {row} has parent {region.parent_id}, not an earlier region"
                )
        w0 = np.ascontiguousarray(self.W0, dtype=np.float64)
        w0.setflags(write=False)
        object.__setattr__(self, "W0", w0)

    @property
    def k(self) -> int:
        return len(self.regions)

    @property
    def dtype(self) -> np.dtype:
        return resolve_dtype(self.precision)

    @cached_property
    def problem_digest(self) -> str:
        return self.problem.digest()

    @cached_property
    def active_mask(self) -> np.ndarray:
        """(k, m2) boolean mask of each region's active constraints."""
        mask = np.zeros((self.k, self.problem.m2), dtype=bool)
        for row, region in enumerate(self.regions):
            mask[row, region.active_set.as_index_array()] = True
        mask.setflags(write=False)
        return mask

    @cached_property
    def chunk_rows(self) -> int:
        """Rows :func:`forward_chunks` evaluates at a time: _CHUNK_ELEMENTS
        over nnz*d + m2*(k+1) + (n+m1)^2 per row, for W0's nnz nonzero
        rows, which bounds the chunk's (rows, d), (rows, n+m1) and (rows,
        m2, k+1) temporaries; ``predict`` writes a chunk per CSV call,
        which formats faster at this size than as one table."""
        p = self.problem
        nnz = np.count_nonzero(self.W0.any(-1))
        per_row = nnz * p.d + p.m2 * (self.k + 1) + (p.n + p.m1) ** 2
        return max(1, _CHUNK_ELEMENTS // per_row)

    @cached_property
    def locate_rows(self) -> int:
        """Thetas :func:`locate_array` tests at a time: _CHUNK_ELEMENTS
        over nnz*d + k*(2*n*m2 + n*(n+m1)) per row, for W0's nnz nonzero
        rows, which bounds :func:`region_residuals`' (rows, d), (rows, k,
        n+m1) and (rows, k, m2) temporaries; it also sets the rows of a
        ``discover`` sweep block."""
        p = self.problem
        nnz = np.count_nonzero(self.W0.any(-1))
        per_row = nnz * p.d + self.k * (2 * p.n * p.m2 + p.n * (p.n + p.m1))
        return max(1, _CHUNK_ELEMENTS // per_row)

    @cached_property
    def _layers(self) -> tuple:
        """The network's constants in the layout the array kernel reads,
        built once per model, rounded to model precision unless noted:

        * -B, the negated stacked coefficients, (d,)
        * the nonzero rows of W0, (nnz, d), and their indices in the
          stacked layout of m2 * (k+1) rows: per constraint, the k
          regions' rows and a zero row k.  Row j of region i's block is
          zero unless j is in B_i, so only sum |B_i| rows remain.
        * each row's parent, (k+1,); a root and the zero row take the
          zero row
        * lower and upper ReLU clip bounds per row, (k+1,) each: [0, inf)
          for direction +1, (-inf, 0] for -1 and [0, 0] for the zero row
        * A_C^T, (n, m2)
        * -[C, b_e] at float64, (n + m1,)
        * the problem's base inverse, (n+m1, n+m1)
        """
        dtype = self.dtype
        p = self.problem
        k = self.k
        j, i = np.nonzero(self.W0.any(-1).T)  # stacked order: constraint, then region
        v = np.array(self.direction)
        return (
            -p.stacked_coefficients(dtype),
            self.W0[i, j].astype(dtype),
            j * (k + 1) + i,
            np.array([k if r.parent_id is None else r.parent_id
                      for r in self.regions] + [k], dtype=np.intp),
            np.append(np.where(v > 0, 0.0, -np.inf), 0.0).astype(dtype),
            np.append(np.where(v > 0, np.inf, 0.0), 0.0).astype(dtype),
            np.ascontiguousarray(p.A_C.T, dtype=dtype),
            -p.stacked_coefficients()[:p.n + p.m1],
            p.base_inverse.astype(dtype),
        )

    @cached_property
    def _residual_layers(self) -> tuple:
        """The float64 constants :func:`region_residuals` reads, built
        once per model: -B; W0's nonzero rows, C-ordered, and their flat
        indices in W0's k * m2 rows; and C-ordered copies of A_C^T, the
        base inverse's first n rows and A_C."""
        p = self.problem
        W0 = self.W0.reshape(self.k * p.m2, -1)
        nonzero = np.flatnonzero(W0.any(-1))
        return (
            -p.stacked_coefficients(),
            np.ascontiguousarray(W0[nonzero]),
            nonzero,
            np.ascontiguousarray(p.A_C.T),
            np.ascontiguousarray(p.base_inverse[:p.n]),
            np.ascontiguousarray(p.A_C),
        )

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
    theta0.check_dims(problem)
    root = RegionEntry(id=0, active_set=B0, parent_id=None, witness_theta=theta0)
    return ClosedFormModel(
        problem=problem,
        precision=precision,
        regions=(root,),
        direction=(1,),
        W0=region_slopes(problem, B0)[None],
    )


def _forward_rows(model: ClosedFormModel, Theta: np.ndarray):
    """The network on a block of stacked thetas, all rows at once.

    Every product goes through ``rowwise_matvec``, whose entries depend
    only on their own rows of A and V, and all else is elementwise or per
    row, so a row's results do not depend on the other rows of the block."""
    problem = model.problem
    n, m1 = problem.n, problem.m1
    neg_B, W, nonzero, parent, lower, upper, A_C_T, neg_rhs, base_inverse = model._layers
    dtype = W.dtype
    # shadow-price subnetwork: candidate prices h per region (only W0's
    # nonzero rows are multiplied; the rest of H stays +0.0), the tree
    # incidence (h_j - h_parent, with the zero row as the roots' parent),
    # then v * relu(v * .), which for v = +-1 is a clip to the half-line
    # of v's sign
    Z = np.subtract(neg_B, Theta, dtype=dtype)
    H = np.zeros((len(Theta), problem.m2 * len(parent)), dtype=dtype)
    H[:, nonzero] = rowwise_matvec(W, Z)
    H = H.reshape(len(Theta), problem.m2, len(parent))
    D = H - H.take(parent, -1)
    # the +0.0 start clears -0.0, so leaving out the zero rows (whose
    # products are -0.0 where z < 0) keeps Mu bitwise unchanged
    Mu = np.add.reduce(D.clip(lower, upper), -1, initial=0.0)
    # solution subnetwork: the base inverse maps [z_c + A_C^T mu; z_e]
    # (rounded from float64) to (x, lambda)
    rhs = (neg_rhs - Theta[:, :n + m1]).astype(dtype, copy=False)
    rhs[:, :n] += rowwise_matvec(A_C_T, Mu)
    S = rowwise_matvec(base_inverse, rhs)
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
    Theta = model.problem.theta_rows(Theta)
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
    grad_mu = region_slopes(problem, new_set)
    z = -problem.stacked_coefficients() - probe_theta.stacked()
    delta = (grad_mu - model.W0[parent_id]) @ z
    pick = int(np.argmax(np.abs(delta)))
    v = 1 if delta[pick] >= 0.0 else -1
    entry = RegionEntry(
        id=model.k,
        active_set=new_set,
        parent_id=parent_id,
        witness_theta=probe_theta,
    )
    return dataclasses.replace(
        model,
        regions=model.regions + (entry,),
        direction=model.direction + (v,),
        W0=np.concatenate([model.W0, grad_mu[None]]),
    )


def cast(model: ClosedFormModel, precision: int) -> ClosedFormModel:
    """The same model evaluated at another precision.  The weights stay
    float64, so casting is lossless."""
    if precision == model.precision:
        return model
    return dataclasses.replace(model, precision=precision)


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


def region_residuals(
    model: ClosedFormModel, Theta: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The critical-region test of every region at each row of an (N, d)
    array of stacked thetas, in float64.

    Region i's own affine map gives multipliers mu_i = W0[i] z, with
    z = -B - theta, and the primal point x_i that the solution layer
    recovers from [z_c + A_C^T mu_i; z_e], as :func:`forward` does.
    Region i contains theta when x_i is primal feasible and its active
    multipliers are nonnegative.  Returns two (N, k, m2) arrays:

    * primal residuals b_C + theta_C - A_C x_i, divided by the data
      scale max(1, |b_C + theta_C|);
    * negated multipliers -mu_i, divided by the scale of region i's
      active multipliers max(1, |mu_i[B_i]|), and -inf off its active
      set B_i.

    A positive entry is a violation.  A ``rowwise_matvec`` entry depends
    only on its own rows of A and V, so a region's residuals at a theta
    depend neither on the other regions nor on the other thetas.
    """
    problem = model.problem
    n, m1, m2 = problem.n, problem.m1, problem.m2
    neg_B, W, nonzero, A_C_T, base_inverse_x, A_C = model._residual_layers
    Theta = np.asarray(Theta, dtype=np.float64)
    N, k = len(Theta), model.k
    Z = neg_B - Theta
    # only W0's nonzero rows are multiplied (a region's rows off its
    # active set are zero); the other multipliers stay +0.0
    mu = np.zeros((N, k * m2))
    mu[:, nonzero] = rowwise_matvec(W, Z)
    mu = mu.reshape(N, k, m2)
    rhs = np.empty((N, k, n + m1))
    np.add(Z[:, None, :n], rowwise_matvec(A_C_T, mu.reshape(N * k, m2)).reshape(N, k, n),
           out=rhs[..., :n])
    rhs[..., n:] = Z[:, None, n:n + m1]
    x = rowwise_matvec(base_inverse_x, rhs.reshape(N * k, n + m1))
    b = problem.b_C + Theta[:, n + m1:]
    scale = np.abs(b).max(-1, initial=1.0)[:, None, None]
    primal = (b[:, None] - rowwise_matvec(A_C, x).reshape(N, k, m2)) / scale
    mu_scale = np.abs(mu, where=model.active_mask, out=np.zeros_like(mu)).max(-1, initial=1.0)
    dual = np.where(model.active_mask, -mu / mu_scale[..., None], -np.inf)
    return primal, dual


def locate_array(model: ClosedFormModel, Theta: np.ndarray) -> np.ndarray:
    """Which discovered critical region contains each row of an (N, d)
    array of stacked thetas: an (N,) array of region rows, -1 where none
    does.  ``model.locate_rows`` rows are tested at a time, so the
    temporaries stay bounded for any N.

    A region's violation is its largest :func:`region_residuals` entry
    (its multiplier part is 0 for an empty active set, and its primal
    part 0 when m2 = 0).  The region of smallest violation answers when
    that violation is at most LOCATE_TOL; the first region wins a tie.
    Each row's answer is what :func:`locate_region` gives for its theta.
    """
    Theta = model.problem.theta_rows(Theta)
    rows = np.empty(len(Theta), dtype=np.intp)
    has_active = model.active_mask.any(-1)
    step = model.locate_rows
    for lo in range(0, len(Theta), step):
        primal, dual = region_residuals(model, Theta[lo:lo + step])
        dual = np.where(has_active, dual.max(-1, initial=-np.inf), 0.0)
        violation = np.maximum(primal.max(-1, initial=-np.inf), dual)
        best = np.argmin(violation, -1)
        inside = np.take_along_axis(violation, best[:, None], -1)[:, 0] <= LOCATE_TOL
        rows[lo:lo + step] = np.where(inside, best, -1)
    return rows


def locate_region(model: ClosedFormModel, theta: ParameterPoint) -> Optional[RegionEntry]:
    """Which discovered critical region contains theta, if any: the
    one-row case of :func:`locate_array`."""
    row = locate_array(model, theta.stacked()[None])[0]
    return model.regions[row] if row >= 0 else None


# ---------------------------------------------------------------------------
# serialization


def _incidence_triplets(model: ClosedFormModel) -> List[Tuple[int, int, int]]:
    inc = model.incidence_matrix()
    return sorted((int(i), int(j), int(inc[i, j])) for i, j in zip(*np.nonzero(inc)))


def serialize(model: ClosedFormModel) -> bytes:
    """Versioned JSON container holding the region tree: per region its
    id, active set, parent, direction and witness, plus the incidence
    triplets.  The weights are derived from the problem when loading.
    Witnesses survive bit-exactly because shortest-repr doubles
    round-trip."""
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
    }
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def deserialize(data: bytes, problem: MpQpProblem) -> ClosedFormModel:
    """Load a serialized model, re-verifying the problem digest and
    deriving each region's W0 block from its active set.  Two regions
    with one active set are malformed, as :func:`expand` refuses them."""
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
        records = payload["regions"]
        regions = tuple(
            RegionEntry(
                id=int(rec["id"]),
                active_set=ActiveSet(rec["active_set"]).validate(problem),
                parent_id=None if rec["parent"] is None else int(rec["parent"]),
                witness_theta=ParameterPoint(
                    *(rec["witness"][name] for name in ("theta_c", "theta_e", "theta_C"))
                ).check_dims(problem),
            )
            for rec in records
        )
        if not all(np.isfinite(r.witness_theta.stacked()).all() for r in regions):
            raise MalformedModel("a region witness has non-finite entries")
        sets = [r.active_set for r in regions]
        for row, active_set in enumerate(sets):
            if active_set in sets[:row]:
                raise MalformedModel(f"region {row} repeats active set {sorted(active_set)}")
        model = ClosedFormModel(
            problem=problem,
            precision=int(payload["precision"]),
            regions=regions,
            direction=tuple(int(rec["direction"]) for rec in records),
            W0=np.stack([region_slopes(problem, r.active_set) for r in regions]),
        )
        stored = sorted(tuple(t) for t in payload.get("incidence", []))
    except (KeyError, TypeError, ValueError, ProblemFormatError,
            SingularActiveJacobian) as exc:
        raise MalformedModel(f"model payload is structurally invalid: {exc}") from exc
    if stored != _incidence_triplets(model):
        raise MalformedModel("incidence triplets inconsistent with region tree")
    return model
