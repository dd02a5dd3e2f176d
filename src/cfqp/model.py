"""The closed-form solver network.

A :class:`ClosedFormModel` is the exact piecewise-linear solution map
built from region slopes:

* shadow-price subnetwork: first layer W0 stacks each region's
  ``grad_mu`` block, of which forward multiplies only the nonzero rows
  (those of the region's active constraints); the incidence layer
  combines candidate shadow prices of a region with its discovery-tree
  parent; ReLU applies to the combined differences of every region but
  the root, whose block passes unclipped; the direction vector signs
  each block's contribution.  A last ReLU layer gives mu*(theta) =
  max(0, signed sum of all blocks): inside a child region the child's
  block cancels every root row, a negative one too.
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
from .core import _CHUNK_ELEMENTS, factorize, region_slopes, rowwise_matvec  # noqa: F401
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
    _freeze,
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

@dataclass(frozen=True)
class RegionEntry:
    """One critical region: its active set, discovery-tree parent and a
    parameter point known to lie inside it.  Its slopes are row ``id``
    of the model's W0."""

    id: int
    active_set: ActiveSet
    parent_id: Optional[int]
    witness_theta: ParameterPoint


@dataclass(frozen=True, eq=False)
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
        object.__setattr__(self, "W0", _freeze(self.W0, np.float64))

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
          for direction +1, (-inf, 0] for -1, (-inf, inf) for a root
          (the output ReLU clips it) and [0, 0] for the zero row
        * A_C^T, (n, m2)
        * -[C, b_e] at float64, (n + m1,)
        * the problem's base inverse, (n+m1, n+m1)
        """
        dtype = self.dtype
        p = self.problem
        k = self.k
        j, i = np.nonzero(self.W0.any(-1).T)  # stacked order: constraint, then region
        # 0 for a root, whose block is not clipped
        v = np.array(self.direction) * [r.parent_id is not None for r in self.regions]
        return (
            -p.stacked_coefficients(dtype),
            self.W0[i, j].astype(dtype),
            j * (k + 1) + i,
            np.array([k if r.parent_id is None else r.parent_id
                      for r in self.regions] + [k], dtype=np.intp),
            np.append(np.where(v > 0, 0.0, -np.inf), 0.0).astype(dtype),
            np.append(np.where(v < 0, 0.0, np.inf), 0.0).astype(dtype),
            np.ascontiguousarray(p.A_C.T, dtype=dtype),
            -p.stacked_coefficients()[:p.n + p.m1],
            p.base_inverse.astype(dtype),
        )

    @cached_property
    def region_kernel(self):
        """The problem's :class:`~cfqp.oracle.FeasibilityKernel` restricted
        to the regions' active sets, in region order, so its set i is
        region i.  It holds arrays only, so caching it here makes no
        reference cycle."""
        position = {B: i for i, B in enumerate(self.problem.nonsingular_sets)}
        return self.problem.feasibility_kernel.restricted(
            [position[r.active_set.indices] for r in self.regions])

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
    """The network on a block of stacked thetas, all rows at once: the
    region blocks, clipped except the root's, their signed sum, the
    output ReLU mu = max(0, sum), then the solution layer.

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
    # of v's sign (a root's block is not clipped)
    Z = np.subtract(neg_B, Theta, dtype=dtype)
    H = np.zeros((len(Theta), problem.m2 * len(parent)), dtype=dtype)
    H[:, nonzero] = rowwise_matvec(W, Z)
    H = H.reshape(len(Theta), problem.m2, len(parent))
    D = H - H.take(parent, -1)
    # the +0.0 start clears -0.0, so leaving out the zero rows (whose
    # products are -0.0 where z < 0) keeps Mu bitwise unchanged; the
    # output ReLU then clips the sum
    Mu = np.maximum(np.add.reduce(D.clip(lower, upper), -1, initial=0.0), 0.0)
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
    Theta = theta.check_dims(model.problem).stacked()[None]
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
    probe_theta.check_dims(problem)
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


def region_residuals(model: ClosedFormModel, Theta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The critical-region test of every region at each row of an (N, d)
    array of stacked thetas, ``model.region_kernel.residuals``: two (N, k,
    m2) float64 arrays, the primal residuals over the data scale and the
    negated active multipliers over their scale, -inf off the active set.
    Region i contains theta where its violation, its largest entry (0 if
    its set is empty), is at most ORACLE_TOL; the entries are bitwise the
    feasibility kernel's for its set, whatever the other regions and rows.
    A non-finite theta is a ProblemFormatError."""
    return model.region_kernel.residuals(model.problem, model.problem.theta_rows(Theta))


def locate_array(model: ClosedFormModel, Theta: np.ndarray) -> np.ndarray:
    """Which discovered critical region contains each row of an (N, d)
    array of stacked thetas, ``model.region_kernel.locate``: an (N,) array
    of region rows, -1 where none does: the region of least violation, its
    largest :func:`region_residuals` entry, if that is at most ORACLE_TOL;
    the first region wins a tie."""
    return model.region_kernel.locate(model.problem, model.problem.theta_rows(Theta))


def locate_region(model: ClosedFormModel, theta: ParameterPoint) -> Optional[RegionEntry]:
    """Which discovered critical region contains theta, if any: the
    one-row case of :func:`locate_array`."""
    row = locate_array(model, theta.check_dims(model.problem).stacked()[None])[0]
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
