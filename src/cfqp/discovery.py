"""Region discovery: grow a closed-form model by walking search
patterns and reacting to KKT violations.

The model is seeded with one oracle solve at the anchor point; every
further region comes from the add/drop transition test, not from an
analytic solver.  A JSON-lines log records every evaluated point,
transition and warning for replay and audit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import (
    DuplicateRegion,
    Infeasible,
    InfeasibleStart,
    ProblemFormatError,
    SingularActiveJacobian,
    UnresolvableTransition,
)
# forward, locate_region, kkt_report and brute_force_solve are not called
# here but stay bound: benchmark/tracing.py wraps these module attributes.
from .model import (  # noqa: F401
    ClosedFormModel,
    RegionEntry,
    cast,
    expand,
    forward,
    forward_array,
    init_model,
    locate_array,
    locate_region,
    region_residuals,
)
from .oracle import (  # noqa: F401
    ORACLE_TOL,
    brute_force_solve,
    feasible_array,
    is_feasible,
    kkt_report,
    kkt_scalars,
    solve,
)
from .problem import ActiveSet, MpQpProblem, ParameterPoint, resolve_dtype

__all__ = [
    "Direction",
    "SearchPattern",
    "Transition",
    "DiscoveryLog",
    "discover",
    "identify_transition",
    "axis_sweep_pattern",
    "scaled_base_pattern",
    "feasible_extent",
    "feasible_extents",
]

_MAX_EXPANSIONS_PER_POINT = 16

#: feasible_extent's largest step length, and its bisection resolution
#: relative to max(1, step length).
_EXTENT_CAP = 1e9
_EXTENT_RESOLUTION = 1e-6


@dataclass(frozen=True)
class Direction:
    """One sweep: start point, per-step delta, number of steps."""

    start: ParameterPoint
    step: ParameterPoint
    max_steps: int

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if (np.abs(self.step.stacked()) == 0.0).all():
            raise ValueError("step must be nonzero")

    def point(self, i: int) -> ParameterPoint:
        return self.start + self.step.scale(float(i))


@dataclass(frozen=True)
class SearchPattern:
    directions: tuple

    def __init__(self, directions: Sequence[Direction]):
        object.__setattr__(self, "directions", tuple(directions))


@dataclass(frozen=True)
class Transition:
    """A single-constraint active-set change: kind is 'add' or 'drop'."""

    kind: str
    constraint: int

    def __post_init__(self):
        if self.kind not in ("add", "drop"):
            raise ValueError("kind must be 'add' or 'drop'")


class DiscoveryLog:
    """Append-only JSON-lines event stream (in memory, optionally
    mirrored to a file)."""

    def __init__(self, path: Optional[str] = None):
        self.records: List[dict] = []
        self._path = path
        self._fh = open(path, "w") if path else None

    def emit(self, **record):
        self.extend([record])

    def extend(self, records: List[dict]):
        """Append records at once; a file gets the lines an emit each writes."""
        self.records += records
        if self._fh:
            self._fh.write("".join(json.dumps(record) + "\n" for record in records))
            self._fh.flush()

    def close(self):
        if self._fh:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def identify_transition(
    problem: MpQpProblem,
    model: ClosedFormModel,
    current_region: RegionEntry,
    theta: ParameterPoint,
) -> Transition:
    """Which single constraint change explains a KKT violation at theta.

    From the current region's row of :func:`region_residuals`:
    Add(k) is the non-active constraint with the largest positive
    normalized residual, Drop(k) the active constraint with the largest
    normalized negated multiplier.  When both occur the larger wins (add
    on ties); the lowest index wins among equal entries.  Neither beyond
    ORACLE_TOL, the oracle's tolerance, raises UnresolvableTransition.
    """
    theta.check_dims(problem)
    row = current_region.id
    primal, drop = (part[0, row] for part in region_residuals(model, theta.stacked()[None]))
    add = np.where(model.active_mask[row], -np.inf, primal)
    add_norm = float(add.max(initial=0.0))
    drop_norm = float(drop.max(initial=0.0))
    if add_norm <= ORACLE_TOL and drop_norm <= ORACLE_TOL:
        raise UnresolvableTransition(
            "no violated constraint and no negative candidate multiplier "
            f"beyond tolerance at theta (add={add_norm:g}, drop={drop_norm:g})"
        )
    if add_norm >= drop_norm:
        return Transition("add", int(np.argmax(add)) + 1)
    return Transition("drop", int(np.argmax(drop)) + 1)


def axis_sweep_pattern(
    theta0: ParameterPoint, extent: Sequence[float], steps: int
) -> SearchPattern:
    """One direction per equality-RHS coordinate with nonzero extent,
    stepping uniformly from theta0 by extent_i along that axis."""
    if steps < 2:
        raise ValueError("steps must be >= 2")
    extent = np.asarray(extent, dtype=np.float64)
    if extent.shape != theta0.theta_e.shape:
        raise ValueError("extent must match the theta_e dimension")
    directions = []
    m1 = theta0.theta_e.shape[0]
    for i in range(m1):
        delta = np.zeros(m1)
        delta[i] = extent[i] / steps
        if delta[i] == 0.0:  # a zero extent, or one that underflows per step
            continue
        step = ParameterPoint(
            np.zeros_like(theta0.theta_c), delta, np.zeros_like(theta0.theta_C)
        )
        directions.append(Direction(start=theta0, step=step, max_steps=steps))
    return SearchPattern(directions)


def scaled_base_pattern(
    base: ParameterPoint,
    scales: Sequence[float],
    steps: int,
    extent: Sequence[float],
    origin: Optional[ParameterPoint] = None,
) -> SearchPattern:
    """Axis sweeps repeated from a scaled base point for every scale k.

    Each scale's anchor is ``origin + k * base`` (origin defaults to
    zero, giving the plain ``k * base`` anchors).  ``extent`` gives the
    per-axis sweep displacement applied at every scale.
    """
    scales = [float(s) for s in scales]
    if not scales:
        raise ValueError("scales must be nonempty")
    if sorted(set(scales)) != scales:
        raise ValueError("scales must be strictly ascending")
    directions = []
    for k in scales:
        anchor = base.scale(k) if origin is None else origin + base.scale(k)
        directions.extend(axis_sweep_pattern(anchor, extent, steps).directions)
    return SearchPattern(directions)


def feasible_extents(
    problem: MpQpProblem,
    theta0: ParameterPoint,
    directions: Sequence[ParameterPoint],
) -> List[float]:
    """For each direction, the largest step length t, up to _EXTENT_CAP,
    such that theta0 + t * direction stays feasible, found by bracketing
    and bisection against the oracle.

    theta0 is checked once, and the kernel brackets every ray without a
    theta_C part in one ``ray_extents`` pass; a probe outside a ray's
    band is decided by comparison, with the same answer the oracle gives.
    Along a theta_C part the oracle's primal tolerance moves, so such a
    ray's band is unbounded.  Every ray's in-band doubling probes (t = 1,
    2, 4, ... below _EXTENT_CAP, and the cap) are asked in one
    :func:`feasible_array` pass, each row bitwise the probe's stacked
    theta; only an in-band bisection midpoint asks :func:`is_feasible`."""
    theta0.check_dims(problem)
    for direction in directions:
        if not direction.finite:
            raise ProblemFormatError("direction has non-finite entries")
        direction.check_dims(problem)
        if not direction.stacked().any():
            raise ValueError("direction must be nonzero")
    if not directions:
        return []
    if not is_feasible(problem, theta0):
        raise InfeasibleStart("feasible_extent called from an infeasible point")
    D = np.array([direction.stacked() for direction in directions])
    bands = np.tile([-np.inf, np.inf], (len(D), 1))
    bracketed = ~D[:, problem.n + problem.m1:].any(1)
    bands[bracketed] = np.column_stack(
        problem.feasibility_kernel.ray_extents(problem, theta0.stacked(), D[bracketed]))
    # the doubling probes, as the loop below reaches them
    ladder = np.append(2.0 ** np.arange(np.ceil(np.log2(_EXTENT_CAP))), _EXTENT_CAP)
    ray, rung = np.nonzero((bands[:, :1] < ladder) & (ladder <= bands[:, 1:]))
    # The loop stops at a ray's first infeasible probe, so a probe past it
    # may overflow, in its theta or in the kernel's products, where the
    # loop would never ask; its answer is not read.  An overflowed theta
    # is left to is_feasible, which rejects it if the loop gets there.
    known = {}
    with np.errstate(over="ignore", invalid="ignore"):
        probes = theta0.stacked() + ladder[rung, None] * D[ray]
        finite = np.isfinite(probes).all(1)
        if finite.any():
            known = dict(zip(zip(ray[finite].tolist(), ladder[rung[finite]].tolist()),
                             feasible_array(problem, probes[finite]).tolist()))
    extents = []
    for r, (direction, (t_in, t_out)) in enumerate(zip(directions, bands.tolist())):

        def feasible(t):
            if not t_in < t <= t_out:
                return t <= t_in
            if (r, t) in known:
                return known[r, t]
            return is_feasible(problem, theta0 + direction.scale(t))

        lo, hi = 0.0, 1.0
        while hi < _EXTENT_CAP and feasible(hi):
            lo, hi = hi, hi * 2.0
        if hi >= _EXTENT_CAP and feasible(_EXTENT_CAP):
            lo = hi = _EXTENT_CAP
        while hi - lo > _EXTENT_RESOLUTION * max(1.0, abs(lo)):
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        extents.append(lo)
    return extents


def feasible_extent(
    problem: MpQpProblem,
    theta0: ParameterPoint,
    direction: ParameterPoint,
) -> float:
    """The one-ray case of :func:`feasible_extents`."""
    return feasible_extents(problem, theta0, [direction])[0]


def discover(
    problem: MpQpProblem,
    theta0: ParameterPoint,
    pattern: SearchPattern,
    tol: float = 1e-10,
    precision: int = 64,
    log: Optional[DiscoveryLog] = None,
    strict: bool = True,
) -> ClosedFormModel:
    """Grow a closed-form model along a search pattern.

    One :func:`cfqp.oracle.solve` anchors the root region at theta0; it
    solves only the active sets the feasibility kernel accepts there.
    Along every direction, the first point whose prediction violates ``tol``
    triggers transition identification and model expansion; evaluation
    resumes at the violating point.  Every point goes through the array
    kernels :func:`forward_array` and :func:`kkt_scalars`, and a passing
    one through :func:`locate_array`: a sweep's points, its start first, in
    blocks, replayed in order so that the log and the model are those of a
    point-by-point walk.  Each point is evaluated once per model: a block's
    scalars hold through switches to regions the model already has and
    past abandoned points, and a new block is evaluated only past the end
    of the last one or when :func:`expand` adds a region, from the point
    that grew the model.  Row 0 of a sweep's first block is located even
    when it fails: it sets the sweep's anchor region.
    A point is abandoned when no single transition explains its violation,
    when its expansion is singular, or after 16 expansions at that point,
    to a new region or to one the model already has.  An infeasible
    abandoned point ends its sweep; a feasible one raises
    :class:`UnresolvableTransition`, or, with ``strict=False``, is logged
    as an ``unresolved`` warning and skipped.  Every point record has
    ``depth`` 0, a field kept for the log's readers.

    Discovery evaluates the model at float64 whatever ``precision`` is,
    so the region tree depends only on the problem; ``precision`` sets
    the dtype the returned model evaluates in (see :func:`cast`).
    """
    theta0.check_dims(problem)
    resolve_dtype(precision)
    if log is None:
        log = DiscoveryLog()

    try:
        seed = solve(problem, theta0)
    except Infeasible as exc:
        raise InfeasibleStart("discovery anchor theta0 is infeasible") from exc
    model = init_model(problem, seed.active_set, theta0)
    log.emit(event="init", active_set=list(seed.active_set), degenerate=seed.degenerate)

    current = model.regions[0]

    def settle(row, di, pi):
        """Make region ``row``, which contains a passing point, the current
        region, checking the one-transition invariant along the sweep: the
        records to log, a warning if the move breaks it."""
        nonlocal current, last_set
        region, records = model.regions[row], []
        if len(set(region.active_set.indices) ^ set(last_set.indices)) > 1:
            records.append(dict(event="warning", kind="multi_constraint_jump", direction=di,
                                index=pi, from_set=list(last_set), to_set=list(region.active_set)))
        current, last_set = region, region.active_set
        return records

    for di, direction in enumerate(pattern.directions):
        log.emit(event="direction", direction=di, max_steps=direction.max_steps)
        # The one-transition invariant is per sweep: last_set restarts at
        # each direction, from row 0 of its first block.
        boundary_hit, last_set, i, first, scalars, tries = False, None, 0, 0, [], 0
        while i <= direction.max_steps and not boundary_hit:
            if i == first + len(scalars) or model is not evaluated:
                # Row k is bitwise direction.point(i + k), except that a
                # start row is the start itself: start + 0 * step would
                # turn a -0.0 entry into +0.0, and a failing point can
                # become a region's witness.
                index = np.arange(i, min(direction.max_steps + 1,
                                         i + model.region_kernel.chunk_rows))
                Theta = direction.start.stacked() + index[:, None] * direction.step.stacked()
                Theta[index == 0] = direction.start.stacked()
                X, Lam, Mu, _ = forward_array(model, Theta)
                scalars = kkt_scalars(problem, X, Lam, Mu, Theta).tolist()
                first, evaluated = i, model
            j = i - first
            passing = next((k for k in range(j, len(scalars)) if not scalars[k] <= tol),
                           len(scalars))
            if passing > j or last_set is None:
                # A run of passing points, logged at once and settled where
                # its region changes; row 0 of a sweep's first block is
                # located even when it fails, for the sweep's anchor region.
                rows = locate_array(model, Theta[j:max(passing, j + 1)]).tolist()
                if last_set is None:
                    last_set = (model.regions[rows[0]].active_set if rows[0] >= 0
                                else seed.active_set)
                records, settled = [], -1
                for pi, row in zip(range(i, first + passing), rows):
                    records.append(dict(event="point", direction=di, index=pi,
                                        kkt=scalars[pi - first], region=current.id, depth=0))
                    if row not in (-1, settled):
                        records += settle(row, di, pi)
                        settled = row
                log.extend(records)
                i, tries = first + passing, 0
                continue
            theta = ParameterPoint.from_stacked(problem, Theta[j])
            log.emit(event="point", direction=di, index=i, kkt=scalars[j],
                     region=current.id, depth=0)
            reason = cause = None
            try:
                tr = identify_transition(problem, model, current, theta)
            except UnresolvableTransition as exc:
                reason, cause = "no_transition", exc
            else:
                if tr.kind == "add":
                    new_set = ActiveSet(set(current.active_set) | {tr.constraint})
                else:
                    new_set = ActiveSet(set(current.active_set) - {tr.constraint})
                try:
                    model = expand(model, current.id, new_set, theta)
                except DuplicateRegion:
                    # never the current region: a transition adds an
                    # inactive constraint or drops an active one; the
                    # model, so the block's scalars, are unchanged
                    current = next(r for r in model.regions if r.active_set == new_set)
                except SingularActiveJacobian as exc:
                    # Adding this constraint overdetermines the KKT system:
                    # typically the sweep has reached the feasible boundary.
                    reason, cause = "singular_expansion", exc
                else:
                    current = model.regions[-1]
                    log.emit(
                        event="transition", direction=di, index=i,
                        kind=tr.kind, constraint=tr.constraint,
                        region=current.id, active_set=list(new_set),
                    )
                tries += 1
                if reason is None and tries == _MAX_EXPANSIONS_PER_POINT:
                    reason = "expansion_limit"
            if reason is not None:
                # Give up on the point: past the feasible boundary, end the
                # sweep; otherwise raise, or in non-strict mode log a warning.
                if not is_feasible(problem, theta):
                    log.emit(event="boundary", direction=di, index=i, reason=reason)
                    boundary_hit = True
                elif strict:
                    raise UnresolvableTransition(
                        f"cannot resolve KKT violation at direction {di} point {i} "
                        f"({reason})"
                    ) from cause
                else:
                    log.emit(event="warning", kind="unresolved", direction=di,
                             index=i, reason=reason)
                i, tries = i + 1, 0
    log.emit(event="end", regions=model.k,
             active_sets=[list(r.active_set) for r in model.regions])
    return cast(model, precision)
