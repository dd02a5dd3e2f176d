"""DC optimal power flow front end.

Reduces a power-system case to an mp-QP:

* variables x = [P_g for each generator | delta for each non-slack bus]
* per-bus power balance equalities with b_e = -P_d, so the effective
  demand at theta_e is P_d - theta_e (a renewable injection enters as a
  positive theta_e shift that lowers net demand)
* generator box constraints, two ">=" rows per generator in
  (upper, lower) order; optional line-flow limits append two rows per
  line in the same (upper, lower) order.

All quantities stay in MW; ``base_mva`` is carried for unit conversion
only.  Dataset sampling uses a counter-based RNG (Philox keyed by seed,
counter = point index) so generation order never affects the draws; a
dataset draws all its thetas first and labels them in one
``feasible_array`` call.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import DisconnectedNetwork, MissingSlack, ProblemFormatError
# is_feasible is not called here but stays bound: benchmark/tracing.py
# wraps this module attribute.
from .oracle import feasible_array, is_feasible  # noqa: F401
from .problem import MpQpProblem, ParameterPoint

__all__ = [
    "Bus",
    "Generator",
    "Line",
    "PowerCase",
    "DcOpfIndexMap",
    "build_dcopf",
    "build_dcopf_with_lines",
    "inject_renewable",
    "renewable_samples",
    "local_perturbation_dataset",
    "extreme_dataset",
    "scaled_dataset",
    "parse_matpower",
]


@dataclass(frozen=True)
class Bus:
    id: int
    demand: float = 0.0


@dataclass(frozen=True)
class Generator:
    bus: int
    q: float  # quadratic cost coefficient (cost = q P^2 + c P)
    c: float
    pmin: float
    pmax: float


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    susceptance: float
    limit: Optional[float] = None  # MW flow limit, None = unlimited


@dataclass(frozen=True)
class PowerCase:
    buses: Tuple[Bus, ...]
    generators: Tuple[Generator, ...]
    lines: Tuple[Line, ...]
    slack_bus: int
    name: str = "case"
    base_mva: float = 100.0

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "lines", tuple(self.lines))
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise ProblemFormatError("duplicate bus ids")
        numbers = (
            [b.demand for b in self.buses]
            + [v for g in self.generators for v in (g.q, g.c, g.pmin, g.pmax)]
            + [v for ln in self.lines for v in (ln.susceptance, ln.limit) if v is not None]
        )
        if not np.isfinite(numbers).all():
            raise ProblemFormatError(
                "case data must be finite (demands, costs, generator and line limits)"
            )
        if self.slack_bus not in set(ids):
            raise MissingSlack(f"slack bus {self.slack_bus} is not a bus")
        for g in self.generators:
            if g.bus not in set(ids):
                raise ProblemFormatError(f"generator at unknown bus {g.bus}")
            if g.pmin > g.pmax:
                raise ProblemFormatError("generator limits must satisfy pmin <= pmax")
        for ln in self.lines:
            if ln.from_bus not in set(ids) or ln.to_bus not in set(ids):
                raise ProblemFormatError("line endpoint is not a bus")
            if ln.limit is not None and ln.limit <= 0:
                raise ProblemFormatError("line limits must be positive")
        # connectivity check (breadth-first search over line adjacency)
        adjacency: Dict[int, set] = {i: set() for i in ids}
        for ln in self.lines:
            adjacency[ln.from_bus].add(ln.to_bus)
            adjacency[ln.to_bus].add(ln.from_bus)
        seen = {self.slack_bus}
        frontier = [self.slack_bus]
        while frontier:
            nxt = []
            for b in frontier:
                for other in adjacency[b]:
                    if other not in seen:
                        seen.add(other)
                        nxt.append(other)
            frontier = nxt
        if len(self.buses) > 1 and seen != set(ids):
            raise DisconnectedNetwork(
                f"buses {sorted(set(ids) - seen)} unreachable from the slack bus"
            )

    @property
    def bus_ids(self) -> List[int]:
        return sorted(b.id for b in self.buses)

    def demand_vector(self) -> np.ndarray:
        """Base demand per bus, ascending bus id."""
        by_id = {b.id: b.demand for b in self.buses}
        return np.array([by_id[i] for i in self.bus_ids], dtype=np.float64)

    def susceptance_matrix(self) -> np.ndarray:
        """N x N nodal susceptance matrix (row sums zero)."""
        ids = self.bus_ids
        pos = {b: i for i, b in enumerate(ids)}
        B = np.zeros((len(ids), len(ids)))
        for ln in self.lines:
            i, j = pos[ln.from_bus], pos[ln.to_bus]
            B[i, i] += ln.susceptance
            B[j, j] += ln.susceptance
            B[i, j] -= ln.susceptance
            B[j, i] -= ln.susceptance
        return B

    # -- JSON ------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "base_mva": self.base_mva,
            "slack_bus": self.slack_bus,
            "buses": [{"id": b.id, "demand": b.demand} for b in self.buses],
            "generators": [
                {"bus": g.bus, "q": g.q, "c": g.c, "pmin": g.pmin, "pmax": g.pmax}
                for g in self.generators
            ],
            "lines": [
                {
                    "from": ln.from_bus,
                    "to": ln.to_bus,
                    "susceptance": ln.susceptance,
                    **({"limit": ln.limit} if ln.limit is not None else {}),
                }
                for ln in self.lines
            ],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping) -> "PowerCase":
        try:
            return cls(
                name=data.get("name", "case"),
                base_mva=float(data.get("base_mva", 100.0)),
                slack_bus=int(data["slack_bus"]),
                buses=tuple(
                    Bus(int(b["id"]), float(b.get("demand", 0.0)))
                    for b in data["buses"]
                ),
                generators=tuple(
                    Generator(
                        int(g["bus"]), float(g["q"]), float(g["c"]),
                        float(g["pmin"]), float(g["pmax"]),
                    )
                    for g in data["generators"]
                ),
                lines=tuple(
                    Line(
                        int(ln["from"]), int(ln["to"]), float(ln["susceptance"]),
                        None if ln.get("limit") is None else float(ln["limit"]),
                    )
                    for ln in data["lines"]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProblemFormatError(f"invalid case data: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "PowerCase":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"invalid case JSON: {exc}") from exc
        return cls.from_dict(data)


@dataclass(frozen=True)
class DcOpfIndexMap:
    """Bookkeeping between the case and the reduced variable vector (the
    generators are variables 0..G-1)."""

    bus_ids: Tuple[int, ...]            # ascending; equality row / theta_e order
    delta_vars: Mapping[int, Optional[int]]  # bus id -> delta variable (None at slack)
    slack_bus: int
    box_rows: Tuple[Tuple[int, int], ...]    # per generator: (upper row, lower row), 1-based
    flow_rows: Tuple[Tuple[int, int], ...]   # per line: (upper row, lower row), 1-based

    def full_angles(self, x: np.ndarray) -> np.ndarray:
        """Reconstruct per-bus voltage angles, zero at the slack bus."""
        out = np.zeros(len(self.bus_ids))
        for i, b in enumerate(self.bus_ids):
            var = self.delta_vars[b]
            if var is not None:
                out[i] = x[var]
        return out


def _build(case: PowerCase, lines: bool):
    ids = case.bus_ids
    pos = {b: i for i, b in enumerate(ids)}
    N = len(ids)
    G = len(case.generators)
    non_slack = [b for b in ids if b != case.slack_bus]
    n = G + len(non_slack)

    delta_vars = {b: (None if b == case.slack_bus else G + non_slack.index(b)) for b in ids}

    Q = np.zeros((n, n))
    C = np.zeros(n)
    for g_idx, g in enumerate(case.generators):
        Q[g_idx, g_idx] = g.q
        C[g_idx] = g.c

    Bmat = case.susceptance_matrix()
    # Balance at bus i: P_gen,i - (B delta)_i = P_d,i - theta_e,i,
    # written as A_e x = b_e + theta_e with b_e = -P_d:
    #   -P_gen,i + (B delta)_i = -P_d,i + theta_e,i
    A_e = np.zeros((N, n))
    b_e = -case.demand_vector()
    for g_idx, g in enumerate(case.generators):
        A_e[pos[g.bus], g_idx] = -1.0
    for b in ids:
        for b2 in non_slack:
            A_e[pos[b], delta_vars[b2]] = Bmat[pos[b], pos[b2]]

    rows_A: List[np.ndarray] = []
    rows_b: List[float] = []
    box_rows = []
    for g_idx, g in enumerate(case.generators):
        upper = np.zeros(n)
        upper[g_idx] = -1.0           # -P_g >= -P+  (P_g <= P+)
        lower = np.zeros(n)
        lower[g_idx] = 1.0            # P_g >= P-
        rows_A.extend([upper, lower])
        rows_b.extend([-g.pmax, g.pmin])
        box_rows.append((2 * g_idx + 1, 2 * g_idx + 2))

    flow_rows = []
    if lines:
        base = len(rows_A)
        for l, ln in enumerate(case.lines):
            if ln.limit is None:
                raise ProblemFormatError(
                    f"line {ln.from_bus}-{ln.to_bus} has no flow limit"
                )
            flow = np.zeros(n)
            for b, sign in ((ln.from_bus, 1.0), (ln.to_bus, -1.0)):
                var = delta_vars[b]
                if var is not None:
                    flow[var] = sign * ln.susceptance
            rows_A.extend([-flow, flow])          # flow <= F ; flow >= -F
            rows_b.extend([-ln.limit, -ln.limit])
            flow_rows.append((base + 2 * l + 1, base + 2 * l + 2))

    problem = MpQpProblem(
        Q=Q,
        C=C,
        C0=0.0,
        A_e=A_e,
        b_e=b_e,
        A_C=np.vstack(rows_A),
        b_C=np.asarray(rows_b),
        variable_groups={
            "P_g": list(range(G)),
            "delta": list(range(G, n)),
        },
    )
    index_map = DcOpfIndexMap(
        bus_ids=tuple(ids),
        delta_vars=delta_vars,
        slack_bus=case.slack_bus,
        box_rows=tuple(box_rows),
        flow_rows=tuple(flow_rows),
    )
    return problem, index_map


def build_dcopf(case: PowerCase) -> Tuple[MpQpProblem, DcOpfIndexMap]:
    """Reduce a case to an mp-QP with generator box constraints only."""
    return _build(case, False)


def build_dcopf_with_lines(case: PowerCase) -> Tuple[MpQpProblem, DcOpfIndexMap]:
    """As build_dcopf, plus two flow-limit rows per line; every line
    needs a limit."""
    return _build(case, True)


def inject_renewable(
    problem: MpQpProblem, theta_e_base: np.ndarray, P_ren: np.ndarray
) -> ParameterPoint:
    """Renewable output enters the balance as a positive theta_e shift
    (net demand P_d - theta_e drops by P_ren)."""
    theta_e_base = np.asarray(theta_e_base, dtype=np.float64)
    P_ren = np.asarray(P_ren, dtype=np.float64)
    if theta_e_base.shape != (problem.m1,) or P_ren.shape != (problem.m1,):
        raise ProblemFormatError("renewable vectors must have one entry per bus")
    return ParameterPoint.of_theta_e(problem, theta_e_base + P_ren)


def _point_rngs(seed: int):
    """Counter-based per-point RNG: ``rng(i)`` draws what
    ``Generator(Philox(key=seed, counter=[0, 0, 0, i]))`` draws, so
    generation order never matters.  One Philox and one Generator serve
    every point: each call restores a new Philox's state (an empty
    buffer: buffer_pos 4, has_uint32 0, uinteger 0) with the counter
    [0, 0, 0, i]."""
    bits = np.random.Philox(key=seed)
    rng = np.random.Generator(bits)
    state = bits.state

    def at(index: int) -> np.random.Generator:
        state["state"]["counter"] = np.array([0, 0, 0, index], dtype=np.uint64)
        bits.state = state
        return rng

    return at


#: Renewable output per bus: exponential with this rate, capped.
_RENEWABLE_RATE = 1.25
_RENEWABLE_CAP = 1.5


def renewable_samples(count: int, buses: int, seed: int) -> np.ndarray:
    """Per-bus renewable outputs: exponential(rate 1.25) capped at 1.5."""
    rng = _point_rngs(seed)
    out = np.empty((count, buses))
    for i in range(count):
        out[i] = np.minimum(
            rng(i).exponential(scale=1.0 / _RENEWABLE_RATE, size=buses), _RENEWABLE_CAP
        )
    return out


def _demand_ratios(count: int, buses: int, seed: int) -> np.ndarray:
    """Per-bus demand ratios, Uniform(0.6, 1.4): row i is point i's draw."""
    rng = _point_rngs(seed)
    out = np.empty((count, buses))
    for i in range(count):
        out[i] = rng(i).uniform(0.6, 1.4, size=buses)
    return out


def _labelled(problem: MpQpProblem, theta_e: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """An (N, m1) theta_e array and its (N,) feasible labels, all from
    one :func:`feasible_array` call."""
    return theta_e, feasible_array(problem, np.pad(theta_e, [(0, 0), (problem.n, problem.m2)]))


def local_perturbation_dataset(
    case: PowerCase,
    count: int,
    seed: int,
    *,
    problem: MpQpProblem,
) -> Tuple[np.ndarray, np.ndarray]:
    """Demand at each bus scaled by an independent Uniform(0.6, 1.4)
    ratio: the (count, m1) theta_e array and its feasible labels;
    infeasible draws are flagged, never dropped."""
    if count < 1:
        raise ValueError("count must be >= 1")
    P_d = case.demand_vector()
    return _labelled(problem, (1.0 - _demand_ratios(count, len(P_d), seed)) * P_d)


#: Load at every bus but the swept one in the extreme dataset.
_EXTREME_FLOOR = 0.01


def extreme_dataset(
    case: PowerCase,
    steps: int = 100,
    *,
    problem: MpQpProblem,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-bus extreme sweeps: one bus's demand runs from 0 to the sum
    of generator upper limits while every other load is set to
    _EXTREME_FLOOR (MW).  Returns the (m1 * steps, m1) theta_e array, a
    block of steps per swept bus, and its feasible labels."""
    P_d = case.demand_vector()
    total_cap = sum(g.pmax for g in case.generators)
    target = np.full((len(P_d), steps, len(P_d)), _EXTREME_FLOOR)
    swept = np.arange(len(P_d))  # one block of steps per swept bus
    target[swept, :, swept] = np.linspace(0.0, total_cap, steps)
    return _labelled(problem, (P_d - target).reshape(-1, len(P_d)))


def scaled_dataset(
    case: PowerCase,
    scales: Sequence[float],
    per_scale_count: int,
    seed: int,
    *,
    problem: MpQpProblem,
) -> Tuple[np.ndarray, np.ndarray]:
    """Local perturbations around a scaled base load: effective demand
    is r * k * P_d with r ~ Uniform(0.6, 1.4) per bus, for each scale k.
    Returns the theta_e array and its feasible labels, with rows ordered
    by scale: row i has scale ``scales[i // per_scale_count]``."""
    scales = [float(s) for s in scales]
    if sorted(set(scales)) != scales:
        raise ValueError("scales must be strictly ascending")
    P_d = case.demand_vector()
    r = _demand_ratios(len(scales) * per_scale_count, len(P_d), seed)
    k = np.repeat(scales, per_scale_count)
    return _labelled(problem, P_d - r * k[:, None] * P_d)


# ---------------------------------------------------------------------------
# MATPOWER-style importer (limited to the fields this artifact needs)

_MP_BLOCK = re.compile(
    r"mpc\.(?P<name>\w+)\s*=\s*\[(?P<body>.*?)\];", re.DOTALL
)


def _parse_block(body: str) -> List[List[float]]:
    """Matrix rows end at ';' or a line break; '%' comments run to the
    end of their line."""
    code = "\n".join(line.split("%")[0] for line in body.splitlines())
    rows = []
    for raw in re.split(r"[;\n]", code):
        toks = raw.replace(",", " ").split()
        if not toks:
            continue
        try:
            rows.append([float(tok) for tok in toks])
        except ValueError as exc:
            raise ProblemFormatError(f"bad MATPOWER table row {raw.strip()!r}: {exc}")
    return rows


def parse_matpower(text: str, name: str = "imported", half_quadratic: bool = False) -> PowerCase:
    """Parse a MATPOWER-style case file (bus, gen, branch, gencost
    tables) into a PowerCase.

    ``half_quadratic`` converts cost data given for (1/2) x^T H x form
    by halving the quadratic coefficient on ingestion.
    """
    blocks = {m.group("name"): _parse_block(m.group("body")) for m in _MP_BLOCK.finditer(text)}
    base_match = re.search(r"mpc\.baseMVA\s*=\s*([0-9.eE+-]+)\s*;", text)
    base_mva = float(base_match.group(1)) if base_match else 100.0
    for required in ("bus", "gen", "branch"):
        if required not in blocks:
            raise ProblemFormatError(f"MATPOWER case is missing the {required} table")

    buses = []
    slack = None
    for row in blocks["bus"]:
        bus_id, bus_type, Pd = int(row[0]), int(row[1]), float(row[2])
        buses.append(Bus(id=bus_id, demand=Pd))
        if bus_type == 3:
            slack = bus_id
    if slack is None:
        raise MissingSlack("no type-3 (slack) bus in the MATPOWER case")

    gencost = blocks.get("gencost", [])
    generators = []
    for g_idx, row in enumerate(blocks["gen"]):
        if len(row) < 10:
            raise ProblemFormatError(
                f"gen row {g_idx + 1} lacks the GEN_STATUS, PMAX and PMIN columns"
            )
        if row[7] <= 0:
            continue  # out of service; its gencost row is skipped with it
        bus_id = int(row[0])
        pmax, pmin = float(row[8]), float(row[9])
        if g_idx >= len(gencost):
            raise ProblemFormatError(
                f"in-service gen row {g_idx + 1} has no gencost row"
            )
        cost = gencost[g_idx]
        if len(cost) < 4 or len(cost) < 4 + int(cost[3]):
            raise ProblemFormatError(
                f"gencost row {g_idx + 1} is shorter than its NCOST coefficients"
            )
        if int(cost[0]) != 2:
            raise ProblemFormatError(
                "only polynomial (model 2) generator costs are supported"
            )
        ncoef = int(cost[3])
        coeffs = cost[4:4 + ncoef]  # highest order first
        q = float(coeffs[-3]) if ncoef >= 3 else 0.0
        c = float(coeffs[-2]) if ncoef >= 2 else 0.0
        if half_quadratic:
            q *= 0.5
        generators.append(Generator(bus=bus_id, q=q, c=c, pmin=pmin, pmax=pmax))

    lines = []
    for row in blocks["branch"]:
        if len(row) > 10 and row[10] <= 0:
            continue  # out of service (BR_STATUS)
        fbus, tbus, x = int(row[0]), int(row[1]), float(row[3])
        if x == 0.0:
            raise ProblemFormatError("branch with zero reactance")
        rate_a = float(row[5]) if len(row) > 5 else 0.0
        lines.append(
            Line(
                from_bus=fbus,
                to_bus=tbus,
                susceptance=1.0 / x,
                limit=rate_a if rate_a > 0 else None,
            )
        )
    return PowerCase(
        buses=tuple(buses),
        generators=tuple(generators),
        lines=tuple(lines),
        slack_bus=slack,
        name=name,
        base_mva=base_mva,
    )
