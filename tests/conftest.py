"""Shared fixtures: bundled problems, standard search patterns and the
discovered models the test suite reuses."""

import csv
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from cfqp import dcopf
from cfqp.cases import case6, two_parameter_problem, two_parameter_theta0
from cfqp.cli import CliError, _floats
from cfqp.core import active_factors, factorize, rowwise_matvec, solve_active_set
from cfqp import discovery
from cfqp.discovery import (
    _EXTENT_CAP,
    _EXTENT_RESOLUTION,
    _MAX_EXPANSIONS_PER_POINT,
    Direction,
    DiscoveryLog,
    SearchPattern,
    Transition,
    axis_sweep_pattern,
    discover,
)
from cfqp.errors import (
    DuplicateRegion,
    Infeasible,
    InfeasibleStart,
    SingularActiveJacobian,
    UnresolvableTransition,
)
from cfqp.model import cast, expand, forward, init_model, locate_region
from cfqp.oracle import ORACLE_TOL, brute_force_solve, is_feasible, kkt_report
from cfqp.problem import ActiveSet, MpQpProblem, ParameterPoint, resolve_dtype


@pytest.fixture(scope="session")
def two_param():
    return two_parameter_problem()


@pytest.fixture(scope="session")
def theta0_2d():
    return two_parameter_theta0()


def two_param_pattern(theta0, steps=200):
    """The standard increasing sweep for the two-parameter problem:
    +theta1 and +theta2 from (100, 100) out to the feasible boundary."""
    return axis_sweep_pattern(theta0, [800.0, 800.0], steps)


@pytest.fixture(scope="session")
def model_2d(two_param, theta0_2d):
    return discover(two_param, theta0_2d, two_param_pattern(theta0_2d))


@pytest.fixture(scope="session")
def power_case():
    return case6()


@pytest.fixture(scope="session")
def box_problem(power_case):
    problem, index_map = dcopf.build_dcopf(power_case)
    return problem, index_map


@pytest.fixture(scope="session")
def line_problem(power_case):
    problem, index_map = dcopf.build_dcopf_with_lines(power_case)
    return problem, index_map


def box_pattern(problem, extent_up=56.0, extent_dn=56.0, steps=40):
    """Load-bus sweeps for the 6-bus box problem: one uniform direction
    over all load buses plus per-axis sweeps, both ways."""
    theta0 = ParameterPoint.zeros(problem)
    load = np.zeros(problem.m1)
    load[3:] = 1.0
    directions = []
    for ext in (extent_up, -extent_dn):
        uniform = ParameterPoint.of_theta_e(problem, load * ext / steps)
        directions.append(Direction(start=theta0, step=uniform, max_steps=steps))
        directions.extend(
            axis_sweep_pattern(theta0, load * ext, steps).directions
        )
    return theta0, SearchPattern(directions)


@pytest.fixture(scope="session")
def box_model(box_problem):
    problem, _ = box_problem
    theta0, pattern = box_pattern(problem)
    return discover(problem, theta0, pattern)


def box_qp(n, q_vals, c_vals, bound):
    """min sum q_i x_i^2 + c_i x_i s.t. sum x = theta_e and
    -bound <= x_i <= bound."""
    return MpQpProblem(
        Q=np.diag(q_vals[:n]),
        C=np.asarray(c_vals[:n]),
        C0=0.0,
        A_e=np.ones((1, n)),
        b_e=np.zeros(1),
        A_C=np.vstack([-np.eye(n), np.eye(n)]),
        b_C=np.concatenate([np.full(n, -bound), np.full(n, -bound)]),
    )


@pytest.fixture(scope="session")
def fixture_rays(two_param, theta0_2d, box_problem, line_problem):
    """(problem, theta0, direction) of the 28 rays of discover's default
    axis pattern on the three benchmark fixtures, in its order (+e_i, then
    -e_i, per theta_e axis): two-parameter from (100, 100), case6 and
    case6 with lines from zero."""
    rays = []
    for problem, theta0 in ((two_param, theta0_2d),
                            (box_problem[0], ParameterPoint.zeros(box_problem[0])),
                            (line_problem[0], ParameterPoint.zeros(line_problem[0]))):
        for unit in np.eye(problem.m1):
            direction = ParameterPoint.of_theta_e(problem, unit)
            rays += [(problem, theta0, direction), (problem, theta0, direction.scale(-1.0))]
    return rays


def on_sweep_samples_2d(problem, count, seed):
    """Random points on the two-parameter discovery sweeps (the domain
    the discovered model certifies)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        axis = int(rng.integers(2))
        theta_e = [100.0, 100.0]
        theta_e[axis] += float(rng.uniform(0.0, 800.0))
        out.append(ParameterPoint.of_theta_e(problem, theta_e))
    return out


def local_samples_6bus(case, problem, count, seed):
    """Per-bus demand ratios r ~ Uniform(0.6, 1.4), counter-based RNG."""
    P_d = case.demand_vector()
    out = []
    for i in range(count):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, i]))
        r = rng.uniform(0.6, 1.4, size=P_d.shape)
        out.append(ParameterPoint.of_theta_e(problem, (1.0 - r) * P_d))
    return out


def region_grad_x(problem, B):
    """grad_x of active set B's region, from the reference kernel: its
    x-map is x(theta) = grad_x @ z with z = -coefficients - theta, so
    column j is x(0) - x(e_j)."""
    x0 = solve_active_set(problem, B, ParameterPoint.zeros(problem)).x
    unit = np.eye(problem.d)
    return np.column_stack([
        x0 - solve_active_set(problem, B, ParameterPoint.from_stacked(problem, unit[j])).x
        for j in range(problem.d)
    ])


# ---------------------------------------------------------------------------
# Reference copy of the oracle's rank-pruned active-set walk, as it was written
# before the walk pivot-tested a whole cardinality level at once: set by set,
# through core.active_factors.


def reference_nonsingular_sets(problem):
    """Yield the 1-based index tuple of every active set whose H_BB passes
    the pivot test, by cardinality and then lexicographically, pruned by
    rank: no set larger than n - m1, and no superset of a singular set.
    A level with no nonsingular set ends the walk."""
    n, m1, m2 = problem.n, problem.m1, problem.m2
    singular = []
    for k in range(max(0, min(n - m1, m2)) + 1):
        kept = False
        for combo in itertools.combinations(range(1, m2 + 1), k):
            cset = frozenset(combo)
            if any(s <= cset for s in singular):
                continue
            if combo:
                try:
                    active_factors(problem, ActiveSet(combo))
                except SingularActiveJacobian:
                    singular.append(cset)
                    continue
            kept = True
            yield combo
        if not kept:  # every larger set contains a singular one
            return


# ---------------------------------------------------------------------------
# Reference copies of the active-set KKT solve, as it was written before
# core solved every active set from the base factorization: J_B assembled
# and LU-factored whole.


def assemble_active_jacobian(problem, B):
    """J_B = [[2Q, -A_e^T, -A_B^T], [-A_e, 0, 0], [-A_B, 0, 0]].  The
    empty active set gives the base Jacobian [[2Q, -A_e^T], [-A_e, 0]]."""
    B.validate(problem)
    n, m1 = problem.n, problem.m1
    A_B = problem.A_C[B.as_index_array()]
    size = n + m1 + len(B)
    J = np.zeros((size, size))
    J[:n, :n] = problem.two_Q
    J[:n, n:n + m1] = -problem.A_e.T
    J[:n, n + m1:] = -A_B.T
    J[n:n + m1, :n] = -problem.A_e
    J[n + m1:, :n] = -A_B
    return J


def reference_solve_active_set(problem, B, theta):
    """(x, lambda, mu) of active set B at theta from one J_B solve, mu
    zero outside B; a singular J_B raises SingularJacobian."""
    idx = B.as_index_array()
    sol = factorize(assemble_active_jacobian(problem, B)).solve(np.concatenate([
        -problem.C - theta.theta_c, -problem.b_e - theta.theta_e,
        -problem.b_C[idx] - theta.theta_C[idx]]))
    n, m1 = problem.n, problem.m1
    mu = np.zeros(problem.m2)
    mu[idx] = sol[n + m1:]
    return sol[:n], sol[n:n + m1], mu


def reference_region_slopes(problem, B):
    """The (m2, d) grad_mu block of B: the multiplier rows of J_B's
    inverse, scattered into the columns of the stacked input."""
    n, m1 = problem.n, problem.m1
    grad_mu = np.zeros((problem.m2, problem.d))
    idx = B.as_index_array()
    cols = np.concatenate([np.arange(n + m1), n + m1 + idx]).astype(np.intp)
    grad_mu[np.ix_(idx, cols)] = factorize(assemble_active_jacobian(problem, B)).inverse()[n + m1:]
    return grad_mu


# ---------------------------------------------------------------------------
# Reference copies of the per-region critical-region test, as it was written
# before model.region_residuals: one region (and one constraint) at a time.


def reference_region_maps(model, theta):
    """Every region's own affine solution at theta, in float64: the
    (k, n) primal points and (k, m2) candidate multipliers."""
    problem = model.problem
    n = problem.n
    z = -problem.stacked_coefficients() - theta.stacked()
    mu = model.W0 @ z
    z_e = np.broadcast_to(z[n:n + problem.m1], (model.k, problem.m1))
    x = np.hstack([z[:n] + mu @ problem.A_C, z_e]) @ problem.base_inverse[:n].T
    return x, mu


def reference_locate_region(model, theta, tol=ORACLE_TOL):
    problem = model.problem
    xs, mus = reference_region_maps(model, theta)
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


def reference_identify_transition(problem, model, current_region, theta,
                                  tol=ORACLE_TOL):
    theta.check_dims(problem)
    xs, mus = reference_region_maps(model, theta)
    x, mu_cand = xs[current_region.id], mus[current_region.id]
    rhs = problem.b_C + theta.theta_C
    resid = rhs - problem.A_C @ x

    active = set(current_region.active_set)
    add_k, add_val = None, 0.0
    for k in range(1, problem.m2 + 1):
        if k in active:
            continue
        if resid[k - 1] > add_val:
            add_k, add_val = k, float(resid[k - 1])
    drop_k, drop_val = None, 0.0
    for k in active:
        v = float(mu_cand[k - 1])
        if -v > drop_val:
            drop_k, drop_val = k, -v

    rhs_scale = max(1.0, float(np.abs(rhs).max()) if problem.m2 else 1.0)
    mu_scale = max(
        1.0,
        float(np.abs(mu_cand[[k - 1 for k in active]]).max()) if active else 1.0,
    )
    add_norm = add_val / rhs_scale if add_k is not None else 0.0
    drop_norm = drop_val / mu_scale if drop_k is not None else 0.0

    if add_norm <= tol and drop_norm <= tol:
        raise UnresolvableTransition(
            "no violated constraint and no negative candidate multiplier "
            f"beyond tolerance at theta (add={add_norm:g}, drop={drop_norm:g})"
        )
    if add_norm >= drop_norm:
        return Transition("add", add_k)
    return Transition("drop", drop_k)


# ---------------------------------------------------------------------------
# The W0-formula reference for model.region_residuals, which reads the
# feasibility kernel instead: each region's multipliers W0[i] z, and its x
# recovered from them through the base inverse, as the network's solution
# layer does.  The two agree to rounding, not bitwise.


def reference_region_residuals(model, Theta):
    problem = model.problem
    n, m1, m2 = problem.n, problem.m1, problem.m2
    Theta = np.asarray(Theta, dtype=np.float64)
    N, k = len(Theta), model.k
    Z = -problem.stacked_coefficients() - Theta
    W0 = model.W0.reshape(k * m2, -1)
    nonzero = np.flatnonzero(W0.any(-1))
    mu = np.zeros((N, k * m2))
    mu[:, nonzero] = rowwise_matvec(W0[nonzero], Z)
    mu = mu.reshape(N, k, m2)
    rhs = np.concatenate([
        Z[:, None, :n] + rowwise_matvec(problem.A_C.T, mu.reshape(N * k, m2)).reshape(N, k, n),
        np.broadcast_to(Z[:, None, n:n + m1], (N, k, m1)),
    ], axis=-1)
    x = rowwise_matvec(problem.base_inverse[:n], rhs.reshape(N * k, n + m1))
    b = problem.b_C + Theta[:, n + m1:]
    scale = np.abs(b).max(-1, initial=1.0)[:, None, None]
    primal = (b[:, None] - rowwise_matvec(problem.A_C, x).reshape(N, k, m2)) / scale
    mu_scale = np.abs(mu, where=model.active_mask, out=np.zeros_like(mu)).max(-1, initial=1.0)
    dual = np.where(model.active_mask, -mu / mu_scale[..., None], -np.inf)
    return primal, dual


# ---------------------------------------------------------------------------
# Reference copy of the dense first layer, as it was written before the
# model kept only W0's nonzero rows: every region's full (m2, d) block,
# zero rows included, is multiplied.


def reference_dense_layers(model):
    """The array kernel's constants with W0 reordered to (m2 * (k+1), d):
    per constraint, the k regions' rows and a zero row k."""
    dtype = model.dtype
    p = model.problem
    k = model.k
    W = np.zeros((p.m2, k + 1, p.d), dtype=dtype)
    W[:, :k] = model.W0.transpose(1, 0, 2)
    v = np.array(model.direction) * [r.parent_id is not None for r in model.regions]  # 0: root
    return (
        -p.stacked_coefficients(dtype),
        W.reshape(-1, p.d),
        np.array([k if r.parent_id is None else r.parent_id
                  for r in model.regions] + [k], dtype=np.intp),
        np.append(np.where(v > 0, 0.0, -np.inf), 0.0).astype(dtype),
        np.append(np.where(v < 0, 0.0, np.inf), 0.0).astype(dtype),
        np.ascontiguousarray(p.A_C.T, dtype=dtype),
        -p.stacked_coefficients()[:p.n + p.m1],
        p.base_inverse.astype(dtype),
    )


def reference_dense_forward(model, Theta):
    """(X, Lam, Mu, objective) of the network with the dense first layer."""
    problem = model.problem
    n, m1 = problem.n, problem.m1
    neg_B, W, parent, lower, upper, A_C_T, neg_rhs, base_inverse = reference_dense_layers(model)
    dtype = W.dtype
    Z = np.subtract(neg_B, Theta, dtype=dtype)
    H = rowwise_matvec(W, Z).reshape(len(Theta), problem.m2, len(parent))
    D = H - H.take(parent, -1)
    Mu = np.add.reduce(D.clip(lower, upper), -1, initial=0.0)  # +0.0 start clears -0.0
    Mu = np.maximum(Mu, 0.0)  # the output ReLU
    rhs = (neg_rhs - Theta[:, :n + m1]).astype(dtype, copy=False)
    rhs[:, :n] += rowwise_matvec(A_C_T, Mu)
    S = rowwise_matvec(base_inverse, rhs)
    X = S[:, :n]
    x = X.astype(np.float64)
    Qx_c = rowwise_matvec(problem.Q, x) + problem.C + Theta[:, :n]
    objective = np.add.reduce(x * Qx_c, -1) + problem.C0
    return X, S[:, n:], Mu, objective


# ---------------------------------------------------------------------------
# Reference copy of the dataset reader, as it was written before it read a
# file in blocks: the whole text at once, one line at a time, one csv.reader
# running in step with the lines.  Lines end as the file iterator ends them
# (read_text turns '\r\n' and '\r' into '\n'), not at every end
# str.splitlines knows.


def reference_read_dataset(problem, path):
    """A dataset's rows as an (N, d) array and their N feasible flags."""
    text = Path(path).read_text()
    jsonl = path.endswith(".jsonl") or text.lstrip()[:1] == "{"
    lines = text.split("\n")
    n, m1, m2, d = problem.n, problem.m1, problem.m2, problem.d
    pad_c, pad_C = [0.0] * n, [0.0] * m2
    names = [f"theta_e{i+1}" for i in range(m1)]
    columns = flag_at = None
    first = True
    rows, flags = [], []
    for lineno, (line, row) in enumerate(zip(lines, lines if jsonl else csv.reader(lines)), 1):
        if not line.strip() or not jsonl and line.lstrip().startswith("#"):
            continue
        flag = True
        try:
            if jsonl:
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError("not a JSON object")
                parts = [rec.get("theta_c", pad_c), rec.get("theta_e"), rec.get("theta_C", pad_C)]
                if [len(p) if isinstance(p, list) else None for p in parts] != [n, m1, m2]:
                    raise ValueError(f"theta_c, theta_e and theta_C must be lists of {n}, "
                                     f"{m1} and {m2} numbers")
                flag = _floats([rec.get("feasible", True)]) != [0.0]  # as a CSV cell
                vals = _floats(parts[0] + parts[1] + parts[2])
            else:
                if first:
                    first = False
                    try:
                        [float(tok) for tok in row if tok.strip()]
                    except ValueError:
                        header = [tok.strip() for tok in row]
                        if names and set(names) <= set(header):
                            columns = [header.index(name) for name in names]
                        if "feasible" in header:
                            flag_at = header.index("feasible")
                        continue
                if flag_at is not None:
                    flag = _floats(row[flag_at:flag_at + 1]) != [0.0]
                if columns is not None:
                    row = [row[c] if c < len(row) else "" for c in columns]
                vals = _floats(row)
                if len(vals) == m1:
                    vals = pad_c + vals + pad_C
            if len(vals) != d:
                raise ValueError(f"expected {m1} or {d} columns, got {len(vals)}")
        except (TypeError, ValueError) as exc:
            raise CliError(f"{path}:{lineno}: bad dataset row: {exc}")
        rows.append(vals)
        flags.append(flag)
    return np.array(rows, dtype=np.float64).reshape(len(rows), d), np.array(flags, bool)


# ---------------------------------------------------------------------------
# Reference copy of the discovery walk, as it was written before discover
# evaluated its sweeps in blocks: one forward, KKT report and region
# location per point.  It calls identify_transition through the discovery
# module, so a test that patches it there reaches both walks.


def reference_discover(problem, theta0, pattern, tol=1e-10, precision=64, log=None,
                       strict=True):
    theta0.check_dims(problem)
    resolve_dtype(precision)
    if log is None:
        log = DiscoveryLog()

    try:
        seed = brute_force_solve(problem, theta0)
    except Infeasible as exc:
        raise InfeasibleStart("discovery anchor theta0 is infeasible") from exc
    model = init_model(problem, seed.active_set, theta0)
    log.emit(event="init", active_set=list(seed.active_set), degenerate=seed.degenerate)

    current = model.regions[0]
    last_set = seed.active_set

    def evaluate(theta):
        sol = forward(model, theta)
        return kkt_report(problem, sol, theta).scalar

    def settle(theta, di, pi):
        nonlocal current, last_set
        region = locate_region(model, theta)
        if region is not None:
            sym = set(region.active_set.indices) ^ set(last_set.indices)
            if len(sym) > 1:
                log.emit(
                    event="warning",
                    kind="multi_constraint_jump",
                    direction=di,
                    index=pi,
                    from_set=list(last_set),
                    to_set=list(region.active_set),
                )
            current = region
            last_set = region.active_set

    def expand_at(theta, di, pi):
        nonlocal model, current
        for _ in range(_MAX_EXPANSIONS_PER_POINT):
            scalar = evaluate(theta)
            log.emit(
                event="point", direction=di, index=pi, kkt=scalar,
                region=current.id, depth=0,
            )
            if scalar <= tol:
                settle(theta, di, pi)
                return
            try:
                tr = discovery.identify_transition(problem, model, current, theta)
            except UnresolvableTransition as exc:
                return abandon(theta, di, pi, "no_transition", exc)
            if tr.kind == "add":
                new_set = ActiveSet(set(current.active_set) | {tr.constraint})
            else:
                new_set = ActiveSet(set(current.active_set) - {tr.constraint})
            try:
                model = expand(model, current.id, new_set, theta)
            except DuplicateRegion:
                existing = next(
                    r for r in model.regions if r.active_set == new_set
                )
                if existing.id == current.id:
                    return abandon(theta, di, pi, "no_transition")
                current = existing
                continue
            except SingularActiveJacobian as exc:
                return abandon(theta, di, pi, "singular_expansion", exc)
            current = model.regions[-1]
            log.emit(
                event="transition", direction=di, index=pi,
                kind=tr.kind, constraint=tr.constraint,
                region=current.id, active_set=list(new_set),
            )
        abandon(theta, di, pi, "expansion_limit")

    def abandon(theta, di, pi, reason, cause=None):
        nonlocal boundary_hit
        if not is_feasible(problem, theta):
            log.emit(event="boundary", direction=di, index=pi, reason=reason)
            boundary_hit = True
        elif strict:
            raise UnresolvableTransition(
                f"cannot resolve KKT violation at direction {di} point {pi} "
                f"({reason})"
            ) from cause
        else:
            log.emit(event="warning", kind="unresolved", direction=di,
                     index=pi, reason=reason)

    boundary_hit = False
    for di, direction in enumerate(pattern.directions):
        log.emit(event="direction", direction=di, max_steps=direction.max_steps)
        boundary_hit = False
        anchor = locate_region(model, direction.start)
        last_set = anchor.active_set if anchor is not None else seed.active_set
        for i in range(direction.max_steps + 1):
            expand_at(direction.point(i) if i else direction.start, di, i)
            if boundary_hit:
                break
    log.emit(event="end", regions=model.k,
             active_sets=[list(r.active_set) for r in model.regions])
    return cast(model, precision)


# ---------------------------------------------------------------------------
# Reference copy of feasible_extent, as it was written before the kernel's
# closed-form ray extent decided its probes: every probe asks is_feasible.


def reference_feasible_extent(problem, theta0, direction, probes=None):
    """The bracketing and bisection of feasible_extent against the oracle
    alone.  ``probes``, when given, collects each probe's (t, answer)."""

    def feasible(t):
        answer = is_feasible(problem, theta0 + direction.scale(t))
        if probes is not None:
            probes.append((t, answer))
        return answer

    theta0.check_dims(problem)
    if not is_feasible(problem, theta0):
        raise InfeasibleStart("feasible_extent called from an infeasible point")
    lo, hi = 0.0, 1.0
    while hi < _EXTENT_CAP and feasible(hi):
        lo, hi = hi, hi * 2.0
    if hi >= _EXTENT_CAP:
        if feasible(_EXTENT_CAP):
            return _EXTENT_CAP
    while hi - lo > _EXTENT_RESOLUTION * max(1.0, abs(lo)):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo
