"""Shared fixtures: bundled problems, standard search patterns and the
discovered models the test suite reuses."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from cfqp import dcopf
from cfqp.cases import case6, two_parameter_problem, two_parameter_theta0
from cfqp.cli import CliError, _floats
from cfqp.core import rowwise_matvec, solve_active_set
from cfqp.discovery import Direction, SearchPattern, Transition, axis_sweep_pattern, discover
from cfqp.errors import UnresolvableTransition
from cfqp.problem import ParameterPoint


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
    x = np.hstack([z[:n] + mu @ problem.A_C, z_e]) @ model.base_inverse[:n].T
    return x, mu


def reference_locate_region(model, theta, tol=1e-7):
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


def reference_identify_transition(problem, model, current_region, theta, tol=1e-9):
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
    v = np.array(model.direction)
    return (
        -p.stacked_coefficients(dtype),
        W.reshape(-1, p.d),
        np.array([k if r.parent_id is None else r.parent_id
                  for r in model.regions] + [k], dtype=np.intp),
        np.append(np.where(v > 0, 0.0, -np.inf), 0.0).astype(dtype),
        np.append(np.where(v > 0, np.inf, 0.0), 0.0).astype(dtype),
        np.ascontiguousarray(p.A_C.T, dtype=dtype),
        -p.stacked_coefficients()[:p.n + p.m1],
        model.base_inverse.astype(dtype),
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
# running in step with the lines.


def reference_read_dataset(problem, path):
    """A dataset's rows as an (N, d) array and their N feasible flags."""
    text = Path(path).read_text()
    jsonl = path.endswith(".jsonl") or text.lstrip()[:1] == "{"
    lines = text.splitlines()
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
                flag = bool(rec.get("feasible", True))
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
