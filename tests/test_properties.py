"""Property-based invariants (hypothesis) for the solver stack."""

import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import cfqp.cli
import cfqp.model
import cfqp.oracle
from cfqp.cases import bundled_case_json, bundled_problem_json
from cfqp.cli import CliError, _read_dataset
from cfqp.core import (
    gradient_rows,
    lagrangian_gradients,
    region_slopes,
    rowwise_matvec,
    solve_active_set,
)
from cfqp.discovery import Transition, feasible_extent, identify_transition
from cfqp.errors import Infeasible, ProblemFormatError, UnresolvableTransition
from cfqp.model import (
    ClosedFormModel,
    RegionEntry,
    cast,
    deserialize,
    forward,
    init_model,
    locate_array,
    locate_region,
    region_residuals,
)
from cfqp.oracle import (
    _accepted,
    brute_force_solve,
    feasible_array,
    is_feasible,
    kkt_batch,
    kkt_report,
    solve,
)
from cfqp.problem import ActiveSet, MpQpProblem, ParameterPoint

from conftest import (
    box_pattern,
    box_qp,
    reference_feasible_extent,
    reference_identify_transition,
    reference_locate_region,
    reference_nonsingular_sets,
    reference_read_dataset,
    reference_region_residuals,
    region_grad_x,
)


finite = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    q_vals=st.lists(st.floats(min_value=0.5, max_value=8.0), min_size=4, max_size=4),
    c_vals=st.lists(finite, min_size=4, max_size=4),
    target=st.floats(min_value=-5.0, max_value=5.0),
)
def test_oracle_output_satisfies_kkt(n, q_vals, c_vals, target):
    problem = box_qp(n, q_vals, c_vals, bound=6.0)
    theta = ParameterPoint.of_theta_e(problem, [target])
    result = brute_force_solve(problem, theta)
    rep = kkt_report(problem, result.solution, theta)
    assert rep.scalar < 1e-14
    assert result.solution.mu.min() >= -1e-8
    assert abs(result.solution.x.sum() - target) < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    q_vals=st.lists(st.floats(min_value=0.5, max_value=8.0), min_size=4, max_size=4),
    c_vals=st.lists(finite, min_size=4, max_size=4),
    target=st.floats(min_value=-5.0, max_value=5.0),
)
def test_oracle_matches_active_set_resolve(n, q_vals, c_vals, target):
    """Re-solving the oracle's reported active set reproduces its solution."""
    problem = box_qp(n, q_vals, c_vals, bound=6.0)
    theta = ParameterPoint.of_theta_e(problem, [target])
    result = brute_force_solve(problem, theta)
    again = solve_active_set(problem, result.active_set, theta)
    assert np.allclose(again.x, result.solution.x, atol=1e-9)
    assert np.allclose(again.mu, result.solution.mu, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    t=st.floats(min_value=0.0, max_value=800.0),
    axis=st.integers(min_value=0, max_value=1),
    eps=st.sampled_from([1e-4, 1e-6]),
)
def test_continuity_along_sweeps(two_param, model_2d, t, axis, eps):
    """x(theta) is continuous: two-sided differences scale with the
    slope-derived Lipschitz bound."""
    direction = np.zeros(2)
    direction[axis] = 1.0
    theta_e = np.array([100.0, 100.0])
    theta_e[axis] += t
    lo = ParameterPoint.of_theta_e(two_param, theta_e - eps * direction)
    hi = ParameterPoint.of_theta_e(two_param, theta_e + eps * direction)
    gap = np.linalg.norm(forward(model_2d, hi).x - forward(model_2d, lo).x)
    L = max(
        np.linalg.norm(region_grad_x(two_param, r.active_set), ord=2)
        for r in model_2d.regions
    )
    assert gap <= 2.0 * eps * L + 1e-9


@settings(max_examples=50, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=800.0), axis=st.integers(0, 1))
def test_mu_nonnegative_in_region(two_param, model_2d, t, axis):
    theta_e = [100.0, 100.0]
    theta_e[axis] += t
    theta = ParameterPoint.of_theta_e(two_param, theta_e)
    assert forward(model_2d, theta).mu.min() >= -1e-9


@settings(max_examples=30, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=790.0), axis=st.integers(0, 1))
def test_exactness_per_region(two_param, model_2d, t, axis):
    """Inside a located region the network equals the single-active-set
    solver to 1e-9 relative."""
    theta_e = [100.0, 100.0]
    theta_e[axis] += t
    theta = ParameterPoint.of_theta_e(two_param, theta_e)
    region = locate_region(model_2d, theta)
    if region is None:
        return
    ref = solve_active_set(two_param, region.active_set, theta)
    got = forward(model_2d, theta)
    scale = max(1.0, float(np.abs(ref.x).max()))
    assert np.abs(got.x - ref.x).max() <= 1e-9 * scale
    mu_scale = max(1.0, float(np.abs(ref.mu).max()))
    assert np.abs(got.mu - ref.mu).max() <= 1e-9 * mu_scale


@settings(max_examples=25, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=800.0), axis=st.integers(0, 1))
def test_precision_ordering(two_param, model_2d, t, axis):
    """32-bit evaluation is never more accurate than 64-bit."""
    theta_e = [100.0, 100.0]
    theta_e[axis] += t
    theta = ParameterPoint.of_theta_e(two_param, theta_e)
    s64 = kkt_report(two_param, forward(model_2d, theta), theta).scalar
    s32 = kkt_report(two_param, forward(cast(model_2d, 32), theta), theta).scalar
    assert s32 >= s64


@pytest.fixture(scope="module")
def line_model(line_problem):
    """A one-region model of the line-limited case6 problem; away from
    its root region its forward solutions carry large KKT residuals."""
    problem, _ = line_problem
    theta0 = ParameterPoint.zeros(problem)
    return init_model(problem, brute_force_solve(problem, theta0).active_set, theta0)


KKT_NAMES = ("kkt1", "kkt2_eq", "kkt2_ineq", "kkt3", "kkt4")


def assert_rows_bitwise(problem, solutions, thetas):
    """lagrangian_gradients and kkt_report of each solution are bit for
    bit its row of gradient_rows and kkt_batch over all of them."""
    Theta = np.array([t.stacked() for t in thetas])
    X, Lam, Mu = (np.array([getattr(s, k) for s in solutions]) for k in ("x", "lam", "mu"))
    grads = gradient_rows(problem, X, Lam, Mu, Theta)
    batch = kkt_batch(problem, X, Lam, Mu, Theta)
    for i, (sol, theta) in enumerate(zip(solutions, thetas)):
        for row, one in zip(grads, lagrangian_gradients(problem, sol, theta)):
            assert row[i].tobytes() == one.tobytes()
        report = kkt_report(problem, sol, theta)
        for row, name in zip(batch, KKT_NAMES):
            assert row[i].tobytes() == getattr(report, name).tobytes()


@settings(max_examples=25, deadline=None)
@given(
    ts=st.lists(st.floats(min_value=0.0, max_value=800.0), min_size=1, max_size=3),
    axis=st.integers(0, 1),
    bits=st.sampled_from([64, 32]),
)
def test_kkt_rows_bitwise_2d(two_param, model_2d, ts, axis, bits):
    thetas = []
    for t in ts:
        theta_e = [100.0, 100.0]
        theta_e[axis] += t
        thetas.append(ParameterPoint.of_theta_e(two_param, theta_e))
    model = cast(model_2d, bits)
    solutions = [forward(model, t) for t in thetas] + [
        brute_force_solve(two_param, t).solution for t in thetas
    ]
    assert_rows_bitwise(two_param, solutions, thetas + thetas)


@settings(max_examples=20, deadline=None)
@given(
    ratios=st.lists(
        st.lists(st.floats(min_value=0.6, max_value=1.4), min_size=6, max_size=6),
        min_size=1, max_size=3,
    ),
    bits=st.sampled_from([64, 32]),
)
def test_kkt_rows_bitwise_case6_lines(power_case, line_problem, line_model, ratios, bits):
    problem, _ = line_problem
    P_d = power_case.demand_vector()
    model = cast(line_model, bits)
    solutions, thetas = [], []
    for r in ratios:
        theta = ParameterPoint.of_theta_e(problem, (1.0 - np.asarray(r)) * P_d)
        solutions.append(forward(model, theta))
        thetas.append(theta)
        try:
            solutions.append(brute_force_solve(problem, theta).solution)
            thetas.append(theta)
        except Infeasible:
            pass
    assert_rows_bitwise(problem, solutions, thetas)


@settings(max_examples=150, deadline=None)
@given(
    r=st.integers(0, 40),
    c=st.integers(0, 40),
    N=st.integers(0, 300),
    dtypes=st.sampled_from([(np.float64, np.float64), (np.float32, np.float32),
                            (np.float32, np.float64), (np.float64, np.float32)]),
    a_order=st.sampled_from("CF"),
    v_layout=st.sampled_from(["C", "F", "column-strided", "row-strided"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rowwise_matvec_rows_are_independent(r, c, N, dtypes, a_order, v_layout, seed):
    """rowwise_matvec(A, V)[i] is bit for bit the one-row call on a
    contiguous copy of V[i], whatever N and V's layout; its columns for a
    subset of A's rows are bit for bit rowwise_matvec(A[rows], V); and
    each entry is within gamma_c sum_c |a_rc v_c| of the exact sum,
    gamma_c = c u / (1 - c u) at the result's unit roundoff u."""
    rng = np.random.default_rng(seed)

    def draw(shape, dtype):
        return (rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)).astype(dtype)

    A = np.asarray(draw((r, c), dtypes[0]), order=a_order)
    V = {
        "C": lambda: draw((N, c), dtypes[1]),
        "F": lambda: np.asfortranarray(draw((N, c), dtypes[1])),
        "column-strided": lambda: draw((N, 2 * c), dtypes[1])[:, ::2],
        "row-strided": lambda: draw((2 * N, c), dtypes[1])[::2],
    }[v_layout]()
    got = rowwise_matvec(A, V)
    assert got.shape == (N, r) and got.dtype == np.result_type(A, V)
    for i in range(N):
        assert _bits(rowwise_matvec(A, V[i].copy()[None])[0]) == _bits(got[i])
    rows = rng.permutation(r)[:rng.integers(0, r + 1)]
    assert _bits(rowwise_matvec(A[rows], V)) == _bits(np.ascontiguousarray(got[:, rows]))
    # the reference sums in long double; its own error is allowed for
    exact = V.astype(np.longdouble) @ A.T.astype(np.longdouble)
    magnitude = np.abs(V).astype(np.longdouble) @ np.abs(A).T.astype(np.longdouble)
    gamma = [c * u / (1 - c * u) for u in (np.finfo(got.dtype).eps / 2,
                                           np.finfo(np.longdouble).eps / 2)]
    assert (np.abs(got - exact) <= sum(gamma) * magnitude).all()


def solvable(problem, theta):
    try:
        brute_force_solve(problem, theta)
        return True
    except Infeasible:
        return False


@settings(max_examples=30, deadline=None)
@given(
    total=st.one_of(
        st.floats(min_value=-500.0, max_value=2000.0),
        st.floats(min_value=1.0 - 1e-9, max_value=1.0 + 1e-9).map(lambda f: 1000.0 * f),
    ),
    share=st.floats(min_value=-0.5, max_value=1.5),
)
def test_is_feasible_iff_solvable_2d(two_param, total, share):
    """Across and just beyond theta1 + theta2 = 1000, the first accepted
    active set exists exactly when the least one does."""
    theta = ParameterPoint.of_theta_e(two_param, [share * total, (1.0 - share) * total])
    assert is_feasible(two_param, theta) == solvable(two_param, theta)


@settings(max_examples=30, deadline=None)
@given(
    ratios=st.lists(st.floats(min_value=0.6, max_value=1.4), min_size=6, max_size=6),
    scale=st.floats(min_value=1.0, max_value=2.0),
)
def test_is_feasible_iff_solvable_case6_lines(power_case, line_problem, ratios, scale):
    """Criterion 7's demand draws: effective demand r * k * P_d."""
    problem, _ = line_problem
    P_d = power_case.demand_vector()
    theta = ParameterPoint.of_theta_e(problem, P_d - np.asarray(ratios) * scale * P_d)
    assert is_feasible(problem, theta) == solvable(problem, theta)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    q_vals=st.lists(st.floats(min_value=0.5, max_value=8.0), min_size=4, max_size=4),
    c_vals=st.lists(finite, min_size=4, max_size=4),
    theta=st.lists(st.floats(min_value=-30.0, max_value=30.0), min_size=13, max_size=13),
)
def test_feasibility_kernel_matches_enumeration_box_qp(n, q_vals, c_vals, theta):
    """The Schur kernel against the literal enumeration, with every part
    of theta drawn: the equality target reaches past the box's +-n*6, and
    theta_C moves the bounds, emptying the box when a bound crosses its
    opposite."""
    problem = box_qp(n, q_vals, c_vals, bound=6.0)
    point = ParameterPoint.from_stacked(problem, theta[:problem.d])
    assert is_feasible(problem, point) == (next(_accepted(problem, point), None) is not None)


def oracle_answer(fn, problem, theta):
    """(active set, degenerate flag, x, lambda and mu bits) of one
    oracle's answer at theta, or None when it raises Infeasible."""
    try:
        result = fn(problem, theta)
    except Infeasible:
        return None
    sol = result.solution
    return (result.active_set.indices, result.degenerate,
            *(_bits(v) for v in (sol.x, sol.lam, sol.mu)))


def assert_solve_is_brute_force(problem, theta):
    assert oracle_answer(solve, problem, theta) == oracle_answer(brute_force_solve, problem, theta)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    q_vals=st.lists(st.integers(min_value=1, max_value=4), min_size=4, max_size=4),
    c_vals=st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
    factor=st.integers(min_value=-5, max_value=5),
    theta_c=st.one_of(
        st.lists(st.integers(min_value=-6, max_value=6).map(float), min_size=4, max_size=4),
        st.lists(st.floats(min_value=-30.0, max_value=30.0), min_size=4, max_size=4)),
)
# TestFeasibilityKernel's large-theta_c points: the kernel accepts no set there
@example(n=2, q_vals=[1, 2, 1, 1], c_vals=[0, 0, 0, 0], factor=0,
         theta_c=[0.0, 4.85e9, 0.0, 0.0])
@example(n=2, q_vals=[1, 2, 1, 1], c_vals=[0, 0, 0, 0], factor=0,
         theta_c=[0.0, 5e9, 0.0, 0.0])
def test_solve_matches_brute_force(n, q_vals, c_vals, factor, theta_c):
    """The kernel-filtered solve against the literal enumeration on box
    QPs with integer data, at the equality targets factor * bound, where
    bounds tie (0, +-bound, +-(n - 1) bound, +-n bound) or the box is
    missed (|factor| > n)."""
    bound = 6.0
    problem = box_qp(n, q_vals, c_vals, bound)
    theta = ParameterPoint(theta_c[:n], [factor * bound], np.zeros(2 * n))
    assert_solve_is_brute_force(problem, theta)


@pytest.fixture(scope="module")
def fixture_models(tmp_path_factory, two_param, box_problem, line_problem):
    """(problem, model) of the benchmark's three discover runs."""
    root = tmp_path_factory.mktemp("fixture_models")
    (root / "two_parameter.json").write_text(bundled_problem_json())
    (root / "case6.json").write_text(bundled_case_json())
    models = []
    for problem, argv in (
        (two_param, ["--problem", "two_parameter.json", "--theta0", "100,100", "--steps", "200"]),
        (box_problem[0], ["--case", "case6.json", "--steps", "40"]),
        (line_problem[0], ["--case", "case6.json", "--lines", "--steps", "40", "--lenient"]),
    ):
        argv = [str(root / arg) if arg.endswith(".json") else arg for arg in argv]
        assert cfqp.cli.main(["discover", *argv, "--out", str(root / "model")]) == 0
        models.append((problem, deserialize((root / "model").read_bytes(), problem)))
    return models


def test_solve_matches_brute_force_at_fixture_witnesses(fixture_models):
    assert sum(model.k for _, model in fixture_models) > 10
    for problem, model in fixture_models:
        for region in model.regions:
            assert_solve_is_brute_force(problem, region.witness_theta)


def _patched_chunk(problem, rows):
    """Patch the kernel's chunk bound so that feasible takes ``rows`` thetas at a time."""
    stack = problem.feasibility_kernel._stack
    return mock.patch.object(cfqp.oracle, "_CHUNK_ELEMENTS", rows * stack.shape[0] * stack.shape[1])


def _bits(array):
    return array.dtype.str, array.shape, array.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    q_vals=st.lists(st.floats(min_value=0.5, max_value=8.0), min_size=4, max_size=4),
    c_vals=st.lists(finite, min_size=4, max_size=4),
    thetas=st.lists(st.lists(st.floats(min_value=-30.0, max_value=30.0), min_size=13,
                             max_size=13), max_size=7),
    rows=st.integers(min_value=1, max_value=3),
)
@example(n=2, q_vals=[1.0] * 4, c_vals=[0.0] * 4, thetas=[], rows=1)
def test_feasible_array_rows_match_one_row_calls(n, q_vals, c_vals, thetas, rows):
    """Each row of a block has bitwise the slots (multipliers and
    residuals, row axis 1 of the slot-major array) and data scale of that
    theta alone, and its label, with the block chunked 1 to 3 rows at a
    time, is is_feasible's.  A non-finite row and a wrong width are format
    errors."""
    problem = box_qp(n, q_vals, c_vals, bound=6.0)
    Theta = np.array([theta[:problem.d] for theta in thetas]).reshape(-1, problem.d)
    kernel = problem.feasibility_kernel
    with _patched_chunk(problem, rows):
        assert kernel.chunk_rows == rows
        labels = feasible_array(problem, Theta)
        with pytest.raises(ProblemFormatError, match="non-finite"):
            feasible_array(problem, np.vstack([Theta, np.full(problem.d, np.nan)]))
        with pytest.raises(ProblemFormatError, match="shape"):
            feasible_array(problem, Theta[:, 1:])
    assert labels.shape == (len(Theta),) and labels.dtype == bool
    slots, scale = kernel._rows(problem, Theta)
    for i, row in enumerate(Theta):
        alone, alone_scale = kernel._rows(problem, row[None])
        assert _bits(slots[:, i]) == _bits(alone[:, 0])
        assert _bits(scale[i]) == _bits(alone_scale[0])
        assert labels[i] == is_feasible(problem, ParameterPoint.from_stacked(problem, row))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    q_vals=st.lists(st.floats(min_value=0.5, max_value=8.0), min_size=4, max_size=4),
    c_vals=st.lists(finite, min_size=4, max_size=4),
    start=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=13, max_size=13),
    steps=st.lists(st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=5,
                            max_size=5), min_size=1, max_size=5),
    rows=st.sampled_from([1, 64, 128, 192, 1 << 20]),
)
def test_ray_extents_rows_match_one_ray_calls(n, q_vals, c_vals, start, steps, rows):
    """Each ray's bracket in a block of rays from one theta0 is bitwise
    the bracket of that ray alone, on rays along theta_c and theta_e,
    with 1, 2, 3 or all rays bracketed per pass."""
    problem = box_qp(n, q_vals, c_vals, bound=6.0)
    theta0 = np.asarray(start[:problem.d]) * np.r_[np.full(n, 4.0), 4.5 * n, np.ones(2 * n)]
    D = np.zeros((len(steps), problem.d))
    D[:, :n + 1] = np.asarray(steps)[:, :n + 1]
    kernel = problem.feasibility_kernel
    with _patched_chunk(problem, rows):
        block = kernel.ray_extents(problem, theta0, D)
        alone = [kernel.ray_extents(problem, theta0, d[None]) for d in D]
    for part, ends in zip(block, zip(*alone)):
        assert _bits(part) == _bits(np.concatenate(ends))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=5),
    q_vals=st.lists(st.floats(min_value=0.5, max_value=8.0), min_size=5, max_size=5),
    extra=st.lists(st.tuples(st.sampled_from(["copy", "opposite", "zero", "random"]),
                             st.integers(min_value=0, max_value=99),
                             st.lists(finite, min_size=5, max_size=5)), max_size=6),
    chunk=st.integers(min_value=1, max_value=8),
)
# nine rows: every level has more candidates than a chunk of 3
@example(n=4, q_vals=[1.0] * 5, extra=[("random", 0, [1.0, 2.0, -1.0, 3.0, 0.0])], chunk=3)
def test_nonsingular_sets_match_reference_walk(n, q_vals, extra, chunk):
    """The cached, level-batched walk lists the reference walk's sets in
    its order.  A box's bounds on one x_i are opposite rows, and the extra
    rows add copies, more opposites, all-zero rows (an H_BB of scale 0)
    and generic rows; a gather chunk of 1 to 8 splits most levels."""
    box = box_qp(n, q_vals, [0.0] * n, bound=6.0)
    rows = list(box.A_C)
    for kind, i, values in extra:
        row = rows[i % len(rows)]
        rows.append({"copy": row, "opposite": -row, "zero": 0.0 * row,
                     "random": np.asarray(values[:n])}[kind])
    problem = MpQpProblem(Q=box.Q, C=box.C, C0=0.0, A_e=box.A_e, b_e=box.b_e,
                          A_C=np.array(rows), b_C=np.full(len(rows), -6.0))
    with mock.patch.object(cfqp.oracle, "_WALK_CHUNK", chunk):
        assert problem.nonsingular_sets == tuple(reference_nonsingular_sets(problem))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    q_vals=st.lists(st.floats(min_value=0.5, max_value=8.0), min_size=4, max_size=4),
    c_vals=st.lists(finite, min_size=4, max_size=4),
    start=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=13, max_size=13),
    step=st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=13, max_size=13),
    parts=st.sampled_from(["e", "ce", "c", "eC"]),
)
# two unbounded rays, which return _EXTENT_CAP: one on each path
@example(n=3, q_vals=[1.0, 2.0, 3.0, 1.0], c_vals=[0.5, -1.0, 0.0, 0.0], start=[0.0] * 13,
         step=[1.0, -2.0] + [0.0] * 11, parts="c")
@example(n=3, q_vals=[1.0, 2.0, 3.0, 1.0], c_vals=[0.5, -1.0, 0.0, 0.0], start=[0.0] * 13,
         step=[0.0] * 3 + [1.0] + [-1.0] * 9, parts="eC")
def test_feasible_extent_matches_plain_bisection(n, q_vals, c_vals, start, step, parts):
    """feasible_extent, deciding probes from the kernel's ray extent, and
    the plain bisection give the same float on rays along theta_e, theta_c
    and theta_e, or theta_c alone, and on rays along theta_e and theta_C,
    which ask the oracle at every probe.  theta0 lies inside the box: the
    sum target within +-4.5n, each bound moved by at most 1."""
    problem = box_qp(n, q_vals, c_vals, bound=6.0)
    theta0 = ParameterPoint.from_stacked(
        problem, np.asarray(start[:problem.d]) * np.r_[np.full(n, 4.0), 4.5 * n, np.ones(2 * n)])
    mask = np.repeat(["c" in parts, "e" in parts, "C" in parts], [n, 1, 2 * n])
    direction = ParameterPoint.from_stacked(problem, np.asarray(step[:problem.d]) * mask)
    assume(direction.stacked().any())
    assert feasible_extent(problem, theta0, direction) == reference_feasible_extent(
        problem, theta0, direction)


@settings(max_examples=40, deadline=None)
@given(
    a=st.lists(finite, min_size=14, max_size=14),
    b=st.lists(finite, min_size=14, max_size=14),
    f=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
def test_parameter_point_algebra(two_param, a, b, f):
    pa = ParameterPoint.from_stacked(two_param, np.asarray(a))
    pb = ParameterPoint.from_stacked(two_param, np.asarray(b))
    assert np.allclose((pa + pb).stacked(), np.asarray(a) + np.asarray(b))
    assert np.allclose((pa - pb).stacked(), np.asarray(a) - np.asarray(b))
    assert np.allclose(pa.scale(f).stacked(), f * np.asarray(a))


@settings(max_examples=40, deadline=None)
@given(idx=st.lists(st.integers(min_value=1, max_value=6), max_size=6))
def test_active_set_canonical(idx):
    s = ActiveSet(idx)
    assert tuple(s) == tuple(sorted(set(idx)))
    assert s == set(idx)
    assert hash(s) == hash(ActiveSet(reversed(idx)))


# ---------------------------------------------------------------------------
# The batched critical-region test against the per-region reference loops
# (conftest.reference_locate_region, reference_identify_transition).


def transition_or_none(identify, model, region, theta):
    try:
        return identify(model.problem, model, region, theta)
    except UnresolvableTransition:
        return None


def assert_matches_reference(model, theta):
    """locate_region, and identify_transition from every region, give
    what the reference loops give; returns the located region."""
    got = locate_region(model, theta)
    want = reference_locate_region(model, theta)
    assert (None if got is None else got.id) == (None if want is None else want.id)
    for region in model.regions:
        assert (transition_or_none(identify_transition, model, region, theta)
                == transition_or_none(reference_identify_transition, model, region, theta))
    return got


def box_sweep_point(problem, t, axis):
    """A point on the box pattern's sweeps: the load buses' theta_e moved
    by t together (axis None) or one at a time."""
    theta_e = np.zeros(problem.m1)
    theta_e[slice(3, None) if axis is None else axis] = t
    return ParameterPoint.of_theta_e(problem, theta_e)


bits = st.sampled_from([64, 32])


@settings(max_examples=40, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=800.0), axis=st.integers(0, 1), bits=bits)
def test_region_test_matches_reference_on_2d_sweeps(two_param, model_2d, t, axis, bits):
    theta_e = [100.0, 100.0]
    theta_e[axis] += t
    theta = ParameterPoint.of_theta_e(two_param, theta_e)
    assert assert_matches_reference(cast(model_2d, bits), theta) is not None


@settings(max_examples=40, deadline=None)
@given(t=st.floats(min_value=-56.0, max_value=56.0),
       axis=st.sampled_from([None, 3, 4, 5]), bits=bits)
def test_region_test_matches_reference_on_box_sweeps(box_model, t, axis, bits):
    assert not box_model.regions[0].active_set  # the root's active set is empty
    theta = box_sweep_point(box_model.problem, t, axis)
    assert assert_matches_reference(cast(box_model, bits), theta) is not None


@settings(max_examples=30, deadline=None)
@given(u=st.floats(min_value=1e3, max_value=1e6), v=st.floats(min_value=1e3, max_value=1e6),
       t=st.floats(min_value=1e3, max_value=1e6), sign=st.sampled_from([1.0, -1.0]),
       axis=st.sampled_from([None, 3, 4, 5]), bits=bits)
def test_far_outside_every_region_locates_nowhere(
    two_param, model_2d, box_model, u, v, t, sign, axis, bits
):
    """Points far beyond the feasible set (the two-parameter problem needs
    theta1 + theta2 <= 1000; the box problem cannot move a load by 1000 MW)."""
    far_2d = ParameterPoint.of_theta_e(two_param, [u, v])
    assert assert_matches_reference(cast(model_2d, bits), far_2d) is None
    far_box = box_sweep_point(box_model.problem, sign * t, axis)
    assert assert_matches_reference(cast(box_model, bits), far_box) is None


def with_twin(model, region):
    """The model with a copy of ``region`` appended as its child: the copy
    has the same active set and weights, so the same violation anywhere."""
    twin = RegionEntry(id=model.k, active_set=region.active_set,
                       parent_id=region.id, witness_theta=region.witness_theta)
    return dataclasses.replace(
        model, regions=model.regions + (twin,), direction=model.direction + (1,),
        W0=np.concatenate([model.W0, model.W0[region.id][None]]),
    )


def test_exact_violation_tie_goes_to_first_region(model_2d, box_model):
    for model in (model_2d, box_model):
        for region in model.regions:
            theta = region.witness_theta
            located = locate_region(model, theta)
            twinned = with_twin(model, located)
            primal, dual = (r[0] for r in region_residuals(twinned, theta.stacked()[None]))
            assert np.array_equal(primal[located.id], primal[-1])
            assert np.array_equal(dual[located.id], dual[-1])
            assert assert_matches_reference(twinned, theta).id == located.id


def reference_rows(model, thetas):
    located = (reference_locate_region(model, theta) for theta in thetas)
    return [-1 if region is None else region.id for region in located]


@settings(max_examples=25, deadline=None)
@given(
    sweep_2d=st.lists(st.tuples(st.floats(min_value=0.0, max_value=900.0),
                                st.integers(0, 1)), max_size=25),
    sweep_box=st.lists(st.tuples(st.floats(min_value=-90.0, max_value=90.0),
                                 st.sampled_from([None, 3, 4, 5])), max_size=25),
    chunk_elements=st.sampled_from([None, 200]),
)
def test_locate_array_matches_reference(two_param, model_2d, box_model, sweep_2d, sweep_box,
                                        chunk_elements):
    """Every row of locate_array, at sweep points (some beyond the feasible
    boundary) and at every witness, is what the reference loop locates;
    identify_transition from every region agrees with its reference too.
    At 200 elements a block holds a few thetas."""
    cases = [
        (model_2d, [ParameterPoint.of_theta_e(two_param, [100.0 + t * (axis == 0),
                                                          100.0 + t * (axis == 1)])
                    for t, axis in sweep_2d]),
        (box_model, [box_sweep_point(box_model.problem, t, axis) for t, axis in sweep_box]),
    ]
    for model, thetas in cases:
        thetas += [region.witness_theta for region in model.regions]
        Theta = np.array([theta.stacked() for theta in thetas])
        with mock.patch.object(cfqp.oracle, "_CHUNK_ELEMENTS",
                               chunk_elements or cfqp.oracle._CHUNK_ELEMENTS):
            rows = locate_array(model, Theta)
        assert rows.tolist() == reference_rows(model, thetas)
        for theta in thetas:
            for region in model.regions:
                assert (transition_or_none(identify_transition, model, region, theta)
                        == transition_or_none(reference_identify_transition, model, region,
                                              theta))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    q_vals=st.lists(st.floats(min_value=0.5, max_value=8.0), min_size=4, max_size=4),
    sets=st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=5,
                  unique=True),
    tree=st.lists(st.tuples(st.integers(min_value=0, max_value=4), st.sampled_from([1, -1])),
                  min_size=5, max_size=5),
    N=st.sampled_from([0, 1, 2, 40, 300]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    bits=bits,
)
# the empty set alone, at one row
@example(n=2, q_vals=[1.0] * 4, sets=[0], tree=[(0, 1)] * 5, N=1, seed=0, bits=32)
def test_region_residuals_per_region_and_per_row(n, q_vals, sets, tree, N, seed, bits):
    """region_residuals reads each region's rows of the feasibility kernel
    on their own: a region's residuals are bitwise those of a one-region
    model of its set, and a theta's those of a one-row call; they agree
    with the W0-formula reference to 1e-12, with the same -inf entries.
    On models of 1 to 5 regions of a box QP, the empty set among the
    candidates, at 32 and 64 bits, on blocks of 0, 1, 2, 40 and 300 rows,
    theta_C included."""
    problem = box_qp(n, q_vals, [0.5, -1.0, 0.0, 0.25], bound=6.0)
    candidates = problem.nonsingular_sets
    active_sets = list(dict.fromkeys(ActiveSet(candidates[i % len(candidates)]) for i in sets))
    witness = ParameterPoint.zeros(problem)
    regions = tuple(
        RegionEntry(id=i, active_set=B, parent_id=None if i == 0 else tree[i][0] % i,
                    witness_theta=witness)
        for i, B in enumerate(active_sets))
    model = ClosedFormModel(
        problem=problem, precision=bits, regions=regions,
        direction=tuple(v for _, v in tree[:len(regions)]),
        W0=np.stack([region_slopes(problem, B) for B in active_sets]))
    Theta = np.random.default_rng(seed).uniform(-30.0, 30.0, (N, problem.d))
    got = region_residuals(model, Theta)
    for region in regions:
        own = region_residuals(alone(model, region), Theta)
        assert [_bits(part[:, region.id]) for part in got] == [_bits(part[:, 0]) for part in own]
    for row, theta in enumerate(Theta):
        own = region_residuals(model, theta[None])
        assert [_bits(part[row]) for part in got] == [_bits(part[0]) for part in own]
    for part, want in zip(got, reference_region_residuals(model, Theta)):
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(part), finite)
        assert np.array_equal(part[~finite], want[~finite])
        assert np.abs(part[finite] - want[finite]).max(initial=0.0) <= 1e-12


def root_at_violation(problem, target):
    """The one-region model of the two-parameter problem rooted at [3, 4],
    the oracle's set at (100, 100), and the theta on +e1 from there where
    the root's largest region_residuals entry is ``target``, by bisection."""
    theta0 = ParameterPoint.of_theta_e(problem, [100.0, 100.0])
    model = init_model(problem, ActiveSet([3, 4]), theta0)
    assert brute_force_solve(problem, theta0).active_set == model.regions[0].active_set

    def worst(t):
        theta = ParameterPoint.of_theta_e(problem, [100.0 + t, 100.0])
        return max(part[0, 0].max() for part in region_residuals(model, theta.stacked()[None]))

    lo, hi = 0.0, 800.0
    assert worst(lo) <= target < worst(hi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if worst(mid) <= target else (lo, mid)
    assert abs(worst(lo) - target) <= 1e-12
    return model, ParameterPoint.of_theta_e(problem, [100.0 + lo, 100.0])


def root_accepted(problem, theta):
    """Whether the feasibility kernel accepts the root's set [3, 4] at theta."""
    accepted = problem.feasibility_kernel.accepts(problem, theta.stacked()[None])[0]
    return bool(accepted[problem.nonsingular_sets.index((3, 4))])


def test_one_tolerance_locates_only_where_the_oracle_accepts(two_param):
    """Where the root's largest violation is 5e-8, above ORACLE_TOL, the
    oracle rejects its set, so theta lies in no discovered region and the
    violation names a transition."""
    model, theta = root_at_violation(two_param, 5e-8)
    assert not root_accepted(two_param, theta)
    assert locate_region(model, theta) is None
    assert identify_transition(two_param, model, model.regions[0], theta) == Transition("add", 1)


def test_one_tolerance_gives_no_transition_where_the_oracle_accepts(two_param):
    """Where the root's largest violation is 5e-9, below ORACLE_TOL, the
    oracle accepts its set, so theta lies in the root and no transition
    is needed."""
    model, theta = root_at_violation(two_param, 5e-9)
    assert root_accepted(two_param, theta)
    assert locate_region(model, theta) == model.regions[0]
    with pytest.raises(UnresolvableTransition):
        identify_transition(two_param, model, model.regions[0], theta)


def empty_set_verdicts(problem, Theta):
    """Per row of Theta: whether the one-region model of the empty set
    locates it, whether the feasibility kernel accepts the empty set, and
    whether the enumeration does."""
    model = init_model(problem, ActiveSet(), ParameterPoint.zeros(problem))
    assert problem.nonsingular_sets[0] == ()
    located = (locate_array(model, Theta) == 0).tolist()
    kernel = problem.feasibility_kernel.accepts(problem, Theta)[:, 0].tolist()
    enumeration = [any(not B for _, _, B, _ in
                       _accepted(problem, ParameterPoint.from_stacked(problem, theta)))
                   for theta in Theta]
    return list(zip(located, kernel, enumeration))


def test_one_number_where_the_two_forms_rounded_apart():
    """With b_C = (0, -3), x = 0 at theta_C = (t, 0): the empty set's
    violation is t / 3, 1.0000000000000002e-08 here, which rejects it,
    while t <= ORACLE_TOL * 3 holds.  locate, the kernel and the
    enumeration all compare the violation, so all three reject it."""
    problem = MpQpProblem(Q=np.eye(2), C=np.zeros(2), C0=0.0, A_e=np.ones((1, 2)),
                          b_e=np.zeros(1), A_C=np.eye(2), b_C=np.array([0.0, -3.0]))
    t = float.fromhex("0x1.01b2b29a4692cp-25")
    assert t / 3.0 > cfqp.oracle.ORACLE_TOL and t <= cfqp.oracle.ORACLE_TOL * 3.0
    Theta = np.array([[0.0, 0.0, 0.0, t, 0.0]])
    model = init_model(problem, ActiveSet(), ParameterPoint.zeros(problem))
    assert region_residuals(model, Theta)[0].max() == 1.0000000000000002e-08
    assert empty_set_verdicts(problem, Theta) == [(False,) * 3]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    q_vals=st.lists(st.floats(min_value=0.5, max_value=8.0), min_size=4, max_size=4),
    c_vals=st.lists(finite, min_size=4, max_size=4),
    bounds=st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=8, max_size=8),
    i=st.integers(min_value=0, max_value=7),
)
# the scale 3 of test_one_number_where_the_two_forms_rounded_apart
@example(n=2, q_vals=[1.0] * 4, c_vals=[0.0] * 4, bounds=[0.0, 3.0] + [0.0] * 6, i=0)
def test_one_number_across_a_primal_boundary(n, q_vals, c_vals, bounds, i):
    """On a box QP with bound 0, theta_c = -C and theta_e = 0 put the base
    solution at x = 0 exactly, and theta_C = -bounds makes the box
    x_j <= bounds[j], x_j >= -bounds[n + j] around it, so constraint i's
    residual is theta_C[i] itself and the data scale the largest other
    bound (at least 1).  Stepping theta_C[i] by adjacent floats across the empty
    set's boundary, ORACLE_TOL times that scale, reaches every residual
    there: at each step the empty set's one-region model locates theta
    exactly where the kernel and the enumeration accept the empty set."""
    problem = box_qp(n, q_vals, c_vals, bound=0.0)
    i %= problem.m2
    theta_C = -np.asarray(bounds[:problem.m2])
    theta_C[i] = 0.0
    steps = [cfqp.oracle.ORACLE_TOL * max(1.0, -theta_C.min())]
    for _ in range(20):
        steps = [np.nextafter(steps[0], -np.inf), *steps, np.nextafter(steps[-1], np.inf)]
    Theta = np.repeat(np.concatenate([-problem.C, [0.0], theta_C])[None], len(steps), 0)
    Theta[:, problem.n + problem.m1 + i] = steps
    verdicts = empty_set_verdicts(problem, Theta)
    assert all(located == kernel == enumeration for located, kernel, enumeration in verdicts)
    assert verdicts[0] == (True,) * 3 and verdicts[-1] == (False,) * 3


def test_locate_array_exact_tie_goes_to_first_region(model_2d, box_model):
    """With a copy of any region appended, which ties the original at
    every theta, no witness locates in the copy."""
    for model in (model_2d, box_model):
        witnesses = [region.witness_theta for region in model.regions]
        Theta = np.array([theta.stacked() for theta in witnesses])
        for region in model.regions:
            twinned = with_twin(model, region)
            rows = locate_array(twinned, Theta)
            assert rows.tolist() == reference_rows(twinned, witnesses)
            assert rows.tolist() == locate_array(model, Theta).tolist()


def alone(model, region):
    """A one-region model holding only ``region``, to test it by itself."""
    root = RegionEntry(id=0, active_set=region.active_set, parent_id=None,
                       witness_theta=region.witness_theta)
    return dataclasses.replace(model, regions=(root,), direction=(1,),
                               W0=model.W0[region.id][None])


def test_region_boundaries_differ_from_reference_only_in_rounding_ties(box_model):
    """Within a few ulps of the boundary where a region's constraint became
    active, the two regions on either side both contain theta to rounding.
    The batched test sums its products in another order than the reference
    loop, so there the two may pick different regions, but only regions
    that the reference itself finds to contain theta to 1e-12."""
    problem = box_model.problem
    _, pattern = box_pattern(problem)
    checked = 0
    for direction in pattern.directions:
        start, step = direction.start.stacked(), direction.step.stacked()

        def at(t):
            return ParameterPoint.from_stacked(problem, start + t * step)

        for region in box_model.regions[1:]:
            parent = box_model.regions[region.parent_id]
            (added,) = set(region.active_set) - set(parent.active_set)
            # the parent's normalized residual of the added constraint is
            # affine along the sweep; its root is the boundary
            r0, r1 = (region_residuals(box_model, at(t).stacked()[None])[0][0, parent.id, added - 1]
                      for t in (0.0, 1.0))
            if r1 == r0 or not 0.0 < -r0 / (r1 - r0) < direction.max_steps:
                continue
            boundary = -r0 / (r1 - r0)
            for ulps in range(-20, 21):
                theta = at(boundary * (1.0 + ulps * 1e-15))
                got = locate_region(box_model, theta)
                want = reference_locate_region(box_model, theta)
                assert got is not None and want is not None
                if got.id != want.id:
                    for pick in (got, want):
                        assert reference_locate_region(alone(box_model, pick), theta, 1e-12)
                checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# The block reader against the whole-file line loop


#: A dataset problem with m1 = 1 and d = 7, so rows are short.
DATASET_PROBLEM = box_qp(2, [1.0, 2.0], [0.5, -0.5], 6.0)

number = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(min_value=-1e3, max_value=1e3).map(repr),
    st.integers(-10**6, 10**6).map(str),
)
# cells float() reads, most of which np.loadtxt rejects; '\f' and
# '\u2028' end a line for str.splitlines but not for the file iterator
quirky_cell = st.one_of(
    number.map(lambda t: f'"{t}"'),
    number.map(lambda t: f" {t}\t"),
    number.map(lambda t: f"\u2003{t}"),
    number.map(lambda t: f"{t}\f"),
    number.map(lambda t: f"\u2028{t}"),
    st.sampled_from(["1_0", "-2_5.5", "\u0661"]),
)
# cells both parse, to a non-finite float
non_finite_cell = st.sampled_from(["nan", "-inf", "1e999", "Infinity"])
# cells that make a row bad for both, or change its width; np.loadtxt
# reads '4\x1c' as 4, float() rejects it
bad_cell = st.sampled_from(["", " ", '""', "x", "4 # tail", "0x10",
                           "\f", "1\u20282", "4\x1c"])


@st.composite
def csv_text(draw):
    """CSV text: an optional header, '#' comments, blank and whitespace
    lines, rows of m1 or d cells, CRLF or LF ends, and, by mode, cells the
    fast parser rejects but the line loop reads, non-finite cells, or bad
    cells and widths."""
    m1, d = DATASET_PROBLEM.m1, DATASET_PROBLEM.d
    mode = draw(st.sampled_from(["plain", "quirky", "non-finite", "bad"]))
    cell = {"plain": number, "quirky": st.one_of(number, quirky_cell),
            "non-finite": st.one_of(number, number, non_finite_cell),
            "bad": st.one_of(number, quirky_cell, non_finite_cell, bad_cell)}[mode]
    header = draw(st.sampled_from(["", "", "theta\n", "theta_e1\n", "# note\n\ntheta_e1,x,feasible\n"]))
    if "feasible" in header:
        row = st.tuples(cell, st.just("x"), st.sampled_from(["0", "1", "", "2.5"])).map(",".join)
    else:
        widths = [m1, d, 3] if mode == "bad" else [m1, d]
        row = st.sampled_from(widths).flatmap(lambda w: st.lists(cell, min_size=w, max_size=w))
        row = row.map(",".join)
    line = st.one_of(row, row, st.sampled_from(["", " ", "\t", "# comment", "  # indented, 1,2"]))
    lines = draw(st.lists(st.tuples(line, st.sampled_from(["\n", "\r\n"])), max_size=25))
    text = header + "".join(a + b for a, b in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no newline at the end
    return text


@st.composite
def jsonl_text(draw):
    """JSON-lines records after leading blank lines, with a bad record at
    times; a truncated one's error names the column past its end."""
    m1 = DATASET_PROBLEM.m1
    record = st.one_of(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=m1, max_size=m1)
        .map(lambda v: json.dumps({"theta_e": v})),
        st.booleans().map(lambda f: json.dumps({"theta_e": [1.0] * m1, "feasible": f})),
        st.sampled_from(["", "  ", '{"theta_e": [1, 2, 3]}', "[1]", "{bad", '{"theta_e": [1']),
    )
    lead = draw(st.sampled_from(["", "\n", " \n\n"]))
    return lead + "\n".join(draw(st.lists(record, min_size=1, max_size=15))) + "\n"


def read_in_blocks(path, block_chars):
    with mock.patch.object(cfqp.cli, "_BLOCK_CHARS", block_chars):
        blocks = list(_read_dataset(DATASET_PROBLEM, str(path)))
    return np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(csv_text(), jsonl_text()), data=st.data())
def test_block_reader_matches_line_loop(tmp_path_factory, text, data):
    """For any block size, the block reader gives the line loop's arrays
    and flags bit for bit, or the same usage error (file:line included).
    Block boundaries fall anywhere from the first character to past the
    end of the file."""
    path = tmp_path_factory.getbasetemp() / "dataset.csv"
    path.write_text(text, newline="")
    block_chars = data.draw(st.integers(min_value=1, max_value=len(text) + 2), "block_chars")
    try:
        want = reference_read_dataset(DATASET_PROBLEM, str(path))
    except CliError as exc:
        with pytest.raises(CliError) as got:
            read_in_blocks(path, block_chars)
        assert str(got.value) == str(exc)
        return
    rows, flags = read_in_blocks(path, block_chars)
    assert rows.dtype == np.float64 and rows.shape == want[0].shape
    assert rows.tobytes() == want[0].tobytes()
    assert np.array_equal(flags, want[1])
