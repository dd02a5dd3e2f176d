"""Property-based invariants (hypothesis) for the solver stack."""

import numpy as np
from hypothesis import given, settings, strategies as st

from cfqp.core import solve_active_set
from cfqp.model import forward, forward_mu, cast, locate_region
from cfqp.oracle import brute_force_solve, kkt_report
from cfqp.problem import ActiveSet, MpQpProblem, ParameterPoint

from conftest import region_grad_x


def box_qp(n, q_vals, c_vals, bound):
    return MpQpProblem(
        Q=np.diag(q_vals[:n]),
        C=np.asarray(c_vals[:n]),
        C0=0.0,
        A_e=np.ones((1, n)),
        b_e=np.zeros(1),
        A_C=np.vstack([-np.eye(n), np.eye(n)]),
        b_C=np.concatenate([np.full(n, -bound), np.full(n, -bound)]),
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
    assert forward_mu(model_2d, theta).min() >= -1e-9


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
