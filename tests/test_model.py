import gc
import weakref

import numpy as np
import pytest

from cfqp.cases import two_parameter_problem, two_parameter_theta0
from cfqp.core import JacobianFactors, solve_active_set
from cfqp.errors import DuplicateRegion, ProblemFormatError
from cfqp.model import (
    batch_forward,
    cast,
    deserialize,
    expand,
    forward,
    forward_array,
    init_model,
    locate_array,
    locate_region,
    serialize,
)
from cfqp.oracle import brute_force_solve, is_feasible, kkt_report
from cfqp.problem import ActiveSet, MpQpProblem, ParameterPoint

from conftest import reference_dense_forward


class TestInitAndForward:
    def test_root_model_matches_active_set_solver(self, two_param, theta0_2d):
        model = init_model(two_param, ActiveSet([3, 4]), theta0_2d)
        assert model.k == 1
        for te in ([100.0, 100.0], [150.0, 130.0], [200.0, 110.0]):
            theta = ParameterPoint.of_theta_e(two_param, te)
            ref = solve_active_set(two_param, ActiveSet([3, 4]), theta)
            got = forward(model, theta)
            assert np.allclose(got.x, ref.x, atol=1e-9)
            assert np.allclose(got.lam, ref.lam, atol=1e-6)
            assert np.allclose(got.mu, ref.mu, atol=1e-6)
            assert got.objective == pytest.approx(ref.objective, rel=1e-12)

    def test_forward_mu_nonnegative_in_region(self, model_2d):
        problem = model_2d.problem
        rng = np.random.default_rng(3)
        for _ in range(50):
            axis = int(rng.integers(2))
            theta_e = [100.0, 100.0]
            theta_e[axis] += float(rng.uniform(0.0, 800.0))
            theta = ParameterPoint.of_theta_e(problem, theta_e)
            assert forward(model_2d, theta).mu.min() >= -1e-9

    def test_digest_binding(self, model_2d, two_param):
        assert model_2d.problem_digest == two_param.digest()


def test_base_matrix_is_factored_once_per_problem(monkeypatch):
    """The problem factors [[2Q, -A_e^T], [-A_e, 0]] when it is built;
    the model's layers, the feasibility kernel and a reloaded model all
    read that one inverse, the empty root set's slopes included."""
    sizes = []
    init = JacobianFactors.__init__

    def counting(self, matrix):
        sizes.append(len(matrix))
        init(self, matrix)

    monkeypatch.setattr(JacobianFactors, "__init__", counting)
    problem = MpQpProblem(
        Q=np.eye(3), C=np.zeros(3), C0=0.0, A_e=np.ones((1, 3)), b_e=np.zeros(1),
        A_C=np.eye(3), b_C=np.full(3, -1.0),
    )
    theta = ParameterPoint.zeros(problem)
    model = init_model(problem, ActiveSet(), theta)
    forward_array(model, theta.stacked()[None])
    assert is_feasible(problem, theta)
    forward_array(deserialize(serialize(model), problem), theta.stacked()[None])
    assert sizes.count(problem.n + problem.m1) == 1


class TestExpansionStructure:
    def test_discovered_2d_tree(self, model_2d):
        assert [sorted(r.active_set) for r in model_2d.regions] == [
            [3, 4],
            [1, 3, 4],
            [1, 3, 4, 5],
            [1, 3, 4, 6],
        ]
        assert [r.parent_id for r in model_2d.regions] == [None, 0, 1, 1]
        assert model_2d.direction == (1, 1, 1, 1)
        assert np.array_equal(
            model_2d.incidence_matrix(),
            [[1, -1, 0, 0], [0, 1, -1, -1], [0, 0, 1, 0], [0, 0, 0, 1]],
        )

    def test_four_block_expansion_matches_network(self, model_2d, two_param):
        """mu* really is the signed sum of ReLU blocks."""
        theta = ParameterPoint.of_theta_e(two_param, [400.0, 100.0])
        z = -two_param.stacked_coefficients() - theta.stacked()
        h1 = model_2d.W0 @ z
        rows = {r.id: i for i, r in enumerate(model_2d.regions)}
        expected = np.maximum(h1[0], 0.0)
        for j in (1, 2, 3):
            parent = rows[model_2d.regions[j].parent_id]
            v = model_2d.direction[j]
            expected = expected + v * np.maximum(v * (h1[j] - h1[parent]), 0.0)
        assert np.allclose(forward(model_2d, theta).mu, expected)

    def test_duplicate_region_rejected(self, two_param, theta0_2d):
        model = init_model(two_param, ActiveSet([3, 4]), theta0_2d)
        with pytest.raises(DuplicateRegion):
            expand(model, 0, ActiveSet([3, 4]), theta0_2d)

    def test_expand_is_persistent(self, two_param, theta0_2d):
        base = init_model(two_param, ActiveSet([3, 4]), theta0_2d)
        probe = ParameterPoint.of_theta_e(two_param, [400.0, 100.0])
        grown = expand(base, 0, ActiveSet([1, 3, 4]), probe)
        assert base.k == 1 and grown.k == 2
        assert grown.regions[1].parent_id == 0
        assert grown.regions[1].witness_theta is probe

    def test_direction_sign_follows_slope_difference(self, two_param, theta0_2d):
        """The new block's sign is the sign of the largest-magnitude
        entry of (W0_new - W0_parent) z at the probe."""
        from cfqp.core import region_slopes

        base = init_model(two_param, ActiveSet([3, 4]), theta0_2d)
        for new_set, te in ((ActiveSet([1, 3, 4]), [400.0, 100.0]),
                            (ActiveSet([3, 4, 5]), [500.0, 100.0])):
            probe = ParameterPoint.of_theta_e(two_param, te)
            z = -two_param.stacked_coefficients() - probe.stacked()
            delta = (region_slopes(two_param, new_set) - base.W0[0]) @ z
            want = 1 if delta[int(np.argmax(np.abs(delta)))] >= 0 else -1
            grown = expand(base, 0, new_set, probe)
            assert grown.direction[-1] == want

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: after a drop transition the root block's ReLU "
        "and the drop block both release the dropped multiplier, so forward "
        "is not exact (KKT scalar ~1e12 at theta1 = 650)",
    )
    def test_forward_exact_after_drop(self, two_param):
        """After the single drop [1,3,4,5] -> [1,3,4], forward is exact
        inside the new region: its KKT scalar and its gap to the oracle
        are within criterion 4's bound."""
        def at(t1):
            return ParameterPoint.of_theta_e(two_param, [t1, 100.0])

        root = init_model(two_param, ActiveSet([1, 3, 4, 5]), at(700.0))
        model = expand(root, 0, ActiveSet([1, 3, 4]), at(540.0))
        theta = at(650.0)
        got = forward(model, theta)
        want = brute_force_solve(two_param, theta)
        assert sorted(want.active_set) == [1, 3, 4]
        assert kkt_report(two_param, got, theta).scalar <= 1e-8
        for a, b in ((got.x, want.solution.x), (got.lam, want.solution.lam),
                     (got.mu, want.solution.mu)):
            assert np.abs(a - b).max() <= 1e-8 * max(1.0, np.abs(b).max())


class TestBatchForward:
    def test_empty_and_singleton(self, model_2d, theta0_2d):
        assert batch_forward(model_2d, []) == []
        single = batch_forward(model_2d, [theta0_2d])
        assert len(single) == 1
        ref = forward(model_2d, theta0_2d)
        assert np.array_equal(single[0].x, ref.x)

    @pytest.mark.parametrize("precision", [64, 32])
    def test_bitwise_matches_sequential_forward(self, model_2d, precision):
        problem = model_2d.problem
        model = cast(model_2d, precision)
        rng = np.random.default_rng(11)
        thetas = []
        for _ in range(200):
            axis = int(rng.integers(2))
            te = [100.0, 100.0]
            te[axis] += float(rng.uniform(0.0, 800.0))
            thetas.append(ParameterPoint.of_theta_e(problem, te))
        batch = batch_forward(model, thetas)
        for theta, got in zip(thetas, batch):
            ref = forward(model, theta)
            assert np.array_equal(got.x, ref.x)
            assert np.array_equal(got.lam, ref.lam)
            assert np.array_equal(got.mu, ref.mu)
            assert got.objective == ref.objective


class TestForwardArray:
    @staticmethod
    def thetas(problem, count, seed):
        """Stacked thetas on the discovery sweeps, with small offsets in
        every column so that theta_c and theta_C enter too."""
        rng = np.random.default_rng(seed)
        out = rng.uniform(-1.0, 1.0, (count, problem.d))
        axis = rng.integers(2, size=count)
        out[:, problem.n:problem.n + 2] = 100.0
        out[np.arange(count), problem.n + axis] += rng.uniform(0.0, 800.0, count)
        return out

    @pytest.mark.parametrize("precision", [64, 32])
    def test_rows_equal_forward_bitwise(self, model_2d, precision):
        problem = model_2d.problem
        model = cast(model_2d, precision)
        chunk = model.chunk_rows
        assert 1 < chunk < 1000
        for count in (1, chunk, chunk + 1, 3 * chunk + 5):
            Theta = self.thetas(problem, count, seed=count)
            X, Lam, Mu, objective = forward_array(model, Theta)
            assert X.shape == (count, problem.n) and X.dtype == model.dtype
            assert objective.shape == (count,)
            for i, row in enumerate(Theta):
                ref = forward(model, ParameterPoint.from_stacked(problem, row))
                assert np.array_equal(X[i], ref.x)
                assert np.array_equal(Lam[i], ref.lam)
                assert np.array_equal(Mu[i], ref.mu)
                assert objective[i] == ref.objective

    def test_empty_input_gives_empty_arrays(self, model_2d):
        p = model_2d.problem
        X, Lam, Mu, objective = forward_array(model_2d, np.empty((0, p.d)))
        assert X.shape == (0, p.n) and Lam.shape == (0, p.m1)
        assert Mu.shape == (0, p.m2) and objective.shape == (0,)
        assert locate_array(model_2d, np.empty((0, p.d))).shape == (0,)

    def test_wrong_width_rejected(self, model_2d):
        for kernel in (forward_array, locate_array):
            with pytest.raises(ProblemFormatError):
                kernel(model_2d, np.zeros((3, model_2d.problem.d - 1)))


class TestSparseFirstLayer:
    """forward_array multiplies only W0's nonzero rows; it must stay
    bitwise the dense first layer kept in conftest."""

    @staticmethod
    def thetas(problem, count, seed):
        """Random stacked thetas, the last one at z = -B - theta = -1 in
        every entry, where every product of a dense all-zero row is -0.0
        (a sum that starts from its first term gives -0.0)."""
        rng = np.random.default_rng(seed)
        out = rng.uniform(-1.0, 1.0, (count, problem.d))
        out[:, problem.n:problem.n + problem.m1] *= 400.0
        out[-1] = 1.0 - problem.stacked_coefficients()
        return out

    @pytest.mark.parametrize("precision", [64, 32])
    @pytest.mark.parametrize("fixture", ["model_2d", "box_model"])
    def test_matches_dense_layer_bitwise(self, request, fixture, precision):
        model = cast(request.getfixturevalue(fixture), precision)
        problem = model.problem
        assert np.count_nonzero(model.W0.any(-1)) < model.W0.shape[0] * problem.m2
        for count in (1, model.chunk_rows, model.chunk_rows + 1):
            Theta = self.thetas(problem, count, seed=count)
            for got, want in zip(forward_array(model, Theta),
                                 reference_dense_forward(model, Theta)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


class TestCast:
    def test_cast_changes_dtype_only(self, model_2d, theta0_2d):
        m32 = cast(model_2d, 32)
        assert m32.precision == 32
        got = forward(m32, theta0_2d)
        assert got.x.dtype == got.lam.dtype == got.mu.dtype == np.float32
        assert m32.direction == model_2d.direction
        assert [r.active_set for r in m32.regions] == [
            r.active_set for r in model_2d.regions
        ]
        assert cast(model_2d, 64) is model_2d

    def test_cast_stays_accurate_at_32_bits(self, model_2d, theta0_2d):
        got = forward(cast(model_2d, 32), theta0_2d)
        ref = forward(model_2d, theta0_2d)
        assert np.allclose(got.x, ref.x, rtol=1e-4)

    @staticmethod
    def rebuild(model, precision):
        """model's region tree grown again with init_model and expand."""
        root = model.regions[0]
        out = init_model(model.problem, root.active_set, root.witness_theta, precision)
        for r in model.regions[1:]:
            out = expand(out, r.parent_id, r.active_set, r.witness_theta)
        return out

    @staticmethod
    def assert_forward_equal(a, b):
        Theta = TestForwardArray.thetas(a.problem, 50, seed=8)
        for got, want in zip(forward_array(a, Theta), forward_array(b, Theta)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_32_bit_build_equals_cast_of_64_bit_build(self, model_2d):
        m32 = self.rebuild(model_2d, 32)
        assert m32.direction == model_2d.direction
        self.assert_forward_equal(m32, cast(self.rebuild(model_2d, 64), 32))

    def test_cast_round_trip_is_lossless(self, model_2d):
        self.assert_forward_equal(cast(cast(model_2d, 32), 64), model_2d)


class TestLocateRegion:
    def test_witnesses_locate_in_their_region(self, model_2d):
        for region in model_2d.regions:
            found = locate_region(model_2d, region.witness_theta)
            assert found is not None
            assert found.active_set == region.active_set

    def test_oracle_agreement_along_sweeps(self, model_2d, two_param):
        rng = np.random.default_rng(5)
        for _ in range(25):
            axis = int(rng.integers(2))
            te = [100.0, 100.0]
            te[axis] += float(rng.uniform(0.0, 790.0))
            theta = ParameterPoint.of_theta_e(two_param, te)
            region = locate_region(model_2d, theta)
            result = brute_force_solve(two_param, theta)
            if result.degenerate or region is None:
                continue
            assert region.active_set == result.active_set

    def test_none_outside_discovered_regions(self, two_param, theta0_2d):
        model = init_model(two_param, ActiveSet([3, 4]), theta0_2d)
        far = ParameterPoint.of_theta_e(two_param, [850.0, 100.0])
        assert locate_region(model, far) is None

    def test_cached_residual_constants_leave_no_cycle(self):
        """region_residuals' constants are cached on the model and hold
        arrays only, so a model that went through locate_array is freed
        by its reference count alone once dropped."""
        problem, theta0 = two_parameter_problem(), two_parameter_theta0()
        gc.collect()
        gc.disable()
        try:
            model = init_model(problem, ActiveSet([3, 4]), theta0)
            assert locate_array(model, theta0.stacked()[None]).tolist() == [0]
            constants = vars(model)["_residual_layers"]
            assert all(type(part) is np.ndarray for part in constants)
            ref = weakref.ref(model)
            del model, constants
            assert ref() is None
        finally:
            gc.enable()


def test_network_is_exact_on_sweeps(model_2d, two_param):
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        axis = int(rng.integers(2))
        te = [100.0, 100.0]
        te[axis] += float(rng.uniform(0.0, 800.0))
        theta = ParameterPoint.of_theta_e(two_param, te)
        rep = kkt_report(two_param, forward(model_2d, theta), theta)
        worst = max(worst, rep.scalar)
    assert worst < 1e-12
