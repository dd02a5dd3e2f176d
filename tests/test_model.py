import gc
import inspect
import weakref

import numpy as np
import pytest

import cfqp
from cfqp.cases import two_parameter_problem, two_parameter_theta0
from cfqp.core import JacobianFactors, lagrangian_gradients, objective_value, solve_active_set
from cfqp.discovery import (
    SearchPattern,
    discover,
    feasible_extent,
    feasible_extents,
    identify_transition,
)
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
    region_residuals,
    serialize,
)
from cfqp.oracle import brute_force_solve, feasible_array, is_feasible, kkt_report, solve
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

    @pytest.mark.parametrize("t1", [690.0, 650.0, 500.0, 300.0])
    def test_forward_exact_after_drop(self, two_param, t1):
        """After the single drop [1,3,4,5] -> [1,3,4], forward is exact
        throughout the new region: its KKT scalar and its gap to the
        oracle are within criterion 4's bound.  The root's block is not
        clipped, so the drop block telescopes it to the new region's
        multipliers wherever the drop block is on."""
        def at(t1):
            return ParameterPoint.of_theta_e(two_param, [t1, 100.0])

        root = init_model(two_param, ActiveSet([1, 3, 4, 5]), at(700.0))
        model = expand(root, 0, ActiveSet([1, 3, 4]), at(540.0))
        theta = at(t1)
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


def _root_solution(model):
    return forward(model, model.regions[0].witness_theta)


def _axis(model):
    return ParameterPoint.of_theta_e(model.problem, np.eye(model.problem.m1)[0])


class TestThetaGuard:
    """Every function's theta goes through ParameterPoint.check_dims, or
    for an array MpQpProblem.theta_rows, which reject what the oracles
    reject."""

    KERNELS = {
        "forward": lambda model, theta: forward(model, theta),
        "forward_array": lambda model, theta: forward_array(model, theta.stacked()[None]),
        "batch_forward": lambda model, theta: batch_forward(model, [theta]),
        "locate_array": lambda model, theta: locate_array(model, theta.stacked()[None]),
        "locate_region": lambda model, theta: locate_region(model, theta),
        "region_residuals": lambda model, theta: region_residuals(model, theta.stacked()[None]),
        "init_model": lambda model, theta: init_model(model.problem, ActiveSet(), theta),
        "expand": lambda model, theta: expand(model, 0, ActiveSet([1]), theta),
        "solve_active_set": lambda model, theta: solve_active_set(
            model.problem, ActiveSet(), theta),
        "lagrangian_gradients": lambda model, theta: lagrangian_gradients(
            model.problem, _root_solution(model), theta),
        "objective_value": lambda model, theta: objective_value(
            model.problem, np.zeros(model.problem.n), theta),
        "kkt_report": lambda model, theta: kkt_report(model.problem, _root_solution(model), theta),
        "is_feasible": lambda model, theta: is_feasible(model.problem, theta),
        "solve": lambda model, theta: solve(model.problem, theta),
        "brute_force_solve": lambda model, theta: brute_force_solve(model.problem, theta),
        "identify_transition": lambda model, theta: identify_transition(
            model.problem, model, model.regions[0], theta),
        "feasible_extent": lambda model, theta: feasible_extent(
            model.problem, theta, _axis(model)),
        "feasible_extents": lambda model, theta: feasible_extents(
            model.problem, theta, [_axis(model)]),
        "discover": lambda model, theta: discover(model.problem, theta, SearchPattern([])),
    }

    #: They take a ParameterPoint but no problem to check it against.
    UNGUARDED = {"axis_sweep_pattern", "scaled_base_pattern"}

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("part", ["theta_c", "theta_e", "theta_C"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta_rejected(self, model_2d, theta0_2d, kernel, part, value):
        parts = {name: getattr(theta0_2d, name).copy()
                 for name in ("theta_c", "theta_e", "theta_C")}
        parts[part][0] = value
        with pytest.raises(ProblemFormatError, match="non-finite"):
            self.KERNELS[kernel](model_2d, ParameterPoint(**parts))

    def test_every_single_theta_entry_is_listed(self):
        """Every public function of core, oracle, model and discovery with
        a ParameterPoint parameter is in KERNELS, so a new single-theta
        entry cannot skip the guard; the exceptions still are such
        functions."""
        takes_point = set()
        for module in (cfqp.core, cfqp.oracle, cfqp.model, cfqp.discovery):
            for name, f in vars(module).items():
                if (inspect.isfunction(f) and f.__module__ == module.__name__
                        and not name.startswith("_")
                        and any("ParameterPoint" in str(p.annotation)
                                for p in inspect.signature(f).parameters.values())):
                    takes_point.add(name)
        assert takes_point - self.UNGUARDED - set(self.KERNELS) == set()
        assert self.UNGUARDED <= takes_point

    def test_wrong_split_rejected(self, model_2d, theta0_2d):
        """A point of the right total length whose theta_c/theta_e/theta_C
        split is wrong is refused, not read as a stacked theta or stored
        as a witness."""
        stacked = theta0_2d.stacked()
        n = model_2d.problem.n
        theta = ParameterPoint(stacked[:n - 1], stacked[n - 1:n + 2], stacked[n + 2:])
        assert len(theta.stacked()) == model_2d.problem.d
        with pytest.raises(ProblemFormatError, match="dimensions"):
            locate_region(model_2d, theta)
        with pytest.raises(ProblemFormatError, match="dimensions"):
            expand(model_2d, 0, ActiveSet([1]), theta)


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

    def test_forward_exact_where_located(self, model_2d, two_param):
        """Off the sweep axes too: of the feasible points among 3,000
        uniform samples of [-500, 1300] x [-444, 1188], every one that
        locate_array places in a region gets a forward KKT scalar of at
        most 1e-8 and, where the oracle's answer is not degenerate, the
        oracle's active set and criterion 4's gap to it.  A clip of the
        root block made forward wrong at 362 of these 748 points."""
        p = two_param
        rng = np.random.default_rng(0)
        Theta = np.zeros((3000, p.d))
        Theta[:, p.n] = rng.uniform(-500.0, 1300.0, 3000)
        Theta[:, p.n + 1] = rng.uniform(-444.0, 1188.0, 3000)
        Theta = Theta[feasible_array(p, Theta)]
        rows = locate_array(model_2d, Theta)
        located = rows >= 0
        assert len(Theta) == 1836 and np.count_nonzero(located) == 748
        for row, stacked in zip(rows[located].tolist(), Theta[located]):
            theta = ParameterPoint.from_stacked(p, stacked)
            got = forward(model_2d, theta)
            assert kkt_report(p, got, theta).scalar <= 1e-8
            want = brute_force_solve(p, theta)
            if want.degenerate:
                continue
            assert want.active_set == model_2d.regions[row].active_set
            for a, b in ((got.x, want.solution.x), (got.lam, want.solution.lam),
                         (got.mu, want.solution.mu)):
                assert np.abs(a - b).max() <= 1e-8 * max(1.0, np.abs(b).max())

    def test_none_outside_discovered_regions(self, two_param, theta0_2d):
        model = init_model(two_param, ActiveSet([3, 4]), theta0_2d)
        far = ParameterPoint.of_theta_e(two_param, [850.0, 100.0])
        assert locate_region(model, far) is None

    def test_cached_residual_constants_leave_no_cycle(self):
        """region_residuals' constants, the model's region_kernel, are
        cached on the model and hold arrays only, so a model that went
        through locate_array is freed by its reference count alone once
        dropped."""
        problem, theta0 = two_parameter_problem(), two_parameter_theta0()
        gc.collect()
        gc.disable()
        try:
            model = init_model(problem, ActiveSet([3, 4]), theta0)
            assert locate_array(model, theta0.stacked()[None]).tolist() == [0]
            kernel = vars(model)["region_kernel"]
            assert all(type(getattr(kernel, name)) is np.ndarray for name in kernel.__slots__)
            ref = weakref.ref(model)
            del model, kernel
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
