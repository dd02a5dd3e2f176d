import json

import numpy as np
import pytest

from cfqp.errors import ProblemFormatError
from cfqp.problem import (
    ActiveSet,
    MpQpProblem,
    ParameterPoint,
    PrimalDualSolution,
    resolve_dtype,
)


def tiny_problem(**overrides):
    kwargs = dict(
        Q=np.eye(2),
        C=np.zeros(2),
        C0=0.0,
        A_e=np.array([[1.0, 1.0]]),
        b_e=np.zeros(1),
        A_C=np.array([[-1.0, 0.0], [0.0, -1.0]]),
        b_C=np.array([-5.0, -5.0]),
    )
    kwargs.update(overrides)
    return MpQpProblem(**kwargs)


class TestValidation:
    def test_dimensions(self):
        p = tiny_problem()
        assert (p.n, p.m1, p.m2, p.d) == (2, 1, 2, 5)

    def test_asymmetric_q_rejected(self):
        with pytest.raises(ProblemFormatError):
            tiny_problem(Q=np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_indefinite_q_rejected(self):
        with pytest.raises(ProblemFormatError):
            tiny_problem(Q=np.diag([1.0, -1.0]))

    def test_psd_q_accepted(self):
        tiny_problem(Q=np.diag([1.0, 0.0]))

    def test_singular_base_kkt_rejected(self):
        """min x1^2 + x2 s.t. x2 >= 0 has the optimum (0, 0), but its base
        KKT matrix diag(2, 0) is singular: Q is only semidefinite on
        null(A_e) = R^2.  The enumeration would prune every superset of
        the singular empty set and call each theta infeasible."""
        with pytest.raises(ProblemFormatError, match="base KKT matrix .* is singular"):
            MpQpProblem(
                Q=np.diag([1.0, 0.0]), C=np.array([0.0, 1.0]), C0=0.0,
                A_e=np.zeros((0, 2)), b_e=np.zeros(0),
                A_C=np.array([[0.0, 1.0]]), b_C=np.zeros(1),
            )

    def test_rank_deficient_equalities_rejected(self):
        with pytest.raises(ProblemFormatError):
            tiny_problem(
                A_e=np.array([[1.0, 1.0], [2.0, 2.0]]), b_e=np.zeros(2)
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ProblemFormatError):
            tiny_problem(C=np.zeros(3))
        with pytest.raises(ProblemFormatError):
            tiny_problem(b_C=np.zeros(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["Q", "C", "C0", "A_e", "b_e", "A_C", "b_C"])
    def test_non_finite_coefficients_rejected(self, field, value):
        coefficients = np.array(getattr(tiny_problem(), field))
        coefficients.flat[0] = value
        with pytest.raises(ProblemFormatError, match=f"^{field} has non-finite entries"):
            tiny_problem(**{field: coefficients})

    def test_matrices_frozen(self):
        p = tiny_problem()
        with pytest.raises(ValueError):
            p.Q[0, 0] = 2.0

    def test_variable_groups_validated(self):
        p = tiny_problem(variable_groups={"a": [0], "b": [1]})
        assert p.variable_groups == {"a": (0,), "b": (1,)}
        with pytest.raises(ProblemFormatError):
            tiny_problem(variable_groups={"a": [0, 2]})
        with pytest.raises(ProblemFormatError):
            tiny_problem(variable_groups={"a": [0], "b": [0]})
        with pytest.raises(ProblemFormatError, match="'b' is empty"):
            tiny_problem(variable_groups={"a": [0], "b": []})

    def test_stacked_coefficients_layout(self):
        p = tiny_problem(C=np.array([1.0, 2.0]), b_e=np.array([3.0]))
        assert np.array_equal(
            p.stacked_coefficients(), [1.0, 2.0, 3.0, -5.0, -5.0]
        )


class TestSerialization:
    def test_json_round_trip(self, two_param):
        clone = MpQpProblem.from_json(two_param.to_json())
        assert clone.digest() == two_param.digest()
        assert np.array_equal(clone.Q, two_param.Q)
        assert np.array_equal(clone.A_C, two_param.A_C)

    def test_missing_field_rejected(self, two_param):
        data = json.loads(two_param.to_json())
        del data["A_C"]
        with pytest.raises(ProblemFormatError):
            MpQpProblem.from_dict(data)

    def test_declared_dimension_mismatch_rejected(self, two_param):
        data = json.loads(two_param.to_json())
        data["n"] = 7
        with pytest.raises(ProblemFormatError):
            MpQpProblem.from_dict(data)

    def test_invalid_json_rejected(self):
        with pytest.raises(ProblemFormatError):
            MpQpProblem.from_json("{not json")

    def test_digest_is_stable_and_content_sensitive(self, two_param):
        assert two_param.digest() == two_parameter_digest_again()
        perturbed = MpQpProblem(
            Q=two_param.Q,
            C=two_param.C + 1e-9,
            C0=two_param.C0,
            A_e=two_param.A_e,
            b_e=two_param.b_e,
            A_C=two_param.A_C,
            b_C=two_param.b_C,
        )
        assert perturbed.digest() != two_param.digest()


def two_parameter_digest_again():
    from cfqp.cases import two_parameter_problem

    return two_parameter_problem().digest()


class TestParameterPoint:
    def test_constructors(self, two_param):
        z = ParameterPoint.zeros(two_param)
        assert z.stacked().shape == (two_param.d,)
        p = ParameterPoint.of_theta_e(two_param, [1.0, 2.0])
        assert np.array_equal(p.theta_e, [1.0, 2.0])
        assert not p.theta_c.any() and not p.theta_C.any()
        q = ParameterPoint.from_stacked(two_param, p.stacked())
        assert np.array_equal(q.theta_e, p.theta_e)

    def test_from_stacked_wrong_length(self, two_param):
        with pytest.raises(ProblemFormatError):
            ParameterPoint.from_stacked(two_param, np.zeros(3))

    def test_check_dims(self, two_param):
        bad = ParameterPoint(np.zeros(2), np.zeros(2), np.zeros(2))
        with pytest.raises(ProblemFormatError):
            bad.check_dims(two_param)

    def test_arithmetic(self, two_param):
        a = ParameterPoint.of_theta_e(two_param, [1.0, 2.0])
        b = ParameterPoint.of_theta_e(two_param, [10.0, 20.0])
        assert np.array_equal((a + b).theta_e, [11.0, 22.0])
        assert np.array_equal((b - a).theta_e, [9.0, 18.0])
        assert np.array_equal(a.scale(3.0).theta_e, [3.0, 6.0])


class TestActiveSet:
    def test_sorted_unique_one_based(self):
        s = ActiveSet([4, 1, 4, 3])
        assert tuple(s) == (1, 3, 4)
        assert np.array_equal(s.as_index_array(), [0, 2, 3])
        with pytest.raises(ProblemFormatError):
            ActiveSet([0])

    def test_equality_and_hash(self):
        assert ActiveSet([2, 1]) == ActiveSet([1, 2])
        assert ActiveSet([1, 2]) == {2, 1}
        assert ActiveSet([1, 2]) == (1, 2)
        assert hash(ActiveSet([1, 2])) == hash(ActiveSet([2, 1]))
        assert 2 in ActiveSet([1, 2]) and 3 not in ActiveSet([1, 2])

    def test_validate_against_problem(self, two_param):
        ActiveSet([6]).validate(two_param)
        with pytest.raises(ProblemFormatError):
            ActiveSet([7]).validate(two_param)

    def test_immutable(self):
        s = ActiveSet([1])
        with pytest.raises(AttributeError):
            s.indices = (2,)


def test_resolve_dtype():
    assert resolve_dtype(64) == np.float64
    assert resolve_dtype(32) == np.float32
    with pytest.raises(ValueError):
        resolve_dtype(16)


def test_primal_dual_solution_frozen():
    s = PrimalDualSolution(np.zeros(2), np.zeros(1), np.zeros(2), 1.5)
    assert s.objective == 1.5
    with pytest.raises(ValueError):
        s.x[0] = 1.0
