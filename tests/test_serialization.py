import json

import numpy as np
import pytest

from cfqp.errors import DigestMismatch, MalformedModel
from cfqp.model import (
    batch_forward,
    deserialize,
    expand,
    forward,
    init_model,
    serialize,
)
from cfqp.problem import ActiveSet, MpQpProblem, ParameterPoint


def random_box_problem(rng):
    """A random strictly convex QP with a coupling equality and
    two-sided variable bounds (rows: upper then lower per variable)."""
    n = int(rng.integers(2, 6))
    Q = np.diag(rng.uniform(0.5, 10.0, n))
    C = rng.uniform(-5.0, 5.0, n)
    A_e = np.ones((1, n)) + rng.uniform(-0.2, 0.2, (1, n))
    u = rng.uniform(2.0, 8.0, n)
    lo = -rng.uniform(2.0, 8.0, n)
    A_C = np.vstack([-np.eye(n), np.eye(n)])
    b_C = np.concatenate([-u, lo])
    return MpQpProblem(
        Q=Q, C=C, C0=float(rng.uniform(-1, 1)), A_e=A_e, b_e=np.zeros(1),
        A_C=A_C, b_C=b_C,
    )


def random_model(rng, precision=64):
    """A random multi-region model grown by explicit expansions."""
    problem = random_box_problem(rng)
    theta0 = ParameterPoint.zeros(problem)
    model = init_model(problem, ActiveSet(()), theta0, precision=precision)
    current = ActiveSet(())
    parent = 0
    n = problem.n
    for _ in range(int(rng.integers(0, min(3, n - 1) + 1))):
        free = [k for k in range(1, 2 * n + 1)
                if k not in current and ((k - 1) % n) not in
                {(i - 1) % n for i in current}]
        if not free:
            break
        new_set = ActiveSet(set(current) | {int(rng.choice(free))})
        probe = ParameterPoint.of_theta_e(
            problem, rng.uniform(-3.0, 3.0, problem.m1)
        )
        model = expand(model, parent, new_set, probe)
        parent = model.regions[-1].id
        current = new_set
    return model


def assert_models_identical(a, b):
    assert a.precision == b.precision
    assert a.direction == b.direction
    assert a.problem_digest == b.problem_digest
    assert np.array_equal(a.W0, b.W0) and a.W0.dtype == b.W0.dtype
    assert np.array_equal(a.problem.base_inverse, b.problem.base_inverse)
    assert len(a.regions) == len(b.regions)
    for ra, rb in zip(a.regions, b.regions):
        assert ra.id == rb.id and ra.parent_id == rb.parent_id
        assert ra.active_set == rb.active_set
        assert np.array_equal(
            ra.witness_theta.stacked(), rb.witness_theta.stacked()
        )


class TestRoundTripProperty:
    def test_hundred_randomized_models(self):
        rng = np.random.default_rng(2024)
        for trial in range(100):
            precision = 32 if trial % 3 == 0 else 64
            model = random_model(rng, precision=precision)
            clone = deserialize(serialize(model), model.problem)
            assert_models_identical(model, clone)
            thetas = [
                ParameterPoint.of_theta_e(
                    model.problem, rng.uniform(-3.0, 3.0, model.problem.m1)
                )
                for _ in range(5)
            ]
            for got, want in zip(
                batch_forward(clone, thetas), batch_forward(model, thetas)
            ):
                assert np.array_equal(got.x, want.x)
                assert np.array_equal(got.lam, want.lam)
                assert np.array_equal(got.mu, want.mu)
                assert got.objective == want.objective

    def test_payload_holds_only_network_weights(self, model_2d):
        data = json.loads(serialize(model_2d))
        assert data["version"] == 3
        assert set(data) == {
            "format", "version", "precision", "digest", "regions", "incidence",
        }
        assert set(data["regions"][0]) == {
            "id", "active_set", "parent", "direction", "witness",
        }
        assert len(data["incidence"]) == 2 * model_2d.k - 1

    def test_2d_model_round_trip_bitwise(self, model_2d, theta0_2d):
        clone = deserialize(serialize(model_2d), model_2d.problem)
        a = forward(model_2d, theta0_2d)
        b = forward(clone, theta0_2d)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.mu, b.mu)


class TestRejection:
    def test_digest_mismatch(self, model_2d, box_problem):
        other, _ = box_problem
        with pytest.raises(DigestMismatch):
            deserialize(serialize(model_2d), other)

    def test_truncation(self, model_2d):
        payload = serialize(model_2d)
        for cut in (1, len(payload) // 2, len(payload) - 2):
            with pytest.raises(MalformedModel):
                deserialize(payload[:cut], model_2d.problem)

    def test_wrong_format_tag(self, model_2d):
        data = json.loads(serialize(model_2d))
        data["format"] = "something-else"
        with pytest.raises(MalformedModel):
            deserialize(json.dumps(data).encode(), model_2d.problem)

    def test_unknown_version(self, model_2d):
        data = json.loads(serialize(model_2d))
        data["version"] = 99
        with pytest.raises(MalformedModel):
            deserialize(json.dumps(data).encode(), model_2d.problem)
        # a version 1 payload (per-region grad_x/grad_lambda) is not read
        data["version"] = 1
        for region in data["regions"]:
            region["grad_x"] = [[0.0] * model_2d.problem.d] * model_2d.problem.n
            region["grad_lambda"] = [[0.0] * model_2d.problem.d] * model_2d.problem.m1
        with pytest.raises(MalformedModel, match="version 1"):
            deserialize(json.dumps(data).encode(), model_2d.problem)
        # nor a version 2 payload (stored grad_mu blocks and base inverse)
        data = json.loads(serialize(model_2d))
        data["version"] = 2
        for region, block in zip(data["regions"], model_2d.W0):
            region["grad_mu"] = block.tolist()
        data["base_inverse"] = model_2d.problem.base_inverse.tolist()
        with pytest.raises(MalformedModel, match="version 2.*re-run discover"):
            deserialize(json.dumps(data).encode(), model_2d.problem)

    def test_region_id_must_equal_row(self, model_2d):
        data = json.loads(serialize(model_2d))
        data["regions"][1]["id"] = 7
        with pytest.raises(MalformedModel):
            deserialize(json.dumps(data).encode(), model_2d.problem)

    def test_tampered_incidence(self, model_2d):
        data = json.loads(serialize(model_2d))
        data["incidence"][0][2] = -data["incidence"][0][2]
        with pytest.raises(MalformedModel):
            deserialize(json.dumps(data).encode(), model_2d.problem)

    def test_wrong_shape(self, model_2d):
        data = json.loads(serialize(model_2d))
        data["regions"][0]["witness"]["theta_e"] = [0.0]
        with pytest.raises(MalformedModel):
            deserialize(json.dumps(data).encode(), model_2d.problem)
        # a non-finite witness and a direction other than +-1 (with the
        # incidence kept consistent) are rejected too
        data = json.loads(serialize(model_2d))
        data["regions"][2]["witness"]["theta_e"][0] = float("nan")
        with pytest.raises(MalformedModel):
            deserialize(json.dumps(data).encode(), model_2d.problem)
        data = json.loads(serialize(model_2d))
        data["regions"][2]["direction"] = 2
        for triplet in data["incidence"]:
            if triplet[1] == 2:
                triplet[2] *= 2
        with pytest.raises(MalformedModel):
            deserialize(json.dumps(data).encode(), model_2d.problem)

    def test_duplicate_active_set(self, model_2d):
        # a copy of region 1 as a fifth region under the root, with
        # consistent incidence triplets
        data = json.loads(serialize(model_2d))
        copy = dict(data["regions"][1], id=4, parent=0)
        data["regions"].append(copy)
        data["incidence"] += [[0, 4, -copy["direction"]], [4, 4, copy["direction"]]]
        with pytest.raises(MalformedModel, match="region 4 repeats active set"):
            deserialize(json.dumps(data).encode(), model_2d.problem)

    def test_not_json(self, model_2d):
        with pytest.raises(MalformedModel):
            deserialize(b"\x00\xff\x00binary", model_2d.problem)
