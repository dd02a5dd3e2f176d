import tracemalloc

import numpy as np
import pytest

from cfqp import dcopf
from cfqp.dcopf import (
    Bus,
    Generator,
    Line,
    PowerCase,
    build_dcopf,
    build_dcopf_with_lines,
    inject_renewable,
    local_perturbation_dataset,
    parse_matpower,
    renewable_samples,
    scaled_dataset,
)
from cfqp.errors import (
    DisconnectedNetwork,
    MissingSlack,
    ProblemFormatError,
)
from cfqp.oracle import brute_force_solve, kkt_report
from cfqp.problem import ParameterPoint


class TestPowerCase:
    def test_case_json_round_trip(self, power_case):
        clone = PowerCase.from_json(power_case.to_json())
        assert clone == power_case

    def test_duplicate_bus_rejected(self):
        with pytest.raises(ProblemFormatError):
            PowerCase(
                buses=(Bus(1), Bus(1)),
                generators=(),
                lines=(),
                slack_bus=1,
            )

    def test_missing_slack_rejected(self):
        with pytest.raises(MissingSlack):
            PowerCase(buses=(Bus(1),), generators=(), lines=(), slack_bus=9)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedNetwork):
            PowerCase(
                buses=(Bus(1), Bus(2), Bus(3)),
                generators=(Generator(1, 0.1, 1.0, 0.0, 10.0),),
                lines=(Line(1, 2, 1.0),),
                slack_bus=1,
            )

    @pytest.mark.parametrize("field", ["demand", "q", "c", "pmin", "pmax", "limit"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_data_rejected(self, field, value):
        numbers = dict(demand=50.0, q=0.1, c=1.0, pmin=0.0, pmax=100.0, limit=80.0)
        numbers[field] = value
        with pytest.raises(ProblemFormatError):
            PowerCase(
                buses=(Bus(1), Bus(2, numbers["demand"])),
                generators=(Generator(1, numbers["q"], numbers["c"],
                                      numbers["pmin"], numbers["pmax"]),),
                lines=(Line(1, 2, 10.0, numbers["limit"]),),
                slack_bus=1,
            )

    def test_susceptance_matrix_row_sums_zero(self, power_case):
        B = power_case.susceptance_matrix()
        assert np.allclose(B.sum(axis=1), 0.0)
        assert np.allclose(B, B.T)
        assert B[0, 1] == -5.0  # line 1-2
        assert B[0, 3] == -4.0  # feeder 1-4

    def test_demand_vector_order(self, power_case):
        assert np.array_equal(
            power_case.demand_vector(), [0.0, 0.0, 0.0, 140.0, 140.0, 140.0]
        )


class TestBuild:
    def test_dimensions_and_groups(self, box_problem):
        problem, index_map = box_problem
        # 3 generators + 5 non-slack angles
        assert problem.n == 8
        assert problem.m1 == 6
        assert problem.m2 == 6  # two box rows per generator
        assert problem.variable_groups == {
            "P_g": (0, 1, 2),
            "delta": (3, 4, 5, 6, 7),
        }
        assert index_map.delta_vars[index_map.slack_bus] is None
        assert index_map.box_rows == ((1, 2), (3, 4), (5, 6))

    def test_balance_rows(self, power_case, box_problem):
        problem, index_map = box_problem
        assert np.array_equal(
            problem.b_e, [0.0, 0.0, 0.0, -140.0, -140.0, -140.0]
        )
        # generator columns carry -1 at their bus row
        for g_idx, g in enumerate(power_case.generators):
            row = index_map.bus_ids.index(g.bus)
            assert problem.A_e[row, g_idx] == -1.0
        # angle columns carry the susceptance matrix (non-slack columns)
        B = power_case.susceptance_matrix()
        for bus, var in index_map.delta_vars.items():
            if var is None:
                continue
            col = index_map.bus_ids.index(bus)
            assert np.array_equal(problem.A_e[:, var], B[:, col])

    def test_balance_residual_zero_at_oracle_solution(self, power_case, box_problem):
        problem, _ = box_problem
        theta = ParameterPoint.zeros(problem)
        sol, _ = brute_force_solve(problem, theta)
        # P_gen - B delta = P_d at every bus
        assert np.allclose(problem.A_e @ sol.x, problem.b_e, atol=1e-9)
        assert sol.x[:3].sum() == pytest.approx(420.0, abs=1e-8)

    def test_box_rows_sign_convention(self, power_case, box_problem):
        problem, index_map = box_problem
        for g_idx, g in enumerate(power_case.generators):
            upper, lower = index_map.box_rows[g_idx]
            assert problem.A_C[upper - 1, g_idx] == -1.0
            assert problem.b_C[upper - 1] == -g.pmax
            assert problem.A_C[lower - 1, g_idx] == 1.0
            assert problem.b_C[lower - 1] == g.pmin

    def test_slack_angle_reconstruction(self, box_problem):
        problem, index_map = box_problem
        x = np.arange(problem.n, dtype=float)
        angles = index_map.full_angles(x)
        assert angles[index_map.bus_ids.index(index_map.slack_bus)] == 0.0
        assert angles[1] == x[3]

    def test_huge_line_limits_match_box_solution(self, power_case, box_problem):
        problem_box, _ = box_problem
        unlimited = PowerCase(
            buses=power_case.buses,
            generators=power_case.generators,
            lines=tuple(
                Line(l.from_bus, l.to_bus, l.susceptance, 1e9)
                for l in power_case.lines
            ),
            slack_bus=power_case.slack_bus,
        )
        problem_lines, index_map = dcopf.build_dcopf_with_lines(unlimited)
        assert problem_lines.m2 == 6 + 2 * len(power_case.lines)
        assert index_map.flow_rows == ((7, 8), (9, 10), (11, 12), (13, 14), (15, 16), (17, 18))
        theta_box = ParameterPoint.zeros(problem_box)
        theta_lines = ParameterPoint.zeros(problem_lines)
        sol_box, set_box = brute_force_solve(problem_box, theta_box)
        sol_lines, set_lines = brute_force_solve(problem_lines, theta_lines)
        assert set_box == set_lines
        assert np.allclose(sol_box.x, sol_lines.x, atol=1e-8)

    def test_problem_digests_pinned(self, box_problem, line_problem):
        """Every coefficient bit of the case6 problems, with and without
        line limits."""
        assert box_problem[0].digest() == (
            "5d233749fef0e1eef75764133555f9d7c75318937b2f281a076c67876e5785b1"
        )
        assert line_problem[0].digest() == (
            "47ae718381b4daa1f78a9f9488c03e0ad4f8f43115cf81f1f94c73cf7d31d80c"
        )

    def test_feeder_flow_equals_demand(self, power_case, line_problem):
        problem, index_map = line_problem
        theta = ParameterPoint.zeros(problem)
        sol, _ = brute_force_solve(problem, theta)
        angles = index_map.full_angles(sol.x)
        # radial feeder 1-4 carries exactly bus 4's demand
        line = power_case.lines[3]
        i = index_map.bus_ids.index(line.from_bus)
        j = index_map.bus_ids.index(line.to_bus)
        flow = line.susceptance * (angles[i] - angles[j])
        assert flow == pytest.approx(140.0, abs=1e-7)

    def test_line_solution_satisfies_kkt(self, line_problem):
        problem, _ = line_problem
        theta = ParameterPoint.zeros(problem)
        sol, _ = brute_force_solve(problem, theta)
        assert kkt_report(problem, sol, theta).scalar < 1e-14

    def test_flow_limit_validation(self, power_case):
        for limit in (0.0, -1.0):
            with pytest.raises(ProblemFormatError):
                PowerCase(
                    buses=power_case.buses,
                    generators=power_case.generators,
                    lines=(Line(1, 2, 5.0, limit),) + power_case.lines[1:],
                    slack_bus=1,
                )
        no_limit = PowerCase(
            buses=power_case.buses,
            generators=power_case.generators,
            lines=(Line(1, 2, 5.0, None),) + power_case.lines[1:],
            slack_bus=1,
        )
        with pytest.raises(ProblemFormatError):
            build_dcopf_with_lines(no_limit)


class TestRenewablesAndDatasets:
    def test_inject_renewable_raises_theta_e(self, box_problem):
        problem, _ = box_problem
        base = np.zeros(problem.m1)
        ren = np.array([0.0, 0.0, 0.0, 30.0, 0.0, 0.0])
        theta = inject_renewable(problem, base, ren)
        assert np.array_equal(theta.theta_e, ren)
        with pytest.raises(ProblemFormatError):
            inject_renewable(problem, np.zeros(3), np.zeros(3))

    def test_renewable_samples_capped_and_deterministic(self):
        a = renewable_samples(50, 3, seed=9)
        b = renewable_samples(50, 3, seed=9)
        assert np.array_equal(a, b)
        assert a.shape == (50, 3)
        assert (a >= 0.0).all() and (a <= 1.5).all()

    def test_counter_rng_is_order_independent(self, power_case):
        problem = build_dcopf(power_case)[0]
        long, long_feasible = local_perturbation_dataset(power_case, 20, seed=4, problem=problem)
        short, short_feasible = local_perturbation_dataset(power_case, 5, seed=4, problem=problem)
        assert np.array_equal(short, long[:5])
        assert np.array_equal(short_feasible, long_feasible[:5])

    def test_local_dataset_flags_infeasible(self, power_case):
        theta_e, feasible = local_perturbation_dataset(
            power_case, 100, seed=0, problem=build_dcopf(power_case)[0]
        )
        assert theta_e.shape == (100, 6) and feasible.shape == (100,)
        assert feasible.all()  # 0.6..1.4 stays dispatchable
        # (1 - r) * P_d rounds monotonically in r, so r in [0.6, 1.4]
        # puts theta_e exactly inside these bounds
        P_d = power_case.demand_vector()
        assert ((1.0 - 1.4) * P_d <= theta_e).all() and (theta_e <= (1.0 - 0.6) * P_d).all()

    def test_local_dataset_peak_memory(self, power_case):
        """The dataset is two arrays, not objects per row: drawing and
        labelling 20,000 case6 rows peaks below 600 bytes a row of traced
        memory (a theta_e row is 48 bytes and its stacked copy for the
        labels 160; a labelled point object per row took about 1,250)."""
        problem = build_dcopf(power_case)[0]
        local_perturbation_dataset(power_case, 10, seed=0, problem=problem)  # kernel built
        tracemalloc.start()
        try:
            local_perturbation_dataset(power_case, 20_000, seed=0, problem=problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000 * 600, peak

    def test_point_rngs_draw_as_fresh_philox(self):
        """One Philox serves a whole dataset: each point's draws are a
        fresh Philox(key=seed, counter=[0, 0, 0, i])'s, whatever was drawn
        before (a float32 draw leaves half a 64-bit word buffered)."""
        rng = dcopf._point_rngs(11)
        for i in (19, 0, 2**63, 1, 2**32, 19):
            got = rng(i)
            want = np.random.Generator(np.random.Philox(key=11, counter=[0, 0, 0, i]))
            assert np.array_equal(got.uniform(0.6, 1.4, size=6), want.uniform(0.6, 1.4, size=6))
            assert np.array_equal(got.exponential(0.8, size=3), want.exponential(0.8, size=3))
            got.random(dtype=np.float32)

    def test_repeated_scales_rejected(self, power_case):
        with pytest.raises(ValueError, match="strictly ascending"):
            scaled_dataset(power_case, [1.0, 1.0, 1.5], 3, seed=7,
                           problem=build_dcopf(power_case)[0])

    def test_scaled_dataset_and_survival(self, power_case):
        scales = [1.0, 1.5, 2.0]
        problem = build_dcopf(power_case)[0]
        theta_e, feasible = scaled_dataset(power_case, scales, 60, seed=7, problem=problem)
        counts = dict(zip(scales, feasible.reshape(len(scales), -1).sum(1).tolist()))
        assert list(counts) == scales
        assert counts[1.0] >= counts[1.5] >= counts[2.0]
        assert counts[1.0] == 60 and counts[2.0] < 60
        # row i has scale scales[i // 60] and point i's ratios, which
        # the local dataset draws as theta_e = (1 - r) * P_d; the two
        # formulas differ by a few roundings of numbers up to 2 * P_d
        P_d = power_case.demand_vector()
        local, _ = local_perturbation_dataset(power_case, 180, seed=7, problem=problem)
        k = np.repeat(scales, 60)[:, None]
        assert np.allclose(theta_e, P_d - k * (P_d - local),
                           rtol=0, atol=16 * np.finfo(float).eps * P_d.max())

    def test_extreme_dataset_shape(self, power_case):
        theta_e, feasible = dcopf.extreme_dataset(power_case, steps=10,
                                                  problem=build_dcopf(power_case)[0])
        assert len(theta_e) == len(feasible) == 60  # 6 buses x 10 steps
        assert not feasible.all()
        assert feasible.any()


MATPOWER_TEXT = """
function mpc = case3
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
    1 3 0.0  0 0 0 1 1 0 230 1 1.1 0.9;
    2 1 50.0 0 0 0 1 1 0 230 1 1.1 0.9;
    3 1 60.0 0 0 0 1 1 0 230 1 1.1 0.9; % load bus
];
mpc.gen = [
    1 0 0 99 -99 1.0 100 1 150 10;
    3 0 0 99 -99 1.0 100 0 500 0;  % out of service (GEN_STATUS 0)
    2 0 0 99 -99 1.0 100 1 80  0;
];
mpc.branch = [
    1 2 0.01 0.1  0 120 0 0 0 0 1 -360 360;
    1 3 0.01 0.2  0 50  0 0 0 0 0 -360 360;  % out of service (BR_STATUS 0)
    2 3 0.01 0.25 0 0   0 0 0 0 1 -360 360;
];
mpc.gencost = [
    2 0 0 3 0.04 20 0;
    2 0 0 3 0.09 90 0;
    2 0 0 3 0.03 30 0;
];
"""


class TestMatpowerImport:
    def test_parse_fields(self):
        case = parse_matpower(MATPOWER_TEXT, name="case3")
        assert case.slack_bus == 1
        assert case.base_mva == 100.0
        assert [b.demand for b in case.buses] == [0.0, 50.0, 60.0]
        g1, g2 = case.generators
        assert (g1.q, g1.c, g1.pmin, g1.pmax) == (0.04, 20.0, 10.0, 150.0)
        assert (g2.pmin, g2.pmax) == (0.0, 80.0)
        l1, l2 = case.lines
        assert l1.susceptance == pytest.approx(10.0)
        assert l1.limit == 120.0
        assert l2.susceptance == pytest.approx(4.0)
        assert l2.limit is None  # rateA of 0 means unlimited

    def test_half_quadratic_flag(self):
        case = parse_matpower(MATPOWER_TEXT, half_quadratic=True)
        assert case.generators[0].q == pytest.approx(0.02)

    def test_imported_case_builds_and_solves(self):
        case = parse_matpower(MATPOWER_TEXT)
        problem, _ = build_dcopf(case)
        theta = ParameterPoint.zeros(problem)
        sol, _ = brute_force_solve(problem, theta)
        assert kkt_report(problem, sol, theta).scalar < 1e-12
        assert sol.x[:2].sum() == pytest.approx(110.0, abs=1e-8)

    def test_missing_table_rejected(self):
        with pytest.raises(ProblemFormatError):
            parse_matpower("mpc.baseMVA = 100;")

    def test_no_slack_rejected(self):
        text = MATPOWER_TEXT.replace("1 3 0.0", "1 1 0.0")
        with pytest.raises(MissingSlack):
            parse_matpower(text)

    def test_nonpolynomial_cost_rejected(self):
        text = MATPOWER_TEXT.replace("2 0 0 3 0.04 20 0;", "1 0 0 4 0 0 0;")
        with pytest.raises(ProblemFormatError):
            parse_matpower(text)

    def test_out_of_service_equipment_skipped(self):
        case = parse_matpower(MATPOWER_TEXT)
        assert [g.bus for g in case.generators] == [1, 2]
        # the skipped generator takes its aligned gencost row with it
        assert (case.generators[1].q, case.generators[1].c) == (0.03, 30.0)
        assert [(ln.from_bus, ln.to_bus) for ln in case.lines] == [(1, 2), (2, 3)]

    def test_islanding_by_branch_status_rejected(self):
        text = MATPOWER_TEXT.replace(
            "2 3 0.01 0.25 0 0   0 0 0 0 1", "2 3 0.01 0.25 0 0   0 0 0 0 0"
        )
        with pytest.raises(DisconnectedNetwork):
            parse_matpower(text)

    def test_gen_without_gencost_row_rejected(self):
        # an in-service generator after the last gencost row
        text = MATPOWER_TEXT.replace(
            "    2 0 0 99 -99 1.0 100 1 80  0;\n",
            "    2 0 0 99 -99 1.0 100 1 80  0;\n    3 0 0 99 -99 1.0 100 1 40  0;\n",
        )
        with pytest.raises(ProblemFormatError, match="gencost"):
            parse_matpower(text)

    @pytest.mark.parametrize("row", ["2 0 0;", "2 0 0 3 0.04 20;"])
    def test_short_gencost_row_rejected(self, row):
        text = MATPOWER_TEXT.replace("2 0 0 3 0.04 20 0;", row)
        with pytest.raises(ProblemFormatError, match="gencost"):
            parse_matpower(text)

    def test_gen_row_without_limits_rejected(self):
        text = MATPOWER_TEXT.replace("2 0 0 99 -99 1.0 100 1 80  0;", "2 0 0 99 -99 1.0 100 1;")
        with pytest.raises(ProblemFormatError):
            parse_matpower(text)
