"""Bundled reference problems and power cases.

``two_parameter_problem`` is a 6-variable, 2-equality QP whose feasible
parameter set is exactly theta1 + theta2 <= 1000 and whose critical
regions along sweeps from (100, 100) are {3,4}, {1,3,4}, {1,3,4,5} and
{1,3,4,6}.  ``case6`` is a 6-bus power case with three generators,
140 MW base loads and 200 MW line limits.

``bundled_problem_json`` and ``bundled_case_json`` give the text of
their JSON files, the form ``--problem`` and ``--case`` read.
"""

from __future__ import annotations

import numpy as np

from .dcopf import Bus, Generator, Line, PowerCase
from .problem import MpQpProblem, ParameterPoint

__all__ = [
    "two_parameter_problem",
    "two_parameter_theta0",
    "case6",
    "bundled_problem_json",
    "bundled_case_json",
]


def two_parameter_problem() -> MpQpProblem:
    """Two-parameter demo QP (inequalities in >= form; rows 1..6 are
    x5+x6 <= 200, x1+x2 <= 500, x1 <= 20, x2 <= 20, x3 <= 380,
    x4 <= 380)."""
    return MpQpProblem(
        Q=np.diag([156.0, 162.0, 162.0, 126.0, 100.0, 100.0]),
        C=np.full(6, 25.0),
        C0=0.0,
        A_e=np.array(
            [
                [1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 1.0, 0.0, 1.0],
            ]
        ),
        b_e=np.zeros(2),
        A_C=np.array(
            [
                [0.0, 0.0, 0.0, 0.0, -1.0, -1.0],
                [-1.0, -1.0, 0.0, 0.0, 0.0, 0.0],
                [-1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                [0.0, -1.0, 0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, -1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
            ]
        ),
        b_C=np.array([-200.0, -500.0, -20.0, -20.0, -380.0, -380.0]),
    )


def two_parameter_theta0() -> ParameterPoint:
    """Discovery anchor for the two-parameter demo."""
    return ParameterPoint.of_theta_e(two_parameter_problem(), [100.0, 100.0])


def case6() -> PowerCase:
    """6-bus case: generators at buses 1-3 (slack at 1) joined by a
    triangle backbone, and 140 MW loads at buses 4-6, each served by a
    radial feeder from its generator bus.  Every line carries a 200 MW
    limit."""
    return PowerCase(
        name="case6",
        base_mva=100.0,
        slack_bus=1,
        buses=(
            Bus(1, 0.0),
            Bus(2, 0.0),
            Bus(3, 0.0),
            Bus(4, 140.0),
            Bus(5, 140.0),
            Bus(6, 140.0),
        ),
        generators=(
            Generator(bus=1, q=0.0225, c=10.0, pmin=0.0, pmax=300.0),
            Generator(bus=2, q=0.0375, c=15.0, pmin=0.0, pmax=250.0),
            Generator(bus=3, q=0.0625, c=20.0, pmin=0.0, pmax=200.0),
        ),
        lines=(
            Line(1, 2, 5.0, 200.0),
            Line(2, 3, 5.0, 200.0),
            Line(1, 3, 5.0, 200.0),
            Line(1, 4, 4.0, 200.0),
            Line(2, 5, 4.0, 200.0),
            Line(3, 6, 4.0, 200.0),
        ),
    )


def bundled_problem_json() -> str:
    """The two-parameter problem as a ``--problem`` JSON file's text."""
    return two_parameter_problem().to_json(indent=2) + "\n"


def bundled_case_json() -> str:
    """case6 as a ``--case`` JSON file's text."""
    return case6().to_json(indent=2) + "\n"
