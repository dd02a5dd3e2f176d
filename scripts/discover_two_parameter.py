#!/usr/bin/env python3
"""Discover the closed-form solution of the bundled two-parameter QP.

Sweeps both demand parameters from (100, 100) out to the feasible
boundary, prints the region tree, and spot-checks the model against the
enumeration oracle at a few parameter points on the sweeps and two off
them, inside regions [1,3,4,5] and [1,3,4,6].

Usage:
    python3 scripts/discover_two_parameter.py [--steps N] [--out model.json]
"""

import argparse
import time

import numpy as np

from cfqp.cases import two_parameter_problem, two_parameter_theta0
from cfqp.discovery import DiscoveryLog, axis_sweep_pattern, discover, feasible_extents
from cfqp.model import forward, serialize
from cfqp.oracle import brute_force_solve, kkt_report
from cfqp.problem import ParameterPoint


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=200)
    ap.add_argument("--out", help="write the serialized model here")
    args = ap.parse_args()

    problem = two_parameter_problem()
    theta0 = two_parameter_theta0()

    axes = [ParameterPoint.of_theta_e(problem, unit) for unit in np.eye(2)]
    extents = feasible_extents(problem, theta0, axes)
    print(f"feasible extents from theta0: {extents}")

    log = DiscoveryLog()
    start = time.perf_counter()
    model = discover(
        problem, theta0, axis_sweep_pattern(theta0, extents, args.steps), log=log
    )
    elapsed = time.perf_counter() - start

    print(f"discovered {model.k} regions in {elapsed:.3f} s:")
    for r in model.regions:
        parent = "root" if r.parent_id is None else f"parent {r.parent_id}"
        print(f"  region {r.id}: active set {list(r.active_set)} ({parent}), "
              f"witness theta_e {r.witness_theta.theta_e.tolist()}")
    transitions = [rec for rec in log.records if rec["event"] == "transition"]
    print(f"{len(transitions)} transitions recorded")

    print("spot checks against the enumeration oracle:")
    for theta_e in ([150.0, 100.0], [400.0, 100.0], [100.0, 700.0], [750.0, 100.0],
                    [798.7, 29.8], [-14.4, 853.4]):
        theta = ParameterPoint.of_theta_e(problem, theta_e)
        got = forward(model, theta)
        want = brute_force_solve(problem, theta).solution
        gap = float(np.abs(got.x - want.x).max())
        kkt = kkt_report(problem, got, theta).scalar
        print(f"  theta_e={theta_e}: |x - x_oracle|_inf = {gap:.2e}, "
              f"kkt = {kkt:.2e}")

    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(serialize(model))
        print(f"model written to {args.out}")


if __name__ == "__main__":
    main()
