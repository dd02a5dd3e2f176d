#!/usr/bin/env python3
"""DC-OPF experiments on the bundled 6-bus case.

Three experiments:
  scaled     line-limited load scaling: survival counts per scale plus
             in-region KKT statistics for every feasible point
  renewable  24-hour demand profile x 500 renewable-infeed samples,
             batch-evaluated through the closed-form model
  precision  the box-constrained model evaluated at 64 and at 32 bits

Usage:
    python3 scripts/dcopf_experiments.py scaled|renewable|precision [--seed N]
"""

import argparse
import time

import numpy as np

from cfqp import dcopf
from cfqp.cases import case6
from cfqp.discovery import Direction, SearchPattern, axis_sweep_pattern, discover, scaled_base_pattern
from cfqp.model import cast, forward_array, locate_array
from cfqp.oracle import kkt_batch
from cfqp.problem import ParameterPoint


def kkt_vectors(model, Theta):
    """Evaluate the model on an (N, d) theta array; return its five
    per-row KKT violation arrays (see ``cfqp.oracle.kkt_batch``)."""
    X, Lam, Mu, _ = forward_array(model, Theta)
    return kkt_batch(model.problem, X, Lam, Mu, Theta)


def load_bus_pattern(problem, extent_up, extent_dn, steps=40):
    """Uniform plus per-axis load-bus sweeps, both directions."""
    theta0 = ParameterPoint.zeros(problem)
    load = np.zeros(problem.m1)
    load[3:] = 1.0
    directions = []
    for ext in (extent_up, -extent_dn):
        uniform = ParameterPoint.of_theta_e(problem, load * ext / steps)
        directions.append(Direction(start=theta0, step=uniform, max_steps=steps))
        directions.extend(axis_sweep_pattern(theta0, load * ext, steps).directions)
    return theta0, SearchPattern(directions)


def run_scaled(seed):
    case = case6()
    problem, _ = dcopf.build_dcopf_with_lines(case)
    scales = [1.0 + 0.125 * i for i in range(9)]
    theta_e, feasible = dcopf.scaled_dataset(case, scales, 200, seed=seed, problem=problem)
    print("feasible points per scale (200 sampled each):")
    for s, count in zip(scales, feasible.reshape(len(scales), -1).sum(1).tolist()):
        print(f"  scale {s:5.3f}: {count:4d}")

    P_d = case.demand_vector()
    origin = ParameterPoint.of_theta_e(problem, P_d)
    base = ParameterPoint.of_theta_e(problem, -P_d)
    extent = np.zeros(problem.m1)
    extent[3:] = 0.8 * P_d[3:]
    directions = []
    for ext in (extent, -extent):
        directions.extend(
            scaled_base_pattern(base, scales, 30, ext, origin=origin).directions
        )
    start = time.perf_counter()
    model = discover(
        problem, origin + base.scale(1.0), SearchPattern(directions), strict=False
    )
    print(f"discovered {model.k} regions in {time.perf_counter() - start:.2f} s")

    stacked = np.pad(theta_e[feasible], [(0, 0), (problem.n, problem.m2)])
    Theta = stacked[locate_array(model, stacked) >= 0]
    undiscovered = len(stacked) - len(Theta)
    scalars = np.hstack(kkt_vectors(model, Theta)).mean(axis=1)  # per-row KKT scalar
    print(f"{len(scalars)} feasible points inside discovered regions, "
          f"mean kkt {np.mean(scalars):.2e}, worst {np.max(scalars):.2e}")
    print(f"{undiscovered} feasible points in undiscovered regions")


def run_renewable(seed):
    case = case6()
    problem, _ = dcopf.build_dcopf(case)
    theta0, pattern = load_bus_pattern(problem, extent_up=87.0, extent_dn=56.0)
    model = discover(problem, theta0, pattern)
    print(f"model: {model.k} regions "
          f"{[list(r.active_set) for r in model.regions]}")

    P_d = case.demand_vector()
    samples = dcopf.renewable_samples(500, 3, seed=seed)
    hours = np.linspace(0.7, 1.2, 24)
    n = problem.n
    Theta = np.zeros((len(hours) * len(samples), problem.d))
    for i, h in enumerate(hours):
        rows = Theta[i * len(samples):(i + 1) * len(samples)]
        rows[:, n:n + problem.m1] = (1.0 - h) * P_d
        rows[:, n + 3:n + 6] += 30.0 * samples

    start = time.perf_counter()
    X, Lam, Mu, _ = forward_array(model, Theta)
    elapsed = time.perf_counter() - start
    print(f"evaluated {len(Theta)} parameter points in {elapsed:.3f} s "
          f"({elapsed / len(Theta) * 1e6:.1f} us/point)")

    scalars = np.hstack(kkt_batch(problem, X, Lam, Mu, Theta)).mean(axis=1)
    dispatch = X[:, :3]
    print(f"mean kkt {np.mean(scalars):.2e}, worst {np.max(scalars):.2e}")
    print(f"generator dispatch ranges: "
          f"{[f'{lo:.1f}..{hi:.1f}' for lo, hi in zip(dispatch.min(0), dispatch.max(0))]}")


def run_precision(seed):
    case = case6()
    problem, _ = dcopf.build_dcopf(case)
    theta0, pattern = load_bus_pattern(problem, extent_up=56.0, extent_dn=56.0)
    theta_e, _ = dcopf.local_perturbation_dataset(case, 1000, seed, problem=problem)
    Theta = np.pad(theta_e, [(0, 0), (problem.n, problem.m2)])

    header = f"{'condition':12s} {'mean(64)':>10s} {'worst(64)':>10s} " \
             f"{'mean(32)':>10s} {'worst(32)':>10s}"
    names = ("kkt1", "kkt2_eq", "kkt2_ineq", "kkt3", "kkt4")
    # discovery always runs at float64; a 32-bit model is its cast
    model = discover(problem, theta0, pattern)
    stats = {}
    for precision in (64, 32):
        stats[precision] = {
            k: (v.mean(), v.max())
            for k, v in zip(names, kkt_vectors(cast(model, precision), Theta))
        }
    print(header)
    for k in stats[64]:
        m64, w64 = stats[64][k]
        m32, w32 = stats[32][k]
        print(f"{k:12s} {m64:10.2e} {w64:10.2e} {m32:10.2e} {w32:10.2e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("experiment", choices=["scaled", "renewable", "precision"])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    {"scaled": run_scaled, "renewable": run_renewable,
     "precision": run_precision}[args.experiment](args.seed)


if __name__ == "__main__":
    main()
