"""Spread of near-optimal maximizers of K_p as p increases to 1.

Below p = 1 the extremal problem is nonconvex and uniqueness of the
normalized maximizer is unknown, so each p runs 16 descents from seeded
perturbations (seed 1) and measures the largest pairwise distance
d(f, g) = sum_i w_i |f_i - g_i|^p among the near-optimal survivors.  The
reported number is a multistart lower bound for the true spread, never the
sup.  The table should collapse toward zero as p approaches 1, while K_p at
the center stays pinned at 1/area.
"""

import math

import pbergman as pb

setup = pb.Setup(pb.Domain("disk", 1.0), degree=8)

record = pb.limit_sweep(setup, 0.0, (0.7, 0.8, 0.9, 0.95, 0.99), restarts=16, seed=1)

print(f"z = 0 on the unit disk, {record.restarts} restarts per p (lower bounds)")
print(f"{'p':>6} | {'K_p':>10} | {'d_p bound':>12} | status")
for p, k_p, d_p, status in zip(
    record.p_list, record.k_p_values, record.d_p_estimates, record.statuses
):
    print(f"{p:>6} | {k_p:>10.6f} | {d_p:>12.3e} | {status}")
print(f"\n1/area = {1.0 / math.pi:.6f}")
print(
    "as CSV: pbergman limit --domain disk:1 --p-list 0.7,0.8,0.9,0.95,0.99 "
    "--restarts 16 --seed 1 --out limit.csv"
)
