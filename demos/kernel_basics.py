"""Tour of the extremal quantities on the unit disk.

Solves min ||f||_p subject to f(z) = 1 over truncated polynomial competitors,
reports m_p, K_p = m_p^(-p), the off-diagonal kernel, and H_p, and compares
the p = 2 column against the classical closed form 1/(pi (1 - z conj(w))^2).
The striking empirical fact: the diagonal kernel on the disk does not depend
on p at all.
"""

import math

import numpy as np

import pbergman as pb

disk = pb.Domain("disk", 1.0)
grid = pb.build_grid(disk, 128, 256)
deg16 = pb.Setup(disk, degree=16, grid=grid)
deg24 = pb.Setup(disk, grid=grid)

print("K_p(z) on the unit disk (degree 16 basis)")
print(f"{'z':>6} | " + " | ".join(f"p={p:<4}" for p in (1.0, 1.5, 2.0, 3.0, 4.0)) + " | closed form p=2")
for z in (0.0, 0.25, 0.5, 0.7):
    row = []
    for p in (1.0, 1.5, 2.0, 3.0, 4.0):
        result = pb.mp_minimizer(deg16, p, z)
        row.append(f"{result.k_p:.6f}")
    exact = 1.0 / (math.pi * (1.0 - z * z) ** 2)
    print(f"{z:>6} | " + " | ".join(row) + f" | {exact:.6f}")

print()
print("Off-diagonal kernel and H_p at p = 2, z = 0.3, w = 0.5:")
off = pb.offdiag_kernel(deg24, 2.0, 0.3, 0.5)
h = pb.h_function(deg24, 2.0, 0.3, 0.5)
exact_off = 1.0 / (math.pi * (1.0 - 0.3 * 0.5) ** 2)
print(f"  K_2(0.3, 0.5) = {off.real:.8f}  (closed form {exact_off:.8f})")
print(f"  H_2(0.3, 0.5) = {h:.8f}  (vanishes quadratically near the diagonal)")

print()
print("The minimizer itself, m_2(., 0.5), against K(., 0.5)/K(0.5, 0.5):")
result = pb.mp_minimizer(deg24, 2.0, 0.5)
for w in (0.0, 0.25 + 0.25j, -0.4):
    got = pb.evaluate(result.minimizer.coeffs, w)
    exact = (1 - 0.25) ** 2 / (1 - 0.5 * w) ** 2
    print(f"  w={w}: {got:.8f}  vs  {exact:.8f}")

print()
print("Punctured disk: admitting the pole exponent z^-1 at p = 1 enlarges")
print("the competitor class, so the kernel value can only grow:")
punctured = pb.Domain("punctured_disk", 1.0)
without = pb.mp_minimizer(pb.Setup(punctured, degree=12, n_min=0), 1.0, 0.5)
with_pole = pb.mp_minimizer(pb.Setup(punctured, degree=12, n_min=-1), 1.0, 0.5)
print(f"  K_1(0.5) without pole: {without.k_p:.6f}")
print(f"  K_1(0.5) with    pole: {with_pole.k_p:.6f}")
