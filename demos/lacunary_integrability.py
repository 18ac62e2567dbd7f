"""Radial integrability criterion for lacunary series versus direct integration.

For f = sum_k a_k z^(lambda_k) with gap ratio A > 1, the area integral of
|f|^p is equivalent, up to a constant depending only on (p, A), to the radial
integral of (sum_k |a_k|^2 r^(2 lambda_k))^(p/2) * 2 pi r.  The squared
coefficient convention makes the ratio exactly 1 at p = 2 (Parseval), which
is the sharp self-test.  Away from p = 2 the ratios wander inside a bounded
band, the desk-scale face of the equivalence constant.
"""

import numpy as np

import pbergman as pb

rng = np.random.default_rng(2)
exponents = tuple(2**k for k in range(1, 11))

print(f"dyadic exponents up to {exponents[-1]}, gap constant A = 2")
print(f"{'p':>5} | {'band of direct/criterion over 40 draws':>42}")
for p in (0.5, 1.0, 2.0, 4.0):
    ratios = []
    for _ in range(40):
        coef = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        series = pb.LacunarySeries(exponents, coef)
        ratios.append(pb.equivalence_ratio(series, p))
    print(f"{p:>5} | [{min(ratios):.6f}, {max(ratios):.6f}]  max/min {max(ratios)/min(ratios):.4f}")

print()
print("circle-norm equivalence (L^p vs L^2 on |z| = 0.9, 40 draws):")
exps8 = tuple(2**k for k in range(1, 9))
for p in (1.0, 4.0):
    ratios = [
        pb.circle_norm_ratio(
            pb.LacunarySeries(exps8, rng.standard_normal(8) + 1j * rng.standard_normal(8)),
            0.9,
            p,
        )
        for _ in range(40)
    ]
    print(f"  p={p}: [{min(ratios):.4f}, {max(ratios):.4f}]  max/min {max(ratios)/min(ratios):.4f}")

print()
series = pb.LacunarySeries(exponents, np.ones(10, dtype=complex) / np.arange(1, 11))
record = pb.integrability_record(series, 0.5)
print("integrability record for a_k = 1/k on the dyadic exponents, p = 0.5:")
for key, value in record.items():
    print(f"  {key}: {value}")
