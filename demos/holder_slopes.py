"""Modulus of continuity of the extremal minimizer in its constraint point.

Probes |m_p(z', w + r e^{i phi}) - m_p(z', w)| on shrinking circles around w,
takes the worst direction, and fits a log-log slope.  A slope near 1 is the
desk-scale signature of continuity of order 1 - eps for every eps.  The same
machinery applied to H_p(z, w) near the diagonal shows second-order decay at
p = 2, and the measured p = 1.5 slope is recorded as data.
"""

import pbergman as pb

setup = pb.Setup(pb.Domain("disk", 1.0), degree=16)
radii = [0.1 * 2.0**-k for k in range(6)]

print("minimizer continuity at z' = 0.2, w = 0.4 (max over 8 directions):")
for p in (1.5, 2.0, 3.0):
    fit = pb.holder_exponent(setup, p, 0.2, 0.4, radii)
    print(f"  p={p}: slope {fit.slope:.4f}  (r^2 = {fit.r_squared:.6f})")

print()
print("H_p decay near the diagonal at z = 0.4:")
for p in (1.5, 2.0):
    fit = pb.hp_scaling_exponent(setup, p, 0.4, radii)
    note = "expected 2 exactly" if p == 2.0 else "recorded as data, no sharpness claim"
    print(f"  p={p}: slope {fit.slope:.4f}  ({note})")

print()
print(
    "p=2 probe table as CSV: "
    "pbergman holder --domain disk:1 --p 2 --zprime 0.2 --w 0.4 --out holder.csv"
)
