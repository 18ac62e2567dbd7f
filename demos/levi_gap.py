"""Sign of the Levi form of log K_p minus B_p^2 at the center of the disk.

The Levi term is computed by five-point finite differences of solver values
with Richardson extrapolation; B_p comes from the constrained extremal
problem f(0) = 0, f'(0) = 1.  Since K_p is p-independent on the disk the
Levi column is flat at 2 while B_p^2 = ((p+2)/2)^(2/p) decreases through 2
at p = 2, so the gap changes sign there: negative for p < 2, positive for
p > 2.
"""

import pbergman as pb

setup = pb.Setup(pb.Domain("disk", 1.0), degree=16)

print(f"{'p':>5} | {'levi':>10} | {'B_p^2':>10} | {'gap':>10}")
for p in (1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0):
    record = pb.levi_metric_gap(setup, p)
    print(f"{p:>5} | {record.levi:>10.6f} | {record.b_p_squared:>10.6f} | {record.gap:>+10.6f}")

print()
print("expected landmarks: gap(1) = -1/4, gap(2) = 0, gap(4) = 2 - sqrt(3) = +0.2679...")
print("as CSV: pbergman levi --domain disk:1 --p 1,1.25,1.5,2,2.5,3,4 --out levi.csv")
