"""Independent oracles the suite checks the production code against.

Deliberately disjoint from the solve path: the least-norm oracle assembles
the raw Gram KKT system, the KKT-residual oracle projects the gradient of
||f||_p^p, taken on the dense quadrature matrix, onto the constraint null
space, the metric oracle runs a derivative-free simplex search, and the
disk- and annulus-kernel oracles are the classical closed forms.  For
lacunary series, ``dense_lp`` sums |f|^p over whole circles without the
tiled evaluator, and ``lacunary_l4`` is the grid-free integral of |f|^4.
``write_series_csv`` writes the series files the command line reads.
"""

import csv
import math
from itertools import product

import numpy as np
import scipy.linalg
import scipy.optimize


def lp_norm(grid, values, p):
    """(sum_i w_i |v_i|^p)^(1/p) for values at the flat grid nodes."""
    return float(np.dot(grid.weights, np.abs(values) ** p) ** (1.0 / p))


def vandermonde(grid, exponents):
    V = np.empty((grid.nodes.size, len(exponents)), dtype=complex)
    for j, n in enumerate(exponents):
        V[:, j] = grid.nodes**n
    return V


def least_norm_coeffs(grid, exponents, rows, targets):
    """Closed-form minimizer of the quadratic norm under linear constraints.

    Solves G a = C^H lam, C a = b with the quadrature Gram matrix
    G[m, n] = sum_i w_i conj(z_i^m) z_i^n.
    """
    V = vandermonde(grid, exponents)
    G = V.conj().T @ (V * grid.weights[:, None])
    C = np.atleast_2d(np.asarray(rows, dtype=complex))
    b = np.atleast_1d(np.asarray(targets, dtype=complex))
    Ginv_Ch = np.linalg.solve(G, C.conj().T)
    lam = np.linalg.solve(C @ Ginv_Ch, b)
    a = Ginv_Ch @ lam
    objective = math.sqrt(float(np.real(a.conj() @ (G @ a))))
    return a, objective


def kkt_residual(problem, coefficients):
    """Norm of the gradient of ||f||_p^p projected onto the null space of the
    constraint rows, for raw coefficients of ``problem``.

    For p > 1, where the objective is differentiable away from zeros of f.
    The gradient is V^H (p w |u|^(p-2) u) with u = V a on the dense
    quadrature matrix V, encoded as grad_re + 1j*grad_im per coefficient.
    """
    grid, p = problem.grid, problem.p
    V = vandermonde(grid, problem.basis.exponents)
    u = V @ np.asarray(coefficients, dtype=complex)
    absu = np.abs(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(absu > 0, absu ** (p - 2.0), 0.0) * u
    grad = V.conj().T @ (grid.weights * p * c)
    N = scipy.linalg.null_space(problem.constraint_matrix)
    return float(np.linalg.norm(N.conj().T @ grad))


def disk_kernel(z, w):
    """Classical reproducing kernel of the unit disk, 1 / (pi (1 - z conj(w))^2)."""
    return 1.0 / (math.pi * (1.0 - z * np.conj(w)) ** 2)


def disk_minimizer(point, z):
    """Least-norm interpolant at z for the quadratic case, K(., z) / K(z, z)."""
    return disk_kernel(point, z) / disk_kernel(z, z)


def annulus_kernel(z, inner, outer, degree):
    """p = 2 kernel of the annulus inner < |z| < outer on the exponents
    -degree..degree: sum_n |z|^(2n) / ||z^n||^2, where ||z^n||^2 is
    pi (outer^(2n+2) - inner^(2n+2)) / (n+1), or 2 pi log(outer/inner) at n = -1."""
    total = 0.0
    for n in range(-degree, degree + 1):
        if n == -1:
            norm2 = 2.0 * math.pi * math.log(outer / inner)
        else:
            norm2 = math.pi * (outer ** (2 * n + 2) - inner ** (2 * n + 2)) / (n + 1)
        total += abs(z) ** (2 * n) / norm2
    return total


def dense_lp(series, p, radii, radial_weights, counts):
    """sum_i w_i (2 pi / K_i) sum_j |f(r_i e^(2 pi i j / K_i))|^p: the polar
    rule for the integral of |f|^p with radii r_i, radial weights w_i and
    K_i uniform angles on circle i (``counts``, or one count for all).

    Every term is kept on every circle, and the phase of lambda theta_j is
    read off the K-th roots of unity at (lambda j) mod K, so it stays at the
    ulp for lambda in the thousands.  Circles are taken a few at a time to
    bound memory.
    """
    lams = np.array(series.exponents)
    radii = np.asarray(radii, dtype=float)
    counts = np.broadcast_to(counts, radii.shape)
    total = 0.0
    for count in np.unique(counts):
        roots = np.exp(2j * math.pi * np.arange(count) / count)
        phases = roots[(lams[:, None] * np.arange(count)) % count]
        on = np.flatnonzero(counts == count)
        step = max(1, 2**20 // int(count))
        for rows in (on[i : i + step] for i in range(0, len(on), step)):
            values = (series.coefficients * radii[rows, None] ** lams) @ phases
            sums = (np.abs(values) ** p).sum(axis=1)
            total += 2.0 * math.pi / count * float(np.dot(radial_weights[rows], sums))
    return total


def lacunary_l4(series):
    """Integral of |f|^4 over the unit disk without a grid:
    ||f^2||_2^2 = pi sum_m |c_m|^2 / (m + 1), with c the coefficients of f^2."""
    square = {}
    for (la, a), (lb, b) in product(zip(series.exponents, series.coefficients), repeat=2):
        square[la + lb] = square.get(la + lb, 0.0) + a * b
    return math.pi * sum(abs(c) ** 2 / (m + 1) for m, c in square.items())


def write_series_csv(path, series):
    """Write ``series`` as the ``lambda,re,im`` file ``pbergman lacunary`` reads."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "re", "im"])
        for lam, a in zip(series.exponents, series.coefficients):
            writer.writerow([lam, f"{a.real:.17g}", f"{a.imag:.17g}"])


def brute_force_metric_objective(grid, p, degree=6, starts=3, seed=0):
    """min ||f||_p over f = z + sum_{n=2..degree} a_n z^n by simplex search.

    Direct optimization over real and imaginary parts, independent of the
    reweighted solver.  Returns the best objective found.
    """
    exps = list(range(2, degree + 1))
    V = vandermonde(grid, exps)
    base = grid.nodes  # the fixed z term of the competitor

    def objective(x):
        a = x[: len(exps)] + 1j * x[len(exps) :]
        return lp_norm(grid, base + V @ a, p)

    rng = np.random.default_rng(seed)
    best = math.inf
    for k in range(starts):
        x0 = np.zeros(2 * len(exps)) if k == 0 else 0.3 * rng.standard_normal(2 * len(exps))
        res = scipy.optimize.minimize(
            objective, x0, method="Nelder-Mead",
            options={"maxiter": 4000, "xatol": 1e-7, "fatol": 1e-12},
        )
        best = min(best, float(res.fun))
    return best
