"""Independent oracles the suite checks the production code against.

Deliberately disjoint from the solve path: the least-norm oracle assembles
the raw Gram KKT system, ``point_rows`` builds the constraint rows of a
point, complex or real, from the monomials, the KKT-residual oracle
projects the gradient of ||f||_p^p, taken on the dense quadrature matrix,
onto the null space of given rows, the metric oracle runs a derivative-free simplex search, the
disk- and annulus-kernel oracles are the classical closed forms, with the
Levi form of the log of the latter, ``monomial_lp_norm`` integrates |z^n|^p
in extended precision, ``quarter_laplacian`` is the planar 13-point
stencil the radial Levi stencil of ``analysis`` is checked against, and
``grid_free_k4`` minimizes ||f^2||_2^2, the 4-norm to the fourth without a
grid, by Newton's method.  For
lacunary series, ``dense_lp`` sums |f|^p over whole circles without the
tiled evaluator, and ``lacunary_even`` is the grid-free integral and
circle mean of |f|^p at even p.
``write_series_csv`` writes the series files the command line reads.
"""

import csv
import math
from itertools import product

import mpmath
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


def point_rows(exponents, z, direction=None):
    """Dense constraint rows and targets on raw monomial coefficients at the
    point z, complex or real: f(z) = 1, or given a direction X, f(z) = 0 and
    X f'(z) = 1."""
    n = np.asarray(exponents)
    z = complex(z)
    values = np.array([z**k for k in n])
    if direction is None:
        return values[None, :], np.array([1.0 + 0j])
    slopes = np.array([0j if k == 0 else direction * k * z ** (k - 1) for k in n])
    return np.array([values, slopes]), np.array([0j, 1.0 + 0j])


def kkt_residual(grid, exponents, p, rows, coefficients):
    """Norm of the gradient of ||f||_p^p projected onto the null space of the
    constraint ``rows``, for raw coefficients on ``exponents``.

    For p > 1, where the objective is differentiable away from zeros of f.
    The gradient is V^H (p w |u|^(p-2) u) with u = V a on the dense
    quadrature matrix V, encoded as grad_re + 1j*grad_im per coefficient.
    """
    V = vandermonde(grid, exponents)
    u = V @ np.asarray(coefficients, dtype=complex)
    absu = np.abs(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(absu > 0, absu ** (p - 2.0), 0.0) * u
    grad = V.conj().T @ (grid.weights * p * c)
    N = scipy.linalg.null_space(np.atleast_2d(rows))
    return float(np.linalg.norm(N.conj().T @ grad))


def monomial_lp_norm(domain, n, p):
    """||z^n||_p on ``domain``: the p-th root of 2 pi times the integral of
    r^(np + 1) over the radii, by mpmath quadrature at 30 digits.

    The integral is taken in x = log r, where the integrand e^((np + 2) x) is
    smooth, so the singularity of a pole term at r = 0 becomes a decaying
    tail over an infinite interval.
    """
    with mpmath.workdps(30):
        p = mpmath.mpf(p)
        lo = mpmath.log(domain.inner_radius) if domain.inner_radius > 0 else -mpmath.inf
        radial = mpmath.quad(
            lambda x: mpmath.exp((n * p + 2) * x), [lo, mpmath.log(domain.outer_radius)]
        )
        return float((2 * mpmath.pi * radial) ** (1 / p))


def disk_kernel(z, w):
    """Classical reproducing kernel of the unit disk, 1 / (pi (1 - z conj(w))^2)."""
    return 1.0 / (math.pi * (1.0 - z * np.conj(w)) ** 2)


def disk_minimizer(point, z):
    """Least-norm interpolant at z for the quadratic case, K(., z) / K(z, z)."""
    return disk_kernel(point, z) / disk_kernel(z, z)


def _annulus_coefficients(inner, outer, degree):
    """{n: 1 / ||z^n||^2} on the annulus inner < |z| < outer for
    n = -degree..degree, where ||z^n||^2 is
    pi (outer^(2n+2) - inner^(2n+2)) / (n+1), or 2 pi log(outer/inner) at n = -1."""
    coefficients = {}
    for n in range(-degree, degree + 1):
        if n == -1:
            norm2 = 2.0 * math.pi * math.log(outer / inner)
        else:
            norm2 = math.pi * (outer ** (2 * n + 2) - inner ** (2 * n + 2)) / (n + 1)
        coefficients[n] = 1.0 / norm2
    return coefficients


def annulus_kernel(z, inner, outer, degree):
    """p = 2 kernel of the annulus inner < |z| < outer on the exponents
    -degree..degree: S(|z|^2) with S(t) = sum_n t^n / ||z^n||^2."""
    t = abs(z) ** 2
    return sum(c * t**n for n, c in _annulus_coefficients(inner, outer, degree).items())


def annulus_log_kernel_levi(z, inner, outer, degree):
    """d^2/dz dz-bar of log ``annulus_kernel`` at z: with t = |z|^2 and S as
    there, (log S)'(t) + t (log S)''(t)."""
    t = abs(z) ** 2
    items = _annulus_coefficients(inner, outer, degree).items()
    s0 = sum(c * t**n for n, c in items)
    s1 = sum(n * c * t ** (n - 1) for n, c in items)
    s2 = sum(n * (n - 1) * c * t ** (n - 2) for n, c in items)
    return s1 / s0 + t * (s2 / s0 - (s1 / s0) ** 2)


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


def lacunary_even(series, p):
    """The integral of |f|^p over the unit disk and the mean of |f|^p on the
    unit circle at even p = 2k, without a grid: with c the coefficients of
    f^k, multiplied out term by term in a dict, they are
    ||f^k||_2^2 = pi sum_m |c_m|^2 / (m + 1) and sum_m |c_m|^2."""
    power = {0: 1.0}
    for _ in range(int(p) // 2):
        terms = {}
        for (m, c), (n, a) in product(power.items(), zip(series.exponents, series.coefficients)):
            terms[m + n] = terms.get(m + n, 0.0) + c * complex(a)
        power = terms
    return (math.pi * sum(abs(c) ** 2 / (m + 1) for m, c in power.items()),
            sum(abs(c) ** 2 for c in power.values()))


def grid_free_k4(inner, outer, exponents, r):
    """K_4 at the real point r of the domain inner < |z| < outer (a disk at
    inner = 0) over the series on ``exponents``, without a grid.

    ||f||_4^4 = ||f^2||_2^2 = sum_m h_m c_m^2 with c = a * a the
    convolution over exponents and h_m = ||z^m||_2^2; at a real point the
    minimizer is real, so this is a convex quartic on the real slice
    f(r) = 1.  Damped Newton with its exact Hessian, 8 C^T diag(h) C plus
    4 times the Hankel matrix of h c, with C the convolution matrix of a,
    runs in coordinates scaled by ||z^n||_2 from the p = 2 minimizer until
    the Newton decrement is at rounding level.  Returns 1 / min ||f||_4^4.
    """
    n = np.asarray(exponents)
    m = np.arange(2 * n[0], 2 * n[-1] + 1)  # the exponents of f^2

    def norm2(k):
        if k == -1:
            return 2.0 * math.pi * math.log(outer / inner)
        return math.pi * (outer ** (2 * k + 2) - inner ** (2 * k + 2)) / (k + 1)

    h = np.array([norm2(k) for k in m])
    scale = np.sqrt([norm2(k) for k in n])
    row = r**n / scale  # f(r) in the scaled coordinates b = a * scale
    N = scipy.linalg.null_space(row[None, :])
    b0 = row / (row @ row)  # the p = 2 minimizer, orthogonal to the slice
    index = np.arange(n.size)[:, None] + np.arange(n.size)[None, :]

    def parts(t):
        a = (b0 + N @ t) / scale
        C = np.zeros((m.size, n.size))
        for i in range(n.size):
            C[i : i + n.size, i] = a
        c = C @ a
        hc = h * c
        value = float(c @ hc)
        grad = 4.0 * (C.T @ hc) / scale
        hess = (8.0 * C.T @ (h[:, None] * C) + 4.0 * hc[index]) / np.outer(scale, scale)
        return value, N.T @ grad, N.T @ hess @ N

    t = np.zeros(N.shape[1])
    value, grad, hess = parts(t)
    for _ in range(100):
        step = -np.linalg.solve(hess, grad)
        decrement = -float(grad @ step)
        if decrement <= 1e-15 * value:
            break
        alpha = 1.0
        while parts(t + alpha * step)[0] > value - 0.25 * alpha * decrement and alpha > 1e-10:
            alpha *= 0.5
        t = t + alpha * step
        value, grad, hess = parts(t)
    return 1.0 / value


def write_series_csv(path, series):
    """Write ``series`` as the ``lambda,re,im`` file ``pbergman lacunary`` reads."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "re", "im"])
        for lam, a in zip(series.exponents, series.coefficients):
            writer.writerow([lam, f"{a.real:.17g}", f"{a.imag:.17g}"])


def quarter_laplacian(f, step: float) -> float:
    """(1/4)(d2/ds2 + d2/dt2) of f(s + it) at 0.

    Five-point central differences on each axis at ``step``, with one
    Richardson extrapolation against ``step/2``.  f is called at 13 points;
    callers that cache f see the shared +-step evaluations only once.
    """
    if not 0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    f0 = f(0.0 + 0.0j)

    def second(h: float, axis: complex) -> float:
        return (
            -f(-2 * h * axis)
            + 16 * f(-h * axis)
            - 30 * f0
            + 16 * f(h * axis)
            - f(2 * h * axis)
        ) / (12.0 * h * h)

    def lap(h: float) -> float:
        return second(h, 1.0 + 0.0j) + second(h, 1.0j)

    coarse = lap(step)
    fine = lap(step / 2.0)
    return (16.0 * fine - coarse) / 15.0 / 4.0


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
