"""Independent oracles the suite checks the production code against.

Deliberately disjoint from the solve path: the least-norm oracle assembles
the raw Gram KKT system, the KKT-residual oracle projects the gradient of
||f||_p^p, taken on the dense quadrature matrix, onto the constraint null
space, the metric oracle runs a derivative-free simplex search, and the
disk-kernel oracle is the classical closed form.
"""

import math

import numpy as np
import scipy.linalg
import scipy.optimize

from pbergman.geometry import lp_norm


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
