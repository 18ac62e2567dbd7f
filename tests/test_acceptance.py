"""Acceptance checklist at desk scale: unit disk, degree <= 24, grid <= 256x512.

Each criterion prints one pass/fail line (run with -s to see them all).
"""

import math

import numpy as np

import pbergman as pb
from pbergman.analysis import holder_exponent, hp_scaling_exponent, levi_metric_gap, limit_sweep
from pbergman.kernel import h_function, metric_at, mp_minimizer, offdiag_kernel
from pbergman.lacunary import LacunarySeries, circle_norm_ratio, equivalence_ratio
from pbergman.series import CoeffVector, evaluate
from pbergman import solver
from pbergman.solver import ExtremalProblem, minimize_pnorm, point_constraint

from oracles import brute_force_metric_objective, disk_kernel, least_norm_coeffs

P_SWEEP = (1.0, 1.5, 2.0, 3.0, 4.0)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"{name}: {detail}"


def test_a1_center_kernel_value(disk8):
    worst = 0.0
    for p in P_SWEEP:
        result = mp_minimizer(disk8, p, 0.0)
        worst = max(worst, abs(result.k_p - 1.0 / math.pi) * math.pi)
    _report("A1 center kernel = 1/area for p in {1,1.5,2,3,4}", worst <= 1e-3,
            f"worst rel err {worst:.2e}")


def test_a2_p2_closed_form_suite(disk24):
    rng = np.random.default_rng(2024)
    pairs = []
    while len(pairs) < 20:
        z = (rng.uniform(-0.7, 0.7) + 1j * rng.uniform(-0.7, 0.7)) * 0.999
        w = (rng.uniform(-0.7, 0.7) + 1j * rng.uniform(-0.7, 0.7)) * 0.999
        if abs(z) <= 0.7 and abs(w) <= 0.7 and abs(z - w) >= 0.2:
            pairs.append((z, w))
    worst = 0.0
    for z, w in pairs:
        k = mp_minimizer(disk24, 2.0, z).k_p
        worst = max(worst, abs(k - disk_kernel(z, z).real) / disk_kernel(z, z).real)

        off = offdiag_kernel(disk24, 2.0, z, w)
        exact_off = disk_kernel(z, w)
        worst = max(worst, abs(off - exact_off) / abs(exact_off))

        h = h_function(disk24, 2.0, z, w)
        exact_h = float(
            (disk_kernel(z, z) + disk_kernel(w, w)).real
            - 2.0 * disk_kernel(z, w).real
        )
        worst = max(worst, abs(h - exact_h) / abs(exact_h))

        b = metric_at(disk24, 2.0, z).b_p
        exact_b = math.sqrt(2.0) / (1.0 - abs(z) ** 2)
        worst = max(worst, abs(b - exact_b) / exact_b)
    _report("A2 p=2 kernel/offdiag/H/metric vs closed forms at 20 points",
            worst <= 1e-4, f"worst rel err {worst:.2e}")


def test_a3_levi_gap_signs(disk16):
    gap4 = levi_metric_gap(disk16, 4.0).gap
    gap1 = levi_metric_gap(disk16, 1.0).gap
    gap2 = levi_metric_gap(disk16, 2.0).gap
    ok = gap4 > 0.1 and gap1 < -0.1 and abs(gap2) <= 2e-3
    _report("A3 Levi minus metric-squared gap signs at p=4/1/2", ok,
            f"gap4={gap4:+.4f} (exp +0.268), gap1={gap1:+.4f} (exp -0.25), |gap2|={abs(gap2):.1e}")


def test_a4_center_metric_formula(unit_disk, disk8):
    oracle_grid = pb.build_grid(unit_disk, 64, 128)
    worst = 0.0
    worst_bf = 0.0
    for p in P_SWEEP:
        expected = ((p + 2.0) / 2.0) ** (1.0 / p)
        got = metric_at(disk8, p, 0.0).b_p
        worst = max(worst, abs(got - expected) / expected)
        # independent route: simplex search over degree-6 competitors
        bf_min = brute_force_metric_objective(oracle_grid, p, degree=6, starts=2, seed=5)
        bf_b = (1.0 / math.pi) ** (-1.0 / p) / bf_min
        worst_bf = max(worst_bf, abs(bf_b - expected) / expected)
    ok = worst <= 1e-3 and worst_bf <= 1e-3
    _report("A4 center metric equals ((p+2)/2)^(1/p), brute-force cross-check",
            ok, f"solver rel {worst:.2e}, brute-force rel {worst_bf:.2e}")


def test_a5_holder_and_h_slopes(disk16):
    radii = [0.1 * 2.0**-k for k in range(6)]
    slopes = {}
    for p in (1.5, 2.0, 3.0):
        fit = holder_exponent(disk16, p, 0.2, 0.4, radii)
        slopes[p] = fit.slope
    h_fit = hp_scaling_exponent(disk16, 2.0, 0.4, radii)
    ok = all(s >= 0.9 for s in slopes.values()) and h_fit.slope >= 1.9
    _report("A5 continuity slopes >= 0.9 and H_2 slope >= 1.9", ok,
            "m_p slopes " + ", ".join(f"p={p}: {s:.3f}" for p, s in slopes.items())
            + f"; H slope {h_fit.slope:.3f}")


def test_a6_maximizer_collapse_trend(unit_disk, disk_grid):
    setup = pb.Setup(unit_disk, degree=8, grid=disk_grid)
    record = limit_sweep(setup, 0.0, (0.7, 0.8, 0.9, 0.95, 0.99), restarts=16, seed=0)
    k_worst = max(abs(k - 1.0 / math.pi) * math.pi for k in record.k_p_values)
    d = dict(zip(record.p_list, record.d_p_estimates))
    ok = (
        all(s == "ok" for s in record.statuses)
        and d[0.99] <= d[0.7] + 1e-12
        and d[0.99] < 1e-3
        and k_worst <= 1e-3
    )
    _report("A6 spread bound shrinks toward p=1 and K_p stays 1/area", ok,
            f"d(0.7)={d[0.7]:.2e}, d(0.99)={d[0.99]:.2e}, K rel err {k_worst:.2e} (lower bounds, 16 restarts)")


def test_a7_lacunary_bands(unit_disk):
    rng = np.random.default_rng(777)
    exps10 = tuple(2**k for k in range(1, 11))
    draws = [
        LacunarySeries(exps10, rng.standard_normal(10) + 1j * rng.standard_normal(10))
        for _ in range(100)
    ]
    parseval_worst = max(abs(equivalence_ratio(s, 2.0) - 1.0) for s in draws)

    band_stats = {}
    for p in (0.5, 1.0, 4.0):
        ratios = [equivalence_ratio(s, p) for s in draws]
        band_stats[p] = max(ratios) / min(ratios)

    exps8 = tuple(2**k for k in range(1, 9))
    circle_ratios = [
        circle_norm_ratio(
            LacunarySeries(exps8, rng.standard_normal(8) + 1j * rng.standard_normal(8)),
            0.9,
            4.0,
        )
        for _ in range(200)
    ]
    circle_band = max(circle_ratios) / min(circle_ratios)

    ok = (
        parseval_worst <= 1e-6
        and all(b < 50.0 for b in band_stats.values())
        and circle_band < 10.0
    )
    _report("A7 lacunary identity at p=2 plus bounded ratio bands", ok,
            f"p=2 dev {parseval_worst:.2e}; bands "
            + ", ".join(f"p={p}: {b:.2f}" for p, b in band_stats.items())
            + f"; circle band {circle_band:.2f}")


def test_a8_solver_certificates(unit_disk, disk_grid, smoothed_objectives):
    rng = np.random.default_rng(88)
    disk10 = pb.Setup(unit_disk, degree=10, grid=disk_grid)
    # closed-form equivalence at p = 2
    worst_eq = 0.0
    for seed in range(3):
        r = np.random.default_rng(seed)
        basis = disk10.basis(2.0)
        rows = r.standard_normal((2, 11)) + 1j * r.standard_normal((2, 11))
        targets = r.standard_normal(2) + 1j * r.standard_normal(2)
        prob = ExtremalProblem(basis, disk_grid, 2.0, tuple(zip(rows, targets)))
        sol = minimize_pnorm(prob)
        _, oracle_obj = least_norm_coeffs(disk_grid, basis.exponents, rows, targets)
        worst_eq = max(worst_eq, abs(sol.objective - oracle_obj) / oracle_obj)

    # descent monotonicity on every grid of every run, including rough
    # exponents and p = 8, where the line search must backtrack; the p = 2
    # returns above run no descent
    for p in (1.0, 1.3, 3.0, 4.0, 8.0):
        basis = disk10.basis(p)
        prob = ExtremalProblem(basis, disk_grid, p, (point_constraint(basis, 0.45, 1.0),))
        minimize_pnorm(prob)
    descent_ok = len(smoothed_objectives) == 10 and all(
        np.all(np.diff(values) <= 1e-14 * np.abs(values[1:]))
        for values in smoothed_objectives.values()
    )

    # nested-basis monotonicity
    nested_ok = True
    for p in (1.5, 3.0):
        objs = []
        for degree in (6, 12, 24):
            basis = pb.Setup(unit_disk, degree=degree, grid=disk_grid).basis(p)
            prob = ExtremalProblem(
                basis, disk_grid, p, (point_constraint(basis, 0.5, 1.0),)
            )
            objs.append(minimize_pnorm(prob).objective)
        nested_ok &= all(b <= a * (1 + 1e-9) for a, b in zip(objs, objs[1:]))

    # the line-search gradient p (A t - rhs) against central differences of
    # the smoothed objective at 50 random feasible points
    basis = pb.Setup(unit_disk, degree=8, grid=disk_grid).basis(2.6)
    prob = ExtremalProblem(basis, disk_grid, 2.6, (point_constraint(basis, 0.2, 1.0),))
    feasible = minimize_pnorm(prob).coeffs.coefficients
    h = 1e-6
    worst_grad = 0.0
    ws = solver._Workspace(prob, disk_grid)
    t_feasible = prob.t_from_raw(feasible)
    size = t_feasible.size
    for _ in range(50):
        t = t_feasible + 0.5 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
        ws.set_point(t, 1e-4)
        A, rhs = ws.reduced_system(ws.irls_weights())
        grad = prob.p * (A @ t - rhs)
        d = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        d /= np.linalg.norm(d)
        fd = (ws.set_point(t + h * d, 1e-4) - ws.set_point(t - h * d, 1e-4)) / (2 * h)
        analytic = float(np.real(np.vdot(grad, d)))
        worst_grad = max(worst_grad, abs(fd - analytic) / max(1.0, abs(analytic)))

    ok = worst_eq <= 1e-8 and descent_ok and nested_ok and worst_grad <= 1e-5
    _report("A8 solver certificates (oracle, descent, nesting, gradient)", ok,
            f"p2 eq {worst_eq:.2e}; descent {descent_ok}; nested {nested_ok}; grad {worst_grad:.2e}")


def test_a9_punctured_pole_admission(punctured):
    without = mp_minimizer(pb.Setup(punctured, degree=12, n_min=0), 1.0, 0.5)
    with_pole = mp_minimizer(pb.Setup(punctured, degree=12, n_min=-1), 1.0, 0.5)
    ok = with_pole.k_p >= without.k_p * (1.0 - 1e-8)
    _report("A9 admitting the pole exponent never shrinks the kernel", ok,
            f"K with pole {with_pole.k_p:.6f} >= {without.k_p:.6f} without")
