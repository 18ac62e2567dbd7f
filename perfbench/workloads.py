"""Seeded item lists of the three benchmark workloads, with their output checks.

An item is one ``pbergman.cli.main`` call.  A round is a workload's whole
item list.  Every round draws fresh inputs from the workload seed, so no
item repeats within a run.

Point moduli come from per-category ladders of ``LADDER`` fixed values,
visited in a seeded order without replacement; angles are uniform.  The
domains are circular, so the work of an item and every reference value
depend on the modulus alone.  Rounds therefore cost the same from seed to
seed, while within a run no point repeats and no category reuses a modulus.

Checks never use the solver.  Closed forms serve where they exist (disk
K_p and B_p, annulus K_2, the Levi gap at the centre, K_p(0) = 1/pi below
p = 1, the p = 2 lacunary ratio).  Elsewhere K_p must stay at or above the
value the seed code computed at the same modulus (``reference.json``): a
computed K_p is a lower bound, so a better solver can only raise it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

LADDER = 12
ORACLE_TOL = 1e-6  # largest relative error an oracle check accepts
REFERENCE_TOL = 1e-4  # how far K_p may fall below the seed's reference
DIGITS_CAP = 15.0
DEGREE = 24  # the CLI's default kernel degree
ANNULUS = "annulus:0.5,1"
ANNULUS_INNER = 0.5
REFERENCE_FILE = Path(__file__).with_name("reference.json")


class CheckError(Exception):
    """An output disagrees with its oracle or reference."""


@dataclass(frozen=True)
class Item:
    argv: tuple[str, ...]
    # stdout -> (relative errors of the oracle-checked outputs, converged flag)
    check: Callable[[str], tuple[list[float], bool]]


def digits(relative_error: float) -> float:
    if relative_error <= 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(relative_error))


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _finite_positive(value, label: str) -> float:
    value = float(value)
    _expect(math.isfinite(value) and value > 0.0, f"{label} = {value} is not finite and positive")
    return value


def _oracle(value, exact: float, label: str) -> float:
    value = _finite_positive(value, label)
    error = abs(value - exact) / abs(exact)
    _expect(error <= ORACLE_TOL, f"{label} = {value!r}, oracle {exact!r}, relative error {error:.3g}")
    return error


def _at_least(value, reference: float, label: str) -> None:
    value = _finite_positive(value, label)
    _expect(
        value >= reference * (1.0 - REFERENCE_TOL),
        f"{label} = {value!r} below the seed reference {reference!r}",
    )


# --- closed forms ---------------------------------------------------------


def disk_kernel(z: complex) -> float:
    return 1.0 / (math.pi * (1.0 - abs(z) ** 2) ** 2)


def disk_metric(p: float, z: complex) -> float:
    return ((p + 2.0) / 2.0) ** (1.0 / p) / (1.0 - abs(z) ** 2)


def annulus_p2_kernel(z: complex) -> float:
    """sum_n |z|^(2n) / ||z^n||^2 over the basis exponents -DEGREE..DEGREE."""
    r2, a = abs(z) ** 2, ANNULUS_INNER
    terms = []
    for n in range(-DEGREE, DEGREE + 1):
        if n == -1:
            norm2 = 2.0 * math.pi * math.log(1.0 / a)
        else:
            norm2 = 2.0 * math.pi * (1.0 - a ** (2 * n + 2)) / (2 * n + 2)
        terms.append(r2**n / norm2)
    return math.fsum(terms)


# --- seeded inputs --------------------------------------------------------


def ladder_values(lo: float, hi: float) -> np.ndarray:
    return np.linspace(lo, hi, LADDER)


class Ladder:
    """``LADDER`` evenly spaced values in [lo, hi], handed out in seeded order."""

    def __init__(self, rng: np.random.Generator, lo: float, hi: float):
        self.values = ladder_values(lo, hi)
        self._order = list(rng.permutation(LADDER))

    def draw(self) -> tuple[int, float]:
        index = int(self._order.pop())
        return index, float(self.values[index])


def _rotated(rng: np.random.Generator, modulus: float) -> complex:
    return complex(modulus * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


# --- kernel -----------------------------------------------------------------

# label -> (domain, p, modulus range, extra flags); single-point JSON items
KERNEL_POINTS = {
    "disk-p1": ("disk:1", 1.0, (0.45, 0.50), ()),
    "disk-p1.5": ("disk:1", 1.5, (0.30, 0.35), ()),
    "disk-p3": ("disk:1", 3.0, (0.15, 0.20), ()),
    "disk-p4": ("disk:1", 4.0, (0.40, 0.45), ()),
    "annulus-p1.5": (ANNULUS, 1.5, (0.70, 0.75), ()),
    "annulus-p3": (ANNULUS, 3.0, (0.80, 0.85), ()),
    "punctured-p1": ("punctured:1", 1.0, (0.25, 0.30), ("--nmin", "-1")),
}
# categories without a closed form, checked against reference.json
REFERENCE_CATEGORIES = ("annulus-p1.5", "annulus-p3", "punctured-p1")
# label -> (domain, p list, one modulus range per z); multi-z CSV sweeps
KERNEL_SWEEPS = {
    "disk-sweep": ("disk:1", (1.5, 4.0), ((0.05, 0.10), (0.20, 0.25))),
    "annulus-p2-sweep": (ANNULUS, (2.0,), ((0.60, 0.65), (0.85, 0.90))),
}


def kernel_point_argv(label: str, z: complex) -> tuple[str, ...]:
    domain, p, _, extra = KERNEL_POINTS[label]
    return ("kernel", "--domain", domain, "--p", _fmt(p), f"--z={_fmt_complex(z)}") + extra


def _kernel_point_check(label: str, p: float, z: complex, reference: float | None):
    domain = KERNEL_POINTS[label][0]

    def check(out: str):
        doc = json.loads(out)
        _expect(doc["p"] == p and complex(doc["z"]["re"], doc["z"]["im"]) == z, "point echo")
        _expect(doc["degree"] == DEGREE, f"degree {doc['degree']}")
        errors = []
        if domain == "disk:1":
            errors.append(_oracle(doc["K_p"], disk_kernel(z), "K_p"))
        else:
            _at_least(doc["K_p"], reference, "K_p")
        return errors, bool(doc["converged"])

    return check


def _sweep_check(domain: str, ps, zs):
    def check(out: str):
        lines = [line for line in out.splitlines() if line and not line.startswith("#")]
        _expect(lines[0] == "p,re_z,im_z,K_p,B_p", f"header {lines[0]!r}")
        rows = lines[1:]
        _expect(len(rows) == len(ps) * len(zs), f"{len(rows)} rows")
        errors = []
        for row, (p, z) in zip(rows, product(ps, zs)):
            rp, re_z, im_z, k_p, b_p = (float(x) for x in row.split(","))
            _expect(rp == p and complex(re_z, im_z) == z, "row echo")
            if domain == "disk:1":
                errors.append(_oracle(k_p, disk_kernel(z), "K_p"))
                errors.append(_oracle(b_p, disk_metric(p, z), "B_p"))
            else:  # annulus at p = 2
                errors.append(_oracle(k_p, annulus_p2_kernel(z), "K_p"))
                _finite_positive(b_p, "B_p")
        return errors, True

    return check


def load_reference() -> dict[str, list[float]]:
    """Seed K_p per reference category, indexed like the category's ladder."""
    table = json.loads(REFERENCE_FILE.read_text())["categories"]
    for label in REFERENCE_CATEGORIES:
        moduli = ladder_values(*KERNEL_POINTS[label][2])
        if table[label]["modulus"] != moduli.tolist():
            raise ValueError(f"{REFERENCE_FILE.name} does not match the {label} ladder")
    return {label: table[label]["K_p"] for label in REFERENCE_CATEGORIES}


def _kernel_rounds(rng, workdir: Path, rounds: int) -> list[list[Item]]:
    reference = load_reference()
    points = {label: Ladder(rng, *KERNEL_POINTS[label][2]) for label in KERNEL_POINTS}
    sweeps = {
        label: [Ladder(rng, *span) for span in KERNEL_SWEEPS[label][2]]
        for label in KERNEL_SWEEPS
    }
    out = []
    for _ in range(rounds):
        items = []
        for label, (_, p, _, _) in KERNEL_POINTS.items():
            index, modulus = points[label].draw()
            z = _rotated(rng, modulus)
            ref = reference[label][index] if label in REFERENCE_CATEGORIES else None
            items.append(Item(kernel_point_argv(label, z), _kernel_point_check(label, p, z, ref)))
        for label, (domain, ps, _) in KERNEL_SWEEPS.items():
            zs = [_rotated(rng, ladder.draw()[1]) for ladder in sweeps[label]]
            argv = (
                "kernel", "--domain", domain,
                "--p", ",".join(_fmt(p) for p in ps),
                "--z=" + ",".join(_fmt_complex(z) for z in zs),
            )
            items.append(Item(argv, _sweep_check(domain, ps, zs)))
        out.append(items)
    return out


# --- analysis ---------------------------------------------------------------

LEVI_PS = (1.0, 2.0, 4.0)
HOLDER = tuple(product((1.5, 2.0), ("mp", "hp")))
HOLDER_RADII = (0.1, 0.02, 0.003)
HOLDER_DIRECTIONS = 2
# documented slope targets: m_p is Lipschitz in its point, H_p vanishes to
# second order on the diagonal (the seed gives about 1.0 and 2.0 here)
HOLDER_SLOPE_FLOOR = {"mp": 0.9, "hp": 1.9}
LIMIT_RESTARTS = 16
LIMIT_DEGREE = 8


def _levi_check(p: float, direction: complex, step: float):
    scale = abs(direction) ** 2
    levi = 2.0 * scale  # Levi form of log(1 / (pi (1 - |z|^2)^2)) at 0
    bp2 = ((p + 2.0) / 2.0) ** (2.0 / p) * scale

    def check(out: str):
        (record,) = json.loads(out)["records"]
        _expect(record["p"] == p and record["fd_step"] == step, "levi echo")
        errors = [_oracle(record["levi"], levi, "levi"), _oracle(record["bp2"], bp2, "bp2")]
        # the gap vanishes at p = 2, so its error is taken relative to the Levi term
        gap_error = abs(float(record["gap"]) - (levi - bp2)) / levi
        _expect(gap_error <= ORACLE_TOL, f"levi gap error {gap_error:.3g}")
        return errors + [gap_error], True

    return check


def _holder_check(quantity: str):
    def check(out: str):
        doc = json.loads(out)
        _expect(doc["radii"] == sorted(HOLDER_RADII, reverse=True), "radii echo")
        for delta in doc["deltas"]:
            _finite_positive(delta, "delta")
        slope = float(doc["slope"])
        _expect(slope >= HOLDER_SLOPE_FLOOR[quantity], f"{quantity} slope {slope}")
        _expect(float(doc["r_squared"]) >= 0.99, f"r_squared {doc['r_squared']}")
        return [], True

    return check


def _limit_check(ps):
    def check(out: str):
        doc = json.loads(out)
        _expect(doc["restarts"] == LIMIT_RESTARTS, "restarts echo")
        _expect([row["p"] for row in doc["rows"]] == list(ps), "p-list echo")
        errors = []
        for row in doc["rows"]:
            _expect(row["status"] == "ok", f"row status {row['status']!r}")
            d_p = float(row["d_p"])
            _expect(math.isfinite(d_p) and d_p >= 0.0, f"d_p = {d_p}")
            errors.append(_oracle(row["K_p"], 1.0 / math.pi, "K_p(0)"))
        return errors, True

    return check


def _analysis_rounds(rng, workdir: Path, rounds: int) -> list[list[Item]]:
    steps = {p: Ladder(rng, 0.0095, 0.0105) for p in LEVI_PS}
    holder_w = {case: Ladder(rng, 0.25, 0.35) for case in HOLDER}
    holder_zprime = {case: Ladder(rng, 0.10, 0.20) for case in HOLDER}
    limit_ps = (Ladder(rng, 0.60, 0.70), Ladder(rng, 0.85, 0.95))
    out = []
    for _ in range(rounds):
        items = []
        for p in LEVI_PS:
            direction = _rotated(rng, 1.0)
            step = steps[p].draw()[1]
            argv = (
                "levi", "--p", _fmt(p),
                f"--direction={_fmt_complex(direction)}", "--step", _fmt(step),
            )
            items.append(Item(argv, _levi_check(p, direction, step)))
        for case in HOLDER:
            p, quantity = case
            w = _rotated(rng, holder_w[case].draw()[1])
            zprime = _rotated(rng, holder_zprime[case].draw()[1])
            argv = (
                "holder", "--p", _fmt(p), "--quantity", quantity,
                f"--w={_fmt_complex(w)}", f"--zprime={_fmt_complex(zprime)}",
                "--radii", ",".join(_fmt(r) for r in HOLDER_RADII),
                "--directions", str(HOLDER_DIRECTIONS),
            )
            items.append(Item(argv, _holder_check(quantity)))
        ps = [ladder.draw()[1] for ladder in limit_ps]
        argv = (
            "limit", "--p-list", ",".join(_fmt(p) for p in ps),
            "--restarts", str(LIMIT_RESTARTS), "--degree", str(LIMIT_DEGREE),
            "--seed", str(int(rng.integers(2**31))),
        )
        items.append(Item(argv, _limit_check(ps)))
        out.append(items)
    return out


# --- lacunary ---------------------------------------------------------------

LACUNARY_LEVELS = range(8, 13)  # lambda_max = 2^8 .. 2^12
LACUNARY_PS = (0.5, 1.0, 2.0, 4.0)
CIRCLE_RADIUS = 0.9


def _lacunary_check(p: float, circle: bool):
    def one_sided(value: float, label: str) -> list[float]:
        # Hoelder on each circle: the L^p mean is below the L^2 mean for p < 2
        if p == 2.0:
            return [_oracle(value, 1.0, label)]
        below = value <= 1.0 + ORACLE_TOL
        above = value >= 1.0 - ORACLE_TOL
        _expect(below if p < 2.0 else above, f"{label} = {value} at p = {p}")
        return []

    def check(out: str):
        doc = json.loads(out)
        _expect(doc["p"] == p and doc["integrable"] is True, "lacunary echo")
        errors = [_oracle(doc["A"], 2.0, "A")]  # dyadic exponents
        _finite_positive(doc["criterion"], "criterion")
        _finite_positive(doc["direct"], "direct")
        errors += one_sided(_finite_positive(doc["ratio"], "ratio"), "ratio")
        _expect(("circle_norm_ratio" in doc) == circle, "circle ratio presence")
        if circle:
            errors += one_sided(_finite_positive(doc["circle_norm_ratio"], "circle"), "circle")
        return errors, True

    return check


def _lacunary_rounds(rng, workdir: Path, rounds: int) -> list[list[Item]]:
    out = []
    for r in range(rounds):
        items = []
        for level, p in product(LACUNARY_LEVELS, LACUNARY_PS):
            exponents = [2**k for k in range(level + 1)]
            coeffs = rng.standard_normal(len(exponents)) + 1j * rng.standard_normal(len(exponents))
            path = workdir / f"series-{r:03d}-{level}-{_fmt(p)}.csv"
            path.write_text(
                "lambda,re,im\n"
                + "".join(f"{n},{_fmt(a.real)},{_fmt(a.imag)}\n" for n, a in zip(exponents, coeffs))
            )
            # circle_norm_ratio rejects p < 1, and the CLI then exits 1
            circle = p >= 1.0
            argv = ("lacunary", "--file", str(path), "--p", _fmt(p))
            if circle:
                argv += ("--r", _fmt(CIRCLE_RADIUS))
            items.append(Item(argv, _lacunary_check(p, circle)))
        out.append(items)
    return out


@dataclass(frozen=True)
class Workload:
    max_rounds: int
    rounds: Callable[[np.random.Generator, Path, int], list[list[Item]]]


# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {
    "kernel": Workload(LADDER, _kernel_rounds),
    "analysis": Workload(LADDER, _analysis_rounds),
    # rounds take 1.7 to 3 s; 24 cover a 40 s run
    "lacunary": Workload(24, _lacunary_rounds),
}


def generate(name: str, seed: int, workdir: Path) -> list[list[Item]]:
    """All rounds a run may use, from the workload seed alone."""
    workload = WORKLOADS[name]
    return workload.rounds(np.random.default_rng(seed), workdir, workload.max_rounds)
