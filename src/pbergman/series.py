"""Truncated holomorphic and Laurent series over circular domains.

A basis is a set of admissible monomial exponents; a coefficient vector pins
one series.  Evaluation is pure and vectorizes over points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Domain

__all__ = [
    "MAX_ABS_EXPONENT",
    "BasisSpec",
    "CoeffVector",
    "admissible_exponents",
    "evaluate",
]

# Conditioning guard for raw monomial bases; desk-scale work stays below it.
MAX_ABS_EXPONENT = 48


def admissible_exponents(domain: Domain, p: float, n_min: int, n_max: int) -> list[int]:
    """Exponents n in [n_min, n_max] with z^n holomorphic and |z^n|^p area-integrable.

    On the disk only n >= 0 qualifies.  On an annulus every integer does.  On
    the punctured disk a pole term z^n, n < 0, is integrable iff |n|*p < 2;
    the boundary case |n|*p = 2 diverges logarithmically and is excluded.
    """
    if not 0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got {p}")
    if n_min > n_max:
        raise ValueError(f"need n_min <= n_max, got {n_min} > {n_max}")

    def ok(n: int) -> bool:
        if n >= 0:
            return True
        if domain.kind == "disk":
            return False
        if domain.kind == "annulus":
            return True
        return -n * p < 2.0

    return [n for n in range(n_min, n_max + 1) if ok(n)]


@dataclass(frozen=True)
class BasisSpec:
    """Strictly increasing admissible exponents tied to a domain and an exponent p."""

    exponents: tuple[int, ...]
    domain: Domain
    p: float

    def __post_init__(self):
        if len(self.exponents) == 0:
            raise ValueError("basis needs at least one exponent")
        exps = tuple(int(n) for n in self.exponents)
        object.__setattr__(self, "exponents", exps)
        if any(b <= a for a, b in zip(exps, exps[1:])):
            raise ValueError(f"exponents must be strictly increasing, got {exps}")
        if max(abs(n) for n in exps) > MAX_ABS_EXPONENT:
            raise ValueError(
                f"exponent magnitude above the conditioning cap {MAX_ABS_EXPONENT}"
            )
        allowed = set(admissible_exponents(self.domain, self.p, exps[0], exps[-1]))
        bad = [n for n in exps if n not in allowed]
        if bad:
            raise ValueError(
                f"exponents {bad} are not admissible on {self.domain.kind} at p={self.p}"
            )

    @property
    def dimension(self) -> int:
        return len(self.exponents)

    def has_poles(self) -> bool:
        return self.exponents[0] < 0


@dataclass(frozen=True, eq=False)
class CoeffVector:
    """Complex coefficients aligned with a BasisSpec."""

    basis: BasisSpec
    coefficients: np.ndarray

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=complex)
        if coef.shape != (self.basis.dimension,):
            raise ValueError(
                f"{coef.shape[0] if coef.ndim == 1 else coef.shape} coefficients "
                f"for a basis of dimension {self.basis.dimension}"
            )
        coef = coef.copy()
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)


def evaluate(coeffs: CoeffVector, z):
    """Sum a_n z^n at a point or an array of points."""
    zs = np.asarray(z, dtype=complex)
    scalar = zs.ndim == 0
    zs = np.atleast_1d(zs)
    if coeffs.basis.has_poles() and np.any(zs == 0):
        raise ValueError("cannot evaluate a pole term at z = 0")
    out = np.zeros_like(zs)
    for a, n in zip(coeffs.coefficients, coeffs.basis.exponents):
        out += a * zs**n
    return complex(out[0]) if scalar else out
