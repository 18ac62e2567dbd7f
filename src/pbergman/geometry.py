"""Planar circular domains and polar-coordinate quadrature for area integrals.

Grids use Gauss-Legendre nodes in the radius (with the polar Jacobian folded
into the weights) and a uniform trapezoid rule in the angle, which is
spectrally accurate for periodic integrands.  A grid stores only its tensor
factors (radii, radial weights, angles); the flat ``nodes`` and ``weights``
arrays are built on first access, so code that works circle by circle never
pays for them.  Grids are immutable after construction and safe to share.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Domain",
    "QuadratureGrid",
    "build_grid",
    "parse_domain",
    "format_domain",
]

DOMAIN_KINDS = ("disk", "annulus", "punctured_disk")


@dataclass(frozen=True)
class Domain:
    """Disk, annulus, or punctured disk centered at the origin.

    ``inner_radius`` is 0 except for annuli.  A punctured disk carries the
    same measure as the disk (the puncture is a null set); it differs only
    in which Laurent exponents are admissible.
    """

    kind: str
    outer_radius: float
    inner_radius: float = 0.0

    def __post_init__(self):
        if self.kind not in DOMAIN_KINDS:
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if not self.outer_radius > self.inner_radius >= 0.0:
            raise ValueError(
                "degenerate domain: need outer_radius > inner_radius >= 0, got "
                f"outer={self.outer_radius}, inner={self.inner_radius}"
            )
        if self.kind == "annulus" and self.inner_radius == 0.0:
            raise ValueError("annulus requires inner_radius > 0")
        if self.kind != "annulus" and self.inner_radius != 0.0:
            raise ValueError(f"{self.kind} requires inner_radius = 0")

    def boundary_distance(self, z: complex) -> float:
        """Distance from z to the boundary circles (the puncture is not a circle)."""
        r = abs(z)
        d = self.outer_radius - r
        if self.kind == "annulus":
            d = min(d, r - self.inner_radius)
        return d

    def contains(self, z: complex) -> bool:
        r = abs(z)
        if self.kind == "annulus":
            return self.inner_radius < r < self.outer_radius
        if self.kind == "punctured_disk":
            return 0.0 < r < self.outer_radius
        return r < self.outer_radius


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Tensor-product quadrature rule for area integrals on a Domain.

    The rule is the product of ``radii`` with ``radial_weights`` and the
    uniform angles ``thetas``.  ``radial_weights`` already contain the
    Gauss-Legendre weight, the interval Jacobian, and the polar factor r; the
    angular weight is uniform, 2*pi/M.  ``nodes`` and ``weights`` are the flat
    radial-major arrays of the product rule: node index ``i * angular_count + j``
    sits at ``radii[i] * exp(1j*thetas[j])``.  They are built on first access
    and then kept.  All arrays are read-only.
    """

    domain: Domain
    radial_count: int
    angular_count: int
    radii: np.ndarray
    radial_weights: np.ndarray
    thetas: np.ndarray

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        return _read_only((self.radii[:, None] * np.exp(1j * self.thetas)[None, :]).ravel())

    @functools.cached_property
    def weights(self) -> np.ndarray:
        angular_weight = 2.0 * math.pi / self.angular_count
        return _read_only(np.repeat(self.radial_weights * angular_weight, self.angular_count))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@functools.cache
def _gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    # shared between grids, hence read-only
    x, w = np.polynomial.legendre.leggauss(count)
    return _read_only(x), _read_only(w)


def _roots_of_unity(count: int) -> np.ndarray:
    """e^(2 pi i j / count) for j < count, each exact to the ulp.

    When 4 divides count only the first quarter takes an exp; the rest are
    its products with i, -1 and -i, which are exact.  Every part is written
    in place into the returned array, so the table is never copied.
    Not cached: a circle of 8 lambda_max angles can ask for 2^23 roots.
    """
    n = count if count % 4 else count // 4
    roots = np.empty(count, dtype=complex)
    quarter = roots[:n]
    np.multiply(1j, 2.0 * math.pi * np.arange(n) / count, out=quarter)
    np.exp(quarter, out=quarter)
    if n < count:
        np.multiply(quarter, 1j, out=roots[n : 2 * n])
        np.negative(quarter, out=roots[2 * n : 3 * n])
        np.multiply(quarter, -1j, out=roots[3 * n :])
    return roots


def build_grid(domain: Domain, radial_count: int, angular_count: int) -> QuadratureGrid:
    """Build the Gauss-Legendre x trapezoid rule for ``domain``.

    The weights sum to the domain area to near machine precision, and no node
    touches the boundary or the origin, so Laurent terms are evaluable.
    """
    if radial_count < 2:
        raise ValueError(f"radial_count must be >= 2, got {radial_count}")
    if angular_count < 4:
        raise ValueError(f"angular_count must be >= 4, got {angular_count}")

    x, glw = _gauss_legendre(radial_count)
    a, b = domain.inner_radius, domain.outer_radius
    radii = 0.5 * (b - a) * x + 0.5 * (a + b)
    radial_weights = glw * (0.5 * (b - a)) * radii  # polar Jacobian folded in
    thetas = 2.0 * math.pi * np.arange(angular_count) / angular_count

    return QuadratureGrid(
        domain=domain,
        radial_count=radial_count,
        angular_count=angular_count,
        radii=_read_only(radii),
        radial_weights=_read_only(radial_weights),
        thetas=_read_only(thetas),
    )


def parse_domain(text: str) -> Domain:
    """Parse ``disk:R``, ``annulus:r0,r1``, or ``punctured:R``."""
    try:
        name, _, params = text.partition(":")
        if name == "disk":
            return Domain("disk", float(params))
        if name == "punctured":
            return Domain("punctured_disk", float(params))
        if name == "annulus":
            r0, r1 = params.split(",")
            return Domain("annulus", float(r1), float(r0))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"cannot parse domain spec {text!r}: {exc}") from None
    raise ValueError(f"cannot parse domain spec {text!r}")


def format_domain(domain: Domain) -> str:
    if domain.kind == "disk":
        return f"disk:{domain.outer_radius:.17g}"
    if domain.kind == "punctured_disk":
        return f"punctured:{domain.outer_radius:.17g}"
    return f"annulus:{domain.inner_radius:.17g},{domain.outer_radius:.17g}"
