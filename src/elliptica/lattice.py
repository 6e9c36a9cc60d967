"""Lattices in the complex plane and the torus C/Gamma.

A lattice is stored through a reduced, positively oriented basis: tau =
omega2/omega1 lies in the standard fundamental domain of the modular group
(|Re tau| <= 1/2, |tau| >= 1).  Reduction keeps Eisenstein sums fast and
makes the square/hexagonal classification a pointwise check on tau.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateGeneratorsError,
    InvalidOrderError,
    NonFiniteCoordinatesError,
    NonFiniteInvariantsError,
)
from .sphere import _pair_chordal

DEGENERACY_TOL = 1e-12
CLASSIFY_TOL = 1e-9
EISENSTEIN_RADIUS = 200


@dataclass(frozen=True)
class Lattice:
    """Rank-2 lattice omega1*Z + omega2*Z with Im(omega2/omega1) > 0."""

    omega1: complex
    omega2: complex

    @property
    def tau(self) -> complex:
        return self.omega2 / self.omega1

    def coords(self, z: complex) -> tuple[float, float]:
        """Real coordinates (a, b) with z = a*omega1 + b*omega2, from u =
        z/omega1 = a + b*tau, the frame of theta and wp: b = Im u / Im tau,
        a = Re u - b Re tau; no product of generators overflows."""
        u, tau = z / self.omega1, self.tau
        b = u.imag / tau.imag
        return u.real - b * tau.real, b

    def from_coords(self, a: float, b: float) -> complex:
        return a * self.omega1 + b * self.omega2


@dataclass(frozen=True)
class TorusPoint:
    """A point of C/Gamma, stored as the representative in the half-open
    fundamental parallelogram {a*omega1 + b*omega2 : 0 <= a, b < 1}."""

    rep: complex
    lattice: Lattice

    def __neg__(self) -> "TorusPoint":
        return reduce_mod_lattice(-self.rep, self.lattice)


class LatticeKind(Enum):
    SQUARE = "square"
    HEXAGONAL = "hexagonal"
    GENERIC = "generic"


@dataclass(frozen=True)
class LatticeClass:
    kind: LatticeKind
    automorphism_count: int


def make_lattice(w1: complex, w2: complex) -> Lattice:
    """Build the lattice generated by w1, w2 with a reduced canonical basis.

    The returned generators span the same point set.  Raises
    DegenerateGeneratorsError when a generator is zero or not finite, their
    ratio is not finite, or the generators are numerically parallel; its
    details name the generators as given.
    """
    w1, w2 = complex(w1), complex(w2)
    given = {"w1": w1, "w2": w2}
    if w1 == 0 or w2 == 0:
        raise DegenerateGeneratorsError("zero generator", **given)
    if not (cmath.isfinite(w1) and cmath.isfinite(w2)):
        raise DegenerateGeneratorsError("non-finite generator", **given)
    ratio = w2 / w1
    if abs(ratio.imag) < DEGENERACY_TOL * abs(ratio):
        raise DegenerateGeneratorsError("generators numerically parallel", **given)
    if ratio.imag < 0:
        w2 = -w2
    # Gauss reduction: shear w2 by integer multiples of w1, swap when shorter.
    for _ in range(64):
        t = w2 / w1
        if not cmath.isfinite(t):  # a ratio past double range has no shear
            raise DegenerateGeneratorsError("generator ratio not finite", **given)
        n = round(t.real)
        w2 = w2 - n * w1
        if abs(w2) < abs(w1):
            w1, w2 = w2, w1
            if (w2 / w1).imag < 0:
                w2 = -w2
        else:
            break
    tau = w2 / w1
    # boundary convention: prefer Re(tau) = +1/2 over -1/2 and the upper arc
    if abs(tau.real + 0.5) < 1e-15:
        w2 = w2 + w1
    return Lattice(w1, w2)


def classify_lattice(lat: Lattice) -> LatticeClass:
    """Square, hexagonal or generic (tau within CLASSIFY_TOL of i, e^(i pi/3)
    or e^(2i pi/3)), with the automorphism group's order: 4, 6 and 2."""
    tau = lat.tau
    if abs(tau - 1j) <= CLASSIFY_TOL:
        return LatticeClass(LatticeKind.SQUARE, 4)
    hex1 = cmath.exp(1j * math.pi / 3)
    hex2 = cmath.exp(2j * math.pi / 3)
    if min(abs(tau - hex1), abs(tau - hex2)) <= CLASSIFY_TOL:
        return LatticeClass(LatticeKind.HEXAGONAL, 6)
    return LatticeClass(LatticeKind.GENERIC, 2)


def eisenstein_series(lat: Lattice, k: int, radius: int = EISENSTEIN_RADIUS) -> complex:
    """Truncated Eisenstein sum of w^(-k) over nonzero lattice points with
    coefficients in [-radius, radius]^2.

    Odd k returns exactly 0 by the w -> -w symmetry.  The truncation tail is
    O(radius^(2-k)) for even k >= 4.
    """
    if k < 3:
        raise InvalidOrderError(f"Eisenstein series requires k >= 3, got {k}")
    if radius < 1:
        raise InvalidOrderError(f"radius must be >= 1, got {radius}")
    if k % 2 == 1:
        return 0j
    m, n = np.mgrid[-radius:radius + 1, -radius:radius + 1]
    w = m * lat.omega1 + n * lat.omega2
    w = w[(m != 0) | (n != 0)]
    return complex(np.sum(w ** (-float(k))))


def _divisor_power_sums(nmax: int, k: int) -> list[int]:
    out = [0] * (nmax + 1)
    for d in range(1, nmax + 1):
        dk = d ** k
        for mult in range(d, nmax + 1, d):
            out[mult] += dk
    return out


_QSERIES_TERMS = 40


@lru_cache(maxsize=256)
def _normalized_invariants(tau: complex) -> tuple[complex, complex]:
    # g2, g3 of Z + tau Z through the Fourier expansions of E4, E6; with a
    # reduced tau the nome satisfies |q| <= exp(-pi sqrt(3)) and 40 terms are
    # far beyond double precision.
    q = cmath.exp(2j * math.pi * tau)
    s3 = _divisor_power_sums(_QSERIES_TERMS, 3)
    s5 = _divisor_power_sums(_QSERIES_TERMS, 5)
    qn = 1.0 + 0j
    e4 = 1.0 + 0j
    e6 = 1.0 + 0j
    for n in range(1, _QSERIES_TERMS + 1):
        qn *= q
        e4 += 240.0 * s3[n] * qn
        e6 -= 504.0 * s5[n] * qn
    g2 = 60.0 * (math.pi ** 4 / 45.0) * e4
    g3 = 140.0 * (2.0 * math.pi ** 6 / 945.0) * e6
    return g2, g3


def _power(x, k: int):
    """x ** k through numpy: inf or 0 past double range, where Python's ** raises."""
    with np.errstate(all="ignore"):
        return type(x)(np.asarray(x) ** k)


def _j_pair(g2: complex, g3: complex) -> tuple[complex, complex]:
    """J = g2^3 / (g2^3 - 27 g3^2) = j / 1728 as the point [a^3 : a^3 - 27 b^2]
    of the projective line, with the weight-normalized (a, b) = (g2 / s^2,
    g3 / s^3), s = max(|g2|^(1/2), |g3|^(1/3)): the same curve, |a|, |b| <= 1,
    so no power overflows; NaN when g2 and g3 both vanish or one is infinite."""
    s = max(math.sqrt(abs(g2)), float(np.cbrt(abs(g3)))) or math.nan
    a, b = g2 / s / s, g3 / s / s / s
    return a * a * a, a * a * a - 27.0 * b * b


def weierstrass_invariants(lat: Lattice) -> tuple[complex, complex]:
    """(g2, g3) = (60 G4, 140 G6) at full working precision.

    Evaluated through the q-expansion of the normalized series rather than
    the raw truncated sums: the raw radius-200 tail (~1e-4 for k=4) is far
    too coarse for the 1e-8 residual targets downstream.  eisenstein_series
    remains available as the independent cross-check.  Raises
    NonFiniteInvariantsError when g2 or g3 leaves double range: when the
    pair's J is not the normalized pair's within chordal 2 CLASSIFY_TOL,
    which a NaN never passes and which also catches a g2 or g3 that rounds or
    underflows to another curve (g3 = 0 on a hexagonal lattice far above
    unit scale).
    """
    g2n, g3n = _normalized_invariants(lat.tau)
    w4, w6 = _power(lat.omega1, 4), _power(lat.omega1, 6)
    g2, g3 = (g2n / w4, g3n / w6) if w6 else (math.inf, math.inf)
    if not _pair_chordal(_j_pair(g2, g3), _j_pair(g2n, g3n)) <= 2.0 * CLASSIFY_TOL:
        raise NonFiniteInvariantsError(f"g2, g3 out of double range at omega1 = {lat.omega1}")
    return g2, g3


def _cell(z: complex, lat: Lattice) -> tuple[int, int]:
    """The floors of z's lattice coordinates; NonFiniteCoordinatesError
    when they are not finite (z NaN, or z / omega1 past double range)."""
    a, b = lat.coords(z)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NonFiniteCoordinatesError(f"the lattice coordinates of {z} are not finite", z=z)
    return math.floor(a), math.floor(b)


def reduce_mod_lattice(z: complex, lat: Lattice) -> TorusPoint:
    """Canonical representative of z in the half-open fundamental
    parallelogram; z - rep is an exact integer combination of generators."""
    rep = z
    for _ in range(3):  # floor may land a cell off through rounding at an edge
        m, n = _cell(complex(rep), lat)
        if m == 0 and n == 0:
            break
        rep = rep - (m * lat.omega1 + n * lat.omega2)
    return TorusPoint(rep, lat)


def torus_distance(x: complex, y: complex, lat: Lattice) -> float:
    """Distance between two torus points: min over lattice translates."""
    d = x - y
    m, n = _cell(d, lat)
    return min(abs(d - (m + i) * lat.omega1 - (n + k) * lat.omega2) for i in (0, 1) for k in (0, 1))


def torsion_points(lat: Lattice, n: int) -> list[TorusPoint]:
    """The n^2 points (a*omega1 + b*omega2)/n, 0 <= a, b < n."""
    if n < 1:
        raise ValueError(f"torsion order must be >= 1, got {n}")
    return [
        TorusPoint((a * lat.omega1 + b * lat.omega2) / n, lat)
        for a in range(n)
        for b in range(n)
    ]


def half_periods(lat: Lattice) -> tuple[TorusPoint, TorusPoint, TorusPoint]:
    """(b1, b2, b3) = (omega1/2, omega2/2, (omega1+omega2)/2) on the torus."""
    return (
        TorusPoint(lat.omega1 / 2, lat),
        TorusPoint(lat.omega2 / 2, lat),
        TorusPoint((lat.omega1 + lat.omega2) / 2, lat),
    )


def lattice_to_json(lat: Lattice) -> dict:
    return {
        "omega1": [lat.omega1.real, lat.omega1.imag],
        "omega2": [lat.omega2.real, lat.omega2.imag],
    }


def lattice_from_json(obj: dict) -> Lattice:
    w1 = complex(obj["omega1"][0], obj["omega1"][1])
    w2 = complex(obj["omega2"][0], obj["omega2"][1])
    return make_lattice(w1, w2)
