"""Riemann-sphere values and Moebius transformations.

A sphere value is an ordinary complex number or the point at infinity,
represented by the constant INF (a complex with an infinite part).  Its unit
pair is its homogeneous pair of largest modulus 1: [v : 1] for |v| <= 1,
[1 : 1/v] beyond and [1 : 0] for INF.  Sphere values and the cubics' J pairs
are compared by one metric, the chordal distance of their pairs, which is
bounded, treats infinity like any other point and overflows at no modulus.
A NaN is neither finite nor infinite: its chordal distance to anything is
NaN, so no "distance < tol" test can match it.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import SingularMobiusError

INF = complex(math.inf, math.inf)


def is_infinite(v: complex) -> bool:
    """True for the point at infinity: a part is +-inf and neither is NaN."""
    return not cmath.isnan(v) and cmath.isinf(v)


def _unit_pair(v: complex) -> tuple[complex, complex]:
    """The unit pair of a sphere value; a NaN gives a NaN entry."""
    if is_infinite(v):
        return 1.0, 0.0
    return (v, 1.0) if abs(v) <= 1.0 else (1.0, 1.0 / v)


def _pair_chordal(p, q) -> float:
    """Chordal distance 2 |p0 q1 - p1 q0| / (|p| |q|) of the points [p0 : p1]
    and [q0 : q1], for entries of moderate modulus: unit pairs and J pairs."""
    (p0, p1), (q0, q1) = p, q
    return 2.0 * abs(p0 * q1 - p1 * q0) / (math.hypot(abs(p0), abs(p1)) * math.hypot(abs(q0), abs(q1)))


def chordal(a: complex, b: complex) -> float:
    """Chordal distance on the Riemann sphere, in [0, 2], on the unit pairs
    of a and b; NaN if either value has a NaN part."""
    return _pair_chordal(_unit_pair(a), _unit_pair(b))


@dataclass(frozen=True)
class MobiusTransform:
    """z -> (a z + b)/(c z + d), coefficients up to common scale, ad - bc != 0."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        # judged on the coefficients over their largest modulus, since ad - bc
        # itself underflows for a regular map with coefficients near 1e-200
        coeffs = (self.a, self.b, self.c, self.d)
        top = max(map(abs, coeffs))
        a, b, c, d = (x / top for x in coeffs) if top else coeffs
        if a * d - b * c == 0:
            raise SingularMobiusError("singular Moebius coefficients")

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def __call__(self, z: complex) -> complex:
        """The image of z, taken on z's unit pair, at any |z|; NaN maps to NaN."""
        if cmath.isnan(z):
            return z
        z0, z1 = _unit_pair(z)
        return sphere_from_pair(self.a * z0 + self.b * z1, self.c * z0 + self.d * z1)

    def compose(self, other: "MobiusTransform") -> "MobiusTransform":
        """self after other: (self.compose(other))(z) = self(other(z))."""
        return MobiusTransform(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MobiusTransform":
        return MobiusTransform(self.d, -self.b, -self.c, self.a)

    def normalized(self) -> "MobiusTransform":
        """Scale so the largest-modulus coefficient is 1."""
        coeffs = (self.a, self.b, self.c, self.d)
        pivot = max(coeffs, key=abs)
        return MobiusTransform(*(x / pivot for x in coeffs))

    @staticmethod
    def identity() -> "MobiusTransform":
        return MobiusTransform(1, 0, 0, 1)

    def proportional_to(self, other: "MobiusTransform", tol: float = 1e-8) -> bool:
        s = self.normalized()
        o = other.normalized()
        return max(
            abs(s.a - o.a), abs(s.b - o.b), abs(s.c - o.c), abs(s.d - o.d)
        ) <= tol


def _to_zero_one_inf(p: complex, q: complex, r: complex) -> MobiusTransform:
    """The Moebius map sending (p, q, r) to (0, 1, INF), z -> [z,p][q,r] /
    ([z,r][q,p]) with [a,b] = a0 b1 - a1 b0 on unit pairs, both factors
    divided by the larger of |[q,r]| and |[q,p]|: every coefficient is at
    most 1 in modulus, and the largest is 1, whatever the moduli of p, q, r."""
    p, q, r = _unit_pair(p), _unit_pair(q), _unit_pair(r)
    qr = q[0] * r[1] - q[1] * r[0]
    qp = q[0] * p[1] - q[1] * p[0]
    s = max(abs(qr), abs(qp)) or 1.0  # 0 when p = q = r: refused as singular
    qr, qp = qr / s, qp / s
    return MobiusTransform(qr * p[1], -qr * p[0], qp * r[1], -qp * r[0])


def mobius_through(src: tuple[complex, complex, complex],
                   dst: tuple[complex, complex, complex]) -> MobiusTransform:
    """The Moebius transformation taking the three distinct source points to
    the three distinct target points (either triple may contain INF)."""
    m1 = _to_zero_one_inf(*src)
    m2 = _to_zero_one_inf(*dst)
    return m2.inverse().compose(m1)


def sphere_from_pair(num: complex, den: complex) -> complex:
    """Value of the homogeneous pair [num : den] as a sphere value."""
    if den == 0:
        return INF
    v = num / den
    if cmath.isnan(v):
        return INF
    return v
