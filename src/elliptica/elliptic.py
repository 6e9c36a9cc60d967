"""Weierstrass wp and wp', elliptic functions as theta quotients, and the
degree-2 normal form.

wp is evaluated through the logarithmic second derivative of the shifted
theta function B(u) = theta(u - (1+tau)/2), which has simple zeros exactly
on the lattice: wp = -(log B)'' + C with C fixed by the absence of a
constant term in the Laurent expansion at 0.  This is exactly periodic
under band reduction and accurate to near machine precision everywhere.
The textbook lattice sum (slowly convergent) and the Laurent-series
recursion seeded from g2, g3 (valid near a lattice point) are kept as
independent cross-check evaluators behind the method flag.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .divisors import Divisor, abel_defect, divisor, divisor_from_json
from .errors import (
    AbelViolationError,
    DegreeMismatchError,
    IndeterminatePointError,
    NotDegree2Error,
    OverlappingDivisorsError,
    ReconstructionFailureError,
)
from .lattice import (
    Lattice,
    TorusPoint,
    half_periods,
    lattice_from_json,
    lattice_to_json,
    reduce_mod_lattice,
    torus_distance,
    weierstrass_invariants,
)
from .sphere import INF, MobiusTransform, chordal, is_infinite, mobius_through
from .theta import THETA_TRUNC, theta_derivs_reduced

POLE_THRESHOLD = 1e-9
ABEL_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-6


@lru_cache(maxsize=128)
def _wp_constant(lat: Lattice, trunc: int) -> complex:
    # C = B'''(0)/(3 B'(0)) - B''(0)^2 / (4 B'(0)^2) for B(u) = theta(u - h)
    h = (1.0 + lat.tau) / 2.0
    d, logf = theta_derivs_reduced(np.array([-h]), lat, trunc, order=3)
    b1, b2, b3 = d[1][0], d[2][0], d[3][0]
    return b3 / (3.0 * b1) - b2 * b2 / (4.0 * b1 * b1)


def wp_values(z, lat: Lattice, trunc: int = THETA_TRUNC):
    """Vectorized raw (wp, wp') without pole masking; z may be any shape.

    Values at (numerical) lattice points come out non-finite.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    u = np.atleast_1d(z) / lat.omega1
    tau = lat.tau
    h = (1.0 + tau) / 2.0
    d, _ = theta_derivs_reduced(u - h, lat, trunc, order=3)
    b0, b1, b2, b3 = d[0], d[1], d[2], d[3]
    c = _wp_constant(lat, trunc)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = -(b2 * b0 - b1 * b1) / (b0 * b0) + c
        pp = -(b3 * b0 * b0 - 3.0 * b2 * b1 * b0 + 2.0 * b1 ** 3) / (b0 ** 3)
    p = p / lat.omega1 ** 2
    pp = pp / lat.omega1 ** 3
    if scalar:
        return complex(p[0]), complex(pp[0])
    return p, pp


def _laurent_coeffs(lat: Lattice, nterms: int = 22) -> np.ndarray:
    g2, g3 = weierstrass_invariants(lat)
    c = np.zeros(nterms + 1, dtype=complex)
    c[2] = g2 / 20.0
    c[3] = g3 / 28.0
    for k in range(4, nterms + 1):
        acc = sum(c[m] * c[k - m] for m in range(2, k - 1))
        c[k] = 3.0 * acc / ((2 * k + 1) * (k - 3))
    return c


def wp_pair(z: complex, lat: Lattice, method: str = "theta",
            trunc: int = THETA_TRUNC, radius: int = 120):
    """(wp(z), wp'(z)) as sphere values; (INF, INF) within the pole-proximity
    threshold of a lattice point.

    method: "theta" (default), "laurent" (series around the nearest lattice
    point, valid for |z| within about half the lattice minimum) or "sum"
    (the defining lattice sums truncated at the given radius; slow, O(1/radius)
    accurate, retained as the cross-check oracle).
    """
    z = complex(z)
    if torus_distance(z, 0.0, lat) < POLE_THRESHOLD * abs(lat.omega1):
        return INF, INF
    if method == "theta":
        return wp_values(z, lat, trunc)
    zr = reduce_mod_lattice(z, lat).rep
    a, b = lat.coords(zr)
    zr = zr - round(a) * lat.omega1 - round(b) * lat.omega2  # nearest lattice point
    if method == "laurent":
        c = _laurent_coeffs(lat)
        p = 1.0 / zr ** 2
        pp = -2.0 / zr ** 3
        for k in range(2, len(c)):
            p += c[k] * zr ** (2 * k - 2)
            pp += (2 * k - 2) * c[k] * zr ** (2 * k - 3)
        return p, pp
    if method == "sum":
        m, n = np.mgrid[-radius:radius + 1, -radius:radius + 1]
        w = (m * lat.omega1 + n * lat.omega2)[(m != 0) | (n != 0)]
        p = 1.0 / zr ** 2 + np.sum(1.0 / (zr - w) ** 2 - 1.0 / w ** 2)
        pp = -2.0 * (1.0 / zr ** 3 + np.sum(1.0 / (zr - w) ** 3))
        return complex(p), complex(pp)
    raise ValueError(f"unknown wp method {method!r}")


@lru_cache(maxsize=128)
def half_period_values(lat: Lattice) -> tuple[complex, complex, complex]:
    """(e1, e2, e3) = wp at the three half-periods; the roots of
    4 w^3 - g2 w - g3."""
    b1, b2, b3 = half_periods(lat)
    return tuple(wp_values(b.rep, lat)[0] for b in (b1, b2, b3))


def wp_inverse(v: complex, lat: Lattice, tol: float = 1e-12) -> TorusPoint:
    """One solution z of wp(z) = v (the other is -z); INF maps to 0."""
    if is_infinite(v):
        return TorusPoint(0.0, lat)
    # seed from a coarse grid, then Newton on wp - v with wp' as derivative
    gs = np.linspace(0.04, 0.96, 17)
    aa, bb = np.meshgrid(gs, gs)
    zz = aa.ravel() * lat.omega1 + bb.ravel() * lat.omega2
    p, _ = wp_values(zz, lat)
    order = np.argsort(np.abs(p - v))
    scale = abs(lat.omega1)
    for idx in order[:8]:
        z = complex(zz[idx])
        for _ in range(60):
            p1, pp1 = wp_values(z, lat)
            err = p1 - v
            if abs(err) < tol * (1.0 + abs(v)):
                return reduce_mod_lattice(z, lat)
            if pp1 == 0:
                break
            step = err / pp1
            if abs(step) > 0.25 * scale:
                step *= 0.25 * scale / abs(step)
            z = z - step
    raise ReconstructionFailureError(f"wp_inverse failed for value {v}")


@dataclass(frozen=True)
class EllipticFunction:
    """Theta-quotient representation of a meromorphic map torus -> sphere.

    zeros and poles are equal-degree disjoint divisors satisfying the Abel
    condition; scale is the free constant from the existence theorem
    (normalized to 1 at construction).  _lifts are the normalized-lattice
    lifts with the Abel sum made exactly zero (one zero lift is shifted by
    the nearest lattice vector), which is what makes the quotient periodic.
    """

    lattice: Lattice
    zeros: Divisor
    poles: Divisor
    scale: complex
    _lifts: tuple[tuple[tuple[complex, int], ...], tuple[tuple[complex, int], ...]]

    @property
    def degree(self) -> int:
        return self.zeros.degree

    def _quotient(self, z, order: int):
        """One pass over the zero and pole lifts at the points z.

        Returns (f, L1, L2): the quotient values and the summed logarithmic
        derivatives L1 = sum +-m theta'/theta and L2 = sum +-m (theta'/theta)'
        in the normalized coordinate u = z / omega1, accumulated up to the
        given derivative order (0, 1 or 2; higher orders stay zero).
        """
        u = np.atleast_1d(np.asarray(z, dtype=complex)) / self.lattice.omega1
        h = (1.0 + self.lattice.tau) / 2.0
        num, den = np.ones_like(u), np.ones_like(u)
        logs, l1, l2 = np.zeros_like(u), np.zeros_like(u), np.zeros_like(u)
        zlifts, plifts = self._lifts
        with np.errstate(divide="ignore", invalid="ignore"):
            for lifts, sign in ((zlifts, 1.0), (plifts, -1.0)):
                for lift, mult in lifts:
                    d, logf = theta_derivs_reduced(u - h - lift, self.lattice, order=order)
                    if sign > 0:
                        num = num * d[0] ** mult
                        logs = logs + mult * logf
                    else:
                        den = den * d[0] ** mult
                        logs = logs - mult * logf
                    if order >= 1:
                        l1 = l1 + sign * mult * d[1] / d[0]
                    if order >= 2:
                        r1 = d[1] / d[0]
                        l2 = l2 + sign * mult * (d[2] / d[0] - r1 * r1)
            return self.scale * (num / den) * np.exp(logs), l1, l2

    def values(self, z):
        """Raw vectorized evaluation (no pole thresholding)."""
        vals = self._quotient(z, 0)[0]
        return complex(vals[0]) if np.ndim(z) == 0 else vals

    def __call__(self, z):
        return self.values(z)

    @np.errstate(divide="ignore", invalid="ignore")
    def values_and_dlog(self, z):
        """(f(z), f'(z)/f(z)) in one pass; the theta factors are shared."""
        vals, l1, _ = self._quotient(z, 1)
        dlog = l1 / self.lattice.omega1
        if np.ndim(z) == 0:
            return complex(vals[0]), complex(dlog[0])
        return vals, dlog

    @np.errstate(divide="ignore", invalid="ignore")
    def derivative_pair(self, z):
        """(f'(z), f''(z)/f'(z)) from one order-2 theta pass, using
        f' = f L1 and f'' = f (L1^2 + L2) with L1 = (log f)', L2 = (log f)''."""
        vals, l1, l2 = self._quotient(z, 2)
        w1 = self.lattice.omega1
        return vals * l1 / w1, (l1 * l1 + l2) / (l1 * w1)

    def translated(self, t: complex) -> "EllipticFunction":
        """The function z -> f(z + t) up to the free scale constant:
        divisors shift by -t and the result is renormalized to scale 1."""
        return build_from_divisors(
            self.zeros.translated(-t), self.poles.translated(-t), self.lattice
        )

    def to_json(self) -> dict:
        return {
            "lattice": lattice_to_json(self.lattice),
            "zeros": self.zeros.to_json(),
            "poles": self.poles.to_json(),
            "scale": [self.scale.real, self.scale.imag],
        }

    @staticmethod
    def from_json(obj: dict) -> "EllipticFunction":
        lat = lattice_from_json(obj["lattice"])
        f = build_from_divisors(
            divisor_from_json(obj["zeros"], lat),
            divisor_from_json(obj["poles"], lat),
            lat,
        )
        s = complex(obj["scale"][0], obj["scale"][1])
        return rescaled(f, s)


def rescaled(f: EllipticFunction, scale: complex) -> EllipticFunction:
    return EllipticFunction(f.lattice, f.zeros, f.poles, scale, f._lifts)


def build_from_divisors(zeros: Divisor, poles: Divisor, lat: Lattice,
                        abel_tol: float = ABEL_TOL) -> EllipticFunction:
    """The theta-quotient elliptic function with the prescribed zero and pole
    divisors and scale 1.

    Raises DegreeMismatchError, OverlappingDivisorsError, or
    AbelViolationError (reporting the defect) when the divisors do not
    satisfy the existence conditions.
    """
    if zeros.degree != poles.degree or zeros.degree < 1:
        raise DegreeMismatchError(
            f"degrees must match and be >= 1: {zeros.degree} vs {poles.degree}"
        )
    scale_len = abs(lat.omega1)
    for zp, _ in zeros.points:
        for pp, _ in poles.points:
            if torus_distance(zp.rep, pp.rep, lat) < 1e-9 * scale_len:
                raise OverlappingDivisorsError(
                    f"zero and pole coincide at {zp.rep}"
                )
    defect = abel_defect(zeros, poles, lat)
    if defect > abel_tol * scale_len:
        raise AbelViolationError(
            f"Abel condition violated: lift sum is {defect:.3e} from the lattice",
            defect=defect,
        )
    zlifts = [[p.rep / lat.omega1, m] for p, m in zeros.points]
    plifts = [[p.rep / lat.omega1, m] for p, m in poles.points]
    # shift one zero lift by the nearest lattice vector so the lift sum
    # vanishes; only then is the quotient genuinely periodic in tau
    tau = lat.tau
    d = sum(l * m for l, m in zlifts) - sum(l * m for l, m in plifts)
    n = round(d.imag / tau.imag)
    m_int = round((d - n * tau).real)
    shift = m_int + n * tau
    if shift != 0:
        lift0, mult0 = zlifts[0]
        if mult0 == 1:
            zlifts[0][0] = lift0 - shift
        else:
            zlifts[0][1] = mult0 - 1
            zlifts.insert(0, [lift0 - shift, 1])
            if zlifts[1][1] == 0:
                del zlifts[1]
    return EllipticFunction(
        lat,
        zeros,
        poles,
        1.0 + 0j,
        (
            tuple((l, m) for l, m in zlifts),
            tuple((l, m) for l, m in plifts),
        ),
    )


def eval_elliptic(f: EllipticFunction, z: complex) -> complex:
    """f(z) as a sphere value: INF within the pole-proximity threshold of a
    pole, exact 0 within it of a zero."""
    z = complex(z)
    thr = POLE_THRESHOLD * abs(f.lattice.omega1)
    near_pole = any(
        torus_distance(z, p.rep, f.lattice) < thr for p, _ in f.poles.points
    )
    near_zero = any(
        torus_distance(z, p.rep, f.lattice) < thr for p, _ in f.zeros.points
    )
    if near_pole and near_zero:
        raise IndeterminatePointError(
            f"{z} is within threshold of both a zero and a pole"
        )
    if near_pole:
        return INF
    if near_zero:
        return 0j
    return complex(f.values(np.array([z]))[0])


def wp_evaluable(lat: Lattice, shift: complex = 0j):
    """wp - shift as an Evaluable with analytic log derivative, for zero
    location."""
    from .divisors import Evaluable

    def f(z):
        return wp_values(z, lat)[0] - shift

    def pair(z):
        p, pp = wp_values(z, lat)
        v = p - shift
        with np.errstate(divide="ignore", invalid="ignore"):
            return v, pp / v

    return Evaluable(f, pair)


def wp_function(lat: Lattice) -> EllipticFunction:
    """wp as an EllipticFunction: poles 2*0, zeros the wp zero pair, scale
    matched to wp."""
    y = wp_inverse(0.0, lat)
    zeros = divisor([(y, 1), (-y, 1)], lat)
    poles = divisor([(TorusPoint(0.0, lat), 2)], lat)
    f = build_from_divisors(zeros, poles, lat)
    # match scale at a probe point
    zp = 0.293 * lat.omega1 + 0.171 * lat.omega2
    ratio = wp_values(zp, lat)[0] / f.values(np.array([zp]))[0]
    return rescaled(f, ratio)


def wp_stabilizer(lat: Lattice) -> list[tuple[MobiusTransform, TorusPoint]]:
    """The four pairs (g_t, t), t in {0, b1, b2, b3}, with
    g_t(wp(z - t)) = wp(z); a group isomorphic to Z2 x Z2."""
    out = [(MobiusTransform.identity(), TorusPoint(0.0, lat))]
    bs = half_periods(lat)
    es = half_period_values(lat)
    for i in range(3):
        ei = es[i]
        ej, ek = es[(i + 1) % 3], es[(i + 2) % 3]
        a = (ei - ej) * (ei - ek)
        g = MobiusTransform(ei, a - ei * ei, 1.0, -ei)
        out.append((g, bs[i]))
    return out


def _branch_translates(f: EllipticFunction) -> list[TorusPoint]:
    lat = f.lattice
    x = f.zeros.lifts()
    t0 = (x[0] + x[1]) / 2.0
    cands = [reduce_mod_lattice(t0, lat)]
    for b in half_periods(lat):
        cands.append(reduce_mod_lattice(t0 + b.rep, lat))
    cands.sort(key=lambda tp: (abs(tp.rep), tp.rep.real, tp.rep.imag))
    return cands


def decompose_degree2(
    f: EllipticFunction, tol: float = RECONSTRUCTION_TOL, grid: int = 7
) -> tuple[MobiusTransform, TorusPoint]:
    """Write a degree-2 function as g o wp o translation: returns (g, t) with
    f(z) ~ g(wp(z - t)) on a verification grid.

    The translate t is a branch point of f: half the zero-lift sum up to a
    half-period, with the smallest admissible |t| preferred.  The answer is
    unique only up to the 4-element stabilizer of wp.
    """
    if f.degree != 2:
        raise NotDegree2Error(f"degree is {f.degree}, need 2")
    lat = f.lattice
    e1, e2, _ = half_period_values(lat)
    b1, b2, _ = half_periods(lat)
    gs = np.linspace(0.11, 0.93, grid)
    aa, bb = np.meshgrid(gs, gs)
    zgrid = (aa.ravel() * lat.omega1 + bb.ravel() * lat.omega2).tolist()
    for t in _branch_translates(f):
        try:
            dst = (
                eval_elliptic(f, t.rep),
                eval_elliptic(f, t.rep + b1.rep),
                eval_elliptic(f, t.rep + b2.rep),
            )
            if (
                chordal(dst[0], dst[1]) < 1e-9
                or chordal(dst[0], dst[2]) < 1e-9
                or chordal(dst[1], dst[2]) < 1e-9
            ):
                continue
            g = mobius_through((INF, e1, e2), dst)
        except (ValueError, IndeterminatePointError):
            continue
        worst = 0.0
        for z in zgrid:
            fv = eval_elliptic(f, z)
            pv, _ = wp_pair(z - t.rep, lat)
            gv = g(pv)
            worst = max(worst, chordal(fv, gv))
            if worst > tol:
                break
        if worst <= tol:
            return g, t
    raise ReconstructionFailureError(
        "no branch-point translate reproduces f within tolerance"
    )
