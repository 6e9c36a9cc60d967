"""Weierstrass wp and wp', elliptic functions as theta quotients, and the
degree-2 normal form.

wp is evaluated through the logarithmic second derivative of the shifted
theta function B(u) = theta(u - (1+tau)/2), which has simple zeros exactly
on the lattice: wp = -(log B)'' + C with C fixed by the absence of a
constant term in the Laurent expansion at 0.  This is exactly periodic
under band reduction and accurate to near machine precision everywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .divisors import Divisor, Evaluable, _newton_polish, abel_defect, divisor, divisor_from_json
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
)
from .sphere import INF, MobiusTransform, chordal, is_infinite, mobius_through
from .theta import _term_count, theta_sums

POLE_THRESHOLD = 1e-9
ABEL_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-6


@lru_cache(maxsize=128)
def _wp_constant(lat: Lattice, trunc: int | None) -> complex:
    """C = B'''(0)/(3 B'(0)) - B''(0)^2/(4 B'(0)^2) for B(u) = theta(u - h), as
    -(pi^2/3) S3/S1, S_k = sum_n (-1)^n (2n+1)^k q^(n(n+1)): the B form loses
    a digit to cancellation against B''(0)/B'(0) = 2 pi i."""
    n = np.arange((trunc if trunc is not None else _term_count(lat.tau.imag)) + 1)
    t = (-1.0) ** n * (2 * n + 1) * np.exp(1j * np.pi * lat.tau * (n * n + n))
    return -(np.pi ** 2 / 3.0) * np.sum(t * (2 * n + 1) ** 2) / np.sum(t)


def wp_values(z, lat: Lattice, trunc: int | None = None):
    """Vectorized raw (wp, wp') without pole masking; z may be any shape.

    wp = -(log B)'' + C and wp' = -(log B)''' for B(u) = theta(u - h) read the
    kernel's band-reduced sums at the shift h = (1+tau)/2 as they are: these
    log-derivatives do not see the quasi-period factor.  Values at
    (numerical) lattice points come out non-finite.
    """
    z = np.asarray(z, dtype=complex)
    d, _ = theta_sums(z.reshape(-1) / lat.omega1, [(1.0 + lat.tau) / 2.0], lat, trunc, 3)
    # on the kernel's rows s0..s3 and two fresh arrays, which end up as p
    # and pp; each step writes to an array that is none of its operands
    # (numpy rounds a product of one point over an operand differently,
    # and takes longer over small arrays)
    s0, s1, s2, s3 = d[:, 0]
    p, pp = np.empty_like(s0), np.empty_like(s0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.divide(1.0, s0, p)
        r1 = np.multiply(s1, inv, pp)
        r2, r3 = np.multiply(s2, inv, s0), np.multiply(s3, inv, s1)
        r11 = np.multiply(r1, r1, s2)
        np.multiply(np.add(np.subtract(r11, r2, p), _wp_constant(lat, trunc), s3), lat.omega1 ** -2, p)
        t = np.subtract(np.multiply(3.0, r2, s3), np.multiply(2.0, r11, s0), s2)
        np.multiply(np.subtract(np.multiply(r1, t, s0), r3, s2), lat.omega1 ** -3, pp)
    if z.ndim == 0:
        return complex(p[0]), complex(pp[0])
    return p.reshape(z.shape), pp.reshape(z.shape)


def wp_pair(z: complex, lat: Lattice, trunc: int | None = None):
    """(wp(z), wp'(z)) as sphere values; (INF, INF) within the pole-proximity
    threshold of a lattice point."""
    z = complex(z)
    if torus_distance(z, 0.0, lat) < POLE_THRESHOLD * abs(lat.omega1):
        return INF, INF
    return wp_values(z, lat, trunc)


@lru_cache(maxsize=128)
def half_period_values(lat: Lattice) -> tuple[complex, complex, complex]:
    """(e1, e2, e3) = wp at the three half-periods; the roots of
    4 w^3 - g2 w - g3."""
    b1, b2, b3 = half_periods(lat)
    return tuple(wp_values(b.rep, lat)[0] for b in (b1, b2, b3))


def wp_inverse(v: complex, lat: Lattice, tol: float = 1e-12) -> TorusPoint:
    """One solution z of wp(z) = v (the other is -z); INF maps to 0.

    Newton's method on wp - v (divisors._newton_polish) from the seeds
    closest in |wp - v|: a 17 x 17 grid over the cell and omega1 asin(pi /
    sqrt(v omega1^2 + pi^2/3)) / pi, the inverse on the degenerate lattice
    q = 0, which is finite at v = 0, near v^(-1/2) for large v, and near a
    solution at large Im tau.  The first seed whose polished residual is
    below tol (1 + |v|) gives the answer.
    """
    if is_infinite(v):
        return TorusPoint(0.0, lat)
    gs = np.linspace(0.04, 0.96, 17)
    aa, bb = np.meshgrid(gs, gs)
    w1 = lat.omega1
    # at v = -pi^2 / (3 omega1^2) the seed is NaN, whose distance sorts last
    with np.errstate(divide="ignore", invalid="ignore"):
        seed = w1 / np.pi * np.arcsin(np.pi / np.sqrt(np.complex128(v) * w1 * w1 + np.pi ** 2 / 3))
        zz = np.append(aa.ravel() * w1 + bb.ravel() * lat.omega2, seed)
        p, _ = wp_values(zz, lat)
    f = wp_evaluable(lat, v)
    for idx in np.argsort(np.abs(p - v))[:8]:
        z, resid = _newton_polish(f, complex(zz[idx]), 1)
        if resid < tol * (1.0 + abs(v)):
            return reduce_mod_lattice(z, lat)
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

    @cached_property
    def _rows(self):
        """(shifts c = h + lift, s, s c, multiplicities, zero count) of the
        lifts, zeros first; s = +m for a zero, -m for a pole, as a column."""
        zlifts, plifts = self._lifts
        shifts = tuple((1.0 + self.lattice.tau) / 2.0 + lift for lift, _ in zlifts + plifts)
        s = np.array([m for _, m in zlifts] + [-m for _, m in plifts], dtype=float)[:, None]
        return shifts, s, s * np.array(shifts)[:, None], [m for _, m in zlifts + plifts], len(zlifts)

    @np.errstate(divide="ignore", invalid="ignore")
    def _quotient(self, z, order: int):
        """All zero and pole lifts at the points z in one theta kernel call.

        Returns [f, L1, L2][:order + 1] (order 0, 1 or 2), the values and
        the summed log-derivatives in u = z / omega1, from the kernel's sums
        and k at the shifts c = h + lift, with one complex exp per point for
        the quasi-period factors (s = +-m):

            L1 = sum s sums1/sums0 - 2 pi i sum s k,
            L2 = sum s (sums2/sums0 - (sums1/sums0)^2),
            f = scale prod sums0^s exp(sum s (i pi k^2 tau - 2 pi i k (u - c))).

        The kernel's fresh arrays are the workspace: sums1 and sums2 are
        divided by sums0 and weighted by s in place, sums0 is raised to the
        multiplicities and then holds (sums1/sums0)^2, k s c and the
        per-point temporaries, and k becomes k^2.  The returned arrays are
        fresh.
        """
        lat = self.lattice
        shifts, s, sc, mults, nz = self._rows
        u = np.asarray(z, dtype=complex).reshape(-1) / lat.omega1
        n = u.size
        # numpy sums the lifts of two points row by row, of one pairwise, and
        # rounds a product of one point in place unlike out of place
        if n == 1:
            u = u.repeat(2)
        d, k = theta_sums(u, shifts, lat, order=order)
        sk = s[:, 0] @ k  # integers: exact in any order

        def total(rows):  # sum s rows over the lifts, weighted in place as reals
            np.multiply(rows.view(float), s, rows.view(float))
            return rows.sum(axis=0)

        def product(rows):  # left to right, each partial product into the next row
            return reduce(lambda a, b: np.multiply(a, b, b), rows)

        if order >= 1:
            r1 = np.divide(d[1], d[0], d[1])
        if order >= 2:
            np.divide(d[2], d[0], d[2])
        d0 = d[0]
        for i, m in enumerate(mults):
            if m > 1:
                d0[i] **= m
        f = product(d0[:nz]) / product(d0[nz:])
        np.multiply(self.scale, f, f)
        l1 = l2 = None
        if order >= 2:  # before total() weights r1
            d[2] -= np.multiply(r1, r1, d0)
            l2 = total(d[2])
        if order >= 1:
            l1 = total(r1)
            l1 -= np.multiply(2j * np.pi, sk, d0[0])
        # sum s k c, the rows of d0 are free again after the sum
        d0[...] = k
        ksc = np.multiply(d0, sc, d0).sum(axis=0)
        t = np.multiply(sk, u, d0[0])
        t -= ksc
        np.multiply(2j * np.pi, t, t)
        k *= k
        logs = np.multiply(1j * np.pi * lat.tau, s[:, 0] @ k, ksc)
        logs -= t
        f *= np.exp(logs, logs)
        return [a[:n] for a in (f, l1, l2)[:order + 1]]

    def values(self, z):
        """Raw vectorized evaluation (no pole thresholding)."""
        vals = self._quotient(z, 0)[0]
        return complex(vals[0]) if np.ndim(z) == 0 else vals

    def __call__(self, z):
        return self.values(z)

    def values_and_dlog(self, z):
        """(f(z), f'(z)/f(z)) in one pass; the theta factors are shared."""
        vals, l1 = self._quotient(z, 1)
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


def build_from_divisors(zeros: Divisor, poles: Divisor, lat: Lattice) -> EllipticFunction:
    """The theta-quotient elliptic function with the prescribed zero and pole
    divisors and scale 1.

    Raises DegreeMismatchError, OverlappingDivisorsError, or
    AbelViolationError (reporting the defect, when above ABEL_TOL |omega1|)
    when the divisors do not satisfy the existence conditions.
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
    if defect > ABEL_TOL * scale_len:
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
    def pair(z):
        p, pp = wp_values(z, lat)
        v = p - shift
        with np.errstate(divide="ignore", invalid="ignore"):
            return v, pp / v

    return Evaluable(pair, degree=2)


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


def decompose_degree2(f: EllipticFunction) -> tuple[MobiusTransform, TorusPoint]:
    """Write a degree-2 function as g o wp o translation: returns (g, t) with
    f(z) ~ g(wp(z - t)) within RECONSTRUCTION_TOL (chordal) on a 7 x 7
    verification grid.

    The translate t is a branch point of f: half the zero-lift sum up to a
    half-period, with the smallest admissible |t| preferred.  The answer is
    unique only up to the 4-element stabilizer of wp.
    """
    if f.degree != 2:
        raise NotDegree2Error(f"degree is {f.degree}, need 2")
    lat = f.lattice
    e1, e2, _ = half_period_values(lat)
    b1, b2, _ = half_periods(lat)
    gs = np.linspace(0.11, 0.93, 7)
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
        # "<=" is false for a NaN distance, so a NaN value never passes
        if all(
            chordal(eval_elliptic(f, z), g(wp_pair(z - t.rep, lat)[0])) <= RECONSTRUCTION_TOL
            for z in zgrid
        ):
            return g, t
    raise ReconstructionFailureError(
        "no branch-point translate reproduces f within tolerance"
    )
