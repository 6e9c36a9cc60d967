"""Plane cubic curves: the Weierstrass embedding of a torus, tangent lines,
line intersections in closed form (multiplicities read off the Hessian
covariant of F restricted to the line, a binary cubic: it vanishes at a
triple root and has a double root at a double root), the chord-tangent
group law in closed form (the third root of F on a line from the two known
ones), and inflection points.

Two families are supported: the standard Weierstrass form
y^2 z - 4 x^3 + g2 x z^2 + g3 z^3 and the Hesse pencil
x^3 + y^3 + z^3 + t x y z, both as the symmetric (3, 3, 3) coefficient
tensor T of the form, built from a per-family table of nonzero coefficients:
F, grad F, Hess F, the residual scale and the restriction of F to a line or
to any polynomial curve s -> sum_i r_i s^i are its contractions.  The
residual is the smaller of the backward error |F| / |T|[|v|, |v|, |v|] and
the first-order distance |F| / (|grad F| |v|) from the curve.

chart_newton solves {F = 0, G = 0} for a batch of points: the tangency
fibers of the covering module (G a polar conic) and their doubled points,
which are flexes (G = det Hess F, with its analytic gradient).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .elliptic import POLE_THRESHOLD, wp_inverse, wp_values
from .errors import (
    FewerThanNineError,
    NoPreimageError,
    PointOffCurveError,
    ReconstructionFailureError,
    SingularCubicError,
    SingularPointError,
)
from .lattice import (
    Lattice,
    TorusPoint,
    _j_pair,
    _power,
    reduce_mod_lattice,
    torsion_points,
    torus_distance,
    weierstrass_invariants,
)
from .projective import (
    IntersectionList,
    ProjLine,
    ProjPoint,
    cross,
    point_from_vec,
    proj_point,
)

ON_CURVE_TOL = 1e-8
MULT_TOL = 1e-8


# The nonzero coefficients of each family's form, keyed by monomial as sorted
# indices (x, y, z = 0, 1, 2): fixed ones, then the cubic's named parameters.
_FORMS = {
    "weierstrass": ({(1, 1, 2): 1.0, (0, 0, 0): -4.0}, {"g2": (0, 2, 2), "g3": (2, 2, 2)}),
    "hesse": ({(0, 0, 0): 1.0, (1, 1, 1): 1.0, (2, 2, 2): 1.0}, {"t": (0, 1, 2)}),
}


def _contract(T, v) -> np.ndarray:
    """T[., ., v] for v of shape (3, ...); shape (3, 3) + v.shape[1:]."""
    return (T.reshape(9, 3) @ v.reshape(3, -1)).reshape((3, 3) + v.shape[1:])


def _tvv(T, v) -> np.ndarray:
    """T[., v, v] for v of shape (3, ...); in place, since on a large grid
    a fresh (3, 3, ...) temporary costs more than the arithmetic."""
    a = _contract(T, v)
    a *= v
    return a.sum(axis=1)


def _tvvv(T, v):
    """T[v, v, v] for v of shape (3, ...)."""
    b = _tvv(T, v)
    b *= v
    return b.sum(axis=0)


@dataclass(frozen=True)
class Cubic:
    """Homogeneous degree-3 form F(v) = T[v, v, v]; every evaluator takes one
    point, shape (3,), or an array of points, shape (3, ...)."""

    family: str  # "weierstrass" | "hesse"
    g2: complex = 0j
    g3: complex = 0j
    t: complex = 0j

    @cached_property
    def tensor(self) -> np.ndarray:
        """The symmetric (3, 3, 3) coefficient tensor T: each monomial's
        coefficient is spread evenly over the permutations of its indices."""
        fixed, params = _FORMS[self.family]
        coeffs = {**fixed, **{m: getattr(self, name) for name, m in params.items()}}
        T = np.zeros((3, 3, 3), dtype=complex)
        for m, c in coeffs.items():
            perms = set(itertools.permutations(m))
            for idx in perms:
                T[idx] = c / len(perms)
        T.setflags(write=False)
        return T

    def F(self, v) -> complex:
        return _tvvv(self.tensor, np.asarray(v, dtype=complex))

    def grad(self, v) -> np.ndarray:
        return 3.0 * _tvv(self.tensor, np.asarray(v, dtype=complex))

    def hessian_matrix(self, v) -> np.ndarray:
        return 6.0 * _contract(self.tensor, np.asarray(v, dtype=complex))

    def term_scale(self, v):
        """|T|[|v|, |v|, |v|], the sum of the monomial magnitudes; the
        natural residual scale.  A float for one point, an array for an
        array of points."""
        s = _tvvv(np.abs(self.tensor), np.abs(np.asarray(v, dtype=complex))) + 1e-300
        return s if np.ndim(s) else float(s)

    def residual(self, v):
        """|F| over the larger of term_scale and |grad F| |v|, the first-order
        distance, which judges points near [0, 1, 0], where every monomial
        vanishes with F; a float for one point, an array for an array."""
        f, g = np.abs(self.F(v)), np.abs(self.grad(v))
        gmax = g.max(axis=0) + 1e-300  # squared unscaled, |grad F| overflows past 1e154
        dist = f / (np.linalg.norm(g / gmax, axis=0) * gmax * np.linalg.norm(v, axis=0) + 1e-300)
        r = np.minimum(f / self.term_scale(v), dist)
        return r if np.ndim(r) else float(r)

    def hessian_det(self, v) -> complex:
        return complex(np.linalg.det(self.hessian_matrix(v)))

    def hessian_det_rows(self, v):
        """(det Hess F, its gradient) for every row of the (N, 3) array v.

        The Hessian is linear in v, H(v) = sum_k v_k H(e_k) with H(e_k) =
        6 T[., ., e_k], so the derivative of det H along e_k is
        <cof H(v), H(e_k)>; the cofactor rows are cross products of the
        Hessian rows.
        """
        hk = 6.0 * self.tensor.reshape(3, 9)  # row k is H(e_k), T being symmetric
        h = (v @ hk).reshape(-1, 3, 3)
        cof = np.stack([cross(h[:, 1].T, h[:, 2].T), cross(h[:, 2].T, h[:, 0].T),
                        cross(h[:, 0].T, h[:, 1].T)], axis=1).transpose(2, 1, 0)
        det = (h[:, 0] * cof[:, 0]).sum(axis=1)
        return det, cof.reshape(-1, 9) @ hk.T

    def restriction(self, rows) -> np.ndarray:
        """The coefficients, highest power first, of s -> F(sum_i rows[i] s^i)
        for a (d + 1, 3) array of rows, exactly: the coefficient of s^k is
        the sum of T[r_i, r_j, r_l] over i + j + l = k."""
        r = np.asarray(rows, dtype=complex)
        terms = np.einsum("abc,ia,jb,lc->ijl", self.tensor, r, r, r).ravel()
        k = np.indices(3 * (len(r),)).sum(axis=0).ravel()
        c = np.bincount(k, terms.real) + 1j * np.bincount(k, terms.imag)
        return c[::-1]

    def on_curve(self, p: ProjPoint, tol: float = ON_CURVE_TOL) -> bool:
        return self.residual(p.vec) <= tol

    def _pencil_terms(self) -> tuple[complex, float]:
        """(t'^3, c) = (t^3, 27) / s^3, s = max(1, |t|): no power of t overflows."""
        s = max(1.0, abs(self.t))
        t = self.t / s
        return t * t * t, 27.0 / s / s / s

    def is_smooth(self) -> bool:
        """Whether the discriminant, D of the J pair [a^3 : D = a^3 - 27 b^2]
        or t'^3 + c of _pencil_terms, exceeds 1e-12 of its two terms."""
        if self.family == "weierstrass":
            a3, d = _j_pair(self.g2, self.g3)
            return abs(d) > 1e-12 * (abs(a3) + abs(a3 - d))
        t3, c = self._pencil_terms()
        return abs(t3 + c) > 1e-12 * (abs(t3) + c)

    def to_json(self) -> dict:
        params = {name: getattr(self, name) for name in _FORMS[self.family][1]}
        return {"family": self.family, **{k: [c.real, c.imag] for k, c in params.items()}}


def weierstrass_cubic(lat: Lattice) -> Cubic:
    """The cubic y^2 z = 4 x^3 - g2 x z^2 - g3 z^3 carrying the image of the
    wp-embedding of C/Gamma."""
    g2, g3 = weierstrass_invariants(lat)
    c = Cubic("weierstrass", g2=g2, g3=g3)
    if not c.is_smooth():
        raise SingularCubicError(
            f"discriminant too small: g2={g2}, g3={g3}"
        )
    return c


def hesse_cubic(t: complex) -> Cubic:
    return Cubic("hesse", t=complex(t))


IDENTITY = proj_point(0, 1, 0)


def embed_point(z, lat: Lattice) -> ProjPoint:
    """[wp(z), wp'(z), 1], with lattice points mapping to [0, 1, 0]."""
    rep = getattr(z, "rep", z)
    tp = reduce_mod_lattice(complex(rep), lat)
    if torus_distance(tp.rep, 0.0, lat) < POLE_THRESHOLD * abs(lat.omega1):
        return IDENTITY
    p, pp = wp_values(tp.rep, lat)
    return proj_point(p, pp, 1.0)


def unembed(p: ProjPoint, cubic: Cubic, lat: Lattice) -> TorusPoint:
    """Inverse of embed_point on the Weierstrass cubic; the +-z ambiguity of
    wp is resolved by matching wp' to the y-coordinate.

    Within r = 1e-3 |omega1| of 0, where wp loses digits to its pole, the
    series w = -2x/y = z (1 + g2 z^4 / 10 + 3 g3 z^6 / 28 + ...) is
    inverted; there |z/y| is about |z|^3 / 2 < r^3, also for a point that
    rounding moved off [0:1:0], unlike at the zeros of wp, where x = 0 too
    but |z/y| = |g3|^(-1/2), of the order of |omega1|^3.  Elsewhere z is
    wp_inverse(x), which x fixes to eps (|omega1|^-2 + |x|) / |wp'|, only
    about sqrt(eps) |omega1| at a half period; where y fixes it better,
    |wp'|^2 < (|omega1|^-2 + |x|) |wp''|, one Newton step on wp' - y
    follows, with wp'' = 6 wp^2 - g2 / 2."""
    if cubic.family != "weierstrass":
        raise PointOffCurveError("unembed requires a weierstrass-family cubic")
    if not cubic.on_curve(p, 1e-6):
        raise PointOffCurveError(f"point {p.coords} not on the cubic")
    x0, y0, z0 = p.coords
    r = 1e-3 * abs(lat.omega1)
    if abs(2.0 * x0) < r * abs(y0) and abs(z0) <= r * r * r * abs(y0):
        w = -2.0 * x0 / y0
        w2 = w * w  # left to right, g2 and g3 meet w^2 before a power of w can overflow
        return reduce_mod_lattice(w * (1.0 - cubic.g2 * w2 * w2 / 10.0 - 3.0 * cubic.g3 * w2 * w2 * w2 / 28.0), lat)
    if z0 == 0:
        raise NoPreimageError(f"point {p.coords} at infinity is not the identity")
    x, y = x0 / z0, y0 / z0
    try:
        z = wp_inverse(x, lat)
    except ReconstructionFailureError as exc:
        raise NoPreimageError(f"wp inversion failed: {exc}")
    pv, ppv = wp_values(z.rep, lat)
    if abs(ppv - y) > abs(-ppv - y):
        z, ppv = -z, -ppv
    if abs(ppv - y) > 1e-5 * (_power(abs(lat.omega1), -3) + abs(y)):
        raise NoPreimageError(f"wp' mismatch {abs(ppv - y):.2e} at recovered preimage")
    wpp = 6.0 * pv * pv - cubic.g2 / 2.0
    if abs(ppv) * abs(ppv) < (_power(abs(lat.omega1), -2) + abs(x)) * abs(wpp):
        z = reduce_mod_lattice(z.rep - (ppv - y) / wpp, lat)
    return z


def tangent_line(cubic: Cubic, p: ProjPoint, tol: float = ON_CURVE_TOL) -> ProjLine:
    """Tangent at a smooth curve point: dual coordinates are the gradient,
    which must not vanish against its term scale 3 |T|[., |p|, |p|] (both
    in the max norm, which does not overflow where the gradient is finite)."""
    if not cubic.on_curve(p, tol):
        raise PointOffCurveError(f"point {p.coords} not on the cubic")
    g = cubic.grad(p.vec)
    if np.abs(g).max() < 1e-12 * 3.0 * _tvv(np.abs(cubic.tensor), np.abs(p.vec)).max():
        raise SingularPointError(f"vanishing gradient at {p.coords}")
    return ProjLine(point_from_vec(g))


def _newton(f, s, t, k):
    """The root (s, t) of the k-th derivative of the binary form f, highest
    power of s first, after one Newton step in the chart of its larger
    coordinate."""
    flip = abs(s) > abs(t)
    x = t / s if flip else s / t
    p = np.polyder(f[::-1] if flip else f, k)
    x = x - np.polyval(p, x) / np.polyval(np.polyder(p), x)
    return (1.0, x) if flip else (x, 1.0)


def line_intersect_cubic(line: ProjLine, cubic: Cubic) -> IntersectionList:
    """The three intersection points of a line with the cubic, counted with
    multiplicity, in closed form.

    In a Hermitian-orthonormal basis u, w of the line the exact restriction
    is the binary cubic f = a s^3 + 3b s^2 t + 3c s t^2 + d t^3, scaled to a
    largest coefficient of 1.  Its Hessian covariant H = (ac - b^2) s^2 +
    (ad - bc) s t + (bd - c^2) t^2 vanishes exactly at a triple root and has
    a double root exactly at a double root of f, so the multiplicities are
    read off H with the one tolerance MULT_TOL.  A double root is H's,
    polished by one Newton step on f's derivative, and its simple partner
    follows in closed form; only three simple roots go through np.roots,
    each polished by one Newton step on f.
    """
    u, w = np.linalg.svd(line.dual.vec[None])[2][1:].conj()
    a, b, c, d = cubic.restriction([u, w])[::-1] / [1.0, 3.0, 3.0, 1.0]
    top = max(abs(a), abs(b), abs(c), abs(d))
    if top <= 1e-10 * (cubic.term_scale(u) + cubic.term_scale(w)):
        raise SingularCubicError("the line is a component of the cubic")
    a, b, c, d = a / top, b / top, c / top, d / top
    f = np.array([a, 3.0 * b, 3.0 * c, d])
    h2, h1, h0 = a * c - b * b, a * d - b * c, b * d - c * c
    hmax = max(abs(h2), abs(h1), abs(h0))
    if hmax <= MULT_TOL:  # f = k (t0 s - s0 t)^3
        s0, t0 = (-b, a) if abs(a) + abs(b) >= abs(c) + abs(d) else (-d, c)
        roots = [(s0, t0, 3)]
    elif abs(h1 * h1 - 4.0 * h2 * h0) <= MULT_TOL * hmax * hmax:
        # disc H against |H|^2, since three simple points crowding together
        # shrink the raw discriminant almost as much as a tangency does.
        # f = k (t0 s - s0 t)^2 (t1 s - s1 t): (s0, t0) is the double root of
        # H and a simple root of f's derivative; k t0^3 (s1, t1) and
        # k s0^3 (s1, t1) follow from a, b and from c, d
        s0, t0 = (-h1, 2.0 * h2) if abs(h2) >= abs(h0) else (2.0 * h0, -h1)
        s0, t0 = _newton(f, s0, t0, 1)
        ka, kd = np.conj(t0) ** 3, np.conj(s0) ** 3
        s1 = -ka * (3.0 * b * t0 + 2.0 * a * s0) - kd * d * s0
        t1 = ka * a * t0 + kd * (3.0 * c * s0 + 2.0 * d * t0)
        roots = [(s0, t0, 2), (s1, t1, 1)]
    else:  # three simple roots, from the chart of the larger end coefficient
        flip = abs(d) > abs(a)
        charts = [(1.0, r) if flip else (r, 1.0) for r in np.roots(f[::-1] if flip else f)]
        roots = [(*_newton(f, s, t, 0), 1) for s, t in charts]
    entries = [(point_from_vec(s * u + t * w), m) for s, t, m in roots]
    entries.sort(key=lambda e: (e[0].coords[0].real, e[0].coords[0].imag,
                                e[0].coords[1].real))
    return IntersectionList(tuple(entries))


def group_add(cubic: Cubic, p: ProjPoint, q: ProjPoint) -> ProjPoint:
    """Chord-tangent addition on a weierstrass-family cubic with identity
    [0, 1, 0]: the third point of the line pq (the tangent at p if q = p),
    negated.  In an orthonormal basis p^, w^ of the line, q^ = a p^ + b w^
    (b >= 0) and F(s p^ + t w^) = t (c1 s^2 + c2 s t + c3 t^2) exactly; the
    other root is a^2 (s3, t3) = (a c3, -(a c2 + b c3)) and b^2 (s3, t3) =
    (-(b c2 + a c1), b c1), whose sum weighted by conj(a)^2 and b^2 keeps it
    for small a and small b alike: chords, tangents and flexes."""
    if cubic.family != "weierstrass":
        raise PointOffCurveError(
            "group law uses the weierstrass identity [0,1,0]"
        )
    for pt in (p, q):
        if not cubic.on_curve(pt, 1e-6):
            raise PointOffCurveError(f"point {pt.coords} not on the cubic")
    ph = p.vec / np.linalg.norm(p.vec)
    if p.distance(q) < 1e-8:  # sqrt(eps): the chord's direction is rounding
        a, b = 1.0, 0.0
        w = cross(tangent_line(cubic, p, tol=1e-6).dual.vec, ph.conjugate())
    else:
        qh = q.vec / np.linalg.norm(q.vec)
        a = ph.conjugate() @ qh
        w = qh - a * ph
        b = np.linalg.norm(w)
    w = w / np.linalg.norm(w)
    c3, c2, c1, _ = cubic.restriction([ph, w])
    ka, kb = np.conj(a) ** 2, b * b
    s3 = ka * a * c3 - kb * (b * c2 + a * c1)
    t3 = kb * b * c1 - ka * (a * c2 + b * c3)
    x, y, z = s3 * ph + t3 * w
    return proj_point(x, -y, z)


def group_negate(p: ProjPoint) -> ProjPoint:
    x, y, z = p.coords
    return proj_point(x, -y, z)


def chart_newton(cubic: Cubic, v: np.ndarray, g) -> np.ndarray:
    """Newton solve of {F = 0, G = 0} for every row of the (N, 3) array v.

    g(rows) returns G's values and gradients, shapes (N,) and (N, 3).  Each
    row is solved in the chart of its own largest coordinate (scaled to 1
    there) by the closed-form 2x2 solve; a row stops once its step falls
    below 1e-15 or its Jacobian is singular, every row after 12 steps.
    Returns the solved rows.
    """
    rows = np.arange(len(v))
    piv = np.abs(v).argmax(axis=1)
    v = v / v[rows, piv][:, None]
    # the two free coordinates of each row's chart
    i0 = (piv == 0).astype(int)
    i1 = 2 - (piv == 2)
    active = np.ones(len(v), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(12):
            r1, gG = g(v)
            r0 = cubic.F(v.T)
            gF = cubic.grad(v.T).T
            a, b = gF[rows, i0], gF[rows, i1]
            c, d = gG[rows, i0], gG[rows, i1]
            det = a * d - b * c
            du0 = (d * r0 - b * r1) / det
            du1 = (-c * r0 + a * r1) / det
            active &= det != 0
            v[rows, i0] -= np.where(active, du0, 0.0)
            v[rows, i1] -= np.where(active, du1, 0.0)
            active &= np.maximum(np.abs(du0), np.abs(du1)) >= 1e-15
            if not active.any():
                break
    return v


EPS = complex(math.cos(2.0 * math.pi / 3.0), math.sin(2.0 * math.pi / 3.0))  # exp(2 pi i / 3)


def _hesse_inflection_table() -> list[ProjPoint]:
    e = EPS
    rows = [
        (0, 1, -1), (0, 1, -e), (0, 1, -e * e),
        (1, 0, -1), (1, 0, -e * e), (1, 0, -e),
        (1, -1, 0), (1, -e, 0), (1, -e * e, 0),
    ]
    return [proj_point(*r) for r in rows]


def inflection_points(cubic: Cubic, lat: Lattice | None = None) -> list[ProjPoint]:
    """The nine distinct inflection points (curve meets its Hessian).

    Weierstrass family: the embedded 3-torsion points, which is what the
    flexes are, exactly as embed_point gives them, at any lattice scale;
    requires the lattice.  Hesse family: the classical fixed table,
    independent of t.  Every point must pass F and det Hess F (by LU)
    residual checks.
    """
    if cubic.family == "hesse":
        pts = _hesse_inflection_table()
    elif lat is None:
        raise FewerThanNineError("weierstrass inflections need the lattice")
    else:
        pts = [embed_point(tp, lat) for tp in torsion_points(lat, 3)]
    for i, p in enumerate(pts):
        # |det H| <= 1e-6 (1 + s^3), s = max|H|, divided through by s^3, which
        # overflows where s passes 1e103 (omega1 <= 1e-34)
        h = cubic.hessian_matrix(p.vec)
        s = np.abs(h).max()
        if not cubic.on_curve(p, 1e-7) or abs(np.linalg.det(h / s)) > 1e-6 * (s ** -3.0 + 1.0):
            raise FewerThanNineError(f"inflection candidate {i} failed residuals")
    return pts
