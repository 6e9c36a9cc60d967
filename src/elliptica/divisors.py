"""Divisors on the torus, the Jacobi map, the Abel condition, and numerical
zero location through the argument principle and Newton's identities.

The contour routines accept one protocol: an object that is callable
elementwise on a complex ndarray and has values_and_dlog(z) returning the
pair (f(z), f'(z)/f(z)).  An EllipticFunction, wp_evaluable(...) and
reciprocal(...) of either satisfy it; Evaluable(f, pair) builds one from
two functions.  Zero location subdivides the fundamental parallelogram into
cells, integrates f'/f over a circle circumscribing each cell, inverts
Newton's identities to seed the roots, then Newton-polishes and verifies
each root; cells whose data is inconsistent (for instance zeros shadowed by
poles in the same cell) are subdivided, and the whole grid is re-shifted
when a cell boundary passes too close to a zero or pole.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContourTooCloseError,
    DegreeMismatchError,
    EmptyDivisorError,
    InsufficientSumsError,
    NonIntegerCountError,
    SubdivisionFailureError,
)
from .lattice import Lattice, TorusPoint, reduce_mod_lattice, torus_distance

CLUSTER_RADIUS = 1e-5
CONTOUR_NODES = 128
MIN_MODULUS_REL = 1e-9
CELL_MIN_MODULUS_REL = 1e-4
MAX_GRID_SHIFTS = 8
MAX_CELL_DEPTH = 5
BASE_SUBDIVISION = 4


@dataclass(frozen=True)
class Divisor:
    """Finite multiset of torus points with positive multiplicities."""

    points: tuple[tuple[TorusPoint, int], ...]

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.points)

    def lifts(self) -> list[complex]:
        """Representatives repeated with multiplicity."""
        return [p.rep for p, m in self.points for _ in range(m)]

    def translated(self, t: complex) -> "Divisor":
        lat = self.points[0][0].lattice
        return divisor([(p.rep + t, m) for p, m in self.points], lat)

    def to_json(self) -> list:
        return [[p.rep.real, p.rep.imag, m] for p, m in self.points]


def divisor(entries, lat: Lattice) -> Divisor:
    """Build a Divisor from (point, multiplicity) pairs; points may be
    TorusPoint or complex lifts.  Coincident points are aggregated."""
    scale = abs(lat.omega1)
    merged: list[list] = []
    for pt, mult in entries:
        if mult <= 0:
            raise ValueError(f"multiplicity must be positive, got {mult}")
        rep = reduce_mod_lattice(getattr(pt, "rep", pt), lat)
        for item in merged:
            if torus_distance(item[0].rep, rep.rep, lat) <= 1e-12 * scale:
                item[1] += mult
                break
        else:
            merged.append([rep, mult])
    merged.sort(key=lambda it: (it[0].rep.real, it[0].rep.imag))
    return Divisor(tuple((p, m) for p, m in merged))


def divisor_from_json(data, lat: Lattice) -> Divisor:
    return divisor([(complex(e[0], e[1]), int(e[2])) for e in data], lat)


def jacobi_sum(div: Divisor, lat: Lattice) -> TorusPoint:
    """Lie-group sum of the divisor's points, reduced mod the lattice."""
    if div.degree < 1:
        raise EmptyDivisorError("jacobi_sum of an empty divisor")
    total = sum(m * p.rep for p, m in div.points)
    return reduce_mod_lattice(total, lat)


def abel_defect(zeros: Divisor, poles: Divisor, lat: Lattice) -> float:
    """Distance of the lift sum difference from the nearest lattice point;
    zero exactly when the Abel condition holds."""
    if zeros.degree != poles.degree:
        raise DegreeMismatchError(
            f"divisor degrees differ: {zeros.degree} vs {poles.degree}"
        )
    s = sum(m * p.rep for p, m in zeros.points) - sum(
        m * p.rep for p, m in poles.points
    )
    return torus_distance(s, 0.0, lat)


@dataclass(frozen=True)
class PowerSums:
    """values[p] ~ sum of w^p over enclosed zeros in the local coordinate;
    values[0] is the (net) enclosed count."""

    values: tuple[complex, ...]

    @property
    def count(self) -> int:
        return int(round(self.values[0].real))


def _require_dlog(f) -> None:
    if not hasattr(f, "values_and_dlog"):
        raise NonIntegerCountError(
            "no count integral without f'/f: f has no values_and_dlog"
        )


def _circle_samples(f, center: complex, radius: float, nodes: int, min_modulus: float):
    """(w, f'/f, median |f|) at `nodes` equispaced points center + w of the
    circle.

    Raises ContourTooCloseError when |f| on the circle leaves
    [min_modulus, 1/min_modulus] times its median, the sign of a zero or pole
    near the contour.
    """
    angles = 2.0 * np.pi * np.arange(nodes) / nodes
    w = radius * np.exp(1j * angles)
    fz, g = f.values_and_dlog(center + w)
    mods = np.abs(fz)
    scale = float(np.median(mods))
    if scale == 0.0 or not np.isfinite(scale):
        raise ContourTooCloseError(
            "degenerate function values on contour", center=center, radius=radius
        )
    if mods.min() < min_modulus * scale:
        raise ContourTooCloseError(
            "zero too close to contour", center=center, radius=radius
        )
    if mods.max() > scale / min_modulus:
        raise ContourTooCloseError(
            "pole too close to contour", center=center, radius=radius
        )
    return w, np.asarray(g), scale


def _counted_samples(f, center: complex, radius: float, nodes: int, min_modulus: float):
    """(count, w, f'/f, median |f|) at the first node count, doubling from
    `nodes` up to 16 * nodes, at which the count integral and its half-node
    (coarser trapezoid) value agree on an integer; NonIntegerCountError when
    none does."""
    n = nodes
    while True:
        w, g, scale = _circle_samples(f, center, radius, n, min_modulus)
        s0 = complex(np.mean(g * w))
        s0_half = complex(np.mean(g[::2] * w[::2]))
        count = round(s0.real)
        if abs(s0 - count) <= 0.1 and abs(s0_half - count) <= 0.1:
            return count, w, g, scale
        if n >= 16 * nodes:
            raise NonIntegerCountError(
                f"count integral {s0} not near an integer",
                center=center,
                radius=radius,
            )
        n *= 2


def _sums_from_samples(w, g, kmax: int) -> list[complex]:
    out = []
    for p in range(kmax + 1):
        out.append(complex(np.mean(g * w ** (p + 1))))
    return out


class Evaluable:
    """An elementwise function f with pair(z) = (f(z), f'(z)/f(z)): the
    protocol the contour routines accept."""

    def __init__(self, f, pair):
        self._f = f
        self.values_and_dlog = pair

    def __call__(self, z):
        return self._f(z)


def contour_power_sums(
    f,
    center: complex,
    radius: float,
    kmax: int,
    lat: Lattice | None = None,
    nodes: int = CONTOUR_NODES,
    min_modulus: float = MIN_MODULUS_REL,
) -> PowerSums:
    """Power sums of the zeros of f inside |z - center| = radius.

    Trapezoidal quadrature of (1/2 pi i) * integral of (f'/f) w^p dw with
    f'/f from f.values_and_dlog; the node count is doubled until two
    successive counts agree.  Raises ContourTooCloseError when the circle
    passes too close to a zero or pole of f, NonIntegerCountError when the
    count integral is farther than 0.1 from an integer or f has no
    values_and_dlog.
    """
    if kmax < 0:
        raise InsufficientSumsError(f"kmax must be >= 0, got {kmax}")
    _require_dlog(f)
    count, w, g, _ = _counted_samples(f, center, radius, nodes, min_modulus)
    values = _sums_from_samples(w, g, kmax)
    values[0] = complex(count)
    return PowerSums(tuple(values))


def newton_elementary(sums: PowerSums) -> list[complex]:
    """Elementary symmetric values s_1..s_k from power sums via Newton's
    identities; the monic polynomial with coefficients (-1)^j s_j has the
    enclosed zeros as roots."""
    k = sums.count
    if k < 0:
        raise InsufficientSumsError(f"negative count {k}")
    if len(sums.values) < k + 1:
        raise InsufficientSumsError(
            f"need power sums through p={k}, have {len(sums.values) - 1}"
        )
    p = sums.values
    e = [1.0 + 0j]
    for r in range(1, k + 1):
        acc = 0j
        for i in range(1, r + 1):
            acc += (-1) ** (i - 1) * e[r - i] * p[i]
        e.append(acc / r)
    return e[1:]


def monic_from_elementary(sym: list[complex]) -> np.ndarray:
    """Coefficients [1, -s1, s2, ...] of prod (w - z_i)."""
    coeffs = [1.0 + 0j]
    for j, s in enumerate(sym, start=1):
        coeffs.append((-1) ** j * s)
    return np.array(coeffs)


def _newton_polish(f, z0: complex, mult: int, step_scale: float, max_iter: int = 28):
    """Multiplicity-aware Newton iteration on f from seed z0.

    Returns (best point, best |f|) over the iteration; near multiple roots
    the step stalls at the evaluation noise floor, so acceptance is by
    residual, not by step convergence.
    """
    z = z0
    best_z, best_r = z0, math.inf
    stale = 0
    for _ in range(max_iter):
        fz_a, g_a = f.values_and_dlog(np.array([z]))
        fz = complex(fz_a[0])
        r = abs(fz)
        if r < 0.5 * best_r:
            stale = 0
        else:
            stale += 1
        if r < best_r:
            best_z, best_r = z, r
        if stale >= 4:
            break
        fp = fz * complex(g_a[0])
        if fp == 0 or not (math.isfinite(fp.real) and math.isfinite(fp.imag)):
            break
        dz = mult * fz / fp
        z = z - dz
        if abs(dz) < 1e-15 * max(1.0, abs(z)):
            za = np.array([z])
            r = abs(complex(f(za)[0]))
            if r < best_r:
                best_z, best_r = z, r
            break
    return best_z, best_r


def _cluster(points: list[complex], radius: float) -> list[tuple[complex, int]]:
    """Greedy clustering; returns (centroid, size) pairs."""
    out: list[list] = []
    for z in sorted(points, key=lambda v: (v.real, v.imag)):
        for item in out:
            if abs(item[0] / item[1] - z) <= radius:
                item[0] += z
                item[1] += 1
                break
        else:
            out.append([z, 1])
    return [(s / m, m) for s, m in out]


class _GridRetry(Exception):
    pass


# a cell circle that fails like this is a reason to subdivide or re-shift
_RETRY = (_GridRetry, ContourTooCloseError, NonIntegerCountError)


def _cell_circle(lat: Lattice, a0, b0, sa, sb):
    center = lat.from_coords(a0 + sa / 2.0, b0 + sb / 2.0)
    half_diag = 0.5 * max(
        abs(sa * lat.omega1 + sb * lat.omega2), abs(sa * lat.omega1 - sb * lat.omega2)
    )
    return center, 1.07 * half_diag


_KMAX_CAP = 8
_MOMENT_TOL = 2e-3


def _roots_from_sums(count: int, sums: list[complex], center: complex):
    sym = newton_elementary(PowerSums(tuple([complex(count)] + sums[1:count + 1])))
    return [center + complex(r) for r in np.roots(monic_from_elementary(sym))]


def _cell_sums(f, center, radius):
    """(count, power sums 0.._KMAX_CAP, median |f|) on a cell circle."""
    count, w, g, scale = _counted_samples(
        f, center, radius, CONTOUR_NODES, CELL_MIN_MODULUS_REL
    )
    return count, _sums_from_samples(w, g, _KMAX_CAP), scale


def _process_cell(f, lat, a0, b0, sa, sb, depth, tol, found):
    center, radius = _cell_circle(lat, a0, b0, sa, sb)

    def subdivide():
        if depth >= MAX_CELL_DEPTH:
            raise _GridRetry()
        for da in (0.0, 0.5):
            for db in (0.0, 0.5):
                _process_cell(
                    f, lat, a0 + da * sa, b0 + db * sb,
                    sa / 2.0, sb / 2.0, depth + 1, tol, found,
                )

    try:
        count, sums, scale = _cell_sums(f, center, radius)
    except _RETRY:
        # a feature sits too close to this cell's circle; subdividing moves
        # every boundary, so trouble stays local instead of restarting the grid
        if depth >= MAX_CELL_DEPTH:
            raise
        subdivide()
        return

    def moments_explained(points, start, data, sign=1.0):
        # measured sums must match the moments of the recovered points from
        # power `start` upward; mismatch means features hide behind a net
        # count.  sign=-1 compares against pole contributions.
        for p in range(start, _KMAX_CAP + 1):
            predicted = sign * sum((z - center) ** p for z in points)
            if abs(data[p] - predicted) / radius ** p > _MOMENT_TOL:
                return False
        return True

    def confirmed(points, start, sign=1.0):
        # features just outside the circle pollute low-node moments; re-check
        # at high resolution before concluding the cell hides features, but
        # skip it when the mismatch is far above any plausible contamination
        if moments_explained(points, start, sums, sign):
            return True
        gross = max(
            abs(sums[p] - sign * sum((z - center) ** p for z in points))
            / radius ** p
            for p in range(start, _KMAX_CAP + 1)
        )
        if gross > 0.05:
            return False
        try:
            w, g, _ = _circle_samples(f, center, radius, 768, CELL_MIN_MODULUS_REL)
        except _RETRY:
            return False
        hi = _sums_from_samples(w, g, _KMAX_CAP)
        return moments_explained(points, start, hi, sign)

    if count == 0:
        if confirmed([], 1):
            return
        # minimal hidden configuration: one zero shadowed by one pole.  Their
        # signed moments s_p = (z-c)^p - (p-c)^p determine the pair in closed
        # form from p = 1, 2; higher moments must then agree.
        s1 = sums[1]
        if abs(s1) > 0.5 * _MOMENT_TOL * radius:
            zc = center + (s1 + sums[2] / s1) / 2.0
            pc = center + (sums[2] / s1 - s1) / 2.0
            pair_ok = all(
                abs(sums[p] - ((zc - center) ** p - (pc - center) ** p))
                / radius ** p
                <= _MOMENT_TOL
                for p in range(3, _KMAX_CAP + 1)
            )
            if pair_ok:
                z, resid = _newton_polish(f, zc, 1, radius)
                pol, _ = _newton_polish(reciprocal(f), pc, 1, radius)
                if (
                    resid <= 1e-6 * scale
                    and abs(z - zc) < 0.2 * radius
                    and abs(pol - pc) < 0.2 * radius
                ):
                    a, b = lat.coords(z)
                    if a0 <= a < a0 + sa and b0 <= b < b0 + sb:
                        found.append((z, 1))
                    return
        subdivide()
        return
    if count < 0:
        # net poles: recover them from 1/f on the same circle and accept the
        # cell as pole-only when they explain every measured f-moment
        try:
            rcount, rsums, _ = _cell_sums(reciprocal(f), center, radius)
        except _RETRY:
            subdivide()
            return
        if rcount == -count and rcount <= _KMAX_CAP:
            poles = _roots_from_sums(rcount, rsums, center)
            if confirmed(poles, 1, sign=-1.0):
                return
        subdivide()
        return
    if count > 3 and depth < MAX_CELL_DEPTH:
        subdivide()
        return
    if count > _KMAX_CAP:
        raise _GridRetry()
    raw = _roots_from_sums(count, sums, center)
    # polish each seed as a simple root, then read multiplicities off the
    # clusters of the polished points (companion-matrix jitter for a double
    # root far exceeds the final cluster radius; polishing removes it)
    polished = [_newton_polish(f, r, 1, radius)[0] for r in raw]
    verified: list[tuple[complex, int]] = []
    total = 0
    for centroid, mult in _cluster(polished, tol):
        z = centroid
        if mult > 1:
            z, _ = _newton_polish(f, centroid, mult, radius)
        resid = abs(complex(f(np.array([z]))[0]))
        if resid > 1e-6 * scale:
            subdivide()
            return
        verified.append((z, mult))
        total += mult
    flat = [z for z, m in verified for _ in range(m)]
    if total != count or not confirmed(flat, count + 1):
        subdivide()
        return
    for z, mult in verified:
        a, b = lat.coords(z)
        if a0 <= a < a0 + sa and b0 <= b < b0 + sb:
            found.append((z, mult))


def locate_zeros(f, lat: Lattice, tol: float = CLUSTER_RADIUS, seed: int = 0) -> Divisor:
    """Zero divisor of an elliptic function f inside one fundamental
    parallelogram.

    The pole divisor is obtained by applying the same routine to 1/f.
    Raises SubdivisionFailureError when no admissible subdivision grid is
    found after the maximum number of seeded shifts, NonIntegerCountError
    when f has no values_and_dlog.
    """
    _require_dlog(f)
    rng = np.random.default_rng(seed)
    for attempt in range(MAX_GRID_SHIFTS):
        if attempt == 0:
            oa, ob = 0.31007, 0.24203
        else:
            oa, ob = rng.uniform(0.03, 0.93, 2)
        found: list[tuple[complex, int]] = []
        s = 1.0 / BASE_SUBDIVISION
        try:
            for i in range(BASE_SUBDIVISION):
                for j in range(BASE_SUBDIVISION):
                    _process_cell(f, lat, oa + i * s, ob + j * s, s, s, 0, tol, found)
        except _RETRY:
            continue
        merged = _cluster([z for z, m in found for _ in range(m)], tol)
        return divisor(merged, lat)
    raise SubdivisionFailureError(
        "no zero-free subdivision grid found within the shift budget"
    )


def reciprocal(f):
    """Evaluable 1/f for pole location; log derivative flips sign."""
    pair = f.values_and_dlog

    def g(z):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / np.asarray(f(z))

    def rpair(z):
        v, d = pair(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / np.asarray(v), -np.asarray(d)

    return Evaluable(g, rpair)


def locate_divisor_pair(f, lat: Lattice, tol: float = CLUSTER_RADIUS, seed: int = 0):
    """(zeros, poles) of f with a global degree cross-check."""
    for shift in range(3):
        zeros = locate_zeros(f, lat, tol, seed + shift)
        poles = locate_zeros(reciprocal(f), lat, tol, seed + shift)
        if zeros.degree == poles.degree:
            return zeros, poles
    raise SubdivisionFailureError(
        f"zero/pole degree mismatch persists: {zeros.degree} vs {poles.degree}"
    )


def match_divisors(d1: Divisor, d2: Divisor, lat: Lattice, tol: float) -> bool:
    """Multiset equality of torus points within tol."""
    a = d1.lifts()
    b = d2.lifts()
    if len(a) != len(b):
        return False
    used = [False] * len(b)
    for x in a:
        best, bi = math.inf, -1
        for i, y in enumerate(b):
            if used[i]:
                continue
            d = torus_distance(x, y, lat)
            if d < best:
                best, bi = d, i
        if bi < 0 or best > tol:
            return False
        used[bi] = True
    return True
