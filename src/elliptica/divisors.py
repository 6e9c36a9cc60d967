"""Divisors on the torus, the Jacobi map, the Abel condition, and numerical
location of zeros and poles through the argument principle.

The contour routines accept one protocol: an object whose
values_and_dlog(z) returns the pair (f(z), f'(z)/f(z)) elementwise on a
complex ndarray.  An EllipticFunction and elliptic.wp_evaluable(...)
satisfy it; Evaluable(pair) builds one from that function.  Location
subdivides the fundamental parallelogram into cells and integrates f'/f
over a circle circumscribing each cell, every moment from one inverse FFT
of the samples (_moments).  These moments are signed, zeros minus poles,
so one sweep finds both divisors: the eigenvalues of a Hankel pencil on a
cell's moments are its zeros and poles, with integer weights (positive
for a zero, negative for a pole) fitted to the same moments, and a cell is
empty only when its moments are at the quadrature noise.
Each point is Newton-polished at its multiplicity, on f for a zero and on
1/f for a pole, and verified.  The cells form a worklist: one whose data is
inconsistent is replaced by its four quarters, and the whole grid is
re-shifted when a cell boundary passes too close to a zero or pole.
contour_power_sums and Newton's identities (newton_elementary) give the
power sums and the polynomial of the zeros inside one circle.
"""
from __future__ import annotations

import itertools
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
    TorusPoint or complex lifts.  Coincident points are aggregated.

    Points are ordered by their reduced coordinates rounded to 1e-9 |omega1|,
    ties broken by the exact values, so that a rounding-level move of a
    point does not reorder the divisor."""
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
    grid = 1e-9 * scale
    merged.sort(key=lambda it: (round(it[0].rep.real / grid), round(it[0].rep.imag / grid),
                                it[0].rep.real, it[0].rep.imag))
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
    """(f'/f, median |f|) at the points center + radius e^(2 pi i j / nodes),
    j = 0..nodes-1.

    Raises ContourTooCloseError when |f| on the circle leaves
    [min_modulus, 1/min_modulus] times its median, the sign of a zero or pole
    near the contour.
    """
    angles = 2.0 * np.pi * np.arange(nodes) / nodes
    fz, g = f.values_and_dlog(center + radius * np.exp(1j * angles))
    mods = np.abs(fz)
    # the median as the mean of the two middle order statistics (one when
    # nodes is odd); np.median would also import numpy.ma
    lo, hi = (nodes - 1) // 2, nodes // 2
    mid = np.partition(mods, (lo, hi))
    scale = float(mid[hi] if lo == hi else (mid[lo] + mid[hi]) / 2)
    top = mods.max()  # NaN when any value is: np.partition orders NaN last
    if scale == 0.0 or not np.isfinite(scale) or np.isnan(top):
        raise ContourTooCloseError(
            "degenerate function values on contour", center=center, radius=radius
        )
    if mods.min() < min_modulus * scale:
        raise ContourTooCloseError(
            "zero too close to contour", center=center, radius=radius
        )
    if top > scale / min_modulus:
        raise ContourTooCloseError(
            "pole too close to contour", center=center, radius=radius
        )
    return np.asarray(g), scale


_KMAX_CAP = 8
_MOMENT_TOL = 2e-3
# the trapezoid error at N nodes is about the square of the error at N/2
# (geometric convergence), so moments within this of their N/2 values are
# good to about _MOMENT_TOL / 10
_NOISE_TOL = math.sqrt(_MOMENT_TOL / 10)


def _moments(f, center: complex, radius: float, kmax: int, nodes: int, min_modulus: float):
    """(s, median |f|, noise) on the circle |z - center| = radius: the
    moments m_p = (1/2 pi i) integral of (f'/f) (z - center)^p dz scaled as
    s_p = m_p / radius^p, p = 0..kmax, s_0 the integer count, and noise =
    max_p |s_p - s^half_p|.

    The trapezoid rule on N nodes is a DFT: s_p = radius ifft(g)[p + 1] for
    the samples g of f'/f, and s^half = radius ifft(g[::2])[p + 1] is the
    coarser trapezoid.  N doubles from `nodes` up to 16 * nodes until s_0 is
    within 0.1 of an integer on both N and N/2 and noise <= _NOISE_TOL;
    NonIntegerCountError when none does.
    """
    k = np.arange(1, kmax + 2)
    n = nodes
    while True:
        g, scale = _circle_samples(f, center, radius, n, min_modulus)
        # indices mod N: the trapezoid aliases w^(p+1) for p + 1 >= N
        s = radius * np.fft.ifft(g)[k % n]
        half = radius * np.fft.ifft(g[::2])[k % (n // 2)]
        count = round(s[0].real)
        noise = float(np.abs(s - half).max())
        if max(abs(s[0] - count), abs(half[0] - count)) > 0.1:
            failed = f"count integral {complex(s[0])} not near an integer"
        elif noise > _NOISE_TOL:
            failed = f"moments differ by {noise:.3g} from the coarser trapezoid's"
        else:
            s[0] = count
            return s, scale, noise
        if n >= 16 * nodes:
            raise NonIntegerCountError(
                f"{failed} at {n} nodes", center=center, radius=radius
            )
        n *= 2


class Evaluable:
    """The protocol the contour routines accept, from pair(z) = (f(z),
    f'(z)/f(z)) for an elementwise f."""

    def __init__(self, pair):
        self.values_and_dlog = pair


def contour_power_sums(
    f,
    center: complex,
    radius: float,
    kmax: int,
    nodes: int = CONTOUR_NODES,
) -> PowerSums:
    """Power sums of the zeros of f inside |z - center| = radius.

    Trapezoidal quadrature of (1/2 pi i) * integral of (f'/f) w^p dw with
    f'/f from f.values_and_dlog, every power from one inverse FFT
    (_moments); the node count doubles until the sums agree with the half
    node count's.  Raises ContourTooCloseError when the circle passes too
    close to a zero or pole of f, NonIntegerCountError when no node count
    passes or f has no values_and_dlog.
    """
    if kmax < 0:
        raise InsufficientSumsError(f"kmax must be >= 0, got {kmax}")
    _require_dlog(f)
    s = _moments(f, center, radius, kmax, nodes, MIN_MODULUS_REL)[0]
    return PowerSums(tuple(complex(v) for v in s * radius ** np.arange(kmax + 1)))


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


# at a multiple root, iterates whose |f| is within this factor of the
# smallest are not told apart by |f| (its noise floor) but by |f'|
_NOISE_BAND = 64.0


def _oriented(f, z: complex, weight: int):
    """(h(z), h'(z)/h(z)) as length-1 arrays from one f.values_and_dlog
    call: h = f for a positive weight, h = 1/f for a negative one."""
    v, d = f.values_and_dlog(np.array([z]))
    if weight > 0:
        return v, d
    with np.errstate(divide="ignore", invalid="ignore"):
        return 1.0 / np.asarray(v), -np.asarray(d)


def _newton_polish(f, z0: complex, weight: int):
    """Multiplicity-aware Newton iteration from seed z0 on f for a positive
    weight, on 1/f for a negative one, at multiplicity |weight|.

    Returns (best point, its |f| or |1/f|) over at most 28 steps; near
    multiple roots the step stalls at the evaluation noise floor, so
    acceptance is by residual, not by step convergence.  At a root of
    multiplicity >= 2 that floor is reached up to about sqrt(eps) away,
    where the residual no longer ranks the iterates, while the derivative
    (through the log derivative, with no cancellation against a shift)
    still vanishes to order mult - 1.  So there the best point is the
    iterate of smallest derivative among those whose residual is within
    _NOISE_BAND of the smallest; at mult 1 it is the iterate of smallest
    residual.
    """
    mult = abs(weight)
    z = z0
    best_r = math.inf
    seen = []  # (residual, |derivative|, z) of the iterates with a finite residual
    stale = 0
    for _ in range(28):
        fz_a, g_a = _oriented(f, z, weight)
        fz = complex(fz_a[0])
        r = abs(fz)
        fp = fz * complex(g_a[0])
        if r < 0.5 * best_r:
            stale = 0
        else:
            stale += 1
        if r < math.inf:
            seen.append((r, abs(fp) if math.isfinite(abs(fp)) else math.inf, z))
            best_r = min(best_r, r)
        if stale >= 4:
            break
        if fp == 0 or not (math.isfinite(fp.real) and math.isfinite(fp.imag)):
            break
        dz = mult * fz / fp
        z = z - dz
        if abs(dz) < 1e-15 * max(1.0, abs(z)):
            r = abs(complex(_oriented(f, z, weight)[0][0]))
            if r < math.inf:
                seen.append((r, math.inf, z))
                best_r = min(best_r, r)
            break
    if not seen:
        return z0, math.inf
    if mult == 1:
        r, _, z = min(seen, key=lambda s: s[0])
    else:
        r, _, z = min((s for s in seen if s[0] <= _NOISE_BAND * best_r), key=lambda s: s[1])
    return z, r


def _cell_circle(lat: Lattice, a0, b0, side):
    # side is a power of two, so scaling the diagonals by it is exact
    center = lat.from_coords(a0 + side / 2.0, b0 + side / 2.0)
    half_diag = 0.5 * side * max(abs(lat.omega1 + lat.omega2), abs(lat.omega1 - lat.omega2))
    return center, 1.07 * half_diag


def _gap(s, x, m) -> float:
    """Largest |s_p - sum_k m_k x_k^p|: how far the points x_k with weights
    m_k are from explaining the scaled moments s."""
    return float(np.abs(s - (x ** np.arange(len(s))[:, None]) @ m).max())


def _models(s):
    """(x, m, gap) for n = 0..4 points x_k with nonzero integer weights m_k
    (positive for a zero, negative for a pole) fitted to the scaled moments
    s, fewest points first; gap is the fit's _gap.

    The n points are the eigenvalues of the Hankel pencil (H1, H0), H0 =
    [s_(i+j)] and H1 = [s_(i+j+1)] for i, j < n (Kravanja & Van Barel,
    Computing the Zeros of Analytic Functions, LNM 1727); the weights are
    the least-squares fit on the Vandermonde matrix [x_k^p], rounded.  A
    singular pencil, a zero weight or a non-finite fit yields no model for
    that n.
    """
    p = np.arange(len(s))
    x = m = np.zeros(0)
    yield x, m, _gap(s, x, m)
    for n in range(1, 5):
        hankel = p[:n, None] + p[:n]
        with np.errstate(all="ignore"):
            try:
                x = np.linalg.eigvals(np.linalg.solve(s[hankel], s[hankel + 1]))
                m = np.round(np.linalg.lstsq(x ** p[:, None], s, rcond=None)[0].real)
            except np.linalg.LinAlgError:
                continue
            gap = _gap(s, x, m)
        if m.all() and np.isfinite(gap):
            yield x, m, gap


def _resolve_cell(f, lat, a0, b0, side, depth):
    """The (point, signed multiplicity) pairs of the cell [a0, a0 + side) x
    [b0, b0 + side) in lattice coordinates, positive for a zero and negative
    for a pole, or None when the cell must be subdivided.

    The signed moments of f'/f on the cell circle, scaled by radius^p
    (_moments), are fitted by weighted points (_models), fewest first, and
    the first model that explains them and whose points pass is accepted.
    The empty model must be within max(4 x noise, 1e-10), since a zero and
    a pole close together nearly cancel in every moment.  Each point is
    Newton-polished once at its signed weight (a pole as a zero of 1/f):
    its residual must pass, it may move at most 0.2 x the radius, and a
    multiple point must be one point to within CLUSTER_RADIUS; the polished
    points must still explain the moments.  A model of more than 3 points counted
    with multiplicity is not taken above the deepest level.  None when no
    model passes or a zero or pole sits too close to the circle.
    """
    center, radius = _cell_circle(lat, a0, b0, side)
    try:
        s, scale, noise = _moments(
            f, center, radius, _KMAX_CAP, CONTOUR_NODES, CELL_MIN_MODULUS_REL
        )
    except (ContourTooCloseError, NonIntegerCountError):
        # a feature sits too close to this cell's circle; subdividing moves
        # every boundary, so trouble stays local instead of restarting the grid
        return None

    def polish(seed, weight):
        # a pole is a zero of 1/f, whose median modulus on the circle is 1/scale
        bound = 1e-6 * scale if weight > 0 else 1e-6 / scale
        z, resid = _newton_polish(f, seed, weight)
        # the residual grows like distance^mult away from a multiple point
        # but not around points more than CLUSTER_RADIUS apart, which the
        # moments may not tell from one point
        ok = resid <= bound and abs(z - seed) <= 0.2 * radius and (
            abs(weight) == 1
            or resid * 4 ** abs(weight) <= abs(complex(_oriented(f, z + 2 * CLUSTER_RADIUS, weight)[0][0])))
        return z if ok else None

    def inside(z):  # a point polished into a neighbouring cell is reported there
        a, b = lat.coords(z)
        return a0 <= a < a0 + side and b0 <= b < b0 + side

    for x, m, gap in _models(s):
        bound = _MOMENT_TOL if len(m) else max(4.0 * noise, 1e-10)
        if gap > bound or (np.abs(m).sum() > 3 and depth < MAX_CELL_DEPTH):
            continue
        found = []
        for xk, mk in zip(x, m):
            found.append(polish(center + radius * complex(xk), int(mk)))
            if found[-1] is None:
                break
        else:
            if _gap(s, (np.array(found) - center) / radius, m) <= _MOMENT_TOL:
                return [(z, int(mk)) for z, mk in zip(found, m) if inside(z)]
    return None


def _grid_offsets():
    """Lattice-coordinate offsets of successive base grids: a fixed one,
    then uniform re-shifts from one fixed stream (the generator is made at
    the first re-shift, which most sweeps never reach)."""
    yield 0.31007, 0.24203
    rng = np.random.default_rng(0)
    while True:
        yield rng.uniform(0.03, 0.93, 2)


def _sweep(f, lat: Lattice, grids):
    """(zeros, poles) from the first of at most MAX_GRID_SHIFTS base grids
    taken from `grids` whose cells all resolve.

    The cells of a grid form a worklist, taken depth first: a cell that
    does not resolve is replaced by its four quarters, and one past
    MAX_CELL_DEPTH drops the grid."""
    _require_dlog(f)
    s = 1.0 / BASE_SUBDIVISION
    for oa, ob in itertools.islice(grids, MAX_GRID_SHIFTS):
        # (a0, b0, side, depth), popped from the end
        cells = [(oa + i * s, ob + j * s, s, 0)
                 for i in reversed(range(BASE_SUBDIVISION))
                 for j in reversed(range(BASE_SUBDIVISION))]
        found = []
        while cells:
            a0, b0, side, depth = cells.pop()
            points = _resolve_cell(f, lat, a0, b0, side, depth)
            if points is not None:
                found += points
            elif depth < MAX_CELL_DEPTH:
                h = side / 2.0
                cells += [(a0 + da, b0 + db, h, depth + 1) for da in (h, 0.0) for db in (h, 0.0)]
            else:
                break
        else:
            return (divisor([(z, m) for z, m in found if m > 0], lat),
                    divisor([(z, -m) for z, m in found if m < 0], lat))
    raise SubdivisionFailureError(
        "no zero-free subdivision grid found within the shift budget"
    )


def locate_zeros(f, lat: Lattice) -> Divisor:
    """Zero divisor of an elliptic function f inside one fundamental
    parallelogram: the zeros of locate_divisor_pair(f, lat).

    Raises SubdivisionFailureError when no admissible subdivision grid is
    found after the maximum number of grid shifts or the zero and pole
    degrees differ, NonIntegerCountError when f has no values_and_dlog.
    """
    return locate_divisor_pair(f, lat)[0]


def locate_divisor_pair(f, lat: Lattice):
    """(zeros, poles) of f from one sweep over the cells, with a global
    degree cross-check.

    The signed moments of f'/f on each cell circle give the cell's zeros
    and poles together, as the weighted points of one Hankel pencil; the
    sign of a point's weight says whether it is polished on f or on 1/f,
    both read from f.values_and_dlog.  When the degrees differ, or differ
    from f.degree where f has one (an EllipticFunction), the sweep is
    repeated, at most twice, each time on base grids not swept before.
    Raises SubdivisionFailureError when they still differ or no admissible
    grid is found.
    """
    grids = _grid_offsets()
    known = getattr(f, "degree", None)
    for _ in range(3):
        zeros, poles = _sweep(f, lat, grids)
        if zeros.degree == poles.degree and known in (None, zeros.degree):
            return zeros, poles
    raise SubdivisionFailureError(
        f"degree mismatch persists: {zeros.degree} zeros vs {poles.degree} poles"
        + ("" if known is None else f", f has degree {known}")
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
