"""The 6-sheeted tangency covering of the cubic complement: polar-conic
fibers, the critical locus, branch divisors of degree-3 functions by two
independent algorithms, and numerical monodromy by fiber continuation.

For a base point q off the cubic, the fiber consists of the <= 6 points of
the cubic whose tangent lines pass through q; they are cut out by the polar
conic of q, whose coefficient matrix is half the Hessian matrix of the
cubic form evaluated at q.  Every polar conic is solved as one or two
polynomial curves read off its Takagi factorization, with no random choice,
on which the cubic is a polynomial with exact coefficients.

Monodromy tracks the six fiber points as one (6, 3) array along the
projective geodesics between a loop's vertices, halving or doubling its own
steps, so a loop is its vertices alone, the rows of one (n, 3) array: a
lasso is the basepoint, a polygon around one branch point, the basepoint.
Two tangency points coincide within COLLISION_THRESHOLD, one projective
distance: a doubled fiber point, or a continuation step refused.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cubic import (
    Cubic,
    chart_newton,
    embed_point,
    inflection_points,
    tangent_line,
    unembed,
    weierstrass_cubic,
)
from .divisors import Divisor, Evaluable, divisor, jacobi_sum, locate_divisor_pair, match_divisors
from .elliptic import EllipticFunction, eval_elliptic
from .errors import (
    CollisionUnresolvedError,
    DerivativeLocationError,
    HalvingLimitError,
    LoopDirectionError,
    MonodromyCertificateError,
    NotDegree3Error,
    PointOnCurveError,
    SolveFailureError,
    StartFiberMismatchError,
    SubdivisionFailureError,
)
from .lattice import Lattice, reduce_mod_lattice, torus_distance
from .projective import (
    ProjLine,
    ProjPoint,
    line_through,
    lines_meet,
    point_from_vec,
    row_distances,
    scaled_rows,
)

COLLISION_THRESHOLD = 1e-5
HALVING_LIMIT = 24
OFF_CURVE_MIN = 1e-6
CRITICAL_INCIDENCE_TOL = 1e-8


@dataclass(frozen=True)
class Fiber:
    """Tangency points over a base point, multiplicities summing to 6."""

    base: ProjPoint
    entries: tuple[tuple[ProjPoint, int], ...]

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def points(self) -> list[ProjPoint]:
        return [p for p, _ in self.entries]


@dataclass(frozen=True, eq=False)
class LoopPath:
    """Closed path in the cubic complement given by its vertices (first
    sample = last), consecutive ones joined by the projective geodesic; no
    intermediate samples are needed, since the tracker sets its own steps.

    samples is an (n, 3) complex array, scaled row by row like ProjPoint's
    coordinates, or a sequence of ProjPoints, taken as they are; it is
    stored as a read-only (n, 3) array."""

    samples: np.ndarray

    def __post_init__(self):
        s = self.samples
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero row scales to NaN
            rows = scaled_rows(s) if isinstance(s, np.ndarray) else np.array([p.vec for p in s])
        if (len(rows) < 2 or not np.isfinite(rows).all()
                or row_distances(rows[0], rows[-1]) > 1e-12):
            raise ValueError("loop must be finite, nonzero and closed (first sample = last)")
        rows.setflags(write=False)
        object.__setattr__(self, "samples", rows)


@dataclass(frozen=True)
class Permutation:
    """Bijection of sheet labels 0..n-1; images[i] is where sheet i goes."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a bijection: {self.images}")

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other."""
        return Permutation(tuple(self.images[j] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycle_type(self) -> tuple[int, ...]:
        seen = [False] * len(self.images)
        out = []
        for i in range(len(self.images)):
            if seen[i]:
                continue
            n, j = 0, i
            while not seen[j]:
                seen[j] = True
                j = self.images[j]
                n += 1
            out.append(n)
        return tuple(sorted(out, reverse=True))


def polar_conic(cubic: Cubic, q: ProjPoint) -> np.ndarray:
    """The symmetric matrix M, half the Hessian of F at q, of the polar conic
    v.M.v = q . grad F(v), which cuts the tangency points over q."""
    if cubic.on_curve(q, OFF_CURVE_MIN):
        raise PointOnCurveError(f"base point {q.coords} lies on the cubic")
    return 0.5 * cubic.hessian_matrix(q.vec)


def _conic(m: np.ndarray, v: np.ndarray):
    """(v.M.v, its gradient 2 v.M) for every row of the (N, 3) array v; the
    stacked (1, 3) @ (3, 3) products round like one point's v @ M @ v."""
    mv = v[:, None, :] @ m
    return (mv @ v[:, :, None])[:, 0, 0], 2.0 * mv[:, 0]


def _newton_rows(cubic: Cubic, m: np.ndarray, v: np.ndarray):
    """chart_newton on {F = 0, v.M.v = 0} for every row of the (N, 3) array
    v.  Returns (rows, residuals)."""
    v = chart_newton(cubic, v, lambda v: _conic(m, v))
    return v, cubic.residual(v.T) + _conic_residual(m, v)


def _conic_residual(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|v.M.v| of every row of v, relative to max|M| max|v|^2."""
    return np.abs(_conic(m, v)[0]) / (float(np.abs(m).max()) * np.abs(v).max(axis=1) ** 2 + 1e-300)


def _row_gaps(rows: np.ndarray) -> np.ndarray:
    """The (n, n) projective distances between the rows of the (n, 3) array
    rows, inf on the diagonal, so row k's minimum is k's nearest distance."""
    d = row_distances(rows[:, None], rows[None])
    np.fill_diagonal(d, np.inf)
    return d


def _conic_curves(m: np.ndarray) -> list[np.ndarray]:
    """The polar conic as curves s -> sum_i rows[i] s^i, as (d + 1, 3) rows,
    read off the Takagi factorization M = U diag(sigma) U^T (U unitary,
    sigma1 >= sigma2 >= sigma3 >= 0): in w = U^T v the conic is
    sum_k sigma_k w_k^2 = 0.  U's columns u = x + iy, M conj(u) = sigma u,
    are the eigenvectors (x; y) of the three largest eigenvalues of the real
    symmetric [[A, B], [B, -A]], M = A + iB, whose eigenvalues are the pairs
    +-sigma.  While sigma3 >= 1e-13 sigma1, however small det M, the conic
    is the one balanced curve w = diag(sqrt(sigma3 / sigma)) (1 - s^2,
    i (1 + s^2), 2 s); below that a rank-2 conic is the two lines from its
    vertex conj(U) e3 through conj(U) (sqrt(sigma2), +-i sqrt(sigma1), 0), a
    double line twice the orthonormal null basis of M, since eigh's pair
    from the four-dimensional null space of the real matrix need not be
    orthogonal."""
    a, b = m.real, m.imag
    sig, vecs = np.linalg.eigh(np.block([[a, b], [b, -a]]))
    sig, u = sig[:2:-1], vecs[:3, :2:-1] - 1j * vecs[3:, :2:-1]  # descending; u = conj(U)
    if sig[2] >= 1e-13 * sig[0]:
        k = np.sqrt(sig[2] / sig)
        return [np.array([u @ (k * [1, 1j, 0]), 2.0 * u[:, 2], u @ (k * [-1, 1j, 0])])]
    if sig[1] <= 1e-15 * sig[0]:  # sigma2 within eigh's rounding
        line = np.linalg.svd(m)[2][1:].conj()
        return [line, line]
    k = np.sqrt(sig[:2] / (sig[0] + sig[1]))
    return [np.array([u[:, 2], u @ [k[1], e * 1j * k[0], 0]]) for e in (1, -1)]


def lambda_fiber(cubic: Cubic, q: ProjPoint) -> Fiber:
    """The tangency fiber over q: conic-cubic intersection clustered into
    multiplicities, total always 6.

    The polar conic is one or two polynomial curves read off its Takagi
    factorization (_conic_curves), with no random choice; F on each is a
    binary form in (s, t) with exact coefficients (Cubic.restriction),
    rooted by companion matrix in the chart of its larger end coefficient,
    and the points are polished on the 2x2 system.  Doubled entries occur
    exactly when q lies on an inflectional tangent.
    """
    m = polar_conic(cubic, q)
    pts = []
    for rows in _conic_curves(m):
        f = cubic.restriction(rows)
        if abs(f[-1]) > abs(f[0]):  # the chart s -> 1/s reverses the rows
            rows, f = rows[::-1], f[::-1]
        pts.append(np.power.outer(np.roots(f), np.arange(len(rows))) @ rows)
    return _assemble_fiber(cubic, m, q, np.concatenate(pts))


def _assemble_fiber(cubic, m, q, pts) -> Fiber:
    """The fiber from the (6, 3) raw points pts on the polar conic m."""
    # polish every raw point first: companion-matrix jitter for a tangential
    # (double) intersection far exceeds COLLISION_THRESHOLD, but the Newton
    # iterates contract into the touching point
    rows, resid = _newton_rows(cubic, m, pts)
    if not np.isfinite(rows).all():
        raise SolveFailureError("fiber point failed to polish: non-finite coordinates")
    # points within COLLISION_THRESHOLD coincide; a smooth cubic has no
    # hyperflex, so over a point off the cubic none is near two others
    near = _row_gaps(rows) <= COLLISION_THRESHOLD
    largest = 1 + int(near.sum(axis=1).max())
    if largest > 2:
        raise SolveFailureError(f"{largest} fiber points in one cluster")
    # a pair is polished from its member first in (Re x, Im x, Re y) order
    s = scaled_rows(rows)
    order = sorted(range(6), key=lambda k: (s[k, 0].real, s[k, 0].imag, s[k, 1].real))
    single = [k for k in order if not near[k].any()]
    doubled = [k for i, k in enumerate(order) if near[k, order[i + 1:]].any()]
    # the gates read "not <=", so that a NaN residual fails them
    if single and not resid[single].max() <= 1e-8:
        raise SolveFailureError(f"fiber point failed to polish: {resid[single].max():.2e}")
    entries = [(point_from_vec(rows[k]), 1) for k in single]
    if doubled:
        # a doubled tangency point is an inflection point of the cubic;
        # polishing on {F = 0, det Hess F = 0} restores full precision there;
        # it starts from one member, since two members scaled to a largest
        # coordinate of 1 may differ in sign ([1:0:-1] against [-1:0:1]) and
        # their centroid then cancels
        rows = chart_newton(cubic, rows[doubled], cubic.hessian_det_rows)
        # an inflection off the polar conic means two raw points were
        # polished onto one simple point, not a tangency
        off = _conic_residual(m, rows).max()
        if not off <= 1e-8:
            raise SolveFailureError(f"doubled fiber point off the polar conic: {off:.2e}")
        entries += [(point_from_vec(u), 2) for u in rows]
    entries.sort(key=lambda e: (round(e[0].coords[0].real, 9),
                                round(e[0].coords[0].imag, 9),
                                round(e[0].coords[1].real, 9),
                                round(e[0].coords[1].imag, 9)))
    fib = Fiber(q, tuple(entries))
    if fib.total != 6:
        raise SolveFailureError(f"fiber multiplicities sum to {fib.total}")
    return fib


def _tangent_duals(cubic: Cubic, lat: Lattice | None) -> np.ndarray:
    """The (9, 3) dual coordinates of the nine inflectional tangents, in
    the order of inflection_points."""
    return np.array([tangent_line(cubic, p, tol=1e-6).dual.vec
                     for p in inflection_points(cubic, lat)])


def critical_locus_check(cubic: Cubic, q: ProjPoint, lat: Lattice | None = None,
                         tol: float = CRITICAL_INCIDENCE_TOL):
    """(on_critical, tangent indices): whether q lies on inflectional
    tangents, each judged by its incidence |D q| / (|D| |q|) with q; three
    or more indices marks a singular point of the critical locus (possible
    only for the equianharmonic cubic)."""
    if cubic.on_curve(q, OFF_CURVE_MIN):
        raise PointOnCurveError(f"base point {q.coords} lies on the cubic")
    duals, v = _tangent_duals(cubic, lat), q.vec
    incidence = np.abs(duals @ v) / (np.linalg.norm(duals, axis=1) * np.linalg.norm(v))
    hits = np.flatnonzero(incidence <= tol).tolist()
    return (len(hits) > 0, hits)


def _line_of_divisor(div: Divisor, cubic: Cubic, lat: Lattice) -> ProjLine:
    """The line cutting the embedded divisor on the cubic (divisor sums to 0
    on the torus); at a triple point the inflectional tangent, at a double
    point its tangent."""
    pts = div.points
    if len(pts) < 3:
        multiple = max(pts, key=lambda e: e[1])[0]
        return tangent_line(cubic, embed_point(multiple, lat), tol=1e-6)
    return line_through(embed_point(pts[0][0], lat), embed_point(pts[1][0], lat))


def branch_divisors_via_tangents(f: EllipticFunction, lat: Lattice) -> list[Divisor]:
    """Branch divisors of a degree-3 function through the tangency fiber of
    its line point.

    The function is translated so its zero sum vanishes, the lines through
    the embedded zero and pole divisors then meet in the base point q of the
    translated function, and each tangency point p over q yields the branch
    divisor x(p) + x(p) + (-2 x(p)), translated back.
    """
    if f.degree != 3:
        raise NotDegree3Error(f"degree is {f.degree}, need 3")
    # beta is reduced into the cell, so beta / 3 is the cube root whose
    # cell coordinates are smallest
    t0 = reduce_mod_lattice(jacobi_sum(f.zeros, lat).rep / 3.0, lat).rep
    h = f.translated(t0)
    cubic = weierstrass_cubic(lat)
    line0 = _line_of_divisor(h.zeros, cubic, lat)
    line_inf = _line_of_divisor(h.poles, cubic, lat)
    q = lines_meet(line0, line_inf)
    fiber = lambda_fiber(cubic, q)
    out = []
    scale = abs(lat.omega1)
    for p, mult in fiber.entries:
        x = unembed(p, cubic, lat)
        minus2x = reduce_mod_lattice(-2.0 * x.rep, lat)
        if torus_distance(x.rep, minus2x.rep, lat) < 1e-7 * scale:
            div = divisor([(x, 3)], lat)
        else:
            div = divisor([(x, 2), (minus2x, 1)], lat)
        out.append(div.translated(t0))
    return out


def _shifted_evaluable(f: EllipticFunction, v: complex) -> Evaluable:
    def gpair(z):
        fv, d = f.values_and_dlog(np.asarray(z, dtype=complex))
        with np.errstate(divide="ignore", invalid="ignore"):
            return fv - v, fv * d / (fv - v)

    return Evaluable(gpair, degree=f.degree)


def branch_divisors_direct(f: EllipticFunction, lat: Lattice) -> list[Divisor]:
    """Branch divisors from the critical points of f: the full fiber divisor
    over each zero of f' that is not already a multiple point of a fiber
    found before it (within 1e-6 |omega1|), in the order of the zeros, then
    f's poles when one is multiple.  A finite fiber is the zeros of f - v,
    whose located poles must be f's own within 1e-6 |omega1| (else
    SubdivisionFailureError), and its multiple point within 1e-6 |omega1|
    of the zero c of f' is taken to be c itself.  The fibers must ramify
    2 deg f times in all, counting m - 1 for each point of multiplicity m
    (Riemann-Hurwitz on the torus), else DerivativeLocationError."""
    if f.degree < 2:
        raise NotDegree3Error(f"degree is {f.degree}, need >= 2")
    # f' has a pole of order m + 1 at each pole of order m of f: the sweeps
    # are checked against the Riemann-Hurwitz count of critical points
    df = Evaluable(f.derivative_pair, degree=sum(m + 1 for _, m in f.poles.points))
    try:
        crit = locate_divisor_pair(df, lat)[0]
    except Exception as exc:
        raise DerivativeLocationError(f"derivative zero location failed: {exc}")
    out: list[Divisor] = []
    near = 1e-6 * abs(lat.omega1)
    for c, _ in crit.points:
        if any(m >= 2 and torus_distance(c.rep, p.rep, lat) <= near
               for d in out for p, m in d.points):
            continue
        v = eval_elliptic(f, c.rep)
        zeros, poles = locate_divisor_pair(_shifted_evaluable(f, v), lat)
        if not match_divisors(poles, f.poles, lat, near):
            raise SubdivisionFailureError(
                f"the poles located for the fiber over {v} are not the poles of f")
        # the multiple point over f(c) is c, a simple zero of f' polished as
        # one, where f - v has a zero as flat as the evaluation noise
        out.append(divisor([(c if m >= 2 and torus_distance(p.rep, c.rep, lat) <= near else p, m)
                            for p, m in zeros.points], lat))
    # the fiber over infinity is the pole divisor, known exactly
    if any(m >= 2 for _, m in f.poles.points):
        out.append(f.poles)
    ramification = sum(m - 1 for d in out for _, m in d.points)
    if ramification != 2 * f.degree:
        raise DerivativeLocationError(
            f"the branch divisors ramify {ramification} times, f of degree {f.degree} "
            f"needs {2 * f.degree}")
    return out


def continue_fiber(cubic: Cubic, path: LoopPath, start: Fiber) -> Fiber:
    """Predictor-corrector continuation of a simple fiber along a sampled
    path; output entries correspond index-by-index to the start fiber.

    Between samples a and b the base point follows the projective geodesic
    (1 - t) a + t b', with a and b scaled to unit length and b' = b
    exp(i arg <b, a>) phase-aligned to a.  Each segment is tried whole; a
    failed step is halved, an accepted one doubles the next, and a step
    below 2^-HALVING_LIMIT of the segment raises HalvingLimitError: a floor
    deep enough for a whole lasso tail, up to about a radian, that ends near
    a branch point.  A step is one batched Newton solve from the previous
    positions (its own first-order predictor), accepted when every residual
    is <= 1e-9, each sheet moves at most 0.4 times its own distance to its
    nearest other sheet, and no two end within COLLISION_THRESHOLD.
    """
    if start.total != 6 or len(start.entries) != 6:
        raise CollisionUnresolvedError("continuation needs 6 simple starting points")
    if row_distances(start.base.vec, path.samples[0]) > 1e-9:
        raise StartFiberMismatchError("start fiber is not over the path's first sample")
    pts = np.array([p.vec for p, _ in start.entries])
    gap = _row_gaps(pts).min(axis=1)  # each sheet's distance to its nearest
    for qa, qb in zip(path.samples, path.samples[1:]):
        # unit length keeps the pace in t even on near-orthogonal samples
        a, b = qa / np.linalg.norm(qa), qb / np.linalg.norm(qb)
        b = b * np.exp(1j * np.angle(np.vdot(b, a)))
        t, h = 0.0, 1.0
        while t < 1.0:
            # t and h stay dyadic, so the last step ends exactly at t = 1
            h = min(h, 1.0 - t)
            m = polar_conic(cubic, point_from_vec((1.0 - t - h) * a + (t + h) * b))
            new, resid = _newton_rows(cubic, m, pts)
            if resid.max() <= 1e-9 and (row_distances(pts, new) <= 0.4 * gap).all():
                new_gap = _row_gaps(new).min(axis=1)
                if new_gap.min() >= COLLISION_THRESHOLD:
                    pts, gap, t, h = new, new_gap, t + h, 2.0 * h
                    continue
            h *= 0.5
            if h < 2.0 ** -HALVING_LIMIT:
                raise HalvingLimitError("continuation step halving limit reached")
    return Fiber(point_from_vec(path.samples[-1]), tuple((point_from_vec(v), 1) for v in pts))


def _match_permutation(start_pts: list[ProjPoint], end_pts: list[ProjPoint]) -> Permutation:
    """Each end point goes to its nearest start point; the match must be a
    bijection."""
    dists = row_distances(np.array([p.vec for p in end_pts])[:, None],
                          np.array([q.vec for q in start_pts])[None])
    images = dists.argmin(axis=1).tolist()
    nearest = dists.min(axis=1).tolist()
    if sorted(images) != list(range(len(start_pts))):
        raise CollisionUnresolvedError(
            "loop end points do not match the start fiber one to one",
            images=images, nearest=nearest,
        )
    return Permutation(tuple(images))


def monodromy_group(cubic: Cubic, basepoint: ProjPoint, loops: list[LoopPath]):
    """Permutations of the labeled 6-point fiber induced by the loops, each
    a transposition (else MonodromyCertificateError names the loop), and
    the order and transitivity of the group they generate: the product of
    the symmetric groups on the components of their graph on the sheets."""
    fiber0 = lambda_fiber(cubic, basepoint)
    if len(fiber0.entries) != 6:
        raise SolveFailureError("basepoint fiber is not simple")
    start_pts = [p for p, _ in fiber0.entries]
    perms, component = [], list(range(6))
    for i, lp in enumerate(loops):
        p = _match_permutation(start_pts, continue_fiber(cubic, lp, fiber0).points())
        moved = [j for j, k in enumerate(p.images) if j != k]
        if len(moved) != 2:
            raise MonodromyCertificateError(
                f"loop {i} is not a lasso: {list(p.images)} is not a transposition",
                loop=i, images=list(p.images))
        perms.append(p)
        merged = component[moved[1]]
        component = [component[moved[0]] if c == merged else c for c in component]
    sizes = [component.count(c) for c in set(component)]
    return perms, len(sizes) == 1, math.prod(map(math.factorial, sizes))


def _lassos(cubic: Cubic, basepoint: ProjPoint, lat: Lattice | None, seed: int,
            circle_samples: int, count: int):
    """(s, loops): the twelve branch points of a seeded random line s ->
    basepoint + s d (nine tangent crossings, then three points of the cubic)
    and lassos around the first count, on the first d where those keep clear."""
    if circle_samples < 3:
        raise ValueError(f"circle_samples must be at least 3, got {circle_samples}")
    rng = np.random.default_rng(seed)
    duals = _tangent_duals(cubic, lat)
    bvec = basepoint.vec
    turns = 2.0 * np.pi * np.arange(circle_samples + 1) / circle_samples
    # row i of a (12, 12) array without its entry i
    without_self = ~np.eye(12, dtype=bool)
    for _ in range(40):
        drawn = rng.standard_normal(6).view(np.complex128)
        d = drawn - (drawn @ bvec.conjugate()) * bvec / (bvec @ bvec.conjugate())
        # the CLI's basepoint is this seed's first draw: d is then noise
        if not np.isfinite(d).all() or np.linalg.norm(d) < 1e-8 * np.linalg.norm(drawn):
            continue
        d = d / np.abs(d).max()
        den = duals @ d
        coeffs = cubic.restriction([bvec, d])
        if (np.abs(den) < 1e-6).any() or abs(coeffs[0]) <= 1e-12:
            continue
        s = np.concatenate([-(duals @ bvec) / den, np.roots(coeffs)])
        others = np.broadcast_to(s, (12, 12))[without_self].reshape(12, 11)
        radius = np.minimum(0.35 * np.abs(s[:, None] - others).min(axis=1), 0.45 * np.abs(s))
        # tail from 0 to the circle start (nearest point toward base);
        # passing near other features is fine (step halving absorbs it),
        # passing through them is not: the clearance of [0, start] from o
        # is |t start - o|, t = Re(o / start) clipped to [0, 1] (NaN at s = 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            start = s * (1.0 - radius / np.abs(s))
            t = np.clip((others / start[:, None]).real, 0.0, 1.0)
        clear = np.abs(t * start[:, None] - others).min(axis=1)
        if not ((radius >= 1e-6) & (clear >= 5e-4 * (1.0 + np.abs(start))))[:count].all():
            continue
        loops = []
        for c, r, a in zip(s[:count], radius, start):
            circle = c + r * np.exp(1j * (np.angle(a - c) + turns))
            sweep = np.concatenate([[0.0], circle, [0.0]])
            loops.append(LoopPath(bvec + sweep[:, None] * d))
        return s, loops
    raise LoopDirectionError("no admissible loop direction found")


def tangent_loop_library(cubic: Cubic, basepoint: ProjPoint,
                         lat: Lattice | None = None, seed: int = 0,
                         circle_samples: int = 48):
    """Lassos around the 9 inflectional tangents in a seeded random line
    through the basepoint, clear of the cubic and of the other tangents:
    the basepoint, circle_samples + 1 vertices of a circle around the
    crossing, the basepoint; each tail is one geodesic, a straight segment.
    circle_samples >= 3: fewer vertices do not wind around the tangent."""
    return _lassos(cubic, basepoint, lat, seed, circle_samples, 9)[1]


def covering_monodromy(cubic: Cubic, basepoint: ProjPoint, lat: Lattice | None = None,
                       seed: int = 0, circle_samples: int = 48):
    """(loops, kinds, perms, transitive, order) of lassos around all twelve
    branch points of a line drawn as in tangent_loop_library but kept only
    when all twelve keep clear, in angular order; kinds[i] is a tangent
    index or "cubic".  Certified, else MonodromyCertificateError: the perms
    are transpositions whose product is the identity, since together the
    lassos go around the line's point at infinity, which does not branch."""
    s, loops = _lassos(cubic, basepoint, lat, seed, circle_samples, 12)
    turn = np.argsort(np.angle(s), kind="stable")
    loops = [loops[i] for i in turn]
    perms, transitive, order = monodromy_group(cubic, basepoint, loops)
    product = Permutation(tuple(range(6)))
    for p in perms:
        product = p.compose(product)
    if not product.is_identity():
        raise MonodromyCertificateError(
            f"the {len(perms)} lassos multiply to {list(product.images)}, not the identity",
            loops=len(perms), images=list(product.images))
    return loops, [int(i) if i < 9 else "cubic" for i in turn], perms, transitive, order
