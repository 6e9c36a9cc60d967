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
projective geodesics between loop samples, halving or doubling its own
steps, so the spacing of the samples is not capped.  A loop's samples are
the rows of one (n, 3) array.
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
    cross,
    line_through,
    lines_meet,
    point_from_vec,
    proj_distance,
    scaled_rows,
)
from .sphere import chordal, is_infinite

COLLISION_THRESHOLD = 1e-5
HALVING_LIMIT = 12
FIBER_CLUSTER = 1e-5
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
    """Closed sampled path in the cubic complement (first sample = last).
    Consecutive samples are joined by the projective geodesic; their
    spacing is free, since the tracker refines its own steps.

    samples is an (n, 3) complex array, scaled row by row like ProjPoint's
    coordinates, or a sequence of ProjPoints, taken as they are; it is
    stored as a read-only (n, 3) array."""

    samples: np.ndarray

    def __post_init__(self):
        s = self.samples
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero row scales to NaN
            rows = scaled_rows(s) if isinstance(s, np.ndarray) else np.array([p.vec for p in s])
        if (len(rows) < 2 or not np.isfinite(rows).all()
                or _row_distances(rows[:1], rows[-1:])[0] > 1e-12):
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


def _newton_rows(cubic: Cubic, m: np.ndarray, v: np.ndarray):
    """chart_newton on {F = 0, v.M.v = 0} for every row of the (N, 3) array
    v.  Returns (rows, residuals)."""

    def conic(v):
        # stacked (1, 3) @ (3, 3) products round like one point's v @ M @ v
        mv = v[:, None, :] @ m
        return (mv @ v[:, :, None])[:, 0, 0], 2.0 * mv[:, 0]

    v = chart_newton(cubic, v, conic)
    return v, np.abs(cubic.F(v.T)) / cubic.term_scale(v.T) + _conic_residual(m, v)


def _conic_residual(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|v.M.v| of every row of v, relative to max|M| max|v|^2."""
    q = (v[:, None, :] @ m @ v[:, :, None])[:, 0, 0]
    return np.abs(q) / (float(np.abs(m).max()) * np.abs(v).max(axis=1) ** 2 + 1e-300)


def _row_distances(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """proj_distance between matching rows of two (N, 3) arrays."""
    return np.sqrt((np.abs(cross(u.T, w.T)) ** 2).sum(axis=0)
                   / ((np.abs(u) ** 2).sum(axis=1) * (np.abs(w) ** 2).sum(axis=1)))


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
    # (double) intersection far exceeds the cluster radius, but the Newton
    # iterates contract into the touching point
    rows, resid = _newton_rows(cubic, m, pts)
    polished = [point_from_vec(v) for v in rows]
    groups: list[list[int]] = []
    for k in sorted(range(6), key=lambda k: (polished[k].coords[0].real,
                                             polished[k].coords[0].imag,
                                             polished[k].coords[1].real)):
        for g in groups:
            if proj_distance(polished[g[0]], polished[k]) <= FIBER_CLUSTER:
                g.append(k)
                break
        else:
            groups.append([k])
    single = [g[0] for g in groups if len(g) == 1]
    doubled = [g for g in groups if len(g) > 1]
    if single and resid[single].max() > 1e-8:
        raise SolveFailureError(f"fiber point failed to polish: {resid[single].max():.2e}")
    entries = [(polished[k], 1) for k in single]
    if doubled:
        # a doubled tangency point is an inflection point of the cubic;
        # polishing on {F = 0, det Hess F = 0} restores full precision there;
        # it starts from one member, since two members scaled to a largest
        # coordinate of 1 may differ in sign ([1:0:-1] against [-1:0:1]) and
        # their centroid then cancels
        rows = chart_newton(cubic, rows[[g[0] for g in doubled]], cubic.hessian_det_rows)
        # an inflection off the polar conic means two raw points were
        # polished onto one simple point, not a tangency
        off = _conic_residual(m, rows).max()
        if off > 1e-8:
            raise SolveFailureError(f"doubled fiber point off the polar conic: {off:.2e}")
        entries += [(point_from_vec(u), len(g)) for u, g in zip(rows, doubled)]
    entries.sort(key=lambda e: (round(e[0].coords[0].real, 9),
                                round(e[0].coords[0].imag, 9),
                                round(e[0].coords[1].real, 9),
                                round(e[0].coords[1].imag, 9)))
    fib = Fiber(q, tuple(entries))
    if fib.total != 6:
        raise SolveFailureError(f"fiber multiplicities sum to {fib.total}")
    return fib


def critical_locus_check(cubic: Cubic, q: ProjPoint, lat: Lattice | None = None,
                         tol: float = CRITICAL_INCIDENCE_TOL):
    """(on_critical, tangent indices): whether q lies on inflectional
    tangents; three or more indices marks a singular point of the critical
    locus (possible only for the equianharmonic cubic)."""
    if cubic.on_curve(q, OFF_CURVE_MIN):
        raise PointOnCurveError(f"base point {q.coords} lies on the cubic")
    infl = inflection_points(cubic, lat)
    hits = []
    for i, p in enumerate(infl):
        line = tangent_line(cubic, p, tol=1e-6)
        if line.incidence(q) <= tol:
            hits.append(i)
    return (len(hits) > 0, hits)


def _line_of_divisor(div: Divisor, cubic: Cubic, lat: Lattice) -> ProjLine:
    """The line cutting the embedded divisor on the cubic (divisor sums to 0
    on the torus)."""
    pts = div.points
    if len(pts) == 1:
        # triple point: inflectional tangent
        return tangent_line(cubic, embed_point(pts[0][0], lat), tol=1e-6)
    if len(pts) == 2:
        # double + simple: tangent at the double point
        double = pts[0] if pts[0][1] == 2 else pts[1]
        return tangent_line(cubic, embed_point(double[0], lat), tol=1e-6)
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
    beta = jacobi_sum(f.zeros, lat).rep
    cands = []
    for mm in range(3):
        for nn in range(3):
            t = reduce_mod_lattice(
                (beta + mm * lat.omega1 + nn * lat.omega2) / 3.0, lat
            )
            a, b = lat.coords(t.rep)
            cands.append(((round(a, 12), round(b, 12)), t))
    cands.sort(key=lambda it: it[0])
    t0 = cands[0][1].rep
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

    g = Evaluable(gpair)
    g.degree = f.degree  # locate_divisor_pair checks its sweeps against it
    return g


def branch_divisors_direct(f: EllipticFunction, lat: Lattice) -> list[Divisor]:
    """Branch divisors from the critical points of f: zeros of f' plus
    multiple poles, with the full fiber divisor located over each critical
    value: the zeros of f - v, whose located poles must be f's own within
    1e-6 (else SubdivisionFailureError)."""
    if f.degree < 2:
        raise NotDegree3Error(f"degree is {f.degree}, need >= 2")
    try:
        crit = locate_divisor_pair(Evaluable(f.derivative_pair), lat)[0]
    except Exception as exc:
        raise DerivativeLocationError(f"derivative zero location failed: {exc}")
    crit_values: list[complex] = []
    for p, _ in crit.points:
        crit_values.append(eval_elliptic(f, p.rep))
    if any(m >= 2 for _, m in f.poles.points):
        crit_values.append(complex(math.inf, math.inf))
    out: list[Divisor] = []
    seen: list[complex] = []
    for v in crit_values:
        if any(chordal(v, u) < 1e-7 for u in seen):
            continue
        seen.append(v)
        # the fiber over infinity is the pole divisor, known exactly
        if is_infinite(v):
            out.append(f.poles)
            continue
        zeros, poles = locate_divisor_pair(_shifted_evaluable(f, v), lat)
        if not match_divisors(poles, f.poles, lat, 1e-6):
            raise SubdivisionFailureError(
                f"the poles located for the fiber over {v} are not the poles of f")
        out.append(zeros)
    return out


def continue_fiber(cubic: Cubic, path: LoopPath, start: Fiber) -> Fiber:
    """Predictor-corrector continuation of a simple fiber along a sampled
    path; output entries correspond index-by-index to the start fiber.

    Between samples a and b the base point follows the projective geodesic
    (1 - t) a + t b', with a and b scaled to unit length and b' = b
    exp(i arg <b, a>) phase-aligned to a; the sample spacing is not capped.
    Each segment is tried whole; a failed step is halved, an accepted one
    doubles the next, and a step below 2^-HALVING_LIMIT of the segment
    raises HalvingLimitError.  A step is one batched Newton solve from the
    previous positions (its own first-order predictor), accepted when every
    residual is <= 1e-9, no sheet moves more than 0.4 times the smallest
    separation and no two end within COLLISION_THRESHOLD.
    """
    if start.total != 6 or len(start.entries) != 6:
        raise CollisionUnresolvedError("continuation needs 6 simple starting points")
    if _row_distances(start.base.vec[None], path.samples[:1])[0] > 1e-9:
        raise StartFiberMismatchError("start fiber is not over the path's first sample")
    pts = np.array([p.vec for p, _ in start.entries])
    i, j = np.triu_indices(6, 1)  # all 15 pairs of sheets
    sep = _row_distances(pts[i], pts[j]).min()
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
            if resid.max() <= 1e-9 and _row_distances(pts, new).max() <= 0.4 * sep:
                new_sep = _row_distances(new[i], new[j]).min()
                if new_sep >= COLLISION_THRESHOLD:
                    pts, sep, t, h = new, new_sep, t + h, 2.0 * h
                    continue
            h *= 0.5
            if h < 2.0 ** -HALVING_LIMIT:
                raise HalvingLimitError("continuation step halving limit reached")
    return Fiber(point_from_vec(path.samples[-1]), tuple((point_from_vec(v), 1) for v in pts))


def _match_permutation(start_pts: list[ProjPoint], end_pts: list[ProjPoint]) -> Permutation:
    """Each end point goes to its nearest start point; the match must be a
    bijection."""
    images, nearest = [], []
    for p in end_pts:
        dists = [proj_distance(p, q) for q in start_pts]
        j = int(np.argmin(dists))
        images.append(j)
        nearest.append(dists[j])
    if sorted(images) != list(range(len(start_pts))):
        raise CollisionUnresolvedError(
            "loop end points do not match the start fiber one to one",
            images=images, nearest=nearest,
        )
    return Permutation(tuple(images))


def monodromy_group(cubic: Cubic, basepoint: ProjPoint, loops: list[LoopPath]):
    """Permutations of the labeled 6-point fiber induced by the loops, the
    order of the group they generate and whether it acts transitively."""
    fiber0 = lambda_fiber(cubic, basepoint)
    if len(fiber0.entries) != 6:
        raise SolveFailureError("basepoint fiber is not simple")
    start_pts = [p for p, _ in fiber0.entries]
    perms = []
    for lp in loops:
        end = continue_fiber(cubic, lp, fiber0)
        perms.append(_match_permutation(start_pts, end.points()))
    # the group, enumerated from the identity; at most 6! = 720 elements
    group = {tuple(range(6))}
    frontier = list(group)
    while frontier:
        nxt = []
        for g in frontier:
            for p in perms:
                comp = tuple(p.images[j] for j in g)
                if comp not in group:
                    group.add(comp)
                    nxt.append(comp)
        frontier = nxt
    # transitive when sheet 0 reaches every sheet
    return perms, len({g[0] for g in group}) == 6, len(group)


def tangent_loop_library(cubic: Cubic, basepoint: ProjPoint,
                         lat: Lattice | None = None, seed: int = 0,
                         circle_samples: int = 48):
    """One loop around each of the 9 inflectional tangents: circles in a
    seeded random affine line through the basepoint, with straight tails
    from the basepoint; all samples keep a margin from the cubic and from
    the other tangents.  circle_samples must be at least 3: a polygon with
    fewer vertices does not wind around the tangent."""
    if circle_samples < 3:
        raise ValueError(f"circle_samples must be at least 3, got {circle_samples}")
    rng = np.random.default_rng(seed)
    infl = inflection_points(cubic, lat)
    duals = np.array([tangent_line(cubic, p, tol=1e-6).dual.vec for p in infl])
    bvec = basepoint.vec
    for attempt in range(40):
        drawn = rng.standard_normal(6).view(np.complex128)
        d = drawn - (drawn @ bvec.conjugate()) * bvec / (bvec @ bvec.conjugate())
        # the CLI's basepoint is this seed's first draw: d is then noise
        if not np.isfinite(d).all() or np.linalg.norm(d) < 1e-8 * np.linalg.norm(drawn):
            continue
        d = d / np.abs(d).max()
        # the tangents meet the affine line s -> bvec + s d at these s
        den = duals @ d
        if (np.abs(den) < 1e-6).any():
            continue
        svals = list(-(duals @ bvec) / den)
        # curve intersections of the line
        coeffs = cubic.restriction([bvec, d])
        if abs(coeffs[0]) <= 1e-12:
            continue
        scurve = list(np.roots(coeffs))
        loops = []
        for i, si in enumerate(svals):
            others = svals[:i] + svals[i + 1:] + scurve
            gap = min(abs(si - s) for s in others)
            radius = min(0.35 * gap, 0.45 * abs(si))
            if radius < 1e-6:
                break
            # tail from 0 to the circle start (nearest point toward base);
            # passing near other features is fine (step halving absorbs it),
            # passing through them is not
            start = si * (1.0 - radius / abs(si))
            tail_clear = min(_seg_point_dist(0.0, start, s) for s in others)
            if tail_clear < 5e-4 * (1.0 + abs(start)):
                break
            ntail = max(6, int(3.0 * abs(start) / max(tail_clear, radius)))
            tail = start * np.arange(ntail) / ntail
            turns = 2.0 * np.pi * np.arange(circle_samples + 1) / circle_samples
            circle = si + radius * np.exp(1j * (np.angle(start - si) + turns))
            sweep = np.concatenate([tail, circle, tail[::-1], [0.0]])
            loops.append(LoopPath(bvec + sweep[:, None] * d))
        else:
            return loops
    raise LoopDirectionError("no admissible loop direction found")


def _seg_point_dist(a: complex, b: complex, p: complex) -> float:
    """Distance of p from segment [a, b] in the complex plane."""
    ab = b - a
    if ab == 0:
        return abs(p - a)
    t = ((p - a) / ab).real
    t = min(1.0, max(0.0, t))
    return abs(a + t * ab - p)
