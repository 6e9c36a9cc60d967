"""The 6-sheeted tangency covering of the cubic complement: polar-conic
fibers, the critical locus, branch divisors of degree-3 functions by two
independent algorithms, and numerical monodromy by fiber continuation.

For a base point q off the cubic, the fiber consists of the <= 6 points of
the cubic whose tangent lines pass through q; they are cut out by the polar
conic of q, whose coefficient matrix is half the Hessian matrix of the
cubic form evaluated at q.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cubic import Cubic, embed_point, inflection_points, tangent_line, unembed, weierstrass_cubic
from .divisors import Divisor, Evaluable, divisor, jacobi_sum, locate_zeros, reciprocal
from .elliptic import EllipticFunction, eval_elliptic
from .errors import (
    CollisionUnresolvedError,
    DerivativeLocationError,
    HalvingLimitError,
    NotDegree3Error,
    PointOnCurveError,
    SolveFailureError,
)
from .lattice import Lattice, reduce_mod_lattice, torus_distance
from .projective import (
    ProjLine,
    ProjPoint,
    line_through,
    lines_meet,
    point_from_vec,
    proj_distance,
)
from .sphere import chordal, is_infinite

COLLISION_THRESHOLD = 1e-5
HALVING_LIMIT = 12
FIBER_CLUSTER = 1e-5
OFF_CURVE_MIN = 1e-6
CRITICAL_INCIDENCE_TOL = 1e-8


@dataclass(frozen=True)
class QuadraticForm:
    """Homogeneous degree-2 form v -> v.M.v with symmetric matrix M."""

    matrix: np.ndarray

    def __call__(self, v) -> complex:
        v = np.asarray(v, dtype=complex)
        return complex(v @ self.matrix @ v)

    def grad(self, v) -> np.ndarray:
        return 2.0 * (self.matrix @ np.asarray(v, dtype=complex))


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


MAX_LOOP_STEP = 0.8


@dataclass(frozen=True)
class LoopPath:
    """Closed sampled path in the cubic complement (first sample = last),
    with consecutive samples within the maximum step bound."""

    samples: tuple[ProjPoint, ...]

    def __post_init__(self):
        if len(self.samples) < 2 or not self.samples[0].close_to(self.samples[-1], 1e-12):
            raise ValueError("loop must be closed (first sample = last)")
        for a, b in zip(self.samples, self.samples[1:]):
            if proj_distance(a, b) > MAX_LOOP_STEP:
                raise ValueError("consecutive loop samples too far apart")


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


def polar_conic(cubic: Cubic, q: ProjPoint) -> QuadraticForm:
    """The degree-2 form q1 Fx + q2 Fy + q3 Fz cutting the tangency points
    whose tangents pass through q; its matrix is half the Hessian of F at q."""
    if cubic.on_curve(q, OFF_CURVE_MIN):
        raise PointOnCurveError(f"base point {q.coords} lies on the cubic")
    return QuadraticForm(0.5 * cubic.hessian_matrix(q.vec))


def _newton_point(cubic: Cubic, form: QuadraticForm, p: ProjPoint,
                  max_iter: int = 12):
    """Newton solve of {F = 0, Q = 0} in the chart of the seed's largest
    coordinate; returns (point, residual_scale)."""
    v = p.vec.copy()
    pivot = int(np.argmax(np.abs(v)))
    v = v / v[pivot]
    idx = [i for i in range(3) if i != pivot]
    for _ in range(max_iter):
        r0 = cubic.F(v)
        r1 = form(v)
        gF = cubic.grad(v)
        gQ = form.grad(v)
        a, b = gF[idx[0]], gF[idx[1]]
        c, d = gQ[idx[0]], gQ[idx[1]]
        det = a * d - b * c
        if det == 0:
            break
        du0 = (d * r0 - b * r1) / det
        du1 = (-c * r0 + a * r1) / det
        v[idx[0]] -= du0
        v[idx[1]] -= du1
        if max(abs(du0), abs(du1)) < 1e-15:
            break
    resid = abs(cubic.F(v)) / cubic.term_scale(v) + abs(form(v)) / (
        float(np.abs(form.matrix).max()) * float(np.abs(v).max()) ** 2 + 1e-300
    )
    return point_from_vec(v), resid


def _conic_point(form: QuadraticForm, rng) -> np.ndarray:
    m = form.matrix
    for _ in range(20):
        a = rng.standard_normal(6).view(np.complex128)
        b = rng.standard_normal(6).view(np.complex128)
        qa = a @ m @ a
        qab = a @ m @ b
        qb = b @ m @ b
        if abs(qb) < 1e-12 * np.abs(m).max():
            continue
        disc = np.sqrt(qab * qab - qa * qb)
        for root in ((-qab + disc) / qb, (-qab - disc) / qb):
            v = a + root * b
            nv = np.abs(v).max()
            if nv > 1e-8:
                v = v / nv
                if abs(v @ m @ v) < 1e-10 * np.abs(m).max():
                    return v
    raise SolveFailureError("no numerically clean point found on the polar conic")


def _split_degenerate_conic(form: QuadraticForm, rng) -> list[ProjPoint]:
    """A rank-2 conic is two lines through its vertex; returns the duals."""
    m = form.matrix
    w, vecs = np.linalg.eig(m)
    vertex = vecs[:, int(np.argmin(np.abs(w)))]
    # intersect with a generic line avoiding the vertex: two points, one on
    # each component line
    a = rng.standard_normal(6).view(np.complex128)
    b = rng.standard_normal(6).view(np.complex128)
    qa, qab, qb = a @ m @ a, a @ m @ b, b @ m @ b
    disc = np.sqrt(qab * qab - qa * qb)
    duals = []
    for root in ((-qab + disc) / qb, (-qab - disc) / qb):
        pt = a + root * b
        duals.append(line_through(point_from_vec(vertex), point_from_vec(pt)).dual)
    return duals


def lambda_fiber(cubic: Cubic, q: ProjPoint, seed: int = 0) -> Fiber:
    """The tangency fiber over q: conic-cubic intersection clustered into
    multiplicities, total always 6.

    The conic is parametrized rationally from a seeded point on it; the
    composed degree-6 polynomial is rooted by companion matrix and polished
    on the 2x2 system.  Doubled entries occur exactly when q lies on an
    inflectional tangent.
    """
    form = polar_conic(cubic, q)
    rng = np.random.default_rng(seed)
    m = form.matrix
    scale_m = float(np.abs(m).max())
    if abs(np.linalg.det(m)) < 1e-10 * scale_m ** 3:
        pts: list[ProjPoint] = []
        for dual in _split_degenerate_conic(form, rng):
            from .cubic import line_intersect_cubic

            inter = line_intersect_cubic(ProjLine(dual), cubic)
            pts.extend(inter.expand())
        return _assemble_fiber(cubic, form, q, pts)
    for attempt in range(10):
        c0 = _conic_point(form, rng)
        a2 = rng.standard_normal(6).view(np.complex128)
        b2 = rng.standard_normal(6).view(np.complex128)

        def param(s):
            mv = a2 + s * b2
            return (mv @ m @ mv) * c0 - 2.0 * (c0 @ m @ mv) * mv

        nodes = 1.3 * np.exp(2j * np.pi * np.arange(7) / 7.0)
        vals = np.array([cubic.F(param(s)) for s in nodes])
        vand = np.vander(nodes, 7, increasing=False)
        coeffs = np.linalg.solve(vand, vals)
        if abs(coeffs[0]) < 1e-9 * np.abs(coeffs).max():
            continue
        roots = np.roots(coeffs)
        if len(roots) != 6:
            continue
        pts = [point_from_vec(param(complex(s))) for s in roots]
        return _assemble_fiber(cubic, form, q, pts)
    raise SolveFailureError(f"fiber solve failed at {q.coords}")


def _assemble_fiber(cubic, form, q, pts) -> Fiber:
    if len(pts) != 6:
        raise SolveFailureError("fiber does not contain 6 points with multiplicity")
    # polish every raw point first: companion-matrix jitter for a tangential
    # (double) intersection far exceeds the cluster radius, but the Newton
    # iterates contract into the touching point
    polished = [_newton_point(cubic, form, p)[0] for p in pts]
    groups: list[list[ProjPoint]] = []
    for p in sorted(polished, key=lambda u: (u.coords[0].real, u.coords[0].imag,
                                             u.coords[1].real)):
        for g in groups:
            if proj_distance(g[0], p) <= FIBER_CLUSTER:
                g.append(p)
                break
        else:
            groups.append([p])
    entries = []
    for g in groups:
        mult = len(g)
        centroid = point_from_vec(sum(p.vec for p in g) / mult)
        if mult == 1:
            centroid, resid = _newton_point(cubic, form, centroid)
            if resid > 1e-8:
                raise SolveFailureError(f"fiber point failed to polish: {resid:.2e}")
        else:
            # a doubled tangency point is an inflection point of the cubic;
            # polishing on (F, det Hess) restores full precision there
            from .cubic import _polish_inflection

            centroid = _polish_inflection(cubic, centroid)
        entries.append((centroid, mult))
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


def branch_divisors_via_tangents(f: EllipticFunction, lat: Lattice,
                                 seed: int = 0) -> list[Divisor]:
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
    fiber = lambda_fiber(cubic, q, seed=seed)
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


def _derivative_evaluable(f: EllipticFunction) -> Evaluable:
    def fp(z):
        v, d = f.values_and_dlog(np.asarray(z, dtype=complex))
        return v * d

    return Evaluable(fp, f.derivative_pair)


def _shifted_evaluable(f: EllipticFunction, v: complex) -> Evaluable:
    def g(z):
        return f.values(z) - v

    def gpair(z):
        fv, d = f.values_and_dlog(np.asarray(z, dtype=complex))
        with np.errstate(divide="ignore", invalid="ignore"):
            return fv - v, fv * d / (fv - v)

    return Evaluable(g, gpair)


def branch_divisors_direct(f: EllipticFunction, lat: Lattice,
                           tol: float = 1e-5, seed: int = 0) -> list[Divisor]:
    """Branch divisors from the critical points of f: zeros of f' plus
    multiple poles, with the full fiber divisor located over each critical
    value."""
    if f.degree < 2:
        raise NotDegree3Error(f"degree is {f.degree}, need >= 2")
    try:
        crit = locate_zeros(_derivative_evaluable(f), lat, tol, seed)
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
        if is_infinite(v):
            fib = locate_zeros(reciprocal(f), lat, tol, seed)
        else:
            fib = locate_zeros(_shifted_evaluable(f, v), lat, tol, seed)
        out.append(fib)
    return out


def _proj_midpoint(a: ProjPoint, b: ProjPoint) -> ProjPoint:
    return point_from_vec(a.vec + b.vec)


def _track_segment(cubic: Cubic, qa: ProjPoint, qb: ProjPoint,
                   pts: list[ProjPoint], depth: int) -> list[ProjPoint]:
    if depth > HALVING_LIMIT:
        raise HalvingLimitError("continuation step halving limit reached")
    form = polar_conic(cubic, qb)
    new_pts = []
    sep = min(
        proj_distance(pts[i], pts[j])
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
    )
    max_move = 0.4 * sep
    ok = True
    for p in pts:
        np_, resid = _newton_point(cubic, form, p)
        if resid > 1e-9 or proj_distance(p, np_) > max_move:
            ok = False
            break
        new_pts.append(np_)
    if ok:
        for i in range(len(new_pts)):
            for j in range(i + 1, len(new_pts)):
                if proj_distance(new_pts[i], new_pts[j]) < COLLISION_THRESHOLD:
                    ok = False
    if ok:
        return new_pts
    mid = _proj_midpoint(qa, qb)
    if mid.close_to(qa, 1e-15) or mid.close_to(qb, 1e-15):
        raise CollisionUnresolvedError("tracked points collide; cannot refine step")
    half = _track_segment(cubic, qa, mid, pts, depth + 1)
    return _track_segment(cubic, mid, qb, half, depth + 1)


def continue_fiber(cubic: Cubic, path: LoopPath, start: Fiber) -> Fiber:
    """Predictor-corrector continuation of a simple fiber along a sampled
    path; output entries correspond index-by-index to the start fiber."""
    if start.total != 6 or len(start.entries) != 6:
        raise CollisionUnresolvedError("continuation needs 6 simple starting points")
    if proj_distance(start.base, path.samples[0]) > 1e-9:
        raise SolveFailureError("start fiber is not over the path's first sample")
    pts = [p for p, _ in start.entries]
    for k in range(len(path.samples) - 1):
        pts = _track_segment(cubic, path.samples[k], path.samples[k + 1], pts, 0)
    return Fiber(path.samples[-1], tuple((p, 1) for p in pts))


def _match_permutation(start_pts: list[ProjPoint], end_pts: list[ProjPoint]) -> Permutation:
    images = []
    for p in end_pts:
        dists = [proj_distance(p, q) for q in start_pts]
        j = int(np.argmin(dists))
        images.append(j)
    return Permutation(tuple(images))


def monodromy_group(cubic: Cubic, basepoint: ProjPoint, loops: list[LoopPath],
                    seed: int = 0):
    """Permutations of the labeled 6-point fiber induced by the loops, the
    group they generate (capped at order 720) and whether it acts
    transitively."""
    fiber0 = lambda_fiber(cubic, basepoint, seed=seed)
    if len(fiber0.entries) != 6:
        raise SolveFailureError("basepoint fiber is not simple")
    start_pts = [p for p, _ in fiber0.entries]
    perms = []
    for lp in loops:
        end = continue_fiber(cubic, lp, fiber0)
        perms.append(_match_permutation(start_pts, end.points()))
    group = {tuple(range(6))}
    frontier = [p.images for p in perms]
    while frontier and len(group) <= 720:
        nxt = []
        for g in frontier:
            for p in perms:
                comp = tuple(p.images[j] for j in g)
                if comp not in group:
                    group.add(comp)
                    nxt.append(comp)
        frontier = nxt
    order = len(group) if len(group) <= 720 else None
    # orbit of sheet 0 under the generators
    orbit = {0}
    changed = True
    while changed:
        changed = False
        for p in perms:
            for i in list(orbit):
                if p.images[i] not in orbit:
                    orbit.add(p.images[i])
                    changed = True
    return perms, len(orbit) == 6, (order if order is not None else ">720")


def tangent_loop_library(cubic: Cubic, basepoint: ProjPoint,
                         lat: Lattice | None = None, seed: int = 0,
                         circle_samples: int = 48):
    """One loop around each of the 9 inflectional tangents: circles in a
    seeded random affine line through the basepoint, with straight tails
    from the basepoint; all samples keep a margin from the cubic and from
    the other tangents."""
    rng = np.random.default_rng(seed)
    infl = inflection_points(cubic, lat)
    duals = [tangent_line(cubic, p, tol=1e-6).dual.vec for p in infl]
    bvec = basepoint.vec
    for attempt in range(40):
        d = rng.standard_normal(6).view(np.complex128)
        d = d - (d @ bvec.conjugate()) * bvec / (bvec @ bvec.conjugate())
        d = d / np.abs(d).max()

        def at(s):
            return bvec + s * d

        svals = []
        okd = True
        for dv in duals:
            den = dv @ d
            if abs(den) < 1e-6:
                okd = False
                break
            svals.append(complex(-(dv @ bvec) / den))
        if not okd:
            continue
        # curve intersections of the line
        c0 = cubic.F(bvec)
        c3 = cubic.F(d)
        fp_ = cubic.F(bvec + d)
        fm_ = cubic.F(bvec - d)
        c2 = (fp_ + fm_) / 2.0 - c0
        c1 = (fp_ - fm_) / 2.0 - c3
        scurve = list(np.roots([c3, c2, c1, c0])) if abs(c3) > 1e-12 else []
        if len(scurve) != 3:
            continue
        loops = []
        ok = True
        for i, si in enumerate(svals):
            others = [s for j, s in enumerate(svals) if j != i] + scurve
            gap = min(abs(si - s) for s in others)
            radius = min(0.35 * gap, 0.45 * abs(si))
            if radius < 1e-6:
                ok = False
                break
            # tail from 0 to the circle start (nearest point toward base);
            # passing near other features is fine (step halving absorbs it),
            # passing through them is not
            start = si * (1.0 - radius / abs(si))
            tail_clear = min(
                _seg_point_dist(0.0, start, s) for s in others
            )
            if tail_clear < 5e-4 * (1.0 + abs(start)):
                ok = False
                break
            ntail = max(6, int(3.0 * abs(start) / max(tail_clear, radius)))
            tail = [start * k / ntail for k in range(ntail)]
            ang0 = np.angle(start - si)
            circle = [
                si + radius * np.exp(1j * (ang0 + 2.0 * np.pi * k / circle_samples))
                for k in range(circle_samples + 1)
            ]
            svveep = tail + circle + tail[::-1] + [0.0]
            samples = tuple(point_from_vec(at(s)) for s in svveep)
            loops.append(LoopPath(samples))
        if ok:
            return loops
    raise SolveFailureError("no admissible loop direction found")


def _seg_point_dist(a: complex, b: complex, p: complex) -> float:
    """Distance of p from segment [a, b] in the complex plane."""
    ab = b - a
    if ab == 0:
        return abs(p - a)
    t = ((p - a) / ab).real
    t = min(1.0, max(0.0, t))
    return abs(a + t * ab - p)
