"""The fiber solve on every kind of polar conic, against an mpmath oracle
and against the zeros of a degree-6 function on the torus, and the checks
on the fibers of branch_divisors_direct."""
from itertools import combinations

import mpmath
import numpy as np
import pytest

from conftest import GENERIC, GENERIC2, HEXAGONAL, SQUARE, random_abel_function
from elliptica import (
    LoopPath,
    branch_divisors_direct,
    continue_fiber,
    critical_locus_check,
    divisor,
    embed_point,
    hesse_cubic,
    inflection_points,
    lambda_fiber,
    lines_meet,
    point_from_vec,
    polar_conic,
    proj_point,
    tangent_line,
    tangent_loop_library,
    weierstrass_cubic,
)
from elliptica import covering, divisors
from elliptica.divisors import Evaluable, locate_divisor_pair, match_divisors
from elliptica.elliptic import wp_values
from elliptica.errors import SolveFailureError, SubdivisionFailureError
from elliptica.lattice import torus_distance, weierstrass_invariants
from elliptica.projective import row_distances

LATTICES = [SQUARE, HEXAGONAL, GENERIC, GENERIC2, None, None, None]
CUBICS = [weierstrass_cubic(lat) for lat in LATTICES[:4]] + [
    hesse_cubic(t) for t in (2.0, -1.0 + 3.0j, 0.5j)]
CUBIC_IDS = ["square", "hexagonal", "generic", "tau2i", "t2", "t-1+3i", "t0.5i"]


def hessian_curve_points(cubic, rng, n):
    """n base points on the Hessian curve det Hess F = 0 and off the cubic:
    where random lines w1 + s w2 meet it (the Hessian is linear in the
    point, so s solves a 3 x 3 eigenproblem), polished by Newton in s."""
    out = []
    while len(out) < n:
        w1, w2 = rng.standard_normal((2, 6)).view(complex)
        h1, h2 = cubic.hessian_matrix(w1), cubic.hessian_matrix(w2)
        for s in -np.linalg.eigvals(np.linalg.solve(h2, h1)):
            v = w1 + s * w2
            for _ in range(3):
                det, grad = cubic.hessian_det_rows(v[None])
                v = v - det[0] / (grad[0] @ w2) * w2
            q = point_from_vec(v)
            if not cubic.on_curve(q, 1e-4):
                out.append(q)
    return out[:n]


def off_critical_points(cubic, lat, rng, n):
    out = []
    while len(out) < n:
        q = point_from_vec(rng.standard_normal(6).view(complex))
        if not cubic.on_curve(q, 1e-4) and not critical_locus_check(cubic, q, lat, tol=1e-6)[0]:
            out.append(q)
    return out


@pytest.mark.parametrize("cubic", CUBICS, ids=CUBIC_IDS)
def test_fibers_over_the_hessian_curve(cubic):
    # every base point here has a rank-2 polar conic, solved as two lines
    rng = np.random.default_rng(41)
    for k, q in enumerate(hessian_curve_points(cubic, rng, 12)):
        m = polar_conic(cubic, q)
        assert abs(np.linalg.det(m)) < 1e-10 * np.abs(m).max() ** 3
        fib = lambda_fiber(cubic, q)
        assert fib.total == 6
        for p, _ in fib.entries:
            assert cubic.residual(p.vec) <= 1e-9
            assert tangent_line(cubic, p, tol=1e-6).incidence(q) <= 1e-8


def _assert_tangent_fiber(cubic, q, fib):
    assert fib.total == 6
    for p, _ in fib.entries:
        assert cubic.residual(p.vec) <= 1e-9
        assert tangent_line(cubic, p, tol=1e-6).incidence(q) <= 1e-8


@pytest.mark.parametrize("cubic", CUBICS, ids=CUBIC_IDS)
def test_fibers_near_the_hessian_curve(cubic):
    # base points 1e-12 to 1e-3 off the Hessian curve, where the polar conic
    # is smooth but nearly a line pair
    rng = np.random.default_rng(45)
    for q in hessian_curve_points(cubic, rng, 12):
        step = 10.0 ** rng.uniform(-12, -3) * rng.standard_normal(6).view(complex)
        q = point_from_vec(q.vec + step)
        _assert_tangent_fiber(cubic, q, lambda_fiber(cubic, q))


def test_fiber_near_the_hessian_curve_of_the_square_cubic():
    # `fiber --tau 0,1` at this base point once failed every retry
    cubic = weierstrass_cubic(SQUARE)
    q = proj_point(0.19636545528956592 + 0.2355696595375974j, 1.0,
                   0.05297221220226345 - 0.04091641576178544j)
    _assert_tangent_fiber(cubic, q, lambda_fiber(cubic, q))


@pytest.mark.parametrize("cubic, lat", list(zip(CUBICS, LATTICES)), ids=CUBIC_IDS)
def test_fibers_on_every_inflectional_tangent(cubic, lat):
    rng = np.random.default_rng(46)
    for p in inflection_points(cubic, lat):
        s1, s2 = tangent_line(cubic, p, tol=1e-6).spanning_points()
        for c in rng.standard_normal((2, 2)).view(complex)[:, 0]:
            q = point_from_vec(s1.vec + c * s2.vec)
            if cubic.on_curve(q, 1e-4):
                continue
            fib = lambda_fiber(cubic, q)
            _assert_tangent_fiber(cubic, q, fib)
            assert sorted(m for _, m in fib.entries) == [1, 1, 1, 1, 2]
            assert next(u for u, m in fib.entries if m == 2).distance(p) < 1e-8


@pytest.mark.parametrize("cubic, lat, q", [
    # once a fiber whose tangents missed q by 2.0e-8
    (weierstrass_cubic(GENERIC2), GENERIC2,
     proj_point(-0.1083762166740059 - 0.7718992987281356j, 1.0,
                0.03243756664299239 + 0.27469573255944635j)),
    # the flex [1:0:-1] once came out polished as both (1, 0, -1) and
    # (-1, 0, 1), and the average of the two cancelled
    (hesse_cubic(2.0), None,
     proj_point(-0.3139976067072815 - 0.1541471290792284j, 1.0,
                0.9806642733739481 + 0.1541471290792284j)),
], ids=["tau2i", "t2"])
def test_fiber_doubles_at_the_flex_of_its_tangent(cubic, lat, q):
    hits = critical_locus_check(cubic, q, lat)[1]
    assert len(hits) == 1
    fib = lambda_fiber(cubic, q)
    _assert_tangent_fiber(cubic, q, fib)
    assert sorted(m for _, m in fib.entries) == [1, 1, 1, 1, 2]
    double = next(u for u, m in fib.entries if m == 2)
    assert double.distance(inflection_points(cubic, lat)[hits[0]]) < 1e-12


@pytest.mark.parametrize("cubic, lat", list(zip(CUBICS, LATTICES)), ids=CUBIC_IDS)
def test_raw_fiber_points_need_no_more_than_a_polish(cubic, lat, monkeypatch):
    # random base points and base points near a flex, off the critical
    # locus: every raw point is within 1e-10 of the fiber point it polishes to
    raws, assemble = [], covering._assemble_fiber

    def spy(cubic, m, q, pts):
        raws.append(pts)
        return assemble(cubic, m, q, pts)

    monkeypatch.setattr(covering, "_assemble_fiber", spy)
    rng = np.random.default_rng(47)
    qs = off_critical_points(cubic, lat, rng, 6)
    for p in inflection_points(cubic, lat):
        step = 10.0 ** rng.uniform(-3, 0) * rng.standard_normal(6).view(complex)
        q = point_from_vec(p.vec + step)
        if not cubic.on_curve(q, 1e-4) and not critical_locus_check(cubic, q, lat, tol=1e-6)[0]:
            qs.append(q)
    for q in qs:
        raws.clear()
        fib = lambda_fiber(cubic, q)
        assert len(raws) == 1 and len(fib.entries) == 6
        for v in raws[0]:
            assert min(point_from_vec(v).distance(p) for p in fib.points()) <= 1e-10


def test_fiber_with_a_double_line_polar_conic():
    # q = [1:1:1] makes the polar conic of t = 6 the double line x + y + z = 0,
    # which touches the cubic at three flexes
    cubic = hesse_cubic(6.0)
    q = proj_point(1, 1, 1)
    assert np.linalg.matrix_rank(polar_conic(cubic, q)) == 1
    fib = lambda_fiber(cubic, q)
    _assert_tangent_fiber(cubic, q, fib)
    assert [m for _, m in fib.entries] == [2, 2, 2]
    for flex in ((0, 1, -1), (1, 0, -1), (1, -1, 0)):
        assert min(p.distance(proj_point(*flex)) for p in fib.points()) < 1e-14


def test_fibers_near_the_hexagonal_triple_critical_point():
    # three inflectional tangents of the hexagonal cubic meet at one point;
    # just off it the polar conic is nearly a double line (sigma2 / sigma1
    # down to about 5e-7, sigma3 / sigma1 to about 2e-10) and its three
    # nearly doubled pairs of fiber points are only about sqrt(offset)
    # apart; 20 base points per offset 1e-8, ..., 1e-4 in seeded directions
    cubic = weierstrass_cubic(HEXAGONAL)
    duals = [tangent_line(cubic, p, tol=1e-6) for p in inflection_points(cubic, HEXAGONAL)]
    for i, j, k in combinations(range(9), 3):
        m = np.array([duals[i].dual.vec, duals[j].dual.vec, duals[k].dual.vec])
        if abs(np.linalg.det(m / np.abs(m).max(axis=1, keepdims=True))) < 1e-9:
            break
    q0 = lines_meet(duals[i], duals[j])
    assert duals[k].incidence(q0) < 1e-12
    rng = np.random.default_rng(5)
    for offset in 10.0 ** np.arange(-8, -3):
        for _ in range(20):
            d = rng.standard_normal(6).view(complex)
            q = point_from_vec(q0.vec + offset * d / np.linalg.norm(d))
            _assert_tangent_fiber(cubic, q, lambda_fiber(cubic, q))


def _mp_chart_solve(cubic, q, p):
    """The fiber point near p at 30 digits: mpmath.findroot on F = 0 and
    v.M.v = 0, M = 3 T[., ., q], in the chart of p's largest coordinate,
    with the cubic's coefficient tensor T and q taken exactly as floats."""
    with mpmath.workdps(30):
        T = [[[mpmath.mpc(complex(c)) for c in row] for row in plane] for plane in cubic.tensor]
        qv = [mpmath.mpc(complex(c)) for c in q.vec]
        M = [[3 * mpmath.fsum(T[a][b][c] * qv[c] for c in range(3)) for b in range(3)]
             for a in range(3)]
        piv = int(np.abs(p.vec).argmax())
        free = [i for i in range(3) if i != piv]
        vec = p.vec / p.vec[piv]

        def point(x, y):
            v = [mpmath.mpc(1)] * 3
            v[free[0]], v[free[1]] = x, y
            return v

        def system(x, y):
            v = point(x, y)
            f = mpmath.fsum(T[a][b][c] * v[a] * v[b] * v[c]
                            for a in range(3) for b in range(3) for c in range(3))
            g = mpmath.fsum(M[a][b] * v[a] * v[b] for a in range(3) for b in range(3))
            return [f, g]

        x, y = mpmath.findroot(system, (mpmath.mpc(complex(vec[free[0]])),
                                        mpmath.mpc(complex(vec[free[1]]))))
        v = point(x, y)
        # the scale-free distance |p x v| / (|p| |v|), at 30 digits
        u = [mpmath.mpc(complex(c)) for c in vec]
        cr = [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]
        norm = lambda w: mpmath.sqrt(mpmath.fsum(abs(c) ** 2 for c in w))
        return float(norm(cr) / (norm(u) * norm(v)))


@pytest.mark.parametrize("cubic, lat", [(weierstrass_cubic(SQUARE), SQUARE),
                                        (weierstrass_cubic(HEXAGONAL), HEXAGONAL),
                                        (weierstrass_cubic(GENERIC), GENERIC),
                                        (hesse_cubic(2.0), None),
                                        (hesse_cubic(-1.0 + 3.0j), None)],
                         ids=["square", "hexagonal", "generic", "t2", "t-1+3i"])
def test_fiber_points_match_an_mpmath_solve(cubic, lat):
    rng = np.random.default_rng(42)
    qs = off_critical_points(cubic, lat, rng, 2)
    # and one near the flex [0:1:0], where the raw roots crowd together
    qs.append(proj_point(0.031192414228299072 - 0.6407577077738669j, 1.0,
                         -0.004843664587808448 + 0.11403951239502527j))
    for q in qs:
        fib = lambda_fiber(cubic, q)
        for p, m in fib.entries:
            if m == 1:
                assert _mp_chart_solve(cubic, q, p) <= 1e-12


def _tangency_function(q, lat):
    """W_q(z) = det(q, P(z), P'(z)) for P = [wp : wp' : 1], of degree 6:
    its zeros are the points whose tangent passes through q, and it has a
    6-fold pole at 0."""
    g2 = weierstrass_invariants(lat)[0]
    q0, q1, q2 = q.vec

    def pair(z):
        p, pp = wp_values(z, lat)
        p2 = 6.0 * p * p - g2 / 2.0
        p3 = 12.0 * p * pp
        w = -q0 * p2 + q1 * pp + q2 * (p * p2 - pp * pp)
        dw = -q0 * p3 + q1 * p2 + q2 * (p * p3 - pp * p2)
        with np.errstate(divide="ignore", invalid="ignore"):
            return w, dw / w

    return Evaluable(pair, degree=6)


@pytest.mark.parametrize("lat", [GENERIC, SQUARE, GENERIC2, HEXAGONAL],
                         ids=["generic", "square", "tau2i", "hexagonal"])
def test_degree6_tangency_zeros_are_the_fiber(lat):
    # a cell may hold any number of points: the six zeros and the 6-fold
    # pole of W_q are located, and the zeros embed onto lambda_fiber's points
    cubic = weierstrass_cubic(lat)
    for q in off_critical_points(cubic, lat, np.random.default_rng(45), 5):
        zeros, poles = locate_divisor_pair(_tangency_function(q, lat), lat)
        assert [m for _, m in poles.points] == [6]
        assert torus_distance(poles.points[0][0].rep, 0.0, lat) < 1e-9
        fiber = np.array([p.vec for p, _ in lambda_fiber(cubic, q).entries])
        assert zeros.degree == 6
        for z, _ in zeros.points:
            assert row_distances(embed_point(z, lat).vec, fiber).min() <= 1e-12


def _drop_one_pair(zeros, poles, lat):
    """The divisors with one zero and one pole taken out."""
    def drop(d):
        (p, m), rest = d.points[0], list(d.points[1:])
        return divisor(rest + ([(p, m - 1)] if m > 1 else []), lat)

    return drop(zeros), drop(poles)


def _patch_fiber_sweeps(monkeypatch, change, times):
    """Replace the result of the first `times` resolved grids of an f - v
    by change(zeros, poles, lat); every other grid runs as it is."""
    sweep, done = divisors._grid, []

    def patched(f, lat, oa, ob):
        pair = sweep(f, lat, oa, ob)
        if (pair is not None and "_shifted_evaluable" in f.values_and_dlog.__qualname__
                and len(done) < times):
            done.append(1)
            return change(*pair, lat)
        return pair

    monkeypatch.setattr(divisors, "_grid", patched)
    return done


def test_direct_fibers_are_swept_again_when_a_pair_is_dropped(monkeypatch):
    # a zero of f - v lost next to one of its poles leaves the two degrees
    # equal; only f's known degree shows the loss
    f = random_abel_function(np.random.default_rng(43), GENERIC)
    expected = branch_divisors_direct(f, GENERIC)
    done = _patch_fiber_sweeps(monkeypatch, _drop_one_pair, 1)
    found = branch_divisors_direct(f, GENERIC)
    assert done == [1]
    assert all(d.degree == 3 for d in found)
    assert len(found) == len(expected)
    assert all(match_divisors(a, b, GENERIC, 1e-9) for a, b in zip(found, expected))


def test_direct_fibers_with_other_poles_are_refused(monkeypatch):
    # the poles of f - v are f's poles, known exactly; a sweep that moves
    # one raises instead of returning its zeros
    f = random_abel_function(np.random.default_rng(43), GENERIC)

    def move_a_pole(zeros, poles, lat):
        (p, m), rest = poles.points[0], list(poles.points[1:])
        return zeros, divisor(rest + [(p.rep + 1e-4, m)], lat)

    _patch_fiber_sweeps(monkeypatch, move_a_pole, float("inf"))
    with pytest.raises(SubdivisionFailureError):
        branch_divisors_direct(f, GENERIC)


def test_loop_and_continuation_errors_name_their_stage():
    cubic = weierstrass_cubic(SQUARE)
    # [1:0:0] lies on the inflectional tangent z = 0: no loop direction
    with pytest.raises(SolveFailureError) as exc:
        tangent_loop_library(cubic, proj_point(1, 0, 0), SQUARE)
    assert exc.value.to_json()["operation"] == "tangent_loop_library"
    q = off_critical_points(cubic, SQUARE, np.random.default_rng(44), 2)
    fib = lambda_fiber(cubic, q[0])
    path = LoopPath(np.array([q[1].vec, q[0].vec, q[1].vec]))
    with pytest.raises(SolveFailureError) as exc:
        continue_fiber(cubic, path, fib)
    assert exc.value.to_json()["operation"] == "continue_fiber"
