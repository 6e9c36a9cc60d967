from itertools import combinations

import numpy as np
import pytest

from conftest import GENERIC, GENERIC2, SQUARE, random_abel_function
from elliptica import (
    LoopPath,
    Permutation,
    branch_divisors_direct,
    branch_divisors_via_tangents,
    continue_fiber,
    covering_monodromy,
    critical_locus_check,
    embed_point,
    hesse_cubic,
    inflection_points,
    lambda_fiber,
    lines_meet,
    make_lattice,
    monodromy_group,
    point_from_vec,
    polar_conic,
    proj_point,
    tangent_line,
    tangent_loop_library,
    torus_distance,
    unembed,
    weierstrass_cubic,
)
from elliptica import covering
from elliptica.covering import Fiber, _match_permutation, _newton_rows
from elliptica.cubic import IDENTITY
from elliptica.divisors import match_divisors
from elliptica.elliptic import wp_function
from elliptica.errors import (
    CollisionUnresolvedError,
    DerivativeLocationError,
    MonodromyCertificateError,
    NotDegree3Error,
    PointOnCurveError,
)


def generic_base_point(cubic, lat, rng, off_critical=True):
    while True:
        q = point_from_vec(rng.standard_normal(6).view(np.complex128))
        if cubic.on_curve(q, 1e-4):
            continue
        if off_critical:
            onc, _ = critical_locus_check(cubic, q, lat, tol=1e-6)
            if onc:
                continue
        return q


def test_polar_conic_basis_point(generic):
    cubic = weierstrass_cubic(generic)
    m = polar_conic(cubic, proj_point(1, 0, 0))
    # q = [1,0,0] gives the F_x quadratic: -12 x^2 + g2 z^2
    assert abs(m[0, 0] + 12.0) < 1e-12
    assert abs(m[2, 2] - cubic.g2) < 1e-12 * (1.0 + abs(cubic.g2))
    assert abs(m[0, 1]) + abs(m[1, 1]) + abs(m[1, 2]) < 1e-12
    assert np.abs(m - m.T).max() == 0.0


def test_polar_conic_rejects_curve_point(generic):
    cubic = weierstrass_cubic(generic)
    with pytest.raises(PointOnCurveError):
        polar_conic(cubic, embed_point(0.3 + 0.4j, generic))


def test_fiber_tangency_property(generic):
    cubic = weierstrass_cubic(generic)
    rng = np.random.default_rng(0)
    for k in range(8):
        q = generic_base_point(cubic, generic, rng, off_critical=False)
        fib = lambda_fiber(cubic, q)
        assert fib.total == 6
        for p, m in fib.entries:
            assert cubic.residual(p.vec) < 1e-9
            assert tangent_line(cubic, p, tol=1e-6).incidence(q) <= 1e-8


def test_fiber_residual_points(generic):
    # the tangent at a fiber point meets the cubic again at -2x(p)
    cubic = weierstrass_cubic(generic)
    rng = np.random.default_rng(1)
    q = generic_base_point(cubic, generic, rng)
    fib = lambda_fiber(cubic, q)
    from elliptica import line_intersect_cubic

    for p, _ in fib.entries:
        x = unembed(p, cubic, generic)
        inter = line_intersect_cubic(tangent_line(cubic, p, tol=1e-6), cubic)
        assert inter.total == 3
        assert sum(m for u, m in inter.entries if u.distance(p) < 1e-6) == 2
        rest = [u for u, _ in inter.entries if u.distance(p) >= 1e-6]
        assert len(rest) == 1
        assert rest[0].distance(embed_point(-2.0 * x.rep, generic)) < 1e-7


def test_fiber_solve_retries_when_two_raw_points_polish_to_one(generic):
    # from abel_divisors seed 9 task 162: a seeded random parametrization
    # once crowded the raw roots here, sending two of them to one fiber
    # point whose "double" then moved onto the inflection [0:1:0] although
    # q is on no inflectional tangent; the fiber must stay six simple points
    cubic = weierstrass_cubic(generic)
    q = proj_point(0.031192414228299072 - 0.6407577077738669j, 1.0,
                   -0.004843664587808448 + 0.11403951239502527j)
    fib = lambda_fiber(cubic, q)
    assert [m for _, m in fib.entries] == [1] * 6
    pts = [p for p, _ in fib.entries]
    assert min(a.distance(b) for a, b in combinations(pts, 2)) > 1e-3
    assert min(p.distance(IDENTITY) for p in pts) > 1e-3


def test_fiber_double_on_each_tangent(generic):
    cubic = weierstrass_cubic(generic)
    infl = inflection_points(cubic, generic)
    for i, p in enumerate(infl):
        line = tangent_line(cubic, p, tol=1e-6)
        s1, s2 = line.spanning_points()
        q = point_from_vec(s1.vec + (0.23 + 0.11j * (i + 1)) * s2.vec)
        if cubic.on_curve(q, 1e-6):
            q = point_from_vec(s1.vec + (0.57 - 0.19j * (i + 1)) * s2.vec)
        fib = lambda_fiber(cubic, q)
        mults = sorted(m for _, m in fib.entries)
        assert mults == [1, 1, 1, 1, 2]
        double = next(p2 for p2, m in fib.entries if m == 2)
        assert double.distance(p) < 1e-8


def test_fiber_with_degenerate_polar_conic(generic):
    # q = [1,0,0] makes the polar conic the product of two lines, and lies
    # on the inflectional tangent z = 0, so the fiber doubles at [0,1,0]
    cubic = weierstrass_cubic(generic)
    q = proj_point(1, 0, 0)
    m = polar_conic(cubic, q)
    assert abs(np.linalg.det(m)) < 1e-12 * np.abs(m).max() ** 3
    fib = lambda_fiber(cubic, q)
    assert fib.total == 6
    assert sorted(m for _, m in fib.entries) == [1, 1, 1, 1, 2]
    double = next(p for p, m in fib.entries if m == 2)
    from elliptica.cubic import IDENTITY

    assert double.distance(IDENTITY) < 1e-9
    for p, _ in fib.entries:
        assert tangent_line(cubic, p, tol=1e-6).incidence(q) <= 1e-8


def test_critical_locus_check(generic):
    cubic = weierstrass_cubic(generic)
    rng = np.random.default_rng(2)
    q = generic_base_point(cubic, generic, rng)
    onc, hits = critical_locus_check(cubic, q, generic)
    assert not onc and hits == []
    infl = inflection_points(cubic, generic)
    line = tangent_line(cubic, infl[3], tol=1e-6)
    s1, s2 = line.spanning_points()
    qq = point_from_vec(s1.vec + 0.41 * s2.vec)
    onc, hits = critical_locus_check(cubic, qq, generic)
    assert onc and hits == [3]


def test_equianharmonic_triple_critical(hexagonal, generic):
    # three concurrent inflectional tangents exist iff the lattice is
    # hexagonal: at their meeting point the fiber has three double entries
    cubic = weierstrass_cubic(hexagonal)
    infl = inflection_points(cubic, hexagonal)
    duals = [tangent_line(cubic, p, tol=1e-6) for p in infl]
    triple = None
    for i, j, k in combinations(range(9), 3):
        m = np.array([duals[i].dual.vec, duals[j].dual.vec, duals[k].dual.vec])
        m = m / np.abs(m).max(axis=1, keepdims=True)
        if abs(np.linalg.det(m)) < 1e-9:
            triple = (i, j, k)
            break
    assert triple is not None
    q = lines_meet(duals[triple[0]], duals[triple[1]])
    onc, hits = critical_locus_check(cubic, q, hexagonal)
    assert len(hits) == 3
    fib = lambda_fiber(cubic, q)
    assert sorted(m for _, m in fib.entries) == [2, 2, 2]

    # generic lattice: no pairwise tangent intersection lies on a third
    cubic_g = weierstrass_cubic(generic)
    infl_g = inflection_points(cubic_g, generic)
    duals_g = [tangent_line(cubic_g, p, tol=1e-6) for p in infl_g]
    for i, j in combinations(range(9), 2):
        q = lines_meet(duals_g[i], duals_g[j])
        if cubic_g.on_curve(q, 1e-6):
            continue
        _, hits = critical_locus_check(cubic_g, q, generic)
        assert len(hits) <= 2


def test_branch_divisors_tangents_generic(generic):
    rng = np.random.default_rng(3)
    f = random_abel_function(rng, generic)
    divs = branch_divisors_via_tangents(f, generic)
    assert len(divs) == 6
    # pairwise distinct and of shape 2x + (-2x)
    for d in divs:
        assert d.degree == 3
        assert sorted(m for _, m in d.points) == [1, 2]
    for i, d1 in enumerate(divs):
        for d2 in divs[i + 1 :]:
            assert not match_divisors(d1, d2, generic, 1e-6)
    branching = sum(sum(m - 1 for _, m in d.points) for d in divs)
    assert branching == 6


def test_branch_divisors_oracle_agreement(generic):
    rng = np.random.default_rng(4)
    for _ in range(3):
        f = random_abel_function(rng, generic)
        bt = branch_divisors_via_tangents(f, generic)
        bd = branch_divisors_direct(f, generic)
        assert len(bt) <= 6 and len(bd) <= 6
        used = [False] * len(bd)
        for d1 in bt:
            hit = False
            for i, d2 in enumerate(bd):
                if not used[i] and match_divisors(d1, d2, generic, 1e-6):
                    used[i] = True
                    hit = True
                    break
            assert hit
        assert all(used)


def _same_branch_divisors(bd, bt, lat, tol=1e-6):
    unmatched = list(bd)
    for d1 in bt:
        hits = [d2 for d2 in unmatched if match_divisors(d1, d2, lat, tol)]
        assert hits, "branch divisor multisets disagree"
        unmatched.remove(hits[0])
    assert not unmatched



def test_branch_divisors_direct_agrees_with_tangents_to_rounding(generic):
    # the multiple point of each direct fiber is its critical point, a
    # simple zero of f', so the two algorithms agree to rounding: the README
    # function, then 20 random functions
    from elliptica import build_from_divisors, divisor

    f = build_from_divisors(divisor([(0.2 + 0.3j, 1), (0.5 + 1.0j, 1), (-0.7 - 1.3j, 1)], generic),
                            divisor([(0.1 + 0.1j, 1), (0.6 + 1.0j, 1), (-0.7 - 1.1j, 1)], generic),
                            generic)
    _same_branch_divisors(branch_divisors_direct(f, generic),
                          branch_divisors_via_tangents(f, generic), generic, 1e-13)
    rng = np.random.default_rng(30)
    for _ in range(20):
        f = random_abel_function(rng, generic)
        _same_branch_divisors(branch_divisors_direct(f, generic),
                              branch_divisors_via_tangents(f, generic), generic, 1e-12)


def test_branch_divisors_direct_finds_critical_point_between_double_poles():
    # f' has double poles at the last two poles of f, 0.05 apart on the
    # torus, and a zero midway between them: one cell circle holds all
    # three and counts -3, and that zero is a branch point
    from elliptica import build_from_divisors, divisor

    lat = make_lattice(1.0, 0.42524795437191837 + 1.4974170727902625j)
    zeros = [0.7693345090527235 + 1.4095178243060982j,
             0.8496049941458743 + 0.9300471133309661j,
             -1.6189395031985978 - 2.339564937637064j]
    poles = [0.4371576161526273 + 0.987545744052334j,
             0.982927048122032 + 0.2781613128765582j,
             -1.4200846642746594 - 1.2657070569288922j]
    f = build_from_divisors(divisor([(z, 1) for z in zeros], lat),
                            divisor([(p, 1) for p in poles], lat), lat)
    bt = branch_divisors_via_tangents(f, lat)
    bd = branch_divisors_direct(f, lat)
    assert len(bt) == len(bd) == 6
    _same_branch_divisors(bd, bt, lat)


def test_branch_divisors_direct_fiber_over_infinity_is_the_pole_divisor():
    # a double pole makes infinity a critical value; its fiber is f's own
    # pole divisor, not a located copy of it
    from elliptica import build_from_divisors, divisor

    lat = make_lattice(1.0, 1j)
    f = build_from_divisors(divisor([(0.2 + 0.3j, 1), (0.6 + 0.5j, 1), (0.4j, 1)], lat),
                            divisor([(0.4 + 0.1j, 2), (1j, 1)], lat), lat)
    assert f.poles in branch_divisors_direct(f, lat)


def test_branch_divisors_direct_keeps_crowded_critical_values():
    # two critical values of this function are 1.35e5 apart but only 5.5e-8
    # apart on the sphere; each is the value of its own branch divisor
    from elliptica import build_from_divisors, divisor

    lat = make_lattice(1.0, 0.3283178283149279 + 2.2684840238912947j)
    zeros = [0.41003847667515403 + 2.066018462889216j,
             0.8782447414872014 + 0.6363793034152154j,
             1.2241995215113675 + 2.123259554643985j]
    f = build_from_divisors(divisor([(z, 1) for z in zeros], lat),
                            divisor([(0.6186156943479557 + 0.0962297577219424j, 3)], lat), lat)
    bd = branch_divisors_direct(f, lat)
    assert len(bd) == 5
    assert sum(m - 1 for d in bd for _, m in d.points) == 6
    assert bd[-1] == f.poles
    _same_branch_divisors(bd, branch_divisors_via_tangents(f, lat), lat)


def test_branch_divisors_direct_at_a_triple_pole():
    # f' has a 4-fold pole at f's triple pole, so a cell of the derivative's
    # sweep may hold more than three points
    from elliptica import build_from_divisors, divisor

    lat = make_lattice(1.0, -0.15572495105499534 + 2.479642949340681j)
    zeros = [0.0018759918601854442 + 2.4387881774316966j,
             0.2140119684842363 + 1.8980799421765604j,
             0.7780462633501841 + 0.9913563464524695j]
    f = build_from_divisors(divisor([(z, 1) for z in zeros], lat),
                            divisor([(0.3832197249165337 + 0.9495271722400153j, 3)], lat), lat)
    bd = branch_divisors_direct(f, lat)
    assert sum(m - 1 for d in bd for _, m in d.points) == 6
    _same_branch_divisors(bd, branch_divisors_via_tangents(f, lat), lat)


def test_branch_divisors_direct_refuses_a_short_ramification(generic, monkeypatch):
    # a critical point lost from the derivative's sweep leaves its fiber
    # out; the fibers then ramify fewer than 2 deg f times
    from elliptica import covering, divisor

    f = wp_function(generic)
    locate = covering.locate_divisor_pair

    def lossy(g, lat):
        zeros, poles = locate(g, lat)
        if g.values_and_dlog == f.derivative_pair:
            zeros = divisor(list(zeros.points[1:]), lat)
        return zeros, poles

    monkeypatch.setattr(covering, "locate_divisor_pair", lossy)
    with pytest.raises(DerivativeLocationError, match="ramify 3 times"):
        branch_divisors_direct(f, generic)


def test_branch_divisors_with_large_fiber_coordinates(square):
    # a fiber point of this function has |x| about 310 on the square
    # lattice, so unembedding it inverts wp near its pole
    from elliptica import build_from_divisors, divisor

    zeros = [0.2078974988169298 + 0.3172262647882203j,
             0.8298516218267654 + 0.055116974824722303j,
             -1.0377491206436953 - 0.3723432396129426j]
    poles = [0.6258806686072783 + 0.22640637236627564j,
             0.5793110374191652 + 0.6590384129225874j,
             -1.2051917060264437 - 0.885444785288863j]
    f = build_from_divisors(divisor([(z, 1) for z in zeros], square),
                            divisor([(p, 1) for p in poles], square), square)
    bt = branch_divisors_via_tangents(f, square)
    bd = branch_divisors_direct(f, square)
    _same_branch_divisors(bd, bt, square)


@pytest.mark.parametrize("kind", ["double-zero", "double-pole"])
def test_branch_divisors_at_a_double_zero_or_pole(kind, generic):
    # the translated zero or pole divisor has a double point, whose line is
    # the tangent there
    from elliptica import build_from_divisors, divisor

    simple = divisor([(0.6 + 0.5j, 1), (0.1 + 1.1j, 1), (0.8 + 0.2j, 1)], generic)
    double = divisor([(0.2 + 0.3j, 2), (1.1 + 1.2j, 1)], generic)
    zeros, poles = (double, simple) if kind == "double-zero" else (simple, double)
    f = build_from_divisors(zeros, poles, generic)
    _same_branch_divisors(branch_divisors_direct(f, generic),
                          branch_divisors_via_tangents(f, generic), generic)


@pytest.mark.parametrize("tau", [0.3 + 1.4j, 0.45 + 3j])
def test_branch_divisors_with_a_triple_pole_at_the_identity(tau):
    # poles 3.0 and the half periods as zeros: the tangency fiber doubles at
    # the flex [0:1:0], which comes back from the fiber solve with rounding
    # noise in x and z
    from elliptica import build_from_divisors, divisor, half_periods

    lat = make_lattice(1.0, tau)
    f = build_from_divisors(divisor([(h, 1) for h in half_periods(lat)], lat),
                            divisor([(0.0, 3)], lat), lat)
    _same_branch_divisors(branch_divisors_direct(f, lat),
                          branch_divisors_via_tangents(f, lat), lat)


def test_branch_divisors_direct_skips_a_critical_point_already_multiple(generic):
    # wp^2 has zeros 2y + 2(-y) and a 4-fold pole: the fiber over 0 is found
    # at y and contains -y doubly, so the critical point -y is skipped
    from elliptica import build_from_divisors, divisor
    from elliptica.elliptic import wp_inverse

    y = wp_inverse(0.0, generic)
    f = build_from_divisors(divisor([(y, 2), (-y, 2)], generic),
                            divisor([(0.0, 4)], generic), generic)
    bd = branch_divisors_direct(f, generic)
    assert len(bd) == 5
    assert sum(m - 1 for d in bd for _, m in d.points) == 8
    assert sum(match_divisors(d, f.zeros, generic, 1e-6) for d in bd) == 1


@pytest.mark.parametrize("s", [1e-8, 1e-2, 1e4])
def test_torus_lengths_scale_with_the_lattice(s):
    # the README function and wp on s (Z + (0.3 + 1.4i) Z): the lengths of
    # wp_inverse and branch_divisors_direct are in units of |omega1|
    from elliptica import build_from_divisors, divisor, wp_values

    zeros = [0.2 + 0.3j, 0.5 + 1.0j, -0.7 - 1.3j]
    poles = [0.1 + 0.1j, 0.6 + 1.0j, -0.7 - 1.1j]

    def direct(k):
        lat = make_lattice(k, k * (0.3 + 1.4j))
        f = build_from_divisors(divisor([(k * z, 1) for z in zeros], lat),
                                divisor([(k * p, 1) for p in poles], lat), lat)
        return lat, branch_divisors_direct(f, lat)

    lat, got = direct(s)
    unit = direct(1.0)[1]
    assert len(got) == len(unit) == 6
    for d, u in zip(got, unit):
        assert match_divisors(d, divisor([(s * p.rep, m) for p, m in u.points], lat), lat, 1e-6 * s)
    z = s * np.array([0.31 + 0.43j, 0.7 + 0.2j, 0.15 + 1.1j])
    ref = wp_values(z, lat)[0]
    assert (np.abs(wp_function(lat).values(z) - ref) <= 1e-13 * np.abs(ref)).all()


def test_branch_divisors_wp(generic):
    from elliptica import half_periods

    f = wp_function(generic)
    divs = branch_divisors_direct(f, generic)
    assert len(divs) == 4
    branching = sum(sum(m - 1 for _, m in d.points) for d in divs)
    assert branching == 4  # b = 2n with n = 2
    targets = [0.0] + [b.rep for b in half_periods(generic)]
    for t in targets:
        hit = any(
            d.degree == 2
            and d.points[0][1] == 2
            and torus_distance(d.points[0][0].rep, t, generic) < 1e-6
            for d in divs
        )
        assert hit


def test_branch_divisors_degree_check(generic):
    f = wp_function(generic)
    with pytest.raises(NotDegree3Error):
        branch_divisors_via_tangents(f, generic)


def test_continue_constant_and_reverse(generic):
    cubic = weierstrass_cubic(generic)
    rng = np.random.default_rng(5)
    q = generic_base_point(cubic, generic, rng)
    fib = lambda_fiber(cubic, q)
    const = LoopPath((q, q))
    out = continue_fiber(cubic, const, fib)
    assert _match_permutation(fib.points(), out.points()).is_identity()
    # out-and-back along a random leg
    q2 = point_from_vec(q.vec + 0.05 * rng.standard_normal(6).view(np.complex128))
    path = LoopPath((q, q2, q))
    out = continue_fiber(cubic, path, fib)
    assert _match_permutation(fib.points(), out.points()).is_identity()
    for a, b in zip(fib.points(), out.points()):
        assert a.distance(b) < 1e-8


def test_continue_homotopic_perturbed_paths(generic):
    # same endpoints, perturbed interior samples, both off the critical
    # locus: the endpoint correspondence must agree
    cubic = weierstrass_cubic(generic)
    rng = np.random.default_rng(12)
    q0 = generic_base_point(cubic, generic, rng)
    fib = lambda_fiber(cubic, q0)
    leg = 0.04 * rng.standard_normal(6).view(np.complex128)
    base = [q0.vec, q0.vec + leg, q0.vec + 2 * leg, q0.vec + leg, q0.vec]
    path_a = LoopPath(tuple(point_from_vec(v) for v in base))
    jitter = [np.zeros(3)] + [
        0.004 * rng.standard_normal(6).view(np.complex128) for _ in range(3)
    ] + [np.zeros(3)]
    path_b = LoopPath(
        tuple(point_from_vec(v + j) for v, j in zip(base, jitter))
    )
    out_a = continue_fiber(cubic, path_a, fib)
    out_b = continue_fiber(cubic, path_b, fib)
    pa = _match_permutation(fib.points(), out_a.points())
    pb = _match_permutation(fib.points(), out_b.points())
    assert pa.images == pb.images


def test_monodromy_generators(generic):
    cubic = weierstrass_cubic(generic)
    rng = np.random.default_rng(6)
    q0 = generic_base_point(cubic, generic, rng)
    loops = tangent_loop_library(cubic, q0, generic, seed=0)
    assert len(loops) == 9
    perms, transitive, order = monodromy_group(cubic, q0, loops)
    for p in perms:
        assert p.cycle_type() == (2, 1, 1, 1, 1)
    assert transitive
    assert order == 720


def test_monodromy_density_stability(generic):
    cubic = weierstrass_cubic(generic)
    rng = np.random.default_rng(7)
    q0 = generic_base_point(cubic, generic, rng)
    loops1 = tangent_loop_library(cubic, q0, generic, seed=3, circle_samples=48)
    loops2 = tangent_loop_library(cubic, q0, generic, seed=3, circle_samples=96)
    p1, _, _ = monodromy_group(cubic, q0, loops1[:3])
    p2, _, _ = monodromy_group(cubic, q0, loops2[:3])
    assert [p.images for p in p1] == [p.images for p in p2]


def test_loop_concatenation_composes(generic):
    cubic = weierstrass_cubic(generic)
    rng = np.random.default_rng(8)
    q0 = generic_base_point(cubic, generic, rng)
    loops = tangent_loop_library(cubic, q0, generic, seed=1)
    la, lb = loops[0], loops[1]
    fib = lambda_fiber(cubic, q0)
    pa = _match_permutation(fib.points(), continue_fiber(cubic, la, fib).points())
    pb = _match_permutation(fib.points(), continue_fiber(cubic, lb, fib).points())
    cat = LoopPath(np.concatenate([la.samples, lb.samples[1:]]))
    pc = _match_permutation(fib.points(), continue_fiber(cubic, cat, fib).points())
    assert pc.images == pb.compose(pa).images


def test_continuation_refuses_a_forced_sheet_jump(monkeypatch):
    # the basepoint of acceptance criterion 9 and its first seed-0 lasso;
    # one Newton solve hands back sheets 0 and 1 swapped, a step that meets
    # every residual and collision test: only the bound on each sheet's
    # move, 0.4 times its own nearest distance, refuses it (without the
    # bound the lasso gives (5, 0, 2, 3, 4, 1) instead of (0, 5, 2, 3, 4, 1))
    cubic = weierstrass_cubic(GENERIC)
    rng = np.random.default_rng(9)
    while True:
        q0 = point_from_vec(rng.standard_normal(6).view(np.complex128))
        if not cubic.on_curve(q0, 1e-4) and not critical_locus_check(cubic, q0, GENERIC, tol=1e-2)[0]:
            break
    loop = tangent_loop_library(cubic, q0, GENERIC, seed=0)[0]
    fib = lambda_fiber(cubic, q0)
    want = _match_permutation(fib.points(), continue_fiber(cubic, loop, fib).points())
    solve, calls = covering._newton_rows, []

    def swapped_once(cubic, m, v):
        rows, resid = solve(cubic, m, v)
        calls.append(None)
        return (rows[[1, 0, 2, 3, 4, 5]], resid[[1, 0, 2, 3, 4, 5]]) if len(calls) == 5 else (rows, resid)

    monkeypatch.setattr(covering, "_newton_rows", swapped_once)
    got = _match_permutation(fib.points(), continue_fiber(cubic, loop, fib).points())
    assert len(calls) > 5
    assert got.images == want.images == (0, 5, 2, 3, 4, 1)


def test_permutation_algebra():
    p = Permutation((1, 0, 2, 3, 4, 5))
    q = Permutation((0, 2, 1, 3, 4, 5))
    assert p.compose(p).is_identity()
    assert p.inverse().images == p.images
    assert p.cycle_type() == (2, 1, 1, 1, 1)
    r = p.compose(q)
    assert r.images == tuple(p.images[j] for j in q.images)
    with pytest.raises(ValueError):
        Permutation((0, 0, 1, 2, 3, 4))


def test_match_permutation_refuses_non_bijective_match():
    rng = np.random.default_rng(4)
    start = [point_from_vec(rng.standard_normal(6).view(np.complex128)) for _ in range(6)]
    # end points 0 and 1 both lie next to start point 0; start point 1 is left out
    near0 = point_from_vec(start[0].vec + 1e-9)
    end = [start[0], near0] + start[2:]
    with pytest.raises(CollisionUnresolvedError) as exc:
        _match_permutation(start, end)
    details = exc.value.to_json()["details"]
    assert details["images"] == "[0, 0, 2, 3, 4, 5]"
    assert exc.value.details["nearest"][1] < 1e-8


def _scalar_newton(cubic, m, v, max_iter=12):
    """Reference polish: one point, Newton on {F = 0, Q = 0} in the chart of
    its largest coordinate, stopped by the same 1e-15 step test."""
    v = np.array(v, dtype=complex)
    pivot = int(np.argmax(np.abs(v)))
    v = v / v[pivot]
    idx = [i for i in range(3) if i != pivot]
    for _ in range(max_iter):
        r0, r1 = cubic.F(v), complex(v @ m @ v)
        gF, gQ = cubic.grad(v), 2.0 * (m @ v)
        a, b, c, d = gF[idx[0]], gF[idx[1]], gQ[idx[0]], gQ[idx[1]]
        det = a * d - b * c
        if det == 0:
            break
        du0 = (d * r0 - b * r1) / det
        du1 = (-c * r0 + a * r1) / det
        v[idx[0]] -= du0
        v[idx[1]] -= du1
        if max(abs(du0), abs(du1)) < 1e-15:
            break
    return point_from_vec(v)


@pytest.mark.parametrize("lattice", ["square", "hexagonal", "generic"])
def test_batched_newton_matches_scalar_polish(lattice, request):
    lat = request.getfixturevalue(lattice)
    cubic = weierstrass_cubic(lat)
    rng = np.random.default_rng(13)
    q = generic_base_point(cubic, lat, rng)
    m = polar_conic(cubic, q)
    fib = lambda_fiber(cubic, q)
    # the fiber's points are fixed points of the scalar polish
    for p in fib.points():
        assert _scalar_newton(cubic, m, p.vec).distance(p) <= 1e-14
    # and the batched Newton takes perturbed seeds where the scalar one does
    seeds = np.array([p.vec for p in fib.points()])
    seeds = seeds + 1e-6 * rng.standard_normal((6, 6)).view(np.complex128)
    rows, resid = _newton_rows(cubic, m, seeds)
    assert resid.max() <= 1e-12
    for seed, row in zip(seeds, rows):
        assert point_from_vec(row).distance(_scalar_newton(cubic, m, seed)) <= 1e-14


# a basepoint and loop seed whose loop tails once had consecutive samples
# too far apart for the tracker to accept
REPRO_LATTICE = make_lattice(1, 0.3 + 1.4j)
REPRO_BASE = proj_point(0.5610041569184817 - 0.4675658995620619j,
                        -0.7327897557059544 - 0.5104981843758312j, 1)
REPRO_SEED = 2064653479


def test_loop_library_with_far_apart_tail_samples():
    cubic = weierstrass_cubic(REPRO_LATTICE)
    loops = tangent_loop_library(cubic, REPRO_BASE, REPRO_LATTICE, seed=REPRO_SEED)
    perms, transitive, order = monodromy_group(cubic, REPRO_BASE, loops)
    assert len(perms) == 9
    assert all(p.cycle_type() == (2, 1, 1, 1, 1) for p in perms)
    assert transitive
    assert order == 720


def _dense_tail(s, i, basepoint, start_row):
    """The former uniform tail of lasso i: the segment from the basepoint
    to the circle start in n = max(6, 3 |a| / max(clear, radius)) equal
    steps, a the start and clear the tail's distance from the other
    branch points s of the loop line, as (n, 3) rows from the basepoint."""
    c, others = s[i], np.delete(s, i)
    r = min(0.35 * np.abs(c - others).min(), 0.45 * abs(c))
    a = c * (1.0 - r / abs(c))
    t = np.clip((others / a).real, 0.0, 1.0)
    n = max(6, int(3.0 * abs(a) / max(np.abs(t * a - others).min(), r)))
    # the start row scaled so that its component along the basepoint is the
    # basepoint: the loop line's direction is orthogonal to the basepoint,
    # so the row is then basepoint + a d
    b = start_row * np.vdot(basepoint, basepoint) / np.vdot(basepoint, start_row)
    return basepoint + (np.arange(n) / n)[:, None] * (b - basepoint)


def test_thinned_tails_follow_the_geodesic():
    # a tail is a straight segment in the loop's affine line, which is the
    # projective geodesic between its end vertices: the library's one-segment
    # tail must give the permutation of the uniformly sampled tail it
    # replaced.  Loop 2's tail spans a near-right angle, where an uneven
    # pace in the segment parameter would exhaust the halving floor.
    cubic = weierstrass_cubic(REPRO_LATTICE)
    s, loops = covering._lassos(cubic, REPRO_BASE, REPRO_LATTICE, REPRO_SEED, 48, 9)
    assert all(np.array_equal(a.samples, b.samples) for a, b in zip(
        loops, tangent_loop_library(cubic, REPRO_BASE, REPRO_LATTICE, seed=REPRO_SEED)))
    fib = lambda_fiber(cubic, REPRO_BASE)
    for i in (0, 2):
        thin = loops[i].samples
        tail = _dense_tail(s, i, REPRO_BASE.vec, thin[1])
        assert len(tail) > 6
        assert point_from_vec(thin[0]).distance(point_from_vec(thin[1])) > 0.9
        dense = LoopPath(np.concatenate([tail, thin[1:-1], tail[::-1], thin[-1:]]))
        assert len(dense.samples) == 2 * len(tail) + 50
        dense_perm = _match_permutation(fib.points(), continue_fiber(cubic, dense, fib).points())
        thin_perm = _match_permutation(fib.points(), continue_fiber(cubic, loops[i], fib).points())
        assert dense_perm.cycle_type() == (2, 1, 1, 1, 1)
        assert thin_perm.images == dense_perm.images


def _assert_lasso_vertices(loop, q, circle_samples):
    """The lasso is the basepoint q, a closed circle of circle_samples + 1
    vertices and q again: each tail is one geodesic segment."""
    rows = loop.samples
    assert rows.shape == (circle_samples + 3, 3)
    assert point_from_vec(rows[0]).distance(q) <= 1e-15
    assert point_from_vec(rows[-1]).distance(q) <= 1e-15
    assert point_from_vec(rows[1]).distance(point_from_vec(rows[-2])) <= 1e-15


def test_lassos_are_their_vertices():
    cubic = weierstrass_cubic(GENERIC)
    q = proj_point(1.0, 0.3 + 0.2j, 0.1 - 0.05j)
    for n in (3, 48):
        loops = tangent_loop_library(cubic, q, GENERIC, circle_samples=n)
        assert len(loops) == 9
        for loop in loops:
            _assert_lasso_vertices(loop, q, n)
    # the fewest vertices still certify the covering group
    loops, _, perms, transitive, order = covering_monodromy(cubic, q, GENERIC, circle_samples=3)
    assert len(loops) == 12 and transitive and order == 720
    assert _product(perms).is_identity()
    for loop in loops:
        _assert_lasso_vertices(loop, q, 3)


def test_group_of_one_transposition_has_order_two(generic):
    cubic = weierstrass_cubic(generic)
    q0 = generic_base_point(cubic, generic, np.random.default_rng(6))
    loops = tangent_loop_library(cubic, q0, generic, seed=0)
    perms, transitive, order = monodromy_group(cubic, q0, loops[:1])
    assert perms[0].cycle_type() == (2, 1, 1, 1, 1)
    assert order == 2 and not transitive


def test_loop_library_needs_three_circle_samples(generic):
    cubic = weierstrass_cubic(generic)
    q0 = generic_base_point(cubic, generic, np.random.default_rng(6))
    for n in (2, 0, -3):
        with pytest.raises(ValueError):
            tangent_loop_library(cubic, q0, generic, circle_samples=n)


def _winding(values) -> float:
    """Turns of the closed sequence values around 0."""
    return float(np.angle(values[1:] / values[:-1]).sum() / (2.0 * np.pi))


def _geodesic_samples(samples, per_segment=64):
    """The projective geodesics that continue_fiber follows between
    consecutive loop samples, each cut into per_segment steps."""
    t = np.arange(1, per_segment + 1)[:, None] / per_segment
    out = [samples[:1]]
    for qa, qb in zip(samples, samples[1:]):
        a, b = qa / np.linalg.norm(qa), qb / np.linalg.norm(qb)
        b = b * np.exp(1j * np.angle(np.vdot(b, a)))
        out.append((1.0 - t) * a + t * b)
    return np.concatenate(out)


@pytest.mark.parametrize("cubic, lat", [
    (weierstrass_cubic(GENERIC), GENERIC), (weierstrass_cubic(SQUARE), SQUARE),
    (weierstrass_cubic(GENERIC2), GENERIC2), (hesse_cubic(2.0), None),
], ids=["generic", "square", "tau-2i", "hesse-2"])
def test_each_tangent_loop_is_a_lasso_around_its_own_tangent(cubic, lat):
    # the loop line branches at its nine tangent crossings and its three
    # points of the cubic; loop i must wind once around crossing i and
    # around none of the other eleven, along the path the tracker follows.
    # For a j != i that is the winding of (D_k . v) / (D_j . v), 1 for
    # k = i and 0 for every other k != j, and of F(v) / (D_j . v)^3, 0:
    # ratios of forms of equal degree, blind to the scale of v
    duals = np.array([tangent_line(cubic, p, tol=1e-6).dual.vec
                      for p in inflection_points(cubic, lat)])
    rng = np.random.default_rng(23)
    for seed in range(4):
        q0 = generic_base_point(cubic, lat, rng)
        for i, loop in enumerate(tangent_loop_library(cubic, q0, lat, seed=seed)):
            v = _geodesic_samples(loop.samples)
            lin = duals @ v.T
            j = (i + 1) % 9
            for k in range(9):
                if k != j:
                    assert _winding(lin[k] / lin[j]) == pytest.approx(float(k == i), abs=1e-9), (seed, i, k)
            assert _winding(cubic.F(v.T) / lin[j] ** 3) == pytest.approx(0.0, abs=1e-9), (seed, i)


def _product(perms):
    """The permutation of the loops traversed in order: the last after the rest."""
    out = Permutation(tuple(range(6)))
    for p in perms:
        out = p.compose(out)
    return out


def test_covering_monodromy_certificate_on_the_readme_basepoint(monkeypatch):
    # the README's basepoint: twelve lassos, nine around the inflectional
    # tangents and three around the loop line's points of the cubic.  Then
    # two mutations, each refused: a loop that concatenates two lassos
    # (its permutation is a product of two transpositions, never one), and
    # the run with one lasso dropped, whose product is no longer the
    # identity.  Continuation is a pure function, so it is memoized
    tracked = {}
    track = covering.continue_fiber

    def memoized(cubic, path, start):
        key = path.samples.tobytes()
        if key not in tracked:
            tracked[key] = track(cubic, path, start)
        return tracked[key]

    monkeypatch.setattr(covering, "continue_fiber", memoized)
    cubic = weierstrass_cubic(GENERIC)
    q = proj_point(1.0, 0.3 + 0.2j, 0.1 - 0.05j)
    loops, kinds, perms, transitive, order = covering_monodromy(cubic, q, GENERIC)
    assert len(loops) == len(perms) == 12
    assert sorted(kinds, key=str) == list(range(9)) + ["cubic"] * 3
    assert all(p.cycle_type() == (2, 1, 1, 1, 1) for p in perms)
    assert _product(perms).is_identity()
    assert transitive and order == 720
    for loop in loops:
        _assert_lasso_vertices(loop, q, 48)

    cat = LoopPath(np.concatenate([loops[0].samples, loops[1].samples[1:]]))
    with pytest.raises(MonodromyCertificateError) as exc:
        monodromy_group(cubic, q, [loops[0], cat])
    err = exc.value.to_json()
    assert err["operation"] == "monodromy_group"
    assert err["details"]["loop"] == 1

    lassos = covering._lassos

    def one_dropped(*args):
        s, loops = lassos(*args)
        return np.delete(s, 4), loops[:4] + loops[5:]

    monkeypatch.setattr(covering, "_lassos", one_dropped)
    with pytest.raises(MonodromyCertificateError) as exc:
        covering_monodromy(cubic, q, GENERIC)
    assert exc.value.details["loops"] == 11
    assert len(tracked) == 13  # the twelve lassos and the concatenation


def _enumerated_group(perms):
    """The group the permutations generate, enumerated from the identity."""
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
    return group


class _KnownLasso:
    """A stand-in loop whose permutation is given: continuation returns it
    unchanged and matching reads its permutation off it."""

    def __init__(self, perm):
        self.perm = perm

    def points(self):
        return self.perm


def test_monodromy_group_closed_form_matches_enumeration(monkeypatch):
    q = proj_point(1, 0, 0)
    monkeypatch.setattr(covering, "lambda_fiber", lambda cubic, base: Fiber(base, ((q, 1),) * 6))
    monkeypatch.setattr(covering, "continue_fiber", lambda cubic, path, start: path)
    monkeypatch.setattr(covering, "_match_permutation", lambda start, end: end)

    def swap(a, b):
        images = list(range(6))
        images[a], images[b] = b, a
        return Permutation(tuple(images))

    rng = np.random.default_rng(31)
    cases = [[], [swap(0, 3)], [swap(0, 1), swap(1, 2), swap(2, 3), swap(4, 5)],
             [swap(0, 1), swap(0, 2), swap(0, 3), swap(0, 4)],
             [swap(i, i + 1) for i in range(5)]]
    for _ in range(60):
        cases.append([swap(*rng.choice(6, 2, replace=False)) for _ in range(rng.integers(1, 8))])
    orders = set()
    for perms in cases:
        got, transitive, order = monodromy_group(None, q, [_KnownLasso(p) for p in perms])
        group = _enumerated_group(perms)
        assert got == perms
        assert order == len(group)
        assert transitive == (len({g[0] for g in group}) == 6)
        orders.add(order)
    assert {1, 2, 48, 120, 720} <= orders
