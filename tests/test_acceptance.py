"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime and asserting the stated tolerances and time limits."""
import time
from fractions import Fraction
from itertools import combinations

import numpy as np

from conftest import GENERIC, HEXAGONAL, SQUARE, random_abel_function
from elliptica import (
    EPS,
    LoopPath,
    MobiusTransform,
    QEps,
    chordal,
    concurrency_scan,
    concurrency_scan_exact,
    critical_locus_check,
    continue_fiber,
    divisor,
    embed_point,
    group_add,
    half_periods,
    hesse_cubic,
    hesse_j,
    inflection_points,
    is_equianharmonic,
    lambda_fiber,
    line_through,
    lines_meet,
    make_lattice,
    monodromy_group,
    point_from_vec,
    tangent_line,
    tangent_loop_library,
    theta,
    torsion_points,
    torus_distance,
    unembed,
    weierstrass_cubic,
    weierstrass_invariants,
    wp_stabilizer,
    wp_values,
)
from elliptica.covering import _match_permutation
from elliptica.divisors import locate_divisor_pair, match_divisors
from elliptica.elliptic import wp_function
from elliptica.hesse import EXACT_SPECIAL_SINGULAR, EXACT_SPECIAL_SMOOTH, concurrency_dets


def report(num, label, elapsed, limit):
    print(f"PASS criterion {num:>2} ({label}): {elapsed:.2f} s (limit {limit} s)")
    assert elapsed < limit, f"criterion {num} exceeded its {limit} s budget"


def test_criterion_01_hesse_classification():
    t0 = time.time()
    for tq in EXACT_SPECIAL_SMOOTH:
        assert len(concurrency_scan_exact(tq)) == 3
    for tq in EXACT_SPECIAL_SINGULAR:
        assert len(concurrency_scan_exact(tq)) > 0
    rng = np.random.default_rng(42)
    special = list(EXACT_SPECIAL_SMOOTH) + list(EXACT_SPECIAL_SINGULAR)
    checked = 0
    while checked < 200:
        a = Fraction(int(rng.integers(-18, 19)), int(rng.integers(1, 7)))
        b = Fraction(int(rng.integers(-18, 19)), int(rng.integers(1, 7)))
        tq = QEps(a, b)
        if any((tq - s).is_zero() for s in special):
            continue
        assert concurrency_scan_exact(tq) == []  # exactly nonzero determinants
        dets = concurrency_dets(tq.to_complex())
        assert min(dets.values()) > 1e-9
        checked += 1
    report(1, "Hesse concurrency classification", time.time() - t0, 5)


def test_criterion_02_j_invariant():
    t0 = time.time()
    rng = np.random.default_rng(7)
    for _ in range(100):
        t = complex(rng.standard_normal(), rng.standard_normal()) * 3.0
        jt, jet = hesse_j(t), hesse_j(EPS * t)
        assert abs(jt - jet) <= 1e-10 * (1.0 + abs(jt))
    assert abs(hesse_j(6.0)) <= 1e-12
    assert abs(hesse_j(0.0)) <= 1e-12
    report(2, "j-invariant identities", time.time() - t0, 1)


def test_criterion_03_weierstrass_equation():
    t0 = time.time()
    for lat in (SQUARE, HEXAGONAL, GENERIC):
        g2, g3 = weierstrass_invariants(lat)
        rng = np.random.default_rng(11)
        zs = (
            rng.uniform(0.05, 0.95, 100) * lat.omega1
            + rng.uniform(0.05, 0.95, 100) * lat.omega2
        )
        p, pp = wp_values(zs, lat)
        resid = np.abs(pp ** 2 - 4.0 * p ** 3 + g2 * p + g3) / (1.0 + np.abs(p) ** 3)
        assert resid.max() <= 1e-8
    report(3, "Weierstrass equation residual", time.time() - t0, 5)


def test_criterion_04_theta_laws():
    t0 = time.time()
    lat = GENERIC
    tau = lat.tau
    rng = np.random.default_rng(3)
    zs = rng.uniform(-1, 1, 100) + 1j * rng.uniform(-2, 2, 100) * tau.imag
    t_z = theta(zs, lat, trunc=24)
    t_z1 = theta(zs + 1.0, lat, trunc=24)
    assert np.abs(t_z1 - t_z).max() <= 1e-10 * np.abs(t_z).max()
    lhs = theta(zs + tau, lat, trunc=24)
    rhs = np.exp(-1j * np.pi * (tau + 2.0 * zs)) * t_z
    assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()
    assert abs(theta((1.0 + tau) / 2.0, lat, trunc=24)) <= 1e-10
    report(4, "theta quasi-periodicity and zero", time.time() - t0, 1)


def test_criterion_05_abel_round_trip():
    t0 = time.time()
    rng = np.random.default_rng(5)
    from elliptica import abel_defect

    for _ in range(20):
        f = random_abel_function(rng, GENERIC)
        zeros, poles = locate_divisor_pair(f, GENERIC)
        assert zeros.degree == poles.degree == 3
        assert match_divisors(zeros, f.zeros, GENERIC, 1e-6)
        assert match_divisors(poles, f.poles, GENERIC, 1e-6)
        assert abel_defect(zeros, poles, GENERIC) <= 1e-6
    report(5, "Abel build/locate round trip", time.time() - t0, 30)


def test_criterion_06_fiber_counts():
    t0 = time.time()
    cubic = weierstrass_cubic(GENERIC)
    rng = np.random.default_rng(6)
    done = 0
    while done < 50:
        q = point_from_vec(rng.standard_normal(6).view(np.complex128))
        if cubic.on_curve(q, 1e-4):
            continue
        onc, _ = critical_locus_check(cubic, q, GENERIC, tol=1e-10)
        if onc:
            continue
        fib = lambda_fiber(cubic, q)
        assert fib.total == 6
        assert len(fib.entries) == 6
        for p, m in fib.entries:
            assert m == 1
            assert tangent_line(cubic, p, tol=1e-6).incidence(q) <= 1e-8
        done += 1
    infl = inflection_points(cubic, GENERIC)
    for i, p in enumerate(infl):
        line = tangent_line(cubic, p, tol=1e-6)
        s1, s2 = line.spanning_points()
        q = point_from_vec(s1.vec + (0.31 + 0.17j * (i + 1)) * s2.vec)
        if cubic.on_curve(q, 1e-6):
            q = point_from_vec(s1.vec + (0.63 - 0.29j * (i + 1)) * s2.vec)
        fib = lambda_fiber(cubic, q)
        assert fib.total == 6
        assert sorted(m for _, m in fib.entries) == [1, 1, 1, 1, 2]
    report(6, "tangency fiber counts", time.time() - t0, 10)


def test_criterion_07_branch_divisor_oracles():
    t0 = time.time()
    from elliptica import branch_divisors_direct, branch_divisors_via_tangents

    rng = np.random.default_rng(17)
    for _ in range(10):
        f = random_abel_function(rng, GENERIC)
        bt = branch_divisors_via_tangents(f, GENERIC)
        bd = branch_divisors_direct(f, GENERIC)
        assert len(bt) <= 6 and len(bd) <= 6
        assert len(bt) == len(bd)
        used = [False] * len(bd)
        for d1 in bt:
            hit = False
            for i, d2 in enumerate(bd):
                if not used[i] and match_divisors(d1, d2, GENERIC, 1e-6):
                    used[i] = True
                    hit = True
                    break
            assert hit, "branch divisor multisets disagree"
        for divs in (bt, bd):
            assert sum(sum(m - 1 for _, m in d.points) for d in divs) == 6
    wp_f = wp_function(GENERIC)
    divs = branch_divisors_direct(wp_f, GENERIC)
    assert len(divs) == 4
    targets = [0.0] + [b.rep for b in half_periods(GENERIC)]
    for t in targets:
        assert any(
            d.points[0][1] == 2
            and torus_distance(d.points[0][0].rep, t, GENERIC) < 1e-6
            for d in divs
            if len(d.points) == 1
        )
    report(7, "branch divisor oracle equivalence", time.time() - t0, 60)


def test_criterion_08_group_law():
    t0 = time.time()
    cubic = weierstrass_cubic(GENERIC)
    rng = np.random.default_rng(8)

    def rand_z():
        return complex(
            rng.uniform(0.05, 0.95) * GENERIC.omega1
            + rng.uniform(0.05, 0.95) * GENERIC.omega2
        )

    from elliptica import line_intersect_cubic

    for _ in range(50):
        a, b = rand_z(), rand_z()
        line = line_through(embed_point(a, GENERIC), embed_point(b, GENERIC))
        inter = line_intersect_cubic(line, cubic)
        assert inter.total == 3
        total = sum(unembed(p, cubic, GENERIC).rep * m for p, m in inter.entries)
        assert torus_distance(total, 0.0, GENERIC) <= 1e-7
    for _ in range(50):
        pa, pb, pc = (embed_point(rand_z(), GENERIC) for _ in range(3))
        left = group_add(cubic, group_add(cubic, pa, pb), pc)
        right = group_add(cubic, pa, group_add(cubic, pb, pc))
        assert left.distance(right) <= 1e-7
    infl = inflection_points(cubic, GENERIC)
    tor = [embed_point(t, GENERIC) for t in torsion_points(GENERIC, 3)]
    matched = sum(1 for p in infl if min(p.distance(q) for q in tor) <= 1e-7)
    assert matched == 9
    report(8, "cubic group law", time.time() - t0, 10)


def test_criterion_09_monodromy():
    t0 = time.time()
    cubic = weierstrass_cubic(GENERIC)
    rng = np.random.default_rng(9)
    while True:
        q0 = point_from_vec(rng.standard_normal(6).view(np.complex128))
        if cubic.on_curve(q0, 1e-4):
            continue
        onc, _ = critical_locus_check(cubic, q0, GENERIC, tol=1e-2)
        if not onc:
            break
    fib0 = lambda_fiber(cubic, q0)
    out = continue_fiber(cubic, LoopPath((q0, q0)), fib0)
    assert _match_permutation(fib0.points(), out.points()).is_identity()
    loops_a = tangent_loop_library(cubic, q0, GENERIC, seed=0, circle_samples=48)
    loops_b = tangent_loop_library(cubic, q0, GENERIC, seed=0, circle_samples=96)
    perms_a, transitive, _ = monodromy_group(cubic, q0, loops_a)
    perms_b, _, _ = monodromy_group(cubic, q0, loops_b)
    for pa, pb in zip(perms_a, perms_b):
        assert pa.cycle_type() == (2, 1, 1, 1, 1)
        assert pa.images == pb.images
    assert transitive
    report(9, "monodromy generators", time.time() - t0, 120)


def test_criterion_10_degree_two_structure():
    t0 = time.time()
    from elliptica import decompose_degree2
    from test_elliptic_functions import grid, sup_mismatch, synthesize_degree2

    rng = np.random.default_rng(10)
    produced = 0
    while produced < 10:
        coeffs = rng.standard_normal(8).view(np.complex128)
        try:
            g0 = MobiusTransform(*coeffs)
        except ValueError:
            continue
        t_0 = complex(
            rng.uniform(0.05, 0.95) * GENERIC.omega1
            + rng.uniform(0.05, 0.95) * GENERIC.omega2
        )
        f = synthesize_degree2(g0, t_0, GENERIC)
        g, t = decompose_degree2(f)
        assert sup_mismatch(f, g, t, GENERIC, grid(GENERIC)) <= 1e-6
        produced += 1
    pairs = wp_stabilizer(GENERIC)
    assert len(pairs) == 4
    zs = rng.uniform(0.08, 0.92, 50) * GENERIC.omega1 + rng.uniform(0.08, 0.92, 50) * GENERIC.omega2
    p, _ = wp_values(zs, GENERIC)
    for g, t in pairs:
        pt, _ = wp_values(zs - t.rep, GENERIC)
        err = max(chordal(g(v), w) for v, w in zip(pt, p))
        assert err <= 1e-8
    # closure as Z2 x Z2: composing any two pairs lands on a third, each
    # element is an involution
    reps = [(g, t) for g, t in pairs]
    for g1, t1 in reps:
        for g2, t2 in reps:
            t3 = t1.rep + t2.rep
            comp = g1.compose(g2)
            matching = [
                (g, t)
                for g, t in reps
                if torus_distance(t.rep, t3, GENERIC) < 1e-9
            ]
            assert len(matching) == 1
            assert comp.proportional_to(matching[0][0], 1e-8)
    report(10, "degree-2 normal form and stabilizer", time.time() - t0, 30)


def test_criterion_11_equianharmonic_dichotomy():
    t0 = time.time()
    rng = np.random.default_rng(13)
    lattices = {
        "square": SQUARE,
        "hexagonal": HEXAGONAL,
    }
    for k in range(3):
        tau = complex(rng.uniform(-0.45, 0.45), rng.uniform(1.05, 2.0))
        lattices[f"generic{k}"] = make_lattice(1.0, tau)
    for name, lat in lattices.items():
        assert is_equianharmonic(lat) == (name == "hexagonal")
    # hesse t = 0: the scan's first concurrent triple meets in a genuine
    # triple point of the critical locus; t = 2 has none
    cubic0 = hesse_cubic(0.0)
    trip = concurrency_scan(0.0)[0]
    infl = inflection_points(cubic0)
    duals = [tangent_line(cubic0, p, tol=1e-6) for p in infl]
    q = lines_meet(duals[trip[0]], duals[trip[1]])
    onc, hits = critical_locus_check(cubic0, q)
    assert onc and len(hits) >= 3
    cubic2 = hesse_cubic(2.0)
    assert concurrency_scan(2.0) == []
    infl2 = inflection_points(cubic2)
    duals2 = [tangent_line(cubic2, p, tol=1e-6) for p in infl2]
    for i, j in combinations(range(9), 2):
        qij = lines_meet(duals2[i], duals2[j])
        if cubic2.on_curve(qij, 1e-6):
            continue
        _, hits = critical_locus_check(cubic2, qij)
        assert len(hits) <= 2
    report(11, "equianharmonic dichotomy", time.time() - t0, 10)
