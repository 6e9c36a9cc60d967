import mpmath
import numpy as np
import pytest

from conftest import ORACLE_IM_TAUS, mp_theta, random_abel_function
from elliptica import (
    INF,
    Lattice,
    MobiusTransform,
    TorusPoint,
    build_from_divisors,
    chordal,
    decompose_degree2,
    divisor,
    eval_elliptic,
    half_periods,
    is_infinite,
    locate_zeros,
    reduce_mod_lattice,
    torus_distance,
    wp_pair,
    wp_stabilizer,
    wp_values,
)
from elliptica.divisors import match_divisors
from elliptica.elliptic import EllipticFunction, wp_function
from elliptica.errors import (
    AbelViolationError,
    DegreeMismatchError,
    IndeterminatePointError,
    NotDegree2Error,
    OverlappingDivisorsError,
)
from elliptica.sphere import mobius_through


def test_build_matches_wp_shift(generic):
    # zeros {a, -a}, poles {0, 0} must be c (wp - wp(a)): ratio constant on a
    # 20-point grid
    a = 0.31 + 0.52j
    f = build_from_divisors(
        divisor([(a, 1), (-a, 1)], generic),
        divisor([(0.0, 2)], generic),
        generic,
    )
    pa, _ = wp_pair(a, generic)
    rng = np.random.default_rng(0)
    zs = rng.uniform(0.1, 0.9, 20) * generic.omega1 + rng.uniform(0.1, 0.9, 20) * generic.omega2
    p, _ = wp_values(zs, generic)
    ratios = f.values(zs) / (p - pa)
    assert np.abs(ratios - ratios[0]).max() < 1e-8 * abs(ratios[0])


def test_build_locate_round_trip(generic):
    x1, x2 = 0.21 + 0.4j, 0.72 + 0.9j
    x3 = -(x1 + x2)
    f = build_from_divisors(
        divisor([(x1, 1), (x2, 1), (x3, 1)], generic),
        divisor([(0.0, 3)], generic),
        generic,
    )
    zeros = locate_zeros(f, generic)
    assert match_divisors(zeros, f.zeros, generic, 1e-6)


def test_abel_violation(generic):
    a, b = 0.2 + 0.3j, 0.4 + 0.5j  # a + b not in the lattice
    with pytest.raises(AbelViolationError) as err:
        build_from_divisors(
            divisor([(a, 1), (b, 1)], generic),
            divisor([(0.0, 2)], generic),
            generic,
        )
    assert err.value.defect > 1e-3


def test_build_validation_errors(generic):
    with pytest.raises(DegreeMismatchError):
        build_from_divisors(
            divisor([(0.2 + 0.3j, 1)], generic),
            divisor([(0.1j, 2)], generic),
            generic,
        )
    with pytest.raises(OverlappingDivisorsError):
        build_from_divisors(
            divisor([(0.2 + 0.3j, 1), (-0.2 - 0.3j, 1)], generic),
            divisor([(0.2 + 0.3j, 2)], generic),
            generic,
        )


def test_periodicity_and_values(generic):
    rng = np.random.default_rng(1)
    f = random_abel_function(rng, generic)
    zs = rng.uniform(0.05, 0.95, 12) * generic.omega1 + rng.uniform(0.05, 0.95, 12) * generic.omega2
    v0 = f.values(zs)
    for w in (generic.omega1, generic.omega2):
        v1 = f.values(zs + w)
        assert (np.abs(v1 - v0) / (1.0 + np.abs(v0))).max() < 1e-9
    x1 = f.zeros.points[0][0]
    assert eval_elliptic(f, x1.rep) == 0
    y1 = f.poles.points[0][0]
    assert is_infinite(eval_elliptic(f, y1.rep))


def test_eval_indeterminate_signals_corruption(generic):
    f = random_abel_function(np.random.default_rng(2), generic)
    corrupted = EllipticFunction(
        generic, f.zeros, f.zeros, f.scale, (f._lifts[0], f._lifts[0])
    )
    with pytest.raises(IndeterminatePointError):
        eval_elliptic(corrupted, corrupted.zeros.points[0][0].rep)


def test_scale_field(generic):
    f = random_abel_function(np.random.default_rng(3), generic)
    assert f.scale == 1.0 + 0j
    from elliptica.elliptic import rescaled

    g = rescaled(f, 2.5j)
    z = 0.4 * generic.omega1 + 0.3 * generic.omega2
    assert abs(g.values(z) - 2.5j * f.values(z)) < 1e-12 * abs(f.values(z))


def grid(lat, n=7):
    gs = np.linspace(0.11, 0.93, n)
    aa, bb = np.meshgrid(gs, gs)
    return (aa.ravel() * lat.omega1 + bb.ravel() * lat.omega2).tolist()


def synthesize_degree2(g0: MobiusTransform, t0: complex, lat):
    """g0 o wp o tau_{-t0} as a theta quotient (scale matched afterwards)."""
    from elliptica.elliptic import wp_inverse

    v0 = g0.inverse()(0.0)
    vinf = g0.inverse()(INF)
    u0 = wp_inverse(v0, lat)
    uinf = wp_inverse(vinf, lat)
    zeros = divisor([(t0 + u0.rep, 1), (t0 - u0.rep, 1)], lat)
    poles = divisor([(t0 + uinf.rep, 1), (t0 - uinf.rep, 1)], lat)
    return build_from_divisors(zeros, poles, lat)


def sup_mismatch(f, g, t, lat, pts):
    worst = 0.0
    for z in pts:
        fv = eval_elliptic(f, z)
        pv, _ = wp_pair(z - t.rep, lat)
        worst = max(worst, chordal(fv, g(pv)))
    return worst


def test_decompose_identity_case(generic):
    f = wp_function(generic)
    g, t = decompose_degree2(f)
    # t must be a 2-torsion point (the stabilizer ambiguity)
    assert torus_distance(2.0 * t.rep, 0.0, generic) < 1e-8
    assert sup_mismatch(f, g, t, generic, grid(generic)) < 1e-6


def test_decompose_forward_synthesis(generic):
    rng = np.random.default_rng(4)
    for k in range(6):
        while True:
            coeffs = rng.standard_normal(8).view(np.complex128)
            try:
                g0 = MobiusTransform(*coeffs)
                break
            except ValueError:
                continue
        t0 = complex(
            rng.uniform(0.05, 0.95) * generic.omega1
            + rng.uniform(0.05, 0.95) * generic.omega2
        )
        f = synthesize_degree2(g0, t0, generic)
        g, t = decompose_degree2(f)
        assert sup_mismatch(f, g, t, generic, grid(generic)) < 1e-6


def test_decompose_stabilizer_orbit(generic):
    rng = np.random.default_rng(5)
    g0 = MobiusTransform(1.3, 0.2 - 1j, 0.4j, 2.0)
    t0 = complex(0.23 * generic.omega1 + 0.51 * generic.omega2)
    f = synthesize_degree2(g0, t0, generic)
    g, t = decompose_degree2(f)
    pts = grid(generic, 5)
    # applying any stabilizer pair to a valid answer gives another valid one;
    # exactly 4 admissible translates
    seen = set()
    for sg, st in wp_stabilizer(generic):
        g2 = g.compose(sg)
        t2 = reduce_mod_lattice(t.rep + st.rep, generic)
        assert sup_mismatch(f, g2, t2, generic, pts) < 1e-6
        seen.add((round(t2.rep.real, 6), round(t2.rep.imag, 6)))
    assert len(seen) == 4


def test_decompose_rejects_degree3(generic):
    f = random_abel_function(np.random.default_rng(6), generic)
    with pytest.raises(NotDegree2Error):
        decompose_degree2(f)


def test_stabilizer_identity_element(generic):
    pairs = wp_stabilizer(generic)
    g0, t0 = pairs[0]
    assert t0.rep == 0.0
    assert g0.proportional_to(MobiusTransform.identity())


def test_stabilizer_defining_identity(generic):
    rng = np.random.default_rng(7)
    zs = rng.uniform(0.08, 0.92, 50) * generic.omega1 + rng.uniform(0.08, 0.92, 50) * generic.omega2
    p, _ = wp_values(zs, generic)
    for g, t in wp_stabilizer(generic):
        pt, _ = wp_values(zs - t.rep, generic)
        vals = np.array([g(v) for v in pt])
        err = np.array([chordal(a, b) for a, b in zip(vals, p)])
        assert err.max() < 1e-8


def test_stabilizer_group_structure(generic):
    pairs = wp_stabilizer(generic)
    b1, b2, b3 = half_periods(generic)
    by_t = {}
    for g, t in pairs:
        for name, b in (("0", TorusPoint(0.0, generic)), ("b1", b1), ("b2", b2), ("b3", b3)):
            if torus_distance(t.rep, b.rep, generic) < 1e-12:
                by_t[name] = (g, t)
    assert set(by_t) == {"0", "b1", "b2", "b3"}
    g1, t1 = by_t["b1"]
    g2, t2 = by_t["b2"]
    g3, t3 = by_t["b3"]
    assert g1.compose(g2).proportional_to(g3, 1e-8)
    assert torus_distance(t1.rep + t2.rep, t3.rep, generic) < 1e-12
    # every element squares to the identity: Z2 x Z2
    for g, t in pairs:
        assert g.compose(g).proportional_to(MobiusTransform.identity(), 1e-8)
        assert torus_distance(2 * t.rep, 0.0, generic) < 1e-9


def test_mobius_through_three_points():
    m = mobius_through((0.0, 1.0, INF), (1j, 2.0, -1.0))
    assert abs(m(0.0) - 1j) < 1e-12
    assert abs(m(1.0) - 2.0) < 1e-12
    assert abs(m(INF) - (-1.0)) < 1e-12


def test_function_json_round_trip(generic):
    f = random_abel_function(np.random.default_rng(8), generic)
    g = EllipticFunction.from_json(f.to_json())
    z = 0.37 * generic.omega1 + 0.21 * generic.omega2
    assert abs(f.values(z) - g.values(z)) < 1e-10 * (1.0 + abs(f.values(z)))


def _per_lift_quotient(f, z):
    """(f, L1, L2) from one kernel call per lift, summed lift by lift."""
    from elliptica.theta import theta_derivs_reduced

    lat = f.lattice
    u = z / lat.omega1
    h = (1.0 + lat.tau) / 2.0
    num, den = np.ones_like(u), np.ones_like(u)
    logs, l1, l2 = np.zeros_like(u), np.zeros_like(u), np.zeros_like(u)
    for lifts, sign in ((f._lifts[0], 1), (f._lifts[1], -1)):
        for lift, mult in lifts:
            d, logf = theta_derivs_reduced(u - h - lift, lat, order=2)
            if sign > 0:
                num = num * d[0] ** mult
            else:
                den = den * d[0] ** mult
            logs = logs + sign * mult * logf
            r1 = d[1] / d[0]
            l1 = l1 + sign * mult * r1
            l2 = l2 + sign * mult * (d[2] / d[0] - r1 * r1)
    return f.scale * (num / den) * np.exp(logs), l1, l2


@pytest.mark.parametrize("zeros, poles", [
    ([(0.21 + 0.33j, 1), (0.64 + 0.87j, 1), (0.45 + 1.21j, 1)], [(0.12 + 0.95j, 1), (0.81 + 0.18j, 2)]),
    ([(0.37 + 0.52j, 2), (0.6 + 0.2j, 1)], [(0.5 + 0.6j, 3)]),
    ([(0.71 + 1.1j, 3)], [(0.25 + 0.4j, 1), (0.5 + 0.2j, 2)]),
])
def test_stacked_quotient_matches_per_lift_reference(generic, zeros, poles):
    # the last zero is moved so that the Abel sum vanishes; the quotient
    # evaluates every lift in one kernel call
    lat = generic
    shift = sum(m * p for p, m in poles) - sum(m * p for p, m in zeros)
    p0, m0 = zeros[-1]
    zeros = zeros[:-1] + [(p0 + shift / m0, m0)]
    f = build_from_divisors(divisor(zeros, lat), divisor(poles, lat), lat)
    assert sorted(m for _, m in f._lifts[0] + f._lifts[1]) == sorted(m for _, m in zeros + poles)
    rng = np.random.default_rng(12)
    z = rng.uniform(0, 1, 300) * lat.omega1 + rng.uniform(0, 1, 300) * lat.omega2
    vals, l1, l2 = _per_lift_quotient(f, z)
    w1 = lat.omega1

    def close(a, b):
        return np.all(np.abs(a - b) <= 1e-12 * np.abs(b))

    v, dl = f.values_and_dlog(z)
    assert close(v, vals) and close(dl, l1 / w1)
    fp, ratio = f.derivative_pair(z)
    assert close(fp, vals * l1 / w1) and close(ratio, (l1 * l1 + l2) / (l1 * w1))
    for k in (0, 17, 299):
        v1, d1 = f.values_and_dlog(z[k])
        assert abs(v1 - vals[k]) <= 1e-12 * abs(vals[k]) and abs(d1 - l1[k] / w1) <= 1e-12 * abs(l1[k] / w1)


def test_quotient_against_mpmath_jtheta():
    # values_and_dlog and derivative_pair of a degree-3 quotient against
    # scale * prod theta(u - h - lift)^(+-m) in mpmath, over the Im tau sweep
    # of the theta oracle: band points within 1e-12 relative, and points
    # 1e-6 from a zero and from a pole within 1e-8 (there the 1e-16 rounding
    # of z alone moves the value by 1e-10 of itself)
    rng = np.random.default_rng(13)
    for im in ORACLE_IM_TAUS:
        tau = complex(rng.uniform(-0.5, 0.5) if im >= 1.0 else 0.5, im)
        lat = Lattice(1.0 + 0j, tau)
        zeros = [0.21 + 0.33 * tau, 0.64 + 0.57 * tau]
        poles = [0.12 + 0.75 * tau, 0.81 + 0.18 * tau, 0.45 + 0.52 * tau]
        zeros.append(sum(poles) - sum(zeros))
        f = build_from_divisors(divisor([(p, 1) for p in zeros], lat), divisor([(p, 1) for p in poles], lat), lat)
        z = np.append(rng.uniform(0.05, 0.95, 5) + rng.uniform(0.05, 0.95, 5) * tau,
                      [zeros[0] + 1e-6, poles[0] + 1e-6j])
        got = np.stack([*f.values_and_dlog(z), *f.derivative_pair(z)], axis=1)
        # 50 digits, plus the 2 Im tau that jtheta's own sum cancels at
        # |Im x| ~ 1.5 Im tau
        with mpmath.workdps(50 + int(2 * im)):
            q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
            h = (1 + mpmath.mpc(tau)) / 2
            lifts = [(mpmath.mpc(c), m) for c, m in f._lifts[0]] + [(mpmath.mpc(c), -m) for c, m in f._lifts[1]]
            ref = []
            for x in z:
                val, l1, l2 = mpmath.mpc(f.scale), 0, 0
                for c, s in lifts:
                    t0, t1, t2 = (mp_theta(mpmath.mpc(x) - h - c, q, d) for d in range(3))
                    val, l1, l2 = val * t0 ** s, l1 + s * t1 / t0, l2 + s * (t2 / t0 - (t1 / t0) ** 2)
                ref.append([complex(v) for v in (val, l1, val * l1, (l1 * l1 + l2) / l1)])
        rel = np.abs(got - ref) / np.abs(ref)
        assert rel[:5].max() <= 1e-12, (tau, rel[:5].max(axis=0))
        assert rel[5:].max() <= 1e-8, (tau, rel[5:].max(axis=0))
