import numpy as np
import pytest

from conftest import ORACLE_IM_TAUS, mp_wp
from elliptica import (
    Lattice,
    half_period_values,
    half_periods,
    is_infinite,
    make_lattice,
    reduce_mod_lattice,
    torus_distance,
    weierstrass_invariants,
    wp_inverse,
    wp_pair,
    wp_values,
)
from elliptica.elliptic import wp_function
from elliptica.errors import ReconstructionFailureError, WpInverseError

LATTICES = [
    make_lattice(1.0, 1j),
    make_lattice(1.0, np.exp(1j * np.pi / 3.0)),
    make_lattice(1.0, 0.3 + 1.4j),
]


def grid_points(rng, lat, n):
    a = rng.uniform(0.07, 0.93, n)
    b = rng.uniform(0.07, 0.93, n)
    return a * lat.omega1 + b * lat.omega2


@pytest.mark.parametrize("lat", LATTICES)
def test_weierstrass_equation(lat):
    g2, g3 = weierstrass_invariants(lat)
    rng = np.random.default_rng(0)
    zs = grid_points(rng, lat, 100)
    p, pp = wp_values(zs, lat)
    resid = np.abs(pp ** 2 - 4.0 * p ** 3 + g2 * p + g3) / (1.0 + np.abs(p) ** 3)
    assert resid.max() <= 1e-8


@pytest.mark.parametrize("lat", LATTICES)
def test_parity(lat):
    rng = np.random.default_rng(1)
    zs = grid_points(rng, lat, 40)
    p, pp = wp_values(zs, lat)
    pm, ppm = wp_values(-zs, lat)
    scale = 1.0 + np.abs(p)
    assert (np.abs(pm - p) / scale).max() < 1e-10
    assert (np.abs(ppm + pp) / (1.0 + np.abs(pp))).max() < 1e-10


def test_derivative_zero_at_half_periods(generic):
    for b in half_periods(generic):
        _, pp = wp_pair(b.rep, generic)
        assert abs(pp) < 1e-8


def test_pole_leading_term(generic):
    for k in range(3, 9):
        z = 10.0 ** (-k) * (0.6 + 0.8j)
        p, _ = wp_pair(z, generic)
        assert abs(z * z * p - 1.0) < 10.0 ** (-2 * (k - 3) - 1) + 1e-8


def test_pole_returns_infinity(generic):
    p, pp = wp_pair(0.0, generic)
    assert is_infinite(p) and is_infinite(pp)
    p, pp = wp_pair(generic.omega1 + generic.omega2, generic)
    assert is_infinite(p)


def test_half_period_values_are_cubic_roots(generic):
    g2, g3 = weierstrass_invariants(generic)
    for e in half_period_values(generic):
        assert abs(4.0 * e ** 3 - g2 * e - g3) <= 1e-8 * (1.0 + abs(e) ** 3)


def wp_laurent(z, lat, nterms=22):
    """(wp, wp') from the Laurent series around the nearest lattice point,
    its coefficients by the recursion seeded from g2, g3; valid for |z|
    within about half the lattice minimum."""
    g2, g3 = weierstrass_invariants(lat)
    c = np.zeros(nterms + 1, dtype=complex)
    c[2] = g2 / 20.0
    c[3] = g3 / 28.0
    for k in range(4, nterms + 1):
        acc = sum(c[m] * c[k - m] for m in range(2, k - 1))
        c[k] = 3.0 * acc / ((2 * k + 1) * (k - 3))
    zr = nearest_lattice_offset(z, lat)
    p = 1.0 / zr ** 2
    pp = -2.0 / zr ** 3
    for k in range(2, len(c)):
        p += c[k] * zr ** (2 * k - 2)
        pp += (2 * k - 2) * c[k] * zr ** (2 * k - 3)
    return p, pp


def wp_lattice_sum(z, lat, radius):
    """(wp, wp') from the defining lattice sums truncated at the given
    radius; slow and O(1/radius) accurate."""
    zr = nearest_lattice_offset(z, lat)
    m, n = np.mgrid[-radius:radius + 1, -radius:radius + 1]
    w = (m * lat.omega1 + n * lat.omega2)[(m != 0) | (n != 0)]
    p = 1.0 / zr ** 2 + np.sum(1.0 / (zr - w) ** 2 - 1.0 / w ** 2)
    pp = -2.0 * (1.0 / zr ** 3 + np.sum(1.0 / (zr - w) ** 3))
    return complex(p), complex(pp)


def nearest_lattice_offset(z, lat):
    zr = reduce_mod_lattice(complex(z), lat).rep
    a, b = lat.coords(zr)
    return zr - round(a) * lat.omega1 - round(b) * lat.omega2


def test_methods_agree(generic):
    # laurent series inside its disc and the defining lattice sum are
    # independent of the theta route
    z = 0.31 + 0.43j
    pt, ppt = wp_pair(z, generic)
    pl, ppl = wp_laurent(z, generic)
    assert abs(pt - pl) < 1e-9 * (1.0 + abs(pt))
    assert abs(ppt - ppl) < 1e-8 * (1.0 + abs(ppt))
    ps, pps = wp_lattice_sum(z, generic, radius=150)
    assert abs(pt - ps) < 1e-4 * (1.0 + abs(pt))
    assert abs(ppt - pps) < 1e-4 * (1.0 + abs(ppt))


def test_periodicity(generic):
    rng = np.random.default_rng(2)
    zs = grid_points(rng, generic, 20)
    p0, pp0 = wp_values(zs, generic)
    for w in (generic.omega1, generic.omega2, 3 * generic.omega1 - 2 * generic.omega2):
        p1, pp1 = wp_values(zs + w, generic)
        assert (np.abs(p1 - p0) / (1.0 + np.abs(p0))).max() < 1e-10
        assert (np.abs(pp1 - pp0) / (1.0 + np.abs(pp0))).max() < 1e-10


@pytest.mark.parametrize("lat", LATTICES)
@pytest.mark.parametrize("modulus, tol", [(310.0, 1e-13), (1600.0, 1e-13), (1e4, 1e-13), (1e5, 1e-12)])
def test_wp_inverse_large_values(lat, modulus, tol):
    # near the pole wp ~ 1/z^2; there the arguments of R_F are turned by the
    # phase of v, so that they do not straddle the cut of the square root
    for k in range(8):
        v = modulus * np.exp(2j * np.pi * k / 8)
        z = wp_inverse(v, lat, tol=tol)
        assert abs(wp_values(z.rep, lat)[0] - v) <= 10 * tol * (1 + abs(v))


def test_wp_against_mpmath_jtheta():
    # the theta-quotient form of wp in mpmath (mp_wp) over the Im tau sweep
    # of the theta oracle: band points within 1e-12 relative, and a point
    # 1e-6 from the pole within 1e-8, as for the theta quotient
    rng = np.random.default_rng(14)
    for im in ORACLE_IM_TAUS:
        tau = complex(rng.uniform(-0.5, 0.5) if im >= 1.0 else 0.5, im)
        lat = Lattice(1.0 + 0j, tau)
        z = np.append(rng.uniform(0.05, 0.95, 5) + rng.uniform(0.05, 0.95, 5) * tau, 1e-6j)
        got = np.stack(wp_values(z, lat), axis=1)
        ref = mp_wp(z, tau)
        rel = np.abs(got - ref) / np.abs(ref)
        assert rel[:5].max() <= 1e-12, (tau, rel[:5].max(axis=0))
        assert rel[5:].max() <= 1e-8, (tau, rel[5:].max(axis=0))


@pytest.mark.parametrize("re_tau", [0.0, 0.2, -0.45, 0.5])
def test_wp_inverse_over_the_im_tau_sweep(re_tau):
    # at large Im tau wp is exponentially close to e2 = e3 away from the real
    # axis, so two arguments of R_F are far smaller than the third, and the
    # zeros of wp lie at Im z about +-0.36.  Each z is also checked against
    # the mpmath wp (mp_wp) within 2e-12 (1 + |v|):
    # wp_inverse accepts a float residual below 1e-12 (1 + |v|), and float
    # wp is within 1e-12 relative of mp_wp (test_wp_against_mpmath_jtheta);
    # the worst seen is about 7e-15
    rng = np.random.default_rng(31)
    for im in ORACLE_IM_TAUS:
        lat = Lattice(1.0 + 0j, complex(re_tau, im))
        zs = rng.uniform(0.07, 0.93, 6) + rng.uniform(0.07, 0.93, 6) * lat.tau
        vs = np.array([0.0, *wp_values(zs, lat)[0]])
        got = [wp_inverse(v, lat).rep for v in vs]
        for z, v in zip(got, vs):
            assert abs(wp_values(z, lat)[0] - v) <= 1e-11 * (1 + abs(v)), (lat.tau, v)
        err = np.abs(mp_wp(got, lat.tau)[:, 0] - vs) / (1 + np.abs(vs))
        assert err.max() <= 2e-12, (lat.tau, err.max())


@pytest.mark.parametrize("v", [complex("nan"), -1e300, 1e300 + 1e300j])
def test_wp_inverse_refuses_as_itself(v):
    # NaN, and values whose z (about 1e-150) lies far inside wp's resolution
    # near its pole, are refused by wp_inverse itself, with no warning
    lat = make_lattice(1.0, 0.3 + 1.4j)
    with pytest.raises(ReconstructionFailureError) as info:
        wp_inverse(v, lat)
    assert info.value.to_json()["operation"] == "wp_inverse"


@pytest.mark.parametrize("tau", [1j, 2j])
def test_wp_inverse_on_the_branch_cut(tau):
    # every e_i is real, so some v - e_i lie on the negative real axis, the
    # cut of the principal square root: either signed zero of Im v must give
    # a preimage, checked in mpmath (mp_wp)
    lat = make_lattice(1.0, tau)
    lo, mid, hi = sorted(e.real for e in half_period_values(lat))
    for x in (lo - 1.3, (lo + mid) / 2.0, (mid + hi) / 2.0, -1e6):
        for v in (complex(x, 0.0), complex(x, -0.0)):
            z = wp_inverse(v, lat).rep
            assert abs(mp_wp([z], tau)[0, 0] - v) <= 1e-12 * (1.0 + abs(v)), (v, z)


def test_wp_function_at_large_im_tau():
    lat = make_lattice(1.0, 0.2 + 50j)
    f = wp_function(lat)
    for y, _ in f.zeros.points:
        assert abs(wp_values(y.rep, lat)[0]) <= 1e-11
    z = np.array([0.31 + 0.43j, 0.7 - 0.2j])
    assert np.abs(f.values(z) - wp_values(z, lat)[0]).max() <= 1e-10 * np.abs(wp_values(z, lat)[0]).max()


def test_wp_inverse_and_wp_function_far_from_unit_scale():
    # omega1^-3 overflows at omega1 = 1e-120, where Python's ** raised
    # ZeroDivisionError; wp itself is about 1e240 there and answers
    lat = make_lattice(1e-120, 1e-120 * (0.3 + 1.4j))
    z = 0.31 * lat.omega1 + 0.43 * lat.omega2
    v = wp_values(z, lat)[0]
    w = wp_inverse(v, lat).rep
    assert min(torus_distance(w, z, lat), torus_distance(w, -z, lat)) <= 1e-12 * abs(lat.omega1)
    assert abs(wp_function(lat).values(z) / v - 1.0) <= 1e-12
    # at 1e-160 omega1^-2 overflows too: wp_function's zeros are refused
    with pytest.raises(WpInverseError):
        wp_function(make_lattice(1e-160, 1e-160 * (0.3 + 1.4j)))
