import cmath
import math

import numpy as np
import pytest

from elliptica import (
    LatticeKind,
    classify_lattice,
    eisenstein_series,
    make_lattice,
    reduce_mod_lattice,
    torsion_points,
    torus_distance,
    weierstrass_invariants,
)
from elliptica.errors import (
    DegenerateGeneratorsError,
    InvalidOrderError,
    NonFiniteCoordinatesError,
    NonFiniteInvariantsError,
)


def lattice_point_set(w1, w2, radius):
    pts = set()
    for m in range(-radius, radius + 1):
        for n in range(-radius, radius + 1):
            z = m * w1 + n * w2
            pts.add((round(z.real, 9), round(z.imag, 9)))
    return pts


def test_make_lattice_already_reduced():
    lat = make_lattice(1.0, 1j)
    assert abs(lat.tau - 1j) < 1e-14


def test_make_lattice_orientation_flip():
    lat = make_lattice(1.0, -1j)
    assert abs(lat.tau - 1j) < 1e-14


def test_make_lattice_shear_preserves_point_set():
    # brute-force oracle: both bases generate identical point sets inside
    # radius 5, and the reduced ratio is i
    lat = make_lattice(2.0, 2.0 + 2j)
    assert abs(lat.tau - 1j) < 1e-14
    original = lattice_point_set(2.0, 2.0 + 2j, 5)
    reduced = lattice_point_set(lat.omega1, lat.omega2, 5)
    # compare within the disc both tilings certainly cover
    keep = {p for p in original if p[0] ** 2 + p[1] ** 2 <= 25.0}
    keep2 = {p for p in reduced if p[0] ** 2 + p[1] ** 2 <= 25.0}
    assert keep == keep2


def test_make_lattice_degenerate():
    with pytest.raises(DegenerateGeneratorsError):
        make_lattice(1.0, 2.0 + 1e-15j)
    with pytest.raises(DegenerateGeneratorsError):
        make_lattice(0.0, 1j)


def test_generators_whose_ratio_leaves_double_range_are_degenerate():
    # omega2 / omega1 underflows to 0, so the reduction swaps them and its
    # next ratio is infinite: once an OverflowError from round(inf)
    with pytest.raises(DegenerateGeneratorsError):
        make_lattice(4.948250808406389e-114 + 6.8440747461889164e283j,
                     1.0368362845775685e-277 - 9.330225752308354e-208j)
    # the reduction swaps 1 and 5e-324i before the ratio 1 / 5e-324i leaves
    # double range; the error names the generators given, not that basis
    with pytest.raises(DegenerateGeneratorsError) as exc:
        make_lattice(1.0, 5e-324j)
    assert exc.value.details == {"w1": 1 + 0j, "w2": 5e-324j}


@pytest.mark.parametrize("z", [1e175j, complex(math.nan, 0.0)])
def test_points_without_finite_lattice_coordinates_are_refused(z):
    # at omega1 = 1e-134, z / omega1 = 1e309 overflows: floor(inf) once
    # raised a bare OverflowError or ValueError
    lat = make_lattice(1e-134, 1e-134j)
    with pytest.raises(NonFiniteCoordinatesError):
        reduce_mod_lattice(z, lat)
    with pytest.raises(NonFiniteCoordinatesError):
        torus_distance(z, 0.0, lat)


def test_classification():
    assert classify_lattice(make_lattice(1, 1j)).kind is LatticeKind.SQUARE
    assert classify_lattice(make_lattice(1, 1j)).automorphism_count == 4
    hexl = make_lattice(1, cmath.exp(1j * math.pi / 3))
    assert classify_lattice(hexl).kind is LatticeKind.HEXAGONAL
    assert classify_lattice(hexl).automorphism_count == 6
    gen = classify_lattice(make_lattice(1, 2j))
    assert gen.kind is LatticeKind.GENERIC
    assert gen.automorphism_count == 2


def test_classification_basis_invariance():
    rng = np.random.default_rng(0)
    for tau, kind in [
        (1j, LatticeKind.SQUARE),
        (cmath.exp(1j * math.pi / 3), LatticeKind.HEXAGONAL),
        (0.3 + 1.7j, LatticeKind.GENERIC),
    ]:
        for _ in range(12):
            # random unimodular change of basis
            a = rng.integers(-3, 4)
            while True:
                b, c = rng.integers(-3, 4, 2)
                d = rng.integers(-3, 4)
                if a * d - b * c in (1, -1):
                    break
            w1 = a * 1.0 + b * tau
            w2 = c * 1.0 + d * tau
            assert classify_lattice(make_lattice(w1, w2)).kind is kind


def test_eisenstein_symmetry_zeros(square, hexagonal):
    # square box truncation is i-invariant, so the square k=6 sum cancels
    # exactly; the hexagonal window is only asymptotically symmetric and the
    # k=4 sum vanishes at the O(radius^-2) tail scale
    assert abs(eisenstein_series(square, 6, 60)) < 1e-12
    assert abs(eisenstein_series(hexagonal, 4, 200)) < 1e-4


def test_eisenstein_odd_exactly_zero(generic):
    assert eisenstein_series(generic, 5, 30) == 0j
    assert eisenstein_series(generic, 7, 30) == 0j


def test_eisenstein_invalid_order(generic):
    with pytest.raises(InvalidOrderError):
        eisenstein_series(generic, 2, 50)
    with pytest.raises(InvalidOrderError):
        eisenstein_series(generic, 4, 0)


def test_eisenstein_self_convergence():
    # tail is O(radius^{2-k}); radius 50 vs 200 values must agree within it
    lat = make_lattice(1.0, 2j)
    g50 = eisenstein_series(lat, 4, 50)
    g200 = eisenstein_series(lat, 4, 200)
    assert abs(g50 - g200) < 30.0 * 50.0 ** (-2)


def test_eisenstein_scaling():
    lat = make_lattice(1.0, 0.3 + 1.4j)
    g4 = eisenstein_series(lat, 4, 120)
    for alpha in (2.0, 1j, 1.0 + 1j):
        scaled = make_lattice(alpha * lat.omega1, alpha * lat.omega2)
        g4s = eisenstein_series(scaled, 4, 120)
        assert abs(g4s - g4 / alpha ** 4) < 1e-3 * (1.0 + abs(g4))


def test_invariants_symmetry(square, hexagonal):
    g2s, g3s = weierstrass_invariants(square)
    assert abs(g3s) < 1e-12 * abs(g2s)
    g2h, g3h = weierstrass_invariants(hexagonal)
    assert abs(g2h) < 1e-12 * abs(g3h)


def test_invariants_scaling(generic):
    g2, g3 = weierstrass_invariants(generic)
    for alpha in (2.0, 1j, 1.0 + 1j):
        scaled = make_lattice(alpha * generic.omega1, alpha * generic.omega2)
        g2s, g3s = weierstrass_invariants(scaled)
        assert abs(g2s - g2 / alpha ** 4) < 1e-10 * abs(g2)
        assert abs(g3s - g3 / alpha ** 6) < 1e-10 * abs(g3)


HEX_TAU = complex(0.5, 0.8660254037844386)


@pytest.mark.parametrize("scale", [1e52, 1e54, 1e56, 1e57])
def test_invariants_refused_where_g3_underflows(scale):
    # omega1^6 overflows, so g3 of a hexagonal lattice rounds to 0 while g2
    # is its rounding: that pair is the square lattice's curve, J = 1 for 0
    with pytest.raises(NonFiniteInvariantsError):
        weierstrass_invariants(make_lattice(scale, scale * HEX_TAU))


@pytest.mark.parametrize("tau, scale", [(HEX_TAU, 1e51)] + [(1j, 10.0 ** k) for k in range(50, 55)])
def test_invariants_answered_where_only_rounding_is_lost(tau, scale):
    # the hexagonal g3 is still a normal double at 1e51; the square g3 is
    # rounding at every scale, so its underflow does not change J
    g2u, g3u = weierstrass_invariants(make_lattice(1.0, tau))
    g2, g3 = weierstrass_invariants(make_lattice(scale, scale * tau))
    if tau == 1j:
        assert abs(g2 - g2u / scale ** 4) <= 1e-15 * abs(g2)
        assert abs(g3) <= 1e-12 * abs(g2) ** 1.5
    else:
        assert abs(g3 - g3u / scale ** 3 / scale ** 3) <= 1e-15 * abs(g3)
        assert abs(g2) <= 1e-12 * abs(g3) ** (2.0 / 3.0)


def test_invariants_match_raw_sums(generic):
    # independent route: raw truncated Eisenstein sums within their tail bound
    g2, g3 = weierstrass_invariants(generic)
    g2raw = 60.0 * eisenstein_series(generic, 4, 200)
    g3raw = 140.0 * eisenstein_series(generic, 6, 200)
    assert abs(g2 - g2raw) < 1e-3 * abs(g2)
    assert abs(g3 - g3raw) < 1e-6 * abs(g3)


def test_reduce_examples(generic):
    w1, w2 = generic.omega1, generic.omega2
    r = reduce_mod_lattice(w1 + 0.3 * w2, generic)
    assert abs(r.rep - 0.3 * w2) < 1e-12
    assert reduce_mod_lattice(0.0, generic).rep == 0.0
    r = reduce_mod_lattice(-0.25 * w1, generic)
    assert abs(r.rep - 0.75 * w1) < 1e-12


def test_reduce_exact_periodicity():
    # exactly representable generators and offsets: reduction must be exact
    lat = make_lattice(1.0, 2j)
    zs = [0.375 + 0.25j, 0.0625 + 1.5j, 0.5 + 0.5j]
    for z in zs:
        base = reduce_mod_lattice(z, lat).rep
        for m, n in [(1, 0), (0, 1), (3, 2), (-2, 5), (-7, -1)]:
            shifted = reduce_mod_lattice(z + m * lat.omega1 + n * lat.omega2, lat).rep
            assert shifted == base


@pytest.mark.parametrize("scale", [1e-160, 1e160])
def test_torus_coordinates_at_every_finite_scale(scale):
    # coords reads u = z / omega1; the products of generators it once formed
    # overflowed to NaN at 1e160 and were subnormal at 1e-160
    lat = make_lattice(scale, scale * (0.3 + 1.4j))
    z = 2.3 * lat.omega1 - 1.6 * lat.omega2
    a, b = lat.coords(z)
    assert abs(a - 2.3) <= 1e-15 and abs(b + 1.6) <= 1e-15
    rep = reduce_mod_lattice(z, lat).rep
    assert abs(rep / lat.omega1 - (0.42 + 0.56j)) <= 1e-15
    assert torus_distance(rep, z, lat) <= 1e-15 * scale


def test_torsion_points(generic):
    assert [t.rep for t in torsion_points(generic, 1)] == [0.0]
    t2 = torsion_points(generic, 2)
    expected = [0.0, generic.omega2 / 2, generic.omega1 / 2,
                (generic.omega1 + generic.omega2) / 2]
    assert len(t2) == 4
    for e in expected:
        assert min(torus_distance(e, t.rep, generic) for t in t2) < 1e-12
    t3 = torsion_points(generic, 3)
    assert len(t3) == 9
    for t in t3:
        assert torus_distance(3.0 * t.rep, 0.0, generic) < 1e-9


def test_torsion_closed_under_negation(generic):
    for n in (2, 3, 4):
        ts = torsion_points(generic, n)
        assert len(ts) == n * n
        for t in ts:
            neg = -t
            assert min(torus_distance(neg.rep, u.rep, generic) for u in ts) < 1e-9
