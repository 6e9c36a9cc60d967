import numpy as np
import pytest

from conftest import random_abel_function
from elliptica import (
    PowerSums,
    abel_defect,
    contour_power_sums,
    divisor,
    jacobi_sum,
    locate_zeros,
    newton_elementary,
    torus_distance,
)
from elliptica.divisors import (
    Divisor,
    locate_divisor_pair,
    match_divisors,
    monic_from_elementary,
    reciprocal,
)
from elliptica.elliptic import wp_evaluable, wp_pair
from elliptica.errors import (
    ContourTooCloseError,
    DegreeMismatchError,
    EmptyDivisorError,
    InsufficientSumsError,
    NonIntegerCountError,
)


def test_jacobi_sum_examples(generic):
    d = divisor([(0.0, 3)], generic)
    assert jacobi_sum(d, generic).rep == 0.0
    pts = [0.11 + 0.3j, 0.52 + 0.9j, 0.73 + 0.1j]
    d1 = divisor([(p, 1) for p in pts], generic)
    d2 = divisor([(p, 1) for p in reversed(pts)], generic)
    assert jacobi_sum(d1, generic).rep == jacobi_sum(d2, generic).rep


def test_jacobi_empty(generic):
    with pytest.raises(EmptyDivisorError):
        jacobi_sum(Divisor(()), generic)


def test_function_divisors_abel(generic):
    rng = np.random.default_rng(0)
    for _ in range(5):
        f = random_abel_function(rng, generic)
        diff = jacobi_sum(f.zeros, generic).rep - jacobi_sum(f.poles, generic).rep
        assert torus_distance(diff, 0.0, generic) < 1e-9
        assert abel_defect(f.zeros, f.poles, generic) < 1e-9


def test_abel_defect_examples(generic):
    d = divisor([(0.21 + 0.3j, 1), (0.6 + 0.77j, 2)], generic)
    assert abel_defect(d, d, generic) == 0.0
    a = 0.3 + 0.41j
    delta = 3e-4 + 1e-4j
    zeros = divisor([(a, 1), (-a + delta, 1)], generic)
    poles = divisor([(0.0, 2)], generic)
    assert abs(abel_defect(zeros, poles, generic) - abs(delta)) < 1e-12
    with pytest.raises(DegreeMismatchError):
        abel_defect(divisor([(a, 1)], generic), poles, generic)


def test_contour_centered_zero(generic):
    pa, _ = wp_pair(0.31 + 0.44j, generic)
    f = wp_evaluable(generic, pa)
    sums = contour_power_sums(f, 0.31 + 0.44j, 0.08, 3, generic)
    assert sums.count == 1
    assert abs(sums.values[1]) < 1e-10


def test_contour_no_zeros(generic):
    f = wp_evaluable(generic, 0.0)
    sums = contour_power_sums(f, 0.31 + 0.44j, 0.04, 3, generic)
    assert sums.count == 0
    assert max(abs(v) for v in sums.values[1:]) < 1e-10


def test_contour_double_zero_at_half_period(generic):
    from elliptica import half_period_values

    e1 = half_period_values(generic)[0]
    f = wp_evaluable(generic, e1)
    sums = contour_power_sums(f, 0.5, 0.09, 3, generic)
    assert sums.count == 2
    assert abs(sums.values[1]) < 1e-9


def test_contour_too_close(generic):
    pa, _ = wp_pair(0.31 + 0.44j, generic)
    f = wp_evaluable(generic, pa)
    with pytest.raises(ContourTooCloseError):
        contour_power_sums(f, (0.31 + 0.44j) + 0.08, 0.08, 2, generic)


def test_contour_non_integer_count(generic):
    # a branch cut through the contour breaks the argument principle
    def f(z):
        return np.sqrt(z - 0.5)

    with pytest.raises((NonIntegerCountError, ContourTooCloseError)):
        contour_power_sums(f, 0.5 + 0.2, 0.4, 2, generic)


def test_contour_count_node_stability(generic):
    pa, _ = wp_pair(0.27 + 0.9j, generic)
    f = wp_evaluable(generic, pa)
    a = contour_power_sums(f, 0.3 + 0.9j, 0.17, 2, generic, nodes=128)
    b = contour_power_sums(f, 0.3 + 0.9j, 0.17, 2, generic, nodes=512)
    assert a.count == b.count


def test_contour_additive_over_subregions(generic):
    # one circle around both wp zeros equals the sum over two small circles
    from elliptica import wp_inverse

    y = wp_inverse(0.0, generic).rep
    f = wp_evaluable(generic, 0.0)
    c = (y + (generic.omega1 + generic.omega2 - y)) / 2.0
    big_ok = False
    s1 = contour_power_sums(f, y, 0.1, 3, generic)
    y2 = generic.omega1 + generic.omega2 - y
    s2 = contour_power_sums(f, y2, 0.1, 3, generic)
    assert s1.count == 1 and s2.count == 1
    # re-express both local sums about the joint center and compare with one
    # big contour around both
    big = contour_power_sums(f, c, abs(y - c) + 0.2, 3, generic)
    assert big.count == 2
    for p in (1, 2, 3):
        expected = (y - c) ** p + (y2 - c) ** p
        assert abs(big.values[p] - expected) < 1e-7


def test_newton_identities_frozen():
    # roots {2, 3}: p1 = 5, p2 = 13 -> s1 = 5, s2 = 6
    s = newton_elementary(PowerSums((2.0 + 0j, 5.0 + 0j, 13.0 + 0j)))
    assert abs(s[0] - 5.0) < 1e-14
    assert abs(s[1] - 6.0) < 1e-14
    # single root r
    s = newton_elementary(PowerSums((1.0 + 0j, 2.5 - 1j)))
    assert abs(s[0] - (2.5 - 1j)) < 1e-14


def test_newton_identities_round_trip():
    rng = np.random.default_rng(1)
    for degree in (3, 5, 8):
        roots = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
        sums = [complex(degree)] + [
            complex(np.sum(roots ** p)) for p in range(1, degree + 1)
        ]
        sym = newton_elementary(PowerSums(tuple(sums)))
        rec = np.roots(monic_from_elementary(sym))
        assert match_roots(rec, roots, 1e-8)


def match_roots(a, b, tol):
    a = sorted(a, key=lambda z: (z.real, z.imag))
    b = sorted(b, key=lambda z: (z.real, z.imag))
    return all(abs(x - y) < tol for x, y in zip(a, b))


def test_newton_insufficient(generic):
    with pytest.raises(InsufficientSumsError):
        newton_elementary(PowerSums((3.0 + 0j, 1.0 + 0j)))


def test_locate_wp_divisors(generic):
    zeros = locate_zeros(wp_evaluable(generic), generic)
    poles = locate_zeros(reciprocal(wp_evaluable(generic)), generic)
    assert zeros.degree == 2 and poles.degree == 2
    assert poles.points[0][1] == 2
    assert torus_distance(poles.points[0][0].rep, 0.0, generic) < 1e-8
    assert torus_distance(jacobi_sum(zeros, generic).rep, 0.0, generic) < 1e-7
    # zeros are a symmetric pair
    z1, z2 = zeros.points[0][0].rep, zeros.points[1][0].rep
    assert torus_distance(z1 + z2, 0.0, generic) < 1e-7


def test_locate_round_trip_multiplicity(generic):
    a = 0.31 + 0.41j
    zeros = divisor([(a, 2), (-2 * a, 1)], generic)
    poles = divisor([(0.77 + 0.3j, 1), (0.2 + 1.0j, 1), (-(0.97 + 1.3j), 1)], generic)
    from elliptica import build_from_divisors

    f = build_from_divisors(zeros, poles, generic)
    zf, pf = locate_divisor_pair(f, generic)
    assert match_divisors(zf, zeros, generic, 1e-6)
    assert match_divisors(pf, poles, generic, 1e-6)


def test_locate_degree_equality_random(generic):
    rng = np.random.default_rng(2)
    for _ in range(4):
        f = random_abel_function(rng, generic)
        zf, pf = locate_divisor_pair(f, generic)
        assert zf.degree == pf.degree == 3
        assert abel_defect(zf, pf, generic) < 1e-6
        assert match_divisors(zf, f.zeros, generic, 1e-6)
        assert match_divisors(pf, f.poles, generic, 1e-6)
        # disjoint supports
        for zp, _ in zf.points:
            for pp, _ in pf.points:
                assert torus_distance(zp.rep, pp.rep, generic) > 1e-6


def test_divisor_json_round_trip(generic):
    from elliptica.divisors import divisor_from_json

    d = divisor([(0.2 + 0.3j, 2), (0.7 + 0.9j, 1)], generic)
    d2 = divisor_from_json(d.to_json(), generic)
    assert match_divisors(d, d2, generic, 1e-12)


def test_contour_half_count_with_exact_log_derivative(generic):
    # sqrt(z - a) has f'/f = 1/(2 (z - a)): the count integral is 1/2 at
    # every node count
    from elliptica.divisors import Evaluable

    a = 0.5
    f = Evaluable(lambda z: np.sqrt(z - a), lambda z: (np.sqrt(z - a), 0.5 / (z - a)))
    with pytest.raises(NonIntegerCountError):
        contour_power_sums(f, a + 0.2, 0.4, 2, generic)


def test_contour_requires_values_and_dlog(generic):
    with pytest.raises(NonIntegerCountError, match="values_and_dlog"):
        contour_power_sums(lambda z: z - 0.5, 0.5, 0.1, 2, generic)
    with pytest.raises(NonIntegerCountError, match="values_and_dlog"):
        locate_zeros(lambda z: z - 0.5, generic)
