import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elliptica import INF, MobiusTransform, chordal, is_infinite
from elliptica.sphere import mobius_through, sphere_from_pair


def test_chordal_metric_basics():
    assert chordal(0.0, 0.0) == 0.0
    assert chordal(INF, INF) == 0.0
    assert abs(chordal(0.0, INF) - 2.0) < 1e-15
    assert abs(chordal(1.0, INF) - math.sqrt(2.0)) < 1e-12
    # symmetry and boundedness on random values
    rng = np.random.default_rng(0)
    for _ in range(30):
        a = complex(rng.standard_normal(), rng.standard_normal()) * 10
        b = complex(rng.standard_normal(), rng.standard_normal()) * 10
        d = chordal(a, b)
        assert abs(d - chordal(b, a)) < 1e-15
        assert 0.0 <= d <= 2.0


def test_mobius_group_axioms():
    rng = np.random.default_rng(1)
    ms = []
    while len(ms) < 3:
        try:
            ms.append(MobiusTransform(*rng.standard_normal(8).view(np.complex128)))
        except ValueError:
            continue
    a, b, c = ms
    z = 0.3 - 0.7j
    # associativity up to projective scale and pointwise
    lhs = a.compose(b).compose(c)
    rhs = a.compose(b.compose(c))
    assert lhs.proportional_to(rhs, 1e-10)
    assert abs(lhs(z) - a(b(c(z)))) < 1e-10 * (1.0 + abs(lhs(z)))
    # inverses
    assert a.compose(a.inverse()).proportional_to(MobiusTransform.identity(), 1e-10)
    assert abs(a.inverse()(a(z)) - z) < 1e-10


def test_mobius_infinity_handling():
    m = MobiusTransform(1.0, 2.0, 3.0, 4.0)
    assert abs(m(INF) - 1.0 / 3.0) < 1e-15
    assert is_infinite(m(-4.0 / 3.0))
    affine = MobiusTransform(2.0, 1.0, 0.0, 1.0)
    assert is_infinite(affine(INF))


def test_mobius_rejects_singular():
    with pytest.raises(ValueError):
        MobiusTransform(1.0, 2.0, 2.0, 4.0)


def test_mobius_through_with_infinite_targets():
    m = mobius_through((0.0, 1.0, 2.0), (INF, 0.0, 1.0))
    assert is_infinite(m(0.0))
    assert abs(m(1.0)) < 1e-12
    assert abs(m(2.0) - 1.0) < 1e-12


def test_sphere_from_pair():
    assert sphere_from_pair(1.0, 2.0) == 0.5
    assert is_infinite(sphere_from_pair(1.0, 0.0))
    # a NaN quotient of a homogeneous pair is read as the point at infinity
    assert is_infinite(sphere_from_pair(complex(math.nan, 0.0), 1.0))


def test_nan_is_not_infinity():
    nan = math.nan
    for v in (complex(nan, 0.0), complex(0.0, nan), complex(nan, nan),
              complex(math.inf, nan), complex(nan, -math.inf)):
        assert not is_infinite(v)
        for other in (0.0, 1.5 - 2j, INF, v):
            assert math.isnan(chordal(v, other)) and math.isnan(chordal(other, v))
            assert not chordal(v, other) < 1e-7
    for v in (INF, complex(-math.inf, 0.0), complex(3.0, math.inf)):
        assert is_infinite(v)
        assert chordal(v, INF) == 0.0
    assert not is_infinite(1e308 + 1e308j)


def test_mobius_acts_on_the_unit_pair():
    # (a z + b) / (c z + d) formed at z itself overflowed: inf / inf, and inf
    assert abs(MobiusTransform(1e200, 0, 1e200, 1)(1e150) - 1.0) <= 1e-15
    assert abs(MobiusTransform(2, 1, 1, 3)(1e308) - 2.0) <= 1e-15
    assert math.isnan(MobiusTransform(2, 1, 1, 3)(complex(math.nan, 0.0)).real)


def test_chordal_answers_where_the_product_of_moduli_overflows():
    # (1 + |a|^2) (1 + |b|^2) once overflowed to inf there, and the distance read 0
    assert chordal(1e100, 2e100) == pytest.approx(1e-100, rel=1e-15)
    a, b = -9.310721971984233e149 + 4.893769130615338e148j, -50751.966579096064 - 17379.591230666665j
    assert chordal(a, b) == pytest.approx(3.7281962315091483e-05, rel=1e-14)


def _polar(lo, hi):
    """Values of modulus 10^e, e in [lo, hi], at any argument."""
    return st.builds(lambda e, t: 10.0 ** e * cmath.exp(1j * t), st.floats(lo, hi), st.floats(0.0, 2.0 * math.pi))


# sphere values with moduli from 1e-300 to 1e300, and 0 and INF
_sphere_values = st.one_of(st.just(0j), st.just(INF), _polar(-300.0, 300.0))


def _reciprocal(v):
    return INF if v == 0 else 0j if is_infinite(v) else 1.0 / v


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(_sphere_values, _sphere_values)
@example(1e200 + 0j, 1.0 + 0j)
@example(INF, 1e200 + 0j)
def test_chordal_is_a_bounded_metric_at_every_modulus(a, b):
    d = chordal(a, b)
    assert d == chordal(b, a) and 0.0 <= d <= 2.0
    assert (d == 0.0) == (a == b)
    assert chordal(a.conjugate(), b.conjugate()) == d
    # 1/z rounds once or twice per value, a few units of 2^-52 of the distance
    assert abs(chordal(_reciprocal(a), _reciprocal(b)) - d) <= 1e-15


def _separated(triple):
    return all(chordal(triple[i], triple[k]) >= 1e-3 for i, k in ((0, 1), (0, 2), (1, 2)))


# triples of sphere values pairwise at least chordal 1e-3 apart, in any
# order: at most one near 0 and one near INF, the rest of modulus 1e-2..1e2
_small = st.one_of(st.just(0j), _polar(-300.0, -3.0))
_moderate = _polar(-2.0, 2.0)
_large = st.one_of(st.just(INF), _polar(3.0, 300.0))
_triples = st.one_of(
    st.tuples(_small, _moderate, _large), st.tuples(_small, _moderate, _moderate),
    st.tuples(_moderate, _moderate, _large), st.tuples(_moderate, _moderate, _moderate),
).flatmap(st.permutations).map(tuple).filter(_separated)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(_triples, _triples)
# coefficients formed from the values themselves overflowed to inf and NaN
# here, and every point was sent to INF
@example((1.0 + 0j, 1e160 + 0j, 2.0 + 0j), (1e200 + 0j, 1.0 + 0j, 2.0 + 0j))
@example((0j, 2e40 + 0j, 1j), (1e280 + 0j, 0j, 1j))
def test_mobius_through_hits_its_targets_at_every_modulus(src, dst):
    m = mobius_through(src, dst)
    for s, d in zip(src, dst):
        assert chordal(m(s), d) <= 1e-12


@pytest.mark.parametrize("src, dst", [
    ((1e150, 2e150, 3e150), (1.0, 2.0, INF)),
    ((1e160, 2e160, 3e160), (1.0, 2.0, INF)),   # once all sent to INF
    ((1.0, 2.0, INF), (1e-200, 2e-200, 3e-200)),  # once refused as singular
    ((1e-300, 2e-300, 3e-300), (1.0, 2.0, INF)),
])
def test_mobius_through_tells_apart_points_of_one_cluster(src, dst):
    # three points within 1e-150 of each other on the sphere: the map and
    # its inverse still send each point to its own target
    m = mobius_through(src, dst)
    for s, d in zip(src, dst):
        assert chordal(m(s), d) <= 1e-12 and chordal(m.inverse()(d), s) <= 1e-12
        if not is_infinite(d):
            assert abs(m(s) - d) <= 1e-12 * abs(d)


def test_mobius_through_refuses_coincident_points():
    with pytest.raises(ValueError):
        mobius_through((1.0, 1.0, 1.0), (0.0, 1.0, INF))
    with pytest.raises(ValueError):
        mobius_through((0.0, 1.0, INF), (2.0, 3.0, 2.0))
