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


# sphere values with moduli from 1e-300 to 1e300, and 0 and INF
_sphere_values = st.one_of(
    st.just(0j), st.just(INF),
    st.builds(lambda e, t: 10.0 ** e * cmath.exp(1j * t), st.floats(-300.0, 300.0), st.floats(0.0, 2.0 * math.pi)))


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
