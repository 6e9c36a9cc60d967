import math

import numpy as np
import pytest

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
