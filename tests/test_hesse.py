import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from elliptica import (
    EPS,
    Cubic,
    LatticeKind,
    QEps,
    chordal,
    classify_lattice,
    concurrency_scan,
    concurrency_scan_exact,
    hesse_cubic,
    hesse_data,
    hesse_j,
    is_equianharmonic,
    make_lattice,
    weierstrass_cubic,
)
from elliptica.errors import NonFiniteInvariantsError, SingularCubicError, SingularInputError
from elliptica.hesse import (
    _ROWS_A,
    _ROWS_B,
    EXACT_SPECIAL_SINGULAR,
    EXACT_SPECIAL_SMOOTH,
    SPECIAL_SINGULAR,
    SPECIAL_SMOOTH,
    TRIPLES,
    concurrency_det_moduli,
    concurrency_dets,
)
from elliptica.projective import point_from_vec
from elliptica.sphere import is_infinite


def test_first_dual_at_six():
    _, _, duals = hesse_data(6.0)
    expected = point_from_vec(np.array([-2.0, 1.0, 1.0], dtype=complex))
    assert duals[0].distance(expected) < 1e-12


def test_inflections_on_curve_any_t():
    rng = np.random.default_rng(0)
    for _ in range(5):
        t = complex(rng.standard_normal(), rng.standard_normal()) * 3.0
        cubic, infl, _ = hesse_data(t)
        for p in infl:
            assert cubic.residual(p.vec) < 1e-12


def test_duals_match_gradients():
    rng = np.random.default_rng(1)
    for _ in range(6):
        t = complex(rng.standard_normal(), rng.standard_normal()) * 4.0
        cubic, infl, duals = hesse_data(t)
        for p, d in zip(infl, duals):
            g = point_from_vec(cubic.grad(p.vec))
            assert g.distance(d) < 1e-10


def test_scan_special_values():
    for t in (6.0, 6.0 * EPS, 6.0 * EPS ** 2, 0.0):
        assert len(concurrency_scan(t)) > 0
    assert concurrency_scan(1.0) == []
    assert concurrency_scan(2.0) == []


def test_scan_excluded_identical_tangents():
    # triples always have distinct indices by construction
    for trip in concurrency_scan(0.0):
        assert len(set(trip)) == 3


def test_scan_exact_smooth_special():
    for tq in EXACT_SPECIAL_SMOOTH:
        trips = concurrency_scan_exact(tq)
        assert len(trips) == 3
    for tq in EXACT_SPECIAL_SINGULAR:
        assert len(concurrency_scan_exact(tq)) > 0


def test_scan_exact_random_rationals_empty():
    rng = np.random.default_rng(2)
    special = list(EXACT_SPECIAL_SMOOTH) + list(EXACT_SPECIAL_SINGULAR)
    count = 0
    while count < 40:
        a = Fraction(int(rng.integers(-18, 19)), int(rng.integers(1, 7)))
        b = Fraction(int(rng.integers(-18, 19)), int(rng.integers(1, 7)))
        tq = QEps(a, b)
        if any((tq - s).is_zero() for s in special):
            continue
        assert concurrency_scan_exact(tq) == []
        count += 1


def test_scan_grid_stability():
    # off the seven special values the float scan is empty on a whole grid
    special = list(SPECIAL_SMOOTH) + [-3.0 + 0j, -3.0 * EPS, -3.0 * EPS ** 2]
    n = 60
    for re in np.linspace(-8, 8, n):
        for im in np.linspace(-8, 8, n):
            t = complex(re, im)
            if min(abs(t - s) for s in special) < 1e-6:
                continue
            assert concurrency_scan(t) == []
    for t in SPECIAL_SMOOTH:
        assert len(concurrency_scan(t)) == 3


def test_scan_float_matches_exact_triples():
    fl = set(concurrency_scan(6.0))
    ex = set(concurrency_scan_exact(QEps.of(6)))
    assert fl == ex


def _seeded_rationals(n):
    rng = np.random.default_rng(5)
    special = list(EXACT_SPECIAL_SMOOTH) + list(EXACT_SPECIAL_SINGULAR)
    out = []
    while len(out) < n:
        a = Fraction(int(rng.integers(-18, 19)), int(rng.integers(1, 7)))
        b = Fraction(int(rng.integers(-18, 19)), int(rng.integers(1, 7)))
        tq = QEps(a, b)
        if not any((tq - s).is_zero() for s in special):
            out.append(tq)
    return out


@pytest.mark.parametrize(
    "tq", list(EXACT_SPECIAL_SMOOTH) + list(EXACT_SPECIAL_SINGULAR) + _seeded_rationals(50)
)
def test_scan_float_matches_exact_on_specials_and_rationals(tq):
    assert concurrency_scan(tq.to_complex()) == concurrency_scan_exact(tq)


def test_exact_scan_sees_past_float_tolerance():
    # 1e-30 from the special value 6: the float scan cannot tell them apart
    tq = QEps(Fraction(6 * 10**30 + 1, 10**30), Fraction(0))
    assert concurrency_scan_exact(tq) == []
    assert len(concurrency_scan(tq.to_complex())) == 3


def test_det_moduli_batch_equals_scalar_calls():
    rng = np.random.default_rng(6)
    ts = (rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))) * 4.0
    ts[0, :4] = SPECIAL_SMOOTH
    batch = concurrency_det_moduli(ts)
    assert batch.shape == (5, 7, 84)
    stacked = np.array([[concurrency_det_moduli(t) for t in row] for row in ts])
    assert np.array_equal(batch, stacked)
    assert list(concurrency_dets(ts[1, 2]).values()) == stacked[1, 2].tolist()


def test_det_moduli_match_lu_determinants():
    # LU-based np.linalg.det on the same scaled rows is the reference
    rng = np.random.default_rng(11)
    mags = 10.0 ** rng.uniform(-3.0, 200.0, 500)
    ts = np.concatenate([mags * np.exp(2j * np.pi * rng.uniform(size=500)),
                         SPECIAL_SMOOTH, SPECIAL_SINGULAR])
    rows = _ROWS_A + ts[:, None, None] * _ROWS_B
    rows = rows / np.abs(rows).max(axis=-1, keepdims=True)
    ref = np.abs(np.linalg.det(rows[:, np.array(TRIPLES), :]))
    got = concurrency_det_moduli(ts)
    big = ref > 1e-9
    assert big.any() and not big.all()
    assert np.all(np.abs(got - ref)[big] <= 1e-13 * ref[big])
    assert np.all(np.abs(got - ref)[~big] <= 1e-14)


def test_scan_at_huge_parameter():
    moduli = concurrency_det_moduli(1e200)
    assert np.isfinite(moduli).all()
    assert len(concurrency_scan(1e200)) == 57


def test_dets_are_positive_off_special():
    dets = concurrency_dets(1.0)
    assert min(dets.values()) > 1e-9


def test_j_rotation_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = complex(rng.standard_normal(), rng.standard_normal()) * 3.0
        j1, j2 = hesse_j(t), hesse_j(EPS * t)
        assert abs(j1 - j2) <= 1e-10 * (1.0 + abs(j1))


def test_j_special_values():
    assert hesse_j(0.0) == 0.0
    assert abs(hesse_j(6.0)) < 1e-12
    assert abs(hesse_j(6.0 * EPS)) < 1e-12
    assert is_infinite(hesse_j(-3.0))


def test_equianharmonic_lattices(hexagonal, square, generic):
    assert is_equianharmonic(hexagonal)
    assert not is_equianharmonic(square)
    assert not is_equianharmonic(generic)


def test_equianharmonic_cubics(hexagonal, square):
    assert is_equianharmonic(hesse_cubic(0.0))
    assert is_equianharmonic(hesse_cubic(6.0))
    assert not is_equianharmonic(hesse_cubic(1.0))
    assert is_equianharmonic(weierstrass_cubic(hexagonal))
    assert not is_equianharmonic(weierstrass_cubic(square))


def test_equianharmonic_singular_input():
    with pytest.raises(SingularInputError):
        is_equianharmonic(hesse_cubic(-3.0))
    with pytest.raises(SingularInputError):
        is_equianharmonic(hesse_cubic(-3.0 * EPS))


def test_equianharmonic_refuses_what_is_smooth_calls_singular():
    # t^3 + 27 is 1.5e-10 of its terms at t = -3 (1 + 1e-10): smooth by
    # is_smooth's 1e-12, and once refused by a band of 1e-9 of its own
    for t in (-3.0 * (1.0 + 1e-10), -3.0 * EPS * (1.0 + 1e-10)):
        assert hesse_cubic(t).is_smooth() and not is_equianharmonic(hesse_cubic(t))
    for cubic in (hesse_cubic(-3.0 * (1.0 + 1e-13)), Cubic("weierstrass", g2=3.0, g3=1.0)):
        assert not cubic.is_smooth()
        with pytest.raises(SingularInputError):
            is_equianharmonic(cubic)


_derandomized = settings(derandomize=True, database=None, deadline=None)


@settings(_derandomized, max_examples=60)
@given(st.floats(-300.0, 300.0), st.floats(0.0, 2.0 * math.pi))
@example(300.0, 1.0)
@example(60.0, 0.0)
def test_hesse_j_is_invariant_under_eps_at_every_modulus(e, theta):
    # J depends on t^3 alone; t^3 once overflowed from |t| = 1e103
    t = 10.0 ** e * cmath.exp(1j * theta)
    assert chordal(hesse_j(EPS * t), hesse_j(t)) <= 1e-12


_TAUS = (1j, cmath.exp(1j * math.pi / 3.0), cmath.exp(2j * math.pi / 3.0), 0.3 + 1.4j, 2j, 0.45 + 3j)


@settings(_derandomized, max_examples=40)
@given(st.sampled_from(_TAUS), st.integers(-80, 80))
@example(cmath.exp(1j * math.pi / 3.0), -40)
@example(1j, -27)
def test_cubic_is_equianharmonic_exactly_when_its_lattice_is_hexagonal(tau, k):
    # J is compared on its normalized pair, so the answer does not depend on
    # the scale omega1 = 10^k wherever weierstrass_cubic answers
    lat = make_lattice(10.0 ** k, 10.0 ** k * tau)
    try:
        cubic = weierstrass_cubic(lat)
    except (NonFiniteInvariantsError, SingularCubicError):
        assume(False)
    assert is_equianharmonic(cubic) == (classify_lattice(lat).kind is LatticeKind.HEXAGONAL)


def test_qeps_arithmetic():
    e = QEps.of(0, 1)
    e2 = e * e
    # eps^2 = -1 - eps
    assert (e2 - QEps.of(-1, -1)).is_zero()
    assert abs(e.to_complex() - EPS) < 1e-15
    x = QEps(Fraction(3, 2), Fraction(-1, 3))
    y = QEps(Fraction(-2, 5), Fraction(7, 4))
    assert abs((x * y).to_complex() - x.to_complex() * y.to_complex()) < 1e-12
