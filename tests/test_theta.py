import cmath

import mpmath
import numpy as np
import pytest

from conftest import ORACLE_IM_TAUS
from elliptica import (
    Lattice,
    build_from_divisors,
    divisor,
    make_lattice,
    reduce_mod_lattice,
    theta,
    theta_shifted,
    wp_values,
)
from elliptica.theta import _BLOCK, theta_derivs_reduced, theta_sums


def band_samples(rng, tau, n, imag_factor=1.0):
    re = rng.uniform(-1.0, 1.0, n)
    im = rng.uniform(-imag_factor, imag_factor, n) * tau.imag
    return re + 1j * im


def test_period_one(generic):
    rng = np.random.default_rng(0)
    zs = band_samples(rng, generic.tau, 40)
    t0 = theta(zs, generic)
    t1 = theta(zs + 1.0, generic)
    assert np.abs(t1 - t0).max() < 1e-12 * np.abs(t0).max()


def test_quasi_period_tau(generic):
    tau = generic.tau
    rng = np.random.default_rng(1)
    zs = band_samples(rng, tau, 100, imag_factor=2.0)
    lhs = theta(zs + tau, generic)
    rhs = np.exp(-1j * np.pi * (tau + 2.0 * zs)) * theta(zs, generic)
    assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()


def test_zero_at_half_sum(generic, square, hexagonal):
    for lat in (generic, square, hexagonal):
        h = (1.0 + lat.tau) / 2.0
        assert abs(theta(h, lat)) < 1e-10


def test_even_exact_at_summation_level(generic):
    rng = np.random.default_rng(2)
    zs = band_samples(rng, generic.tau, 25)
    a = theta(zs, generic)
    b = theta(-zs, generic)
    assert (a == b).all()
    # also across the kernel's blocks, with points outside the band
    zs = band_samples(rng, generic.tau, 2 * _BLOCK + 25, imag_factor=2.0)
    assert (theta(zs, generic) == theta(-zs, generic)).all()


@pytest.mark.parametrize("tau", [0.3 + 1.4j, 0.5 + 0.8660254037844386j, 1j, -0.2 + 8.3j])
def test_blocks_are_invisible(tau):
    # a point's values, orders 0-3, are the same bits alone, inside a
    # (lifts, points) array and anywhere in a call spanning several blocks
    lat = Lattice(1.0 + 0j, tau)
    rng = np.random.default_rng(10)
    # three blocks, the last holding a single point
    zs = band_samples(rng, tau, 2 * _BLOCK + 1, imag_factor=2.0)
    picks = list(range(1000)) + [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK]
    whole, lwhole = theta_derivs_reduced(zs, lat, order=3)
    stacked, lstacked = theta_derivs_reduced(zs[:6 * 41].reshape(6, 41), lat, order=3)
    for i in picks:
        alone, lalone = theta_derivs_reduced(zs[i], lat, order=3)
        assert (alone == whole[:, i]).all() and lalone == lwhole[i]
        if i < 6 * 41:
            assert (alone == stacked[:, i // 41, i % 41]).all() and lalone == lstacked[i // 41, i % 41]
    # the kernel: a (shift, point) pair is the same bits alone and among
    # seven shifts, anywhere in a call spanning several blocks
    shifts = band_samples(rng, tau, 7, imag_factor=1.5)
    step = _BLOCK // 7
    sums, k = theta_sums(zs[:2 * step + 1], shifts, lat, order=3)
    for i in (0, 1, step - 1, step, 2 * step):
        for j in range(7):
            alone, kalone = theta_sums(zs[i:i + 1], shifts[j:j + 1], lat, order=3)
            assert (alone[:, 0, 0] == sums[:, j, i]).all() and kalone[0, 0] == k[j, i]
    # wp and theta quotients of 4, 5 and 8 lifts: a point's values_and_dlog
    # and wp_values are the same bits alone and in a call of several blocks
    p, pp = wp_values(zs[:1000], lat)
    for i in range(0, 1000, 37):
        assert wp_values(zs[i], lat) == (p[i], pp[i])
    cell = [0.21 + 0.33 * tau, 0.64 + 0.87 * tau, 0.12 + 0.55 * tau, 0.81 + 0.18 * tau,
            0.45 + 0.71 * tau, 0.33 + 0.05 * tau, 0.9 + 0.4 * tau]
    for zeros, poles in (([(cell[0], 1)], [(cell[1], 1), (cell[2], 1)]),
                         ([(cell[0], 1), (cell[1], 1)], [(cell[2], 1), (cell[3], 2)]),
                         ([(cell[0], 1), (cell[1], 1), (cell[2], 1)], [(cell[3], 1), (cell[4], 1), (cell[5], 1), (cell[6], 1)])):
        # the last zero closes the Abel sum
        zeros = zeros + [(sum(m * c for c, m in poles) - sum(m * c for c, m in zeros), 1)]
        f = build_from_divisors(divisor(zeros, lat), divisor(poles, lat), lat)
        step = _BLOCK // sum(len(lifts) for lifts in f._lifts)
        zz = zs[:2 * step + 1]
        v, dl = f.values_and_dlog(zz)
        for i in list(range(0, 2 * step + 1, 41)) + [step - 1, step, 2 * step]:
            va, dla = f.values_and_dlog(zz[i:i + 1])
            assert va[0] == v[i] and dla[0] == dl[i]


def test_shifted_zero(generic):
    rng = np.random.default_rng(3)
    for _ in range(8):
        x = reduce_mod_lattice(
            complex(rng.uniform(0, 1) + rng.uniform(0, 1) * generic.tau), generic
        )
        assert abs(theta_shifted(x, x.rep, generic)) < 1e-10


def test_shifted_zero_translate(generic):
    # the base zero of the x = 0 shift sits at 0; its period-1 translate is 1
    assert abs(theta_shifted(0.0, 1.0, generic)) < 1e-10
    assert abs(theta_shifted(0.0, generic.tau, generic)) < 1e-9


def test_shifted_quasi_period_modulus(generic):
    tau = generic.tau
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = reduce_mod_lattice(
            complex(rng.uniform(0, 1) + rng.uniform(0, 1) * tau), generic
        )
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1) * tau.imag)
        lhs = abs(theta_shifted(x, z + tau, generic))
        h = (1.0 + tau) / 2.0
        factor = abs(cmath.exp(-1j * cmath.pi * (tau + 2.0 * (z - h - x.rep))))
        rhs = factor * abs(theta_shifted(x, z, generic))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + rhs)


def test_truncation_is_converged(generic):
    rng = np.random.default_rng(5)
    zs = band_samples(rng, generic.tau, 30, imag_factor=2.0)
    a = theta(zs, generic, trunc=24)
    b = theta(zs, generic, trunc=40)
    assert np.abs(a - b).max() < 1e-13 * np.abs(b).max()


def test_laws_hold_on_other_lattices():
    for tau in (1j, 0.5 + 0.9j, -0.31 + 1.05j):
        lat = make_lattice(1.0, tau)
        rng = np.random.default_rng(6)
        zs = band_samples(rng, lat.tau, 50, imag_factor=2.0)
        lhs = theta(zs + lat.tau, lat)
        rhs = np.exp(-1j * np.pi * (lat.tau + 2.0 * zs)) * theta(zs, lat)
        assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()


def test_default_term_count_matches_trunc_40(generic, square, hexagonal):
    for lat in (generic, square, hexagonal):
        rng = np.random.default_rng(7)
        zs = band_samples(rng, lat.tau, 64, imag_factor=2.0)
        a, la = theta_derivs_reduced(zs, lat, order=3)
        b, lb = theta_derivs_reduced(zs, lat, trunc=40, order=3)
        assert (la == lb).all()
        for d in range(4):
            assert np.abs(a[d] - b[d]).max() <= 1e-13 * np.abs(b[d]).max()


def test_explicit_truncation_finite_at_large_im_tau():
    lat = make_lattice(1.0, 0.2 + 16j)
    rng = np.random.default_rng(8)
    zs = band_samples(rng, lat.tau, 32)
    for trunc in (1, 24, 40):
        assert np.isfinite(theta(zs, lat, trunc=trunc)).all()


def test_against_mpmath_jtheta():
    # theta^(d)(z) = pi^d * jtheta(3, pi z, e^(i pi tau), d) (DLMF 20.2.3),
    # at 50 digits, from the reduced hexagonal corner to Im tau = 50
    rng = np.random.default_rng(9)
    with mpmath.workdps(50):
        for im in ORACLE_IM_TAUS:
            tau = complex(rng.uniform(-0.5, 0.5) if im >= 1.0 else 0.5, im)
            lat = Lattice(1.0 + 0j, tau)
            zs = np.concatenate([
                band_samples(rng, tau, 6, imag_factor=0.5),
                [1e-7 + 2e-7j, (1.0 + tau) / 2.0 + 1e-6, tau + 1e-5j],
            ])
            vals, logf = theta_derivs_reduced(zs, lat, order=3)
            got = vals * np.exp(logf)
            q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
            for d in range(4):
                ref = np.array([
                    complex(mpmath.pi ** d * mpmath.jtheta(3, mpmath.pi * mpmath.mpc(z), q, d))
                    for z in zs
                ])
                err = np.abs(got[d] - ref).max()
                assert err <= 1e-12 * np.abs(ref).max(), (tau, d, err)
