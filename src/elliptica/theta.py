"""The Jacobi theta function of a lattice and its derivatives.

theta(z) = sum_n exp(i pi (n^2 tau + 2 n z)) for the normalized lattice
Z + tau Z.  Arguments are first re-centered into the band |Im z| <= Im(tau)/2
through the quasi-period relations, which keeps the truncated sum accurate
at the default truncation for any input.  The accumulated quasi-period
factor is returned in logarithmic form by the low-level routine so that
theta quotients can cancel it without overflow.
"""
from __future__ import annotations

import math
from math import comb

import numpy as np

from .lattice import Lattice

THETA_TRUNC = 24


def _reduce_band(z: np.ndarray, tau: complex):
    """Shift z by k*tau + m into |Im z| <= Im(tau)/2, |Re z| <= 1/2.

    Returns (z_reduced, k); theta(z) = exp(-i pi (k^2 tau + 2 k z_red)) * theta(z_red).
    The integer real shift m is exact for theta and dropped.
    """
    k = np.round(z.imag / tau.imag)
    zr = z - k * tau
    zr = zr - np.round(zr.real)
    return zr, k


_coeff_cache: dict[tuple[complex, int], tuple[np.ndarray, np.ndarray]] = {}


def _nome_coeffs(tau: complex, trunc: int):
    key = (tau, trunc)
    hit = _coeff_cache.get(key)
    if hit is None:
        n = np.arange(1, trunc + 1)
        hit = (np.exp(1j * np.pi * n * n * tau), 2j * np.pi * n)
        if len(_coeff_cache) > 64:
            _coeff_cache.clear()
        _coeff_cache[key] = hit
    return hit


def _raw_derivs(z: np.ndarray, tau: complex, trunc: int, order: int) -> np.ndarray:
    """Partial sums of theta and derivatives 0..order at z (no reduction).

    The nome powers exp(i pi n^2 tau) are cached per lattice and the z
    dependence enters through cumulative powers of exp(2 pi i z), which is
    much cheaper than exponentiating the full (z, n) grid.  Terms combine as
    symmetric n / -n pairs so theta(-z) = theta(z) exactly at the summation
    level.
    """
    qn, fac = _nome_coeffs(tau, trunc)
    b = np.exp(2j * np.pi * z)
    # the inverse powers use their own exp so that negating z swaps the two
    # power ladders bitwise (keeps theta(-z) == theta(z) exact)
    binv = np.exp(-2j * np.pi * z)
    bp = np.empty(z.shape + (trunc,), dtype=complex)
    bm = np.empty_like(bp)
    bp[..., 0] = b
    bm[..., 0] = binv
    for k in range(1, trunc):
        bp[..., k] = bp[..., k - 1] * b
        bm[..., k] = bm[..., k - 1] * binv
    ep = qn * bp
    em = qn * bm
    out = np.empty((order + 1,) + z.shape, dtype=complex)
    out[0] = 1.0 + (ep + em).sum(axis=-1)
    for d in range(1, order + 1):
        out[d] = (ep * fac ** d + em * (-fac) ** d).sum(axis=-1)
    return out


def theta_derivs_reduced(z, lat: Lattice, trunc: int = THETA_TRUNC, order: int = 0):
    """(derivs, log_factor): theta^(d)(z) values with the quasi-period factor
    split off, theta^(d)(z) = sum_j C(d,j) a^(d-j) derivs_raw[j] * exp(log_factor),
    already combined: returns derivs such that true theta^(d) = derivs[d]*exp(log_factor).
    """
    tau = lat.tau
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    zv = np.atleast_1d(z)
    zr, k = _reduce_band(zv, tau)
    raw = _raw_derivs(zr, tau, trunc, order)
    logf = -1j * np.pi * (k * k * tau + 2.0 * k * zr)
    a = -2j * np.pi * k
    out = np.empty_like(raw)
    for d in range(order + 1):
        acc = np.zeros_like(zr)
        for j in range(d + 1):
            acc = acc + comb(d, j) * a ** (d - j) * raw[j]
        out[d] = acc
    if scalar:
        return out[:, 0], logf[0]
    return out, logf


def theta(z, lat: Lattice, trunc: int = THETA_TRUNC):
    """Jacobi theta of the normalized lattice Z + tau Z at z.

    Accepts a scalar or an ndarray.  After band reduction the tail of the
    partial sum decays like exp(-pi Im(tau) (trunc - 1/2)^2), super
    exponentially in trunc, so the default truncation is already far below
    double precision.  The quasi-period factor picked up by reduction can
    overflow for |Im z| many multiples of Im(tau); within a few fundamental
    cells it is harmless.
    """
    vals, logf = theta_derivs_reduced(z, lat, trunc, order=0)
    return vals[0] * np.exp(logf)


def theta_shifted(x, z, lat: Lattice, trunc: int = THETA_TRUNC):
    """theta(z - (1+tau)/2 - x~) for the canonical lift x~ of x.

    x may be a TorusPoint (its rep is used) or a plain complex lift.
    The result has simple zeros exactly on x + Gamma.
    """
    lift = getattr(x, "rep", x)
    h = (1.0 + lat.tau) / 2.0
    return theta(np.asarray(z, dtype=complex) - h - lift, lat, trunc)

