"""The Jacobi theta function of a lattice and its derivatives.

theta(z) = sum_n exp(i pi (n^2 tau + 2 n z)) for the normalized lattice
Z + tau Z (DLMF 20.2.3 with q = exp(i pi tau)).  Arguments are first
re-centered into the band |Im z| <= Im(tau)/2 through the quasi-period
relations.  There the n-th term of a derivative of order <= 3 is at most
(2 pi n)^3 exp(-pi Im(tau) (n^2 - n)) (the explicit tail bound of Deconinck
et al., Math. Comp. 73 (2004)), so by default the sum stops at the smallest
N whose first omitted term n = N + 1 is below TAIL_EPS: N = 4 at
Im tau = sqrt(3)/2, 3 at 1.5, 2 at 3 and 1 above Im tau = 7.81.  The terms
come from a ladder whose step factors all have modulus <= 1, so no product
can overflow for any Im tau or truncation.  The accumulated quasi-period
factor is returned in logarithmic form by the low-level routine so that
theta quotients can cancel it without overflow.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .lattice import Lattice

TAIL_EPS = 1e-18


def _reduce_band(z: np.ndarray, tau: complex):
    """Shift z by k*tau + m into |Im z| <= Im(tau)/2, |Re z| <= 1/2.

    Returns (z_reduced, k); theta(z) = exp(-i pi (k^2 tau + 2 k z_red)) * theta(z_red).
    The integer real shift m is exact for theta and dropped.
    """
    k = np.round(z.imag / tau.imag)
    zr = z - k * tau
    zr = zr - np.round(zr.real)
    return zr, k


@lru_cache(maxsize=128)
def _term_count(im_tau: float) -> int:
    """Smallest N with (2 pi n)^3 exp(-pi Im(tau) (n^2 - n)) < TAIL_EPS at n = N + 1."""
    if not im_tau > 0:
        raise ValueError(f"Im tau must be positive, got {im_tau}")
    n = 2
    while 3.0 * math.log(2.0 * math.pi * n) - math.pi * im_tau * (n * n - n) >= math.log(TAIL_EPS):
        n += 1
    return n - 1


def _raw_derivs(z: np.ndarray, tau: complex, trunc: int | None, order: int) -> np.ndarray:
    """Partial sums of theta and derivatives 0..order at band-reduced z.

    The terms q^(n^2) e^(+-2 pi i n z) (q = e^(i pi tau)) of the n and -n
    ladders are cumulative products term_n = term_(n-1) * r * q^(2(n-1))
    with r = e^(i pi tau +- 2 pi i z); in the band |r| <= 1, so every step
    factor has modulus <= 1 and terms can only underflow to 0.  The two
    ladders are mirror images, so theta(-z) = theta(z) holds exactly at
    the summation level.
    """
    n = np.arange(1, (trunc if trunc is not None else _term_count(tau.imag)) + 1)
    zf = z.reshape(-1)
    step = np.exp(2j * np.pi * (n - 1) * tau)[:, None]
    # the two exps take the same rounding path, so negating z swaps the
    # ladders bitwise
    ep = (np.exp(1j * np.pi * tau + 2j * np.pi * zf) * step).cumprod(axis=0)
    em = (np.exp(1j * np.pi * tau - 2j * np.pi * zf) * step).cumprod(axis=0)
    even, odd = ep + em, ep - em
    fac = 2j * np.pi * n
    out = np.empty((order + 1, zf.size), dtype=complex)
    out[0] = 1.0 + even.sum(axis=0)
    for d in range(1, order + 1):
        out[d] = fac ** d @ (odd if d % 2 else even)
    return out.reshape((order + 1,) + z.shape)


def theta_derivs_reduced(z, lat: Lattice, trunc: int | None = None, order: int = 0):
    """(derivs, log_factor): theta^(d)(z) values with the quasi-period factor
    split off, theta^(d)(z) = sum_j C(d,j) a^(d-j) derivs_raw[j] * exp(log_factor),
    already combined: returns derivs such that true theta^(d) = derivs[d]*exp(log_factor).
    """
    tau = lat.tau
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    zv = np.atleast_1d(z)
    zr, k = _reduce_band(zv, tau)
    out = _raw_derivs(zr, tau, trunc, order)
    logf = -1j * np.pi * (k * k * tau + 2.0 * k * zr)
    a = -2j * np.pi * k
    # the binomial sum over j, as `order` passes of raw[j] += a * raw[j-1]
    for i in range(order):
        out[i + 1:] += a * out[i:-1]
    if scalar:
        return out[:, 0], logf[0]
    return out, logf


def theta(z, lat: Lattice, trunc: int | None = None):
    """Jacobi theta of the normalized lattice Z + tau Z at z.

    Accepts a scalar or an ndarray.  trunc=None takes the term count from
    the tail bound (first omitted term below TAIL_EPS); an explicit trunc
    is used as given.  The term ladder cannot overflow for any Im tau or
    trunc.  The quasi-period factor picked up by reduction can overflow for
    |Im z| many multiples of Im(tau); within a few fundamental cells it is
    harmless.
    """
    vals, logf = theta_derivs_reduced(z, lat, trunc, order=0)
    return vals[0] * np.exp(logf)


def theta_shifted(x, z, lat: Lattice, trunc: int | None = None):
    """theta(z - (1+tau)/2 - x~) for the canonical lift x~ of x.

    x may be a TorusPoint (its rep is used) or a plain complex lift.
    The result has simple zeros exactly on x + Gamma.
    """
    lift = getattr(x, "rep", x)
    h = (1.0 + lat.tau) / 2.0
    return theta(np.asarray(z, dtype=complex) - h - lift, lat, trunc)

