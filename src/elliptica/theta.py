"""The Jacobi theta function of a lattice and its derivatives.

theta(z) = sum_n exp(i pi (n^2 tau + 2 n z)) for the normalized lattice
Z + tau Z (DLMF 20.2.3 with q = exp(i pi tau)).  Arguments are first
re-centered into the band |Im z| <= Im(tau)/2 through the quasi-period
relations.  There the n-th term of a derivative of order <= 3 is at most
(2 pi n)^3 exp(-pi Im(tau) (n^2 - n)) (the explicit tail bound of Deconinck
et al., Math. Comp. 73 (2004)), so by default the sum stops at the smallest
N whose first omitted term n = N + 1 is below TAIL_EPS: N = 4 at
Im tau = sqrt(3)/2, 3 at 1.5, 2 at 3 and 1 above Im tau = 7.81.

The terms of the two signs are c_n w^n with w = e^(-pi Im tau -+ 2 pi Im z)
e^(+-2 pi i Re z), built from one cos/sin of 2 pi Re z and two real
exponentials per point instead of two complex ones, and c_n =
q^(n^2 - n) e^(i pi n Re tau).  In the band |w| <= 1 and |c_n| <= 1, so
nothing can overflow for any Im tau or truncation.  Derivative order d sums
the same rounded terms weighted by (2 pi i n)^d.  The points go through in blocks of _BLOCK (band reduction,
sums and quasi-period factor together), so the temporaries stay a few
hundred KB however many points a call has.  Every step is elementwise, with
the same operand layout for any number of points, so a point's values are
the same bits alone, in a (lifts, points) array or anywhere in a long call
(a BLAS matrix product rounds a column by its position, and numpy rounds a
strided complex product differently from a contiguous one).  The
accumulated quasi-period factor is returned in logarithmic form so that
theta quotients can cancel it without overflow.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .lattice import Lattice

TAIL_EPS = 1e-18
# points per pass: the largest temporary, the weighted terms, holds
# (order + 1) x nt x _BLOCK complex values (512 KB at order 3 and nt = 4)
_BLOCK = 2048
_SIGN = np.array([[-1.0], [1.0]])
_SIGN.flags.writeable = False


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


@lru_cache(maxsize=128)
def _coefficients(tau: complex, nt: int, order: int):
    """(c, weights, parity): c[n-1] = q^(n^2 - n) e^(i pi n Re tau), the
    constant factor of the n-th term, shape (nt, 1, 1); weights[d-1, n-1] =
    (2 pi i n)^d for d = 1..order, shape (order, nt, 1); parity[d] = d % 2,
    the sum (0 even, 1 odd) that order d reads."""
    n = np.arange(1, nt + 1)
    c = np.exp(1j * np.pi * (tau * (n * n - n) + tau.real * n))[:, None, None]
    weights = ((2j * np.pi * n) ** np.arange(1, order + 1)[:, None])[:, :, None]
    out = c, weights, np.arange(order + 1) % 2
    for a in out:
        a.flags.writeable = False  # shared by every caller through the cache
    return out


def _raw_derivs(zr: np.ndarray, tau: complex, nt: int, order: int, out: np.ndarray) -> None:
    """Partial sums of theta and derivatives 0..order at the band-reduced
    points zr (1-d), written to out (order+1, len(zr)).

    Row 0 of w is the +n sign, row 1 the -n sign.  Every order sums the same
    rounded terms c_n w^n, weighted by (2 pi i n)^d.  Negating z swaps the
    rows of w bitwise, so theta(-z) = theta(z) holds exactly at the
    summation level.
    """
    c, weights, parity = _coefficients(tau, nt, order)
    x = zr.real * (2.0 * math.pi)
    mod = np.exp(_SIGN * (zr.imag * (2.0 * math.pi)) - math.pi * tau.imag)
    w = np.empty(mod.shape, dtype=complex)
    np.multiply(mod, np.cos(x), out=w.real)
    np.multiply(mod, np.sin(x) * -_SIGN, out=w.imag)
    # every complex product below has contiguous operands or a constant
    # factor, whatever the number of points
    terms = np.empty((nt,) + w.shape, dtype=complex)
    terms[:1] = w
    for k in range(1, nt):
        np.multiply(terms[k - 1], w, out=terms[k])
    terms *= c
    sums = np.empty((2, nt, w.shape[1]), dtype=complex)
    np.add(terms[:, 0], terms[:, 1], out=sums[0])
    np.subtract(terms[:, 0], terms[:, 1], out=sums[1])
    parts = sums[parity]
    parts[1:] *= weights
    # (an explicit trunc < 1 is the empty sum)
    out[...] = 0.0
    for k in range(nt):
        out += parts[:, k]
    out[0] += 1.0


def theta_derivs_reduced(z, lat: Lattice, trunc: int | None = None, order: int = 0):
    """(derivs, log_factor) with theta^(d)(z) = derivs[d] * exp(log_factor)
    for d = 0..order; the quasi-period factor is split off as log_factor.

    z may be a scalar or an array of any shape; a point's values do not
    depend on that shape or on its place in the array.
    """
    tau = lat.tau
    nt = trunc if trunc is not None else _term_count(tau.imag)
    z = np.asarray(z, dtype=complex)
    zf = z.reshape(-1)
    out = np.empty((order + 1, zf.size), dtype=complex)
    logf = np.empty(zf.size, dtype=complex)
    for s in range(0, zf.size, _BLOCK):
        zr, k = _reduce_band(zf[s:s + _BLOCK], tau)
        o = out[:, s:s + _BLOCK]
        _raw_derivs(zr, tau, nt, order, o)
        logf[s:s + _BLOCK] = -1j * np.pi * (k * k * tau + 2.0 * k * zr)
        a = -2j * np.pi * k
        # the binomial sum over j, as `order` passes of raw[j] += a * raw[j-1]
        for i in range(order):
            o[i + 1:] += a * o[i:-1]
    if z.ndim == 0:
        return out[:, 0], logf[0]
    return out.reshape((order + 1,) + z.shape), logf.reshape(z.shape)


def theta(z, lat: Lattice, trunc: int | None = None):
    """Jacobi theta of the normalized lattice Z + tau Z at z.

    Accepts a scalar or an ndarray.  trunc=None takes the term count from
    the tail bound (first omitted term below TAIL_EPS); an explicit trunc
    is used as given.  The terms cannot overflow for any Im tau or
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

