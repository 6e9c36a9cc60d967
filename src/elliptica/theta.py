"""The Jacobi theta function of a lattice and its derivatives.

theta(z) = sum_n exp(i pi (n^2 tau + 2 n z)) for the normalized lattice
Z + tau Z (DLMF 20.2.3 with q = exp(i pi tau)).  One kernel, theta_sums,
evaluates theta^(d)(u - c) on all pairs of points u and shifts c at once.
A pair's argument is re-centered into the band |Im z_r| <= Im(tau)/2
through the quasi-period relations, z_r = u - c - k tau - m.  There the n-th
term of a derivative of order <= 3 is at most (2 pi n)^3 exp(-pi Im(tau)
(n^2 - n)) (the explicit tail bound of Deconinck et al., Math. Comp. 73
(2004)), so by default the sum stops at the smallest N whose first omitted
term n = N + 1 is below TAIL_EPS: N = 4 at Im tau = sqrt(3)/2, 3 at 1.5, 2
at 3 and 1 above Im tau = 7.81.

The terms of the two signs are c_n w^n with w = e^(-pi Im tau -+ 2 pi Im z_r)
e^(+-2 pi i Re z_r) and c_n = q^(n^2 - n) e^(i pi n Re tau).  In the band
|w| <= 1 and |c_n| <= 1, so nothing can overflow for any Im tau or
truncation.  The moduli come from one real exp over both signs; no pair
takes a cos/sin: a point has one phase e^(2 pi i Re(u - k_u tau)), times an
entry of a per-shift table per pair.  All orders are one Horner pass in w.
The quasi-period factor is left to the callers as k: log-derivatives see it
only as -2 pi i k in order 1, so wp and the theta quotients never form it
per pair.  Blocks of _BLOCK pairs keep the temporaries a few hundred KB.
Every step is elementwise on operands of one layout for any number of points
and shifts, so a pair's values are the same bits alone or anywhere in a long
call (a BLAS product rounds by position, and numpy rounds an in-place
product of one element like a scalar one).
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .lattice import Lattice

TAIL_EPS = 1e-18
# pairs per pass: the largest temporary, the Horner sums of every order on
# both signs, holds (order + 1) x 2 x _BLOCK complex values (512 KB at order 3)
_BLOCK = 4096
_SIGN = np.array([[[1.0]], [[-1.0]]])  # the signs of w, +n first
_SIGN_2PI = -2.0 * math.pi * _SIGN


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
def _coefficients(tau: complex, nt: int, order: int) -> list:
    """alpha[n-1][d] = (2 pi i n)^d q^(n^2 - n) e^(i pi n Re tau), the
    coefficient of w^n in the +n sum of order d = 0..order, as one
    (order + 1, 1, 1, 1) column per n."""
    n = np.arange(1, nt + 1)
    c = np.exp(1j * np.pi * (tau * (n * n - n) + tau.real * n))
    cols = [col.reshape(-1, 1, 1, 1) for col in ((2j * np.pi * n) ** np.arange(order + 1)[:, None] * c).T]
    for col in cols:
        col.flags.writeable = False  # shared by every caller through the cache
    return cols


@lru_cache(maxsize=128)
def _shift_table(tau: complex, shifts: tuple):
    """(Im c, offset, table) for the shifts c_j as columns: with k_c =
    round(Im c / Im tau) and x_c = Re(c - k_c tau) mod 1, table[3j + 1 + i] =
    e^(-2 pi i (x_c + i Re tau)) for i in {-1, 0, 1}, and offset = k_c +
    3j + 1, so a pair reduced by k reads entry k - k_u + offset."""
    c = np.array(shifts, dtype=complex)[:, None]
    kc = np.rint(c.imag / tau.imag)
    xc = c.real - kc * tau.real
    table = np.exp(-2j * np.pi * (xc - np.rint(xc) + np.array([-1.0, 0.0, 1.0]) * tau.real))
    out = c.imag, kc + 3.0 * np.arange(len(c))[:, None] + 1.0, table.ravel()
    for arr in out:
        arr.flags.writeable = False  # shared by every caller through the cache
    return out


def theta_sums(u, shifts, lat: Lattice, trunc: int | None = None, order: int = 0):
    """(sums, k) on every pair of a shift c_j and a point u_i of a 1-d array,
    indexed [..., j, i]: sums[d] is theta^(d) at the band-reduced argument
    z_r = u_i - c_j - k tau - m, k a float array of integers, so that

        theta^(d)(u_i - c_j) = exp(L) sum_l C(d, l) (-2 pi i k)^(d-l) sums[l],
        L = i pi k^2 tau - 2 pi i k (u_i - c_j).
    """
    tau = lat.tau
    nt = trunc if trunc is not None else _term_count(tau.imag)
    alpha = _coefficients(tau, nt, order)
    yc, offset, table = _shift_table(tau, tuple(shifts))
    u = np.asarray(u, dtype=complex).reshape(-1)
    sums = np.empty((order + 1, len(yc), u.size), dtype=complex)
    k = np.empty(sums.shape[1:])
    step = max(1, _BLOCK // len(yc))
    for s in range(0, u.size, step):
        ub = u[None, s:s + step]
        # per point: k_u and x_u = Re(u - k_u tau) mod 1
        ku = np.rint(ub.imag / tau.imag)
        xu = ub.real - ku * tau.real
        xu -= np.rint(xu)
        # per pair: k, Im z_r and the phase e^(2 pi i Re z_r); fmax sends the
        # NaN index of a non-finite point (NaN through yr anyway) to entry 0
        yr = ub.imag - yc
        kk = np.rint(yr / tau.imag, out=k[:, s:s + step])
        yr -= kk * tau.imag
        ph = table.take(np.fmax(kk - ku + offset, 0.0).astype(np.intp), mode="clip")
        ph = ph * np.exp(2j * np.pi * xu)
        # w on both signs; negating z_r swaps them bitwise, so
        # theta(-z) = theta(z) exactly at the summation level
        mod = np.exp(_SIGN_2PI * yr - math.pi * tau.imag)
        w = np.empty(mod.shape, dtype=complex)
        np.multiply(mod, ph.real, out=w.real)
        np.multiply(mod, ph.imag * _SIGN, out=w.imag)
        # every order in one Horner pass on each sign; order d is the +n sum
        # plus (-1)^d the -n sum (an explicit trunc < 1 is the empty sum)
        acc = alpha[-1] * w if nt else np.zeros((order + 1,) + w.shape, dtype=complex)
        for a in alpha[-2::-1]:
            acc += a
            acc *= w
        acc[0] += 0.5  # theta's constant term, half on each sign
        np.add(acc[::2, 0], acc[::2, 1], out=sums[::2, :, s:s + step])
        np.subtract(acc[1::2, 0], acc[1::2, 1], out=sums[1::2, :, s:s + step])
    return sums, k


def _shifted_derivs(z, shift: complex, lat: Lattice, trunc: int | None, order: int):
    """(derivs, log_factor) with theta^(d)(z - shift) = derivs[d] * exp(log_factor)."""
    z = np.asarray(z, dtype=complex)
    d, k = theta_sums(z, [shift], lat, trunc, order)
    d, k = d[:, 0], k[0]
    logf = k * (1j * np.pi * lat.tau * k - 2j * np.pi * (z.reshape(-1) - shift))
    a = -2j * np.pi * k
    # the binomial sum over l, as `order` passes of d[l] += a * d[l-1]
    for i in range(order):
        d[i + 1:] += a * d[i:-1]
    if z.ndim == 0:
        return d[:, 0], logf[0]
    return d.reshape((order + 1,) + z.shape), logf.reshape(z.shape)


def theta_derivs_reduced(z, lat: Lattice, trunc: int | None = None, order: int = 0):
    """(derivs, log_factor) with theta^(d)(z) = derivs[d] * exp(log_factor)
    for d = 0..order; the quasi-period factor is split off as log_factor.

    z may be a scalar or an array of any shape; a point's values do not
    depend on that shape or on its place in the array.
    """
    return _shifted_derivs(z, 0.0, lat, trunc, order)


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
    vals, logf = _shifted_derivs(z, (1.0 + lat.tau) / 2.0 + getattr(x, "rep", x), lat, trunc, 0)
    return vals[0] * np.exp(logf)
