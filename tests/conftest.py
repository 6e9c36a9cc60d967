import math

import mpmath
import numpy as np
import pytest

from elliptica import build_from_divisors, divisor, make_lattice, torus_distance

SQUARE = make_lattice(1.0, 1j)
HEXAGONAL = make_lattice(1.0, np.exp(1j * np.pi / 3.0))
GENERIC = make_lattice(1.0, 0.3 + 1.4j)
GENERIC2 = make_lattice(1.0, 2j)
# Im tau of the mpmath oracles, from the reduced hexagonal corner to 50
ORACLE_IM_TAUS = (math.sqrt(3.0) / 2.0, 1.0, 1.3, 2.0, 3.7, 6.0, 9.4, 12.0, 20.0, 35.0, 50.0)


def mp_theta(x, q, d=0):
    """theta^(d)(x) = pi^d jtheta(3, pi x, q, d) (DLMF 20.2.3) at mpmath's
    working precision, for q = exp(i pi tau)."""
    return mpmath.pi ** d * mpmath.jtheta(3, mpmath.pi * x, q, d)


def mp_wp(z, tau):
    """(n, 2) array of [wp(x), wp'(x)] for the n points x of z on the
    lattice Z + tau Z, in mpmath: wp = -(log B)'' + C and wp' = -(log B)'''
    for B(u) = theta(u - h), h = (1+tau)/2, with C = B'''(0)/(3 B'(0)) -
    (B''(0)/B'(0))^2/4; at 50 digits, plus the 2 Im tau that jtheta's own
    sum cancels at |Im x| ~ Im tau."""
    with mpmath.workdps(50 + int(2 * complex(tau).imag)):
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
        h = (1 + mpmath.mpc(tau)) / 2
        b = [mp_theta(-h, q, d) for d in range(4)]
        c = b[3] / (3 * b[1]) - (b[2] / b[1]) ** 2 / 4
        ref = []
        for x in np.ravel(z):
            b = [mp_theta(mpmath.mpc(x) - h, q, d) for d in range(4)]
            r1, r2, r3 = b[1] / b[0], b[2] / b[0], b[3] / b[0]
            ref.append([complex(r1 * r1 - r2 + c), complex(-(r3 - 3 * r1 * r2 + 2 * r1 ** 3))])
    return np.array(ref)


@pytest.fixture
def square():
    return SQUARE


@pytest.fixture
def hexagonal():
    return HEXAGONAL


@pytest.fixture
def generic():
    return GENERIC


def random_torus_points(rng, lat, n, min_sep=0.05):
    """n torus-point lifts with pairwise separation at least min_sep (in
    units of |omega1|), rejection-sampled."""
    out = []
    scale = abs(lat.omega1)
    while len(out) < n:
        z = complex(
            rng.uniform(0.04, 0.96) * lat.omega1.real
            + rng.uniform(0.04, 0.96) * lat.omega2.real,
            rng.uniform(0.04, 0.96) * lat.omega1.imag
            + rng.uniform(0.04, 0.96) * lat.omega2.imag,
        )
        if all(torus_distance(z, w, lat) > min_sep * scale for w in out):
            out.append(z)
    return out


def random_abel_function(rng, lat, degree=3, min_sep=0.05):
    """Random degree-n elliptic function: simple zeros and poles with the
    last point of each divisor closing the Abel condition exactly."""
    while True:
        pts = random_torus_points(rng, lat, 2 * (degree - 1), min_sep)
        zeros = pts[: degree - 1]
        poles = pts[degree - 1 :]
        zlast = -sum(zeros)
        plast = -sum(poles)
        allpts = zeros + [zlast] + poles + [plast]
        ok = all(
            torus_distance(allpts[i], allpts[j], lat) > min_sep * abs(lat.omega1)
            for i in range(len(allpts))
            for j in range(i + 1, len(allpts))
        )
        if ok:
            return build_from_divisors(
                divisor([(z, 1) for z in zeros + [zlast]], lat),
                divisor([(p, 1) for p in poles + [plast]], lat),
                lat,
            )
