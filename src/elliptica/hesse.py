"""The Hesse pencil x^3 + y^3 + z^3 + t x y z: inflection and dual-tangent
tables, the 84-case concurrency scan, the pencil's j-map and the
equianharmonic predicate.

One table, `_dual_rows_exact` over Z[eps] (eps = exp(2 pi i / 3)), holds
the nine dual tangents; each entry is linear in t. The float rows A + t B
are read off it once at import (A = rows(0), B = rows(1) - A), and one
batched kernel, `concurrency_det_moduli`, takes all 84 determinants for a
scalar or an array of t. The exact mode reads t = a + b*eps with rational
a, b, clears denominators and takes the determinants in integer Z[eps]
arithmetic, so the classification of special t values carries no
floating-point tolerance at all.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .cubic import EPS, Cubic, hesse_cubic, _hesse_inflection_table
from .errors import SingularInputError
from .lattice import CLASSIFY_TOL, Lattice, LatticeKind, _j_pair, classify_lattice
from .projective import ProjPoint, point_from_vec
from .sphere import chordal, sphere_from_pair

CONCURRENCY_TOL = 1e-9

# the four smooth and three singular parameters with concurrent tangents
SPECIAL_SMOOTH = (0.0 + 0j, 6.0 + 0j, 6.0 * EPS, 6.0 * EPS * EPS)
SPECIAL_SINGULAR = (-3.0 + 0j, -3.0 * EPS, -3.0 * EPS * EPS)


def hesse_data(t: complex) -> tuple[Cubic, list[ProjPoint], list[ProjPoint]]:
    """(cubic, inflection points, dual tangent coordinates); the k-th dual is
    the tangent at the k-th inflection point for every t."""
    duals = [point_from_vec(r) for r in _ROWS_A + complex(t) * _ROWS_B]
    return hesse_cubic(t), _hesse_inflection_table(), duals


def concurrency_det_moduli(t) -> np.ndarray:
    """Moduli of the 84 concurrency determinants, shape t.shape + (84,), for
    a scalar or an array of parameters t; entry i belongs to TRIPLES[i].

    Each dual row is scaled to largest modulus 1 before the 3x3
    determinant, so the moduli are comparable across t. The determinants
    are the cofactor expansion along the first row, taken elementwise over
    all triples at once.
    """
    rows = _ROWS_A + np.asarray(t, dtype=complex)[..., None, None] * _ROWS_B
    rows = rows / np.abs(rows).max(axis=-1, keepdims=True)
    (a, b, c), (d, e, f), (g, h, i) = np.moveaxis(rows[..., _TRIPLE_INDEX, :], (-2, -1), (0, 1))
    return np.abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))


def concurrency_scan(t: complex) -> list[tuple[int, int, int]]:
    """Unordered triples of distinct inflectional tangents whose dual points
    are collinear: normalized 3x3 determinant below CONCURRENCY_TOL.

    All 84 triples are scanned; a nonempty result at a smooth parameter
    happens exactly on the equianharmonic orbit t in {0, 6, 6 eps, 6 eps^2}.
    """
    return [TRIPLES[i] for i in np.flatnonzero(concurrency_det_moduli(complex(t)) <= CONCURRENCY_TOL)]


def concurrency_dets(t: complex) -> dict[tuple[int, int, int], float]:
    return dict(zip(TRIPLES, concurrency_det_moduli(complex(t)).tolist()))


@dataclass(frozen=True)
class QEps:
    """Element a + b*eps of Q(eps), eps^2 = -1 - eps, with exact rational
    parts; int parts keep the arithmetic in Z[eps]."""

    a: Fraction
    b: Fraction

    @staticmethod
    def of(a, b=0) -> "QEps":
        return QEps(Fraction(a), Fraction(b))

    def __add__(self, o: "QEps") -> "QEps":
        return QEps(self.a + o.a, self.b + o.b)

    def __sub__(self, o: "QEps") -> "QEps":
        return QEps(self.a - o.a, self.b - o.b)

    def __neg__(self) -> "QEps":
        return QEps(-self.a, -self.b)

    def __mul__(self, o: "QEps") -> "QEps":
        # (a1 + b1 e)(a2 + b2 e), e^2 = -1 - e
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        return QEps(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 - b1 * b2)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def to_complex(self) -> complex:
        return complex(self.a) + complex(self.b) * EPS


_Q0 = QEps(0, 0)
_Q3 = QEps(3, 0)
_QE = QEps(0, 1)  # eps
_QE2 = QEps(-1, -1)  # eps^2 = -1 - eps

EXACT_SPECIAL_SMOOTH = (
    QEps.of(0),
    QEps.of(6),
    QEps.of(6) * _QE,
    QEps.of(6) * _QE2,
)
EXACT_SPECIAL_SINGULAR = (
    QEps.of(-3),
    QEps.of(-3) * _QE,
    QEps.of(-3) * _QE2,
)


def _dual_rows_exact(t: QEps, three: QEps = _Q3) -> list[list[QEps]]:
    """The pencil's dual-tangent table; every entry is linear in t."""
    nt = -t
    # ordered so row k is the tangent at inflection k of the fixed table
    # (the classical tables list the two grids transposed to one another;
    # the gradient check pins this pairing down)
    return [
        [nt, three, three],
        [nt * _QE, three, three * _QE2],
        [nt * _QE2, three, three * _QE],
        [three, nt, three],
        [three, nt * _QE2, three * _QE],
        [three, nt * _QE, three * _QE2],
        [three, three, nt],
        [three, three * _QE2, nt * _QE],
        [three, three * _QE, nt * _QE2],
    ]


def _complex_rows(t: QEps) -> np.ndarray:
    return np.array([[q.to_complex() for q in r] for r in _dual_rows_exact(t)])


# the float rows are A + t B
_ROWS_A = _complex_rows(_Q0)
_ROWS_B = _complex_rows(QEps(1, 0)) - _ROWS_A
TRIPLES = list(combinations(range(9), 3))
_TRIPLE_INDEX = np.array(TRIPLES)


def _det3_exact(rows: list[list[QEps]]) -> QEps:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def concurrency_scan_exact(t: QEps) -> list[tuple[int, int, int]]:
    """Exact-arithmetic version of the scan for t = a + b*eps with rational
    a, b; returned triples have determinant exactly zero.

    With d the lcm of the denominators of a and b, d^3 times a determinant
    is the same table's determinant at the integer parameter d t with 3
    replaced by 3d, so the 84 determinants are taken in Z[eps].
    """
    a, b = Fraction(t.a), Fraction(t.b)
    d = math.lcm(a.denominator, b.denominator)
    rows = _dual_rows_exact(QEps(int(a * d), int(b * d)), QEps(3 * d, 0))
    return [trip for trip in TRIPLES if _det3_exact([rows[k] for k in trip]).is_zero()]


def hesse_j(t: complex) -> complex:
    """J = j / 1728 of the pencil's cubic, t -> 8 t^3 (1 - t^3/216)^3 /
    (27 (1 + t^3/27)^3), as a sphere value: divided by 27 (s^3/27)^4 the pair
    is [8 t'^3 (c - t'^3/8)^3 : c (c + t'^3)^3] in the terms of
    `Cubic._pencil_terms`, where no power of t overflows.  INF at t^3 = -27."""
    t3, c = hesse_cubic(t)._pencil_terms()
    m, d = c - t3 / 8.0, c + t3
    return sphere_from_pair(8.0 * t3 * m * m * m, c * d * d * d)


def is_equianharmonic(obj) -> bool:
    """Whether a lattice or cubic is the equianharmonic one (hexagonal
    lattice, j = 0, the unique smooth cubic with three concurrent
    inflectional tangents).  In both families a cubic's J is compared with 0
    as `weierstrass_invariants` compares two J, chordal within 2 CLASSIFY_TOL,
    and a cubic that `Cubic.is_smooth` calls singular is refused."""
    if isinstance(obj, Lattice):
        return classify_lattice(obj).kind is LatticeKind.HEXAGONAL
    if isinstance(obj, Cubic):
        if not obj.is_smooth():
            raise SingularInputError(f"{obj.family} cubic {obj.to_json()} is singular")
        j = sphere_from_pair(*_j_pair(obj.g2, obj.g3)) if obj.family == "weierstrass" else hesse_j(obj.t)
        return chordal(j, 0.0) <= 2.0 * CLASSIFY_TOL
    raise TypeError(f"expected Lattice or Cubic, got {type(obj)!r}")
