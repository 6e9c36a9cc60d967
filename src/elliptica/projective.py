"""Points and lines in the complex projective plane.

Homogeneous coordinates are normalized so the largest-modulus coordinate is
exactly 1; equality and distances are scale-free, via the norm of the
complex cross product.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _normalize(coords) -> tuple[complex, complex, complex]:
    v = np.asarray(coords, dtype=complex)
    if v.shape != (3,):
        raise ValueError("projective point needs 3 coordinates")
    mods = np.abs(v)
    if not np.isfinite(mods).all() or mods.max() == 0.0:
        raise ValueError(f"invalid homogeneous coordinates {coords}")
    pivot = int(np.argmax(mods))
    v = v / v[pivot]
    return (complex(v[0]), complex(v[1]), complex(v[2]))


@dataclass(frozen=True)
class ProjPoint:
    coords: tuple[complex, complex, complex]

    def __post_init__(self):
        object.__setattr__(self, "coords", _normalize(self.coords))

    @property
    def vec(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=complex)

    def distance(self, other: "ProjPoint") -> float:
        return proj_distance(self, other)

    def close_to(self, other: "ProjPoint", tol: float = 1e-9) -> bool:
        return proj_distance(self, other) <= tol

    def to_json(self) -> list:
        return [[c.real, c.imag] for c in self.coords]


def proj_point(a, b, c) -> ProjPoint:
    return ProjPoint((complex(a), complex(b), complex(c)))


def point_from_vec(v) -> ProjPoint:
    v = np.asarray(v, dtype=complex)
    return ProjPoint((complex(v[0]), complex(v[1]), complex(v[2])))


def cross(u, v) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return np.array(
        [
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        ]
    )


def proj_distance(p: ProjPoint, q: ProjPoint) -> float:
    """Scale-free distance: |p x q| / (|p| |q|); zero iff equal points."""
    u, v = p.vec, q.vec
    return float(
        np.linalg.norm(cross(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))
    )


@dataclass(frozen=True)
class ProjLine:
    """Line a X + b Y + c Z = 0 stored through its dual point [a, b, c]."""

    dual: ProjPoint

    def incidence(self, p: ProjPoint) -> float:
        """Normalized pairing |<dual, p>| / (|dual| |p|); zero iff p on the line."""
        d, v = self.dual.vec, p.vec
        return float(abs(np.dot(d, v)) / (np.linalg.norm(d) * np.linalg.norm(v)))

    def spanning_points(self) -> tuple[ProjPoint, ProjPoint]:
        """Two distinct points spanning the line."""
        a, b, c = self.dual.coords
        mods = [abs(a), abs(b), abs(c)]
        k = int(np.argmax(mods))
        if k == 0:
            v1, v2 = np.array([-b, a, 0j]), np.array([-c, 0j, a])
        elif k == 1:
            v1, v2 = np.array([b, -a, 0j]), np.array([0j, -c, b])
        else:
            v1, v2 = np.array([c, 0j, -a]), np.array([0j, c, -b])
        return point_from_vec(v1), point_from_vec(v2)


def line_through(p: ProjPoint, q: ProjPoint) -> ProjLine:
    """The unique line through two distinct points."""
    d = cross(p.vec, q.vec)
    return ProjLine(point_from_vec(d))


def lines_meet(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    """Intersection point of two distinct lines."""
    return point_from_vec(cross(l1.dual.vec, l2.dual.vec))


@dataclass(frozen=True)
class IntersectionList:
    """Curve intersection points with multiplicities summing to the Bezout
    total."""

    entries: tuple[tuple[ProjPoint, int], ...]

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def expand(self) -> list[ProjPoint]:
        return [p for p, m in self.entries for _ in range(m)]
