import cmath

import numpy as np
import pytest

from elliptica import hesse_cubic, make_lattice, weierstrass_cubic
from elliptica.report import marching_segments


def marching_segments_per_cell(fun, xmin, xmax, ymin, ymax, n=160):
    """The reference: one scalar call of fun per grid node and one pass of
    the 4-edge rule per cell."""
    xs = np.linspace(xmin, xmax, n)
    ys = np.linspace(ymin, ymax, n)
    vals = np.array([[fun(x, y) for x in xs] for y in ys])
    segs = []
    for j in range(n - 1):
        for i in range(n - 1):
            corners = [
                (xs[i], ys[j], vals[j, i]),
                (xs[i + 1], ys[j], vals[j, i + 1]),
                (xs[i + 1], ys[j + 1], vals[j + 1, i + 1]),
                (xs[i], ys[j + 1], vals[j + 1, i]),
            ]
            pts = []
            for k in range(4):
                x0, y0, v0 = corners[k]
                x1, y1, v1 = corners[(k + 1) % 4]
                if v0 == 0.0:
                    pts.append((x0, y0))
                elif (v0 < 0) != (v1 < 0):
                    t = v0 / (v0 - v1)
                    pts.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
            pts = list(dict.fromkeys(pts))
            if len(pts) >= 2:
                for k in range(0, len(pts) - 1, 2):
                    segs.append((pts[k], pts[k + 1]))
    return segs


def real_trace(cubic):
    # the real part of F on the affine chart z = 1, as the CLI's SVG draws it
    def fre(x, y):
        return cubic.F(np.array([x, y, np.ones_like(x)], dtype=complex)).real

    return fre


CUBICS = {
    "weierstrass-generic": weierstrass_cubic(make_lattice(1.0, 0.3 + 1.4j)),
    "weierstrass-square": weierstrass_cubic(make_lattice(1.0, 1j)),
    "weierstrass-hexagonal": weierstrass_cubic(make_lattice(1.0, cmath.exp(1j * cmath.pi / 3))),
    "hesse-2": hesse_cubic(2.0),
    "hesse--1+3i": hesse_cubic(-1.0 + 3.0j),
}


@pytest.mark.parametrize("name", list(CUBICS))
def test_cubic_traces_match_per_cell_reference(name):
    fun = real_trace(CUBICS[name])
    got = marching_segments(fun, -8.0, 8.0, -8.0, 8.0)
    assert len(got) > 100
    assert got == marching_segments_per_cell(fun, -8.0, 8.0, -8.0, 8.0)


@pytest.mark.parametrize(
    "fun, window, n",
    [
        # zero exactly on the diagonal nodes (xs and ys are the same array)
        (lambda x, y: x - y, (-1.0, 1.0, -1.0, 1.0), 21),
        # zero exactly on the node lines x = 1 and y = 2, crossing on a node
        (lambda x, y: (x - 1.0) * (y - 2.0), (0.0, 4.0, 0.0, 4.0), 9),
        # a saddle inside the cell [0.4, 0.6]^2: all four of its edges cross
        (lambda x, y: (x - 0.53) * (y - 0.47), (0.0, 1.0, 0.0, 1.0), 6),
    ],
    ids=["zero-diagonal", "zero-node-lines", "saddle"],
)
def test_special_cells_match_per_cell_reference(fun, window, n):
    got = marching_segments(fun, *window, n=n)
    assert got
    assert got == marching_segments_per_cell(fun, *window, n=n)


def test_positive_function_has_no_segments():
    fun = lambda x, y: x * x + y * y + 1.0  # noqa: E731
    assert marching_segments(fun, -1.0, 1.0, -1.0, 1.0, n=30) == []
    assert marching_segments_per_cell(fun, -1.0, 1.0, -1.0, 1.0, n=30) == []


def test_function_is_called_once_on_the_grid():
    shapes = []

    def fun(x, y):
        shapes.append((np.shape(x), np.shape(y)))
        return x + y - 0.1

    marching_segments(fun, -1.0, 1.0, -1.0, 1.0, n=12)
    assert shapes == [((12, 12), (12, 12))]
