"""Deterministic report rendering: JSON with sorted keys and fixed float
formatting, CSV rows, and a minimal SVG backend for curve traces.

Byte output is reproducible across runs for fixed inputs: floats print with
17 significant digits, dictionary keys are sorted, documents end with a
newline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import UnsupportedFormatError


def fmt_float(x: float) -> str:
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return format(x, ".17g")


def _json_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return fmt_float(v)
    if isinstance(v, str):
        out = v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_json_value(x) for x in v) + "]"
    if isinstance(v, dict):
        items = sorted(v.items())
        return "{" + ",".join(f'{_json_value(str(k))}:{_json_value(x)}' for k, x in items) + "}"
    raise TypeError(f"cannot serialize {type(v)!r}")


def to_json_bytes(doc: dict) -> bytes:
    return (_json_value(doc) + "\n").encode()


def to_csv_bytes(header: list[str], rows: list[list]) -> bytes:
    def cell(v) -> str:
        if isinstance(v, float):
            return fmt_float(v)
        return str(v)

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


@dataclass
class SvgCanvas:
    """Fixed-viewport SVG assembled from primitive elements."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    width: int = 640
    height: int = 640
    elements: list[str] = field(default_factory=list)

    def _map(self, x: float, y: float) -> tuple[float, float]:
        px = (x - self.xmin) / (self.xmax - self.xmin) * self.width
        py = (self.ymax - y) / (self.ymax - self.ymin) * self.height
        return px, py

    def polyline(self, pts: list[tuple[float, float]], color: str = "black",
                 width: float = 1.2):
        if len(pts) < 2:
            return
        mapped = " ".join(
            f"{fmt_float(px)},{fmt_float(py)}" for px, py in (self._map(x, y) for x, y in pts)
        )
        self.elements.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="{fmt_float(width)}" points="{mapped}"/>'
        )

    def segment(self, a, b, color="gray", width=0.8):
        self.polyline([a, b], color, width)

    def circle(self, x: float, y: float, r_px: float = 3.5, color: str = "red"):
        px, py = self._map(x, y)
        self.elements.append(
            f'<circle cx="{fmt_float(px)}" cy="{fmt_float(py)}" r="{fmt_float(r_px)}" fill="{color}"/>'
        )

    def render(self) -> bytes:
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">'
        )
        body = "".join(self.elements)
        return (head + body + "</svg>\n").encode()


def marching_segments(fun, xmin, xmax, ymin, ymax, n=160):
    """Zero-level segments of a real function on an n x n grid (marching
    squares, 4-case edge interpolation; saddle cells split arbitrarily but
    deterministically).

    `fun` is called once, with the (n, n) meshgrid arrays x and y, and must
    return the (n, n) array of values. Each cell's edges are walked
    counter-clockwise from its lower-left corner; an edge contributes its
    start corner when the value there is exactly 0, else the linear crossing
    when its end values differ in sign. Cells are visited row by row, and the
    distinct points of a cell are paired in order.
    """
    import numpy as np

    xs = np.linspace(xmin, xmax, n)
    ys = np.linspace(ymin, ymax, n)
    gx, gy = np.meshgrid(xs, ys)
    vals = np.asarray(fun(gx, gy), dtype=float)
    # [j, i, k]: corner k of cell (j, i), counter-clockwise from (xs[i], ys[j]);
    # edge k runs from corner k to corner k + 1
    cells = (np.s_[:-1, :-1], np.s_[:-1, 1:], np.s_[1:, 1:], np.s_[1:, :-1])
    x0, y0, v0 = (np.stack([a[c] for c in cells], axis=-1) for a in (gx, gy, vals))
    x1, y1, v1 = (np.roll(a, -1, axis=-1) for a in (x0, y0, v0))
    at = v0 == 0.0
    hit = at | ((v0 < 0) != (v1 < 0))
    with np.errstate(divide="ignore", invalid="ignore"):  # only on edges without a hit
        t = v0 / (v0 - v1)
        px = np.where(at, x0, x0 + t * (x1 - x0))
        py = np.where(at, y0, y0 + t * (y1 - y0))
    jj, ii = np.nonzero(hit.sum(axis=-1) >= 2)
    segs = []
    for on, xk, yk in zip(hit[jj, ii].tolist(), px[jj, ii].tolist(), py[jj, ii].tolist()):
        pts = list(dict.fromkeys(p for p, h in zip(zip(xk, yk), on) if h))
        segs.extend(zip(pts[::2], pts[1::2]))
    return segs


def render_report(fmt: str, json_doc: dict, csv_doc=None, svg_fn=None) -> bytes:
    """Dispatch on the requested output format; raises
    UnsupportedFormatError when the subcommand has no such rendering."""
    if fmt == "json":
        return to_json_bytes(json_doc)
    if fmt == "csv":
        if csv_doc is None:
            raise UnsupportedFormatError("no CSV rendering for this result")
        header, rows = csv_doc
        return to_csv_bytes(header, rows)
    if fmt == "svg":
        if svg_fn is None:
            raise UnsupportedFormatError("no SVG rendering for this result")
        return svg_fn()
    raise UnsupportedFormatError(f"unknown format {fmt!r}")
