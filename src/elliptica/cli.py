"""Command-line front end.

Complex numbers on the command line are re,im pairs ("0.5,-1.25");
projective points are three such pairs; divisor points are re,im,mult
triples.  In --exact mode the Hesse parameter is read as a,b with rational
a, b meaning a + b*eps (eps = exp(2 pi i/3)), since the special parameters
6*eps and 6*eps^2 have no finite decimal re,im form.

All stochastic choices (subdivision shifts, generic coordinate changes,
loop sampling) are driven by --seed, so reports are byte-reproducible.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import covering, hesse
from .cubic import Cubic, hesse_cubic, inflection_points, weierstrass_cubic
from .divisors import divisor, abel_defect, locate_divisor_pair
from .elliptic import (
    EllipticFunction,
    build_from_divisors,
    decompose_degree2,
    wp_evaluable,
    wp_pair,
)
from .errors import EllipticaError, InvalidArgumentError, NonFiniteResultError
from .lattice import (
    Lattice,
    classify_lattice,
    lattice_to_json,
    make_lattice,
    weierstrass_invariants,
)
from .projective import ProjPoint, point_from_vec
from .report import SvgCanvas, marching_segments, render_report, to_json_bytes
from .sphere import INF
from .theta import THETA_TRUNC, theta


@dataclass
class RunConfig:
    lattice: Lattice | None
    seed: int
    fmt: str
    out: str | None


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected re,im, got {text!r}")
    return complex(float(parts[0]), float(parts[1]))


def _parse_divisor_point(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected re,im,mult, got {text!r}")
    return complex(float(parts[0]), float(parts[1])), int(parts[2])


def _pair(v: complex) -> list[float]:
    return [v.real, v.imag]


def _sphere_json(v: complex):
    # only the pole value itself prints as "inf"; NaN stays a number and is
    # refused by the finiteness check
    if v == INF:
        return "inf"
    return _pair(v)


def _nonfinite_field(v, path: str) -> str | None:
    """Path (such as "p[0]") of the first NaN or infinite number in a report,
    or None."""
    if isinstance(v, float):
        return None if math.isfinite(v) else path
    if isinstance(v, dict):
        items = ((f"{path}.{k}" if path else str(k), x) for k, x in v.items())
    elif isinstance(v, (list, tuple)):
        items = ((f"{path}[{i}]", x) for i, x in enumerate(v))
    else:
        return None
    for sub, x in items:
        hit = _nonfinite_field(x, sub)
        if hit is not None:
            return hit
    return None


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--omega1", type=_parse_complex, help="first lattice generator re,im")
    p.add_argument("--omega2", type=_parse_complex, help="second lattice generator re,im")
    p.add_argument("--tau", type=_parse_complex, help="lattice Z + tau Z")
    p.add_argument("--seed", type=int, default=0, help="seed for all randomized choices")
    p.add_argument("--format", dest="fmt", choices=["json", "csv", "svg"], default="json")
    p.add_argument("--out", help="write the report here instead of stdout")


def _config(args) -> RunConfig:
    lat = None
    if args.tau is not None and (args.omega1 is not None or args.omega2 is not None):
        raise EllipticaError("give either --tau or --omega1/--omega2, not both")
    if args.tau is not None:
        lat = make_lattice(1.0, args.tau)
    elif args.omega1 is not None or args.omega2 is not None:
        if args.omega1 is None or args.omega2 is None:
            raise EllipticaError("--omega1 and --omega2 must be given together")
        lat = make_lattice(args.omega1, args.omega2)
    return RunConfig(lat, args.seed, args.fmt, args.out)


def _require_lattice(cfg: RunConfig) -> Lattice:
    if cfg.lattice is None:
        raise EllipticaError("this subcommand requires --tau or --omega1/--omega2")
    return cfg.lattice


def _function_from_args(args, lat: Lattice) -> EllipticFunction:
    if getattr(args, "fn", None):
        import json as _json

        with open(args.fn) as fh:
            return EllipticFunction.from_json(_json.load(fh))
    if not args.zeros or not args.poles:
        raise EllipticaError("give --zeros and --poles (re,im,mult each) or --fn FILE")
    zeros = divisor(args.zeros, lat)
    poles = divisor(args.poles, lat)
    return build_from_divisors(zeros, poles, lat)


def _cubic_from_args(args, cfg: RunConfig) -> tuple[Cubic, Lattice | None]:
    if getattr(args, "t", None) is not None:
        return hesse_cubic(args.t), None
    lat = _require_lattice(cfg)
    return weierstrass_cubic(lat), lat


def _point_from_pairs(pairs) -> ProjPoint:
    try:
        return point_from_vec(np.array(pairs, dtype=complex))
    except ValueError as exc:
        raise InvalidArgumentError(f"--q: {exc}") from None


def _window_of(points) -> float:
    mags = []
    for p in points or []:
        x, y, z = p.coords
        if abs(z) > 1e-6:
            mags.extend([abs(x / z), abs(y / z)])
    mags = [m for m in mags if m < 50.0] or [1.0]
    return max(2.0, 1.3 * float(np.max(mags)))


def _line_window_segment(dual, w):
    # real-part trace of the line a x + b y + c = 0 clipped to the window
    a, b, c = (v.real for v in dual.coords)
    pts = []
    for x in (-w, w):
        if abs(b) > 1e-12:
            y = -(a * x + c) / b
            if -w <= y <= w:
                pts.append((x, y))
    for y in (-w, w):
        if abs(a) > 1e-12:
            x = -(b * y + c) / a
            if -w <= x <= w:
                pts.append((x, y))
    return pts[:2] if len(pts) >= 2 else None


def _cubic_svg(cubic: Cubic, lat, extra_points=None, lines=None, paths=None):
    def make() -> bytes:
        pts = extra_points or []
        w = _window_of(pts)
        canvas = SvgCanvas(-w, w, -w, w)

        def fre(x, y):
            return cubic.F(np.array([x, y, 1.0], dtype=complex)).real

        for a, b in marching_segments(fre, -w, w, -w, w):
            canvas.segment(a, b, color="black", width=1.0)
        for dual in lines or []:
            seg = _line_window_segment(dual, w)
            if seg:
                canvas.segment(seg[0], seg[1], color="steelblue", width=0.7)
        for path in paths or []:
            trace = [
                ((x / z).real, (y / z).real)
                for x, y, z in (p.coords for p in path)
                if abs(z) > 1e-9
            ]
            canvas.polyline(trace, color="darkorange", width=0.9)
        for p in pts:
            x, y, z = p.coords
            if abs(z) > 1e-9:
                canvas.circle((x / z).real, (y / z).real)
        return canvas.render()

    return make


def _cmd_lattice(args, cfg: RunConfig):
    lat = _require_lattice(cfg)
    cls = classify_lattice(lat)
    g2, g3 = weierstrass_invariants(lat)
    doc = {
        "lattice": lattice_to_json(lat),
        "tau": _pair(lat.tau),
        "class": {"kind": cls.kind.value, "automorphism_count": cls.automorphism_count},
        "g2": _pair(g2),
        "g3": _pair(g3),
    }
    header = ["omega1_re", "omega1_im", "omega2_re", "omega2_im", "kind", "aut"]
    row = [lat.omega1.real, lat.omega1.imag, lat.omega2.real, lat.omega2.imag,
           cls.kind.value, cls.automorphism_count]
    return doc, (header, [row]), None


def _cmd_theta(args, cfg: RunConfig):
    lat = _require_lattice(cfg)
    v = theta(args.z, lat, args.trunc)
    return {"z": _pair(args.z), "value": _pair(complex(v))}, None, None


def _cmd_wp(args, cfg: RunConfig):
    lat = _require_lattice(cfg)
    p, pp = wp_pair(args.z, lat, trunc=args.trunc)
    return {"z": _pair(args.z), "p": _sphere_json(p), "pprime": _sphere_json(pp)}, None, None


def _cmd_build_fn(args, cfg: RunConfig):
    lat = _require_lattice(cfg)
    f = _function_from_args(args, lat)
    return f.to_json(), None, None


def _cmd_decompose2(args, cfg: RunConfig):
    lat = _require_lattice(cfg)
    f = _function_from_args(args, lat)
    g, t = decompose_degree2(f)
    doc = {
        "mobius": {"a": _pair(g.a), "b": _pair(g.b), "c": _pair(g.c), "d": _pair(g.d)},
        "t": _pair(t.rep),
    }
    return doc, None, None


def _cmd_zeros(args, cfg: RunConfig):
    lat = _require_lattice(cfg)
    if args.wp:
        fn = wp_evaluable(lat)
        zeros, poles = locate_divisor_pair(fn, lat, seed=cfg.seed)
    else:
        f = _function_from_args(args, lat)
        zeros, poles = locate_divisor_pair(f, lat, seed=cfg.seed)
    defect = abel_defect(zeros, poles, lat)
    doc = {
        "zeros": zeros.to_json(),
        "poles": poles.to_json(),
        "abel_defect": defect,
    }
    rows = [["zero", *e] for e in zeros.to_json()] + [["pole", *e] for e in poles.to_json()]
    return doc, (["kind", "re", "im", "mult"], rows), None


def _cmd_cubic(args, cfg: RunConfig):
    cubic, lat = _cubic_from_args(args, cfg)
    doc = cubic.to_json()
    doc["smooth"] = cubic.is_smooth()
    infl = inflection_points(cubic, lat)
    from .cubic import tangent_line

    duals = [tangent_line(cubic, q, tol=1e-6).dual for q in infl]
    return doc, None, _cubic_svg(cubic, lat, infl, lines=duals)


def _cmd_inflections(args, cfg: RunConfig):
    cubic, lat = _cubic_from_args(args, cfg)
    infl = inflection_points(cubic, lat)
    doc = {"family": cubic.family, "inflections": [p.to_json() for p in infl]}
    rows = [
        [i] + [c for pair in p.to_json() for c in pair] for i, p in enumerate(infl)
    ]
    header = ["index", "x_re", "x_im", "y_re", "y_im", "z_re", "z_im"]
    from .cubic import tangent_line

    duals = [tangent_line(cubic, q, tol=1e-6).dual for q in infl]
    return doc, (header, rows), _cubic_svg(cubic, lat, infl, lines=duals)


def _cmd_hesse_scan(args, cfg: RunConfig):
    if args.grid is not None:
        n, r = args.grid, args.radius
        rows = []
        hits = []
        for re in np.linspace(-r, r, n):
            for im in np.linspace(-r, r, n):
                t = complex(re, im)
                triples = hesse.concurrency_scan(t, args.tol if args.tol < 1 else 1e-9)
                if triples:
                    dets = hesse.concurrency_dets(t)
                    for trip in triples:
                        rows.append([re, im, "|".join(map(str, trip)), dets[trip]])
                    hits.append({"t": [re, im], "triples": [list(tr) for tr in triples]})
        doc = {"grid": n, "radius": r, "hits": hits}
        return doc, (["t_re", "t_im", "triple_indices", "det_modulus"], rows), None
    if args.t_raw is None:
        raise EllipticaError("hesse-scan needs --t or --grid/--radius")
    try:
        if args.exact:
            a_s, b_s = args.t_raw.split(",")
            tq = hesse.QEps(Fraction(a_s), Fraction(b_s))
        else:
            t_c = _parse_complex(args.t_raw)
    except (ValueError, ZeroDivisionError, argparse.ArgumentTypeError) as exc:
        raise InvalidArgumentError(f"--t {args.t_raw!r}: {exc}") from None
    if args.exact:
        triples = hesse.concurrency_scan_exact(tq)
        t_c = tq.to_complex()
        doc = {
            "t": _pair(t_c),
            "t_exact": [str(tq.a), str(tq.b)],
            "exact": True,
            "concurrent_triples": [list(tr) for tr in triples],
        }
        dets = hesse.concurrency_dets(t_c)
    else:
        triples = hesse.concurrency_scan(t_c, args.tol if args.tol < 1 else 1e-9)
        doc = {
            "t": _pair(t_c),
            "exact": False,
            "concurrent_triples": [list(tr) for tr in triples],
        }
        dets = hesse.concurrency_dets(t_c)
    rows = [
        [t_c.real, t_c.imag, "|".join(map(str, trip)), dets[trip]]
        for trip in triples
    ]
    return doc, (["t_re", "t_im", "triple_indices", "det_modulus"], rows), None


def _cmd_fiber(args, cfg: RunConfig):
    cubic, lat = _cubic_from_args(args, cfg)
    q = _point_from_pairs(args.q)
    fib = covering.lambda_fiber(cubic, q, seed=cfg.seed)
    doc = {
        "base": q.to_json(),
        "entries": [
            {"point": p.to_json(), "multiplicity": m} for p, m in fib.entries
        ],
        "total": fib.total,
    }
    rows = [
        [i, m] + [c for pair in p.to_json() for c in pair]
        for i, (p, m) in enumerate(fib.entries)
    ]
    header = ["index", "mult", "x_re", "x_im", "y_re", "y_im", "z_re", "z_im"]
    pts = [p for p, _ in fib.entries] + [q]
    return doc, (header, rows), _cubic_svg(cubic, lat, pts)


def _cmd_branch_divisors(args, cfg: RunConfig):
    lat = _require_lattice(cfg)
    f = _function_from_args(args, lat)
    doc = {}
    if args.method in ("tangents", "both"):
        divs = covering.branch_divisors_via_tangents(f, lat, seed=cfg.seed)
        doc["via_tangents"] = [d.to_json() for d in divs]
    if args.method in ("direct", "both"):
        divs = covering.branch_divisors_direct(f, lat, seed=cfg.seed)
        doc["direct"] = [d.to_json() for d in divs]
    return doc, None, None


def _cmd_monodromy(args, cfg: RunConfig):
    lat = _require_lattice(cfg)
    cubic = weierstrass_cubic(lat)
    rng = np.random.default_rng(cfg.seed)
    if args.q:
        q0 = _point_from_pairs(args.q)
    else:
        while True:
            q0 = point_from_vec(rng.standard_normal(6).view(np.complex128))
            if not cubic.on_curve(q0, 1e-4):
                # generous clearance from the critical locus keeps the loop
                # tails well conditioned
                onc, _ = covering.critical_locus_check(cubic, q0, lat, tol=1e-2)
                if not onc:
                    break
    loops = covering.tangent_loop_library(
        cubic, q0, lat, seed=cfg.seed, circle_samples=args.circle_samples
    )
    perms, transitive, order = covering.monodromy_group(cubic, q0, loops, seed=cfg.seed)
    doc = {
        "basepoint": q0.to_json(),
        "generators": [list(p.images) for p in perms],
        "transitive": transitive,
        "group_order": order,
    }
    fib0 = covering.lambda_fiber(cubic, q0, seed=cfg.seed)
    svg = _cubic_svg(
        cubic, lat, [q0] + fib0.points(), paths=[lp.samples for lp in loops]
    )
    return doc, None, svg


_HANDLERS = {
    "lattice": _cmd_lattice,
    "theta": _cmd_theta,
    "wp": _cmd_wp,
    "build-fn": _cmd_build_fn,
    "decompose2": _cmd_decompose2,
    "zeros": _cmd_zeros,
    "cubic": _cmd_cubic,
    "inflections": _cmd_inflections,
    "hesse-scan": _cmd_hesse_scan,
    "fiber": _cmd_fiber,
    "branch-divisors": _cmd_branch_divisors,
    "monodromy": _cmd_monodromy,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="elliptica",
        description="elliptic functions, plane cubics and their tangency covering",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        sp = sub.add_parser(name, **kw)
        _add_common(sp)
        return sp

    add("lattice", help="normalize, classify and report invariants")
    for name, hlp in [
        ("theta", "evaluate the Jacobi theta function"),
        ("wp", "evaluate wp and wp'"),
    ]:
        sp = add(name, help=hlp)
        sp.add_argument("--z", type=_parse_complex, required=True)
        sp.add_argument("--trunc", type=int, default=THETA_TRUNC, help="theta truncation")
    for name, hlp in [
        ("build-fn", "build an elliptic function from divisors"),
        ("decompose2", "degree-2 normal form g o wp o translation"),
        ("zeros", "locate zero and pole divisors numerically"),
        ("branch-divisors", "branch divisors of a degree-3 function"),
    ]:
        sp = add(name, help=hlp)
        sp.add_argument("--zeros", type=_parse_divisor_point, action="append")
        sp.add_argument("--poles", type=_parse_divisor_point, action="append")
        sp.add_argument("--fn", help="EllipticFunction JSON file")
        if name == "zeros":
            sp.add_argument("--wp", action="store_true", help="use the wp function")
        if name == "branch-divisors":
            sp.add_argument(
                "--method", choices=["tangents", "direct", "both"], default="both"
            )
    for name, hlp in [
        ("cubic", "weierstrass or hesse cubic report"),
        ("inflections", "the nine inflection points"),
    ]:
        sp = add(name, help=hlp)
        sp.add_argument("--t", type=_parse_complex, help="hesse parameter re,im")
    sp = add("hesse-scan", help="84-case concurrency scan")
    sp.add_argument("--t", dest="t_raw", help="re,im (float mode) or a,b rationals meaning a+b*eps (--exact)")
    sp.add_argument("--exact", action="store_true", help="exact Q(eps) determinants")
    sp.add_argument("--grid", type=int, help="scan an n x n grid of t values")
    sp.add_argument("--radius", type=float, default=8.0, help="grid half-width")
    sp.add_argument("--tol", type=float, default=1e-9, help="concurrency tolerance")
    sp = add("fiber", help="tangency fiber over a base point")
    sp.add_argument("--t", type=_parse_complex, help="hesse parameter re,im")
    sp.add_argument("--q", type=_parse_complex, nargs=3, required=True,
                    help="base point: three re,im pairs")
    sp = add("monodromy", help="monodromy of the 6-sheeted tangency covering")
    sp.add_argument("--q", type=_parse_complex, nargs=3,
                    help="base point (default: seeded generic point)")
    sp.add_argument("--circle-samples", type=int, default=48)
    return p


def _run(argv: list[str]):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config(args)
        json_doc, csv_doc, svg_fn = _HANDLERS[args.command](args, cfg)
        field = _nonfinite_field(json_doc, "") or _nonfinite_field(csv_doc and csv_doc[1], "rows")
        if field is not None:
            raise NonFiniteResultError(
                f"{args.command} computed a non-finite value at {field}", field=field
            )
        payload = render_report(cfg.fmt, json_doc, csv_doc, svg_fn)
        return 0, payload, cfg.out
    except EllipticaError as exc:
        return 1, to_json_bytes({"error": exc.to_json()}), None


def dispatch(argv: list[str]) -> tuple[int, bytes]:
    """Route argv to a subcommand; returns (exit status, report bytes).

    Domain errors yield status 1 with a structured error document; usage
    errors exit with status 2 through argparse.
    """
    status, payload, _ = _run(argv)
    return status, payload


def main(argv: list[str] | None = None) -> int:
    status, payload, out = _run(sys.argv[1:] if argv is None else argv)
    try:
        if status == 0 and out:
            with open(out, "wb") as fh:
                fh.write(payload)
        elif status == 0:
            sys.stdout.buffer.write(payload)
        else:
            sys.stderr.buffer.write(payload)
    except BrokenPipeError:
        pass
    return status


if __name__ == "__main__":
    sys.exit(main())
