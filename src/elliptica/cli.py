"""Command-line front end.

Complex numbers on the command line are re,im pairs ("0.5,-1.25");
projective points are three such pairs; divisor points are re,im,mult
triples.  In --exact mode the Hesse parameter is read as a,b with rational
a, b meaning a + b*eps (eps = exp(2 pi i/3)), since the special parameters
6*eps and 6*eps^2 have no finite decimal re,im form.

Each subcommand accepts only the options it reads, all declared in one
call in build_parser, and no option may be abbreviated.  Every subcommand
but hesse-scan takes a lattice, as --tau or as --omega1 with --omega2.
Options that would drop one another's input are refused as bad input:
--t with a lattice, --wp with --zeros, --poles or --fn, --fn with --zeros
or --poles, and --tol with --exact; so is a non-finite --z, --t or
divisor point.

Reports are byte-reproducible.  Only monodromy draws at random, its
basepoint and loop line from its --seed; the subdivision re-shifts of zero
location come from one fixed stream, and the fiber solve makes no choice.
monodromy lists twelve lasso transpositions in angular order with their
kinds (a tangent index or "cubic"), certified by their product.
"""
from __future__ import annotations

import argparse
import cmath
import math
import re
import sys
from fractions import Fraction

import numpy as np

from . import covering, hesse
from .cubic import Cubic, hesse_cubic, inflection_points, tangent_line, weierstrass_cubic
from .divisors import divisor, abel_defect, locate_divisor_pair
from .elliptic import (
    EllipticFunction,
    build_from_divisors,
    decompose_degree2,
    wp_evaluable,
    wp_pair,
)
from .errors import EllipticaError, InternalError, InvalidArgumentError, NonFiniteResultError
from .lattice import (
    CLASSIFY_TOL,
    Lattice,
    classify_lattice,
    lattice_to_json,
    make_lattice,
    weierstrass_invariants,
)
from .projective import ProjPoint, point_from_vec
from .report import SvgCanvas, marching_segments, render_report, to_json_bytes
from .sphere import INF
from .theta import theta


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected re,im, got {text!r}")
    return complex(float(parts[0]), float(parts[1]))


def _parse_divisor_point(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected re,im,mult, got {text!r}")
    mult = int(parts[2])
    if mult < 1:
        raise argparse.ArgumentTypeError(f"multiplicity must be at least 1, got {text!r}")
    return complex(float(parts[0]), float(parts[1])), mult


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


def _finite(flag: str, z: complex) -> complex:
    """z, refused as bad input unless finite: a NaN or infinite point would
    fail deep inside the library instead."""
    if not cmath.isfinite(z):
        raise InvalidArgumentError(f"{flag} must be finite, got {z.real},{z.imag}")
    return z


def _require_lattice(args) -> Lattice:
    if args.tau is not None and (args.omega1 is not None or args.omega2 is not None):
        raise InvalidArgumentError("give either --tau or --omega1/--omega2, not both")
    if args.tau is not None:
        return make_lattice(1.0, args.tau)
    if args.omega1 is None and args.omega2 is None:
        raise InvalidArgumentError("this subcommand requires --tau or --omega1/--omega2")
    if args.omega1 is None or args.omega2 is None:
        raise InvalidArgumentError("--omega1 and --omega2 must be given together")
    return make_lattice(args.omega1, args.omega2)


def _function_from_args(args, lat: Lattice) -> EllipticFunction:
    if args.fn is not None and (args.zeros or args.poles):
        raise InvalidArgumentError("give --zeros and --poles or --fn, not both")
    if args.fn is not None:
        import json as _json

        try:
            with open(args.fn) as fh:
                f = EllipticFunction.from_json(_json.load(fh))
        except OSError as exc:
            raise InvalidArgumentError(f"--fn {args.fn}: {exc.strerror}") from None
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            # malformed JSON, or JSON that is not an EllipticFunction document
            raise InvalidArgumentError(
                f"--fn {args.fn}: not an elliptic function document ({type(exc).__name__}: {exc})"
            ) from None
        # the same lattice: the file's basis is a unimodular integral change of ours
        (a, b), (c, d) = [lat.coords(w) for w in (f.lattice.omega1, f.lattice.omega2)]
        if max(abs(x - round(x)) for x in (a, b, c, d)) > CLASSIFY_TOL or abs(round(a * d - b * c)) != 1:
            raise InvalidArgumentError(f"--fn {args.fn}: the function was built on another lattice",
                                       fn_omega1=f.lattice.omega1, fn_omega2=f.lattice.omega2,
                                       omega1=lat.omega1, omega2=lat.omega2)
        return f
    if not args.zeros or not args.poles:
        raise InvalidArgumentError("give --zeros and --poles (re,im,mult each) or --fn FILE")
    zeros = divisor([(_finite("--zeros", z), m) for z, m in args.zeros], lat)
    poles = divisor([(_finite("--poles", z), m) for z, m in args.poles], lat)
    return build_from_divisors(zeros, poles, lat)


def _cubic_from_args(args) -> tuple[Cubic, Lattice | None]:
    if args.t is None:
        lat = _require_lattice(args)
        return weierstrass_cubic(lat), lat
    if args.tau is not None or args.omega1 is not None or args.omega2 is not None:
        raise InvalidArgumentError("give either --t or a lattice, not both")
    return hesse_cubic(_finite("--t", args.t)), None


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


def _cubic_svg(cubic: Cubic, extra_points=None, tangents=False, paths=None):
    def make() -> bytes:
        pts = extra_points or []
        w = _window_of(pts)
        canvas = SvgCanvas(-w, w, -w, w)

        def fre(x, y):
            return cubic.F(np.array([x, y, np.ones_like(x)], dtype=complex)).real

        for a, b in marching_segments(fre, -w, w, -w, w):
            canvas.segment(a, b, color="black", width=1.0)
        for q in pts if tangents else []:
            seg = _line_window_segment(tangent_line(cubic, q, tol=1e-6).dual, w)
            if seg:
                canvas.segment(seg[0], seg[1], color="steelblue", width=0.7)
        for x, y, z in (path[np.abs(path[:, 2]) > 1e-9].T for path in paths or []):
            canvas.polyline(list(zip((x / z).real, (y / z).real)), color="darkorange", width=0.9)
        for p in pts:
            x, y, z = p.coords
            if abs(z) > 1e-9:
                canvas.circle((x / z).real, (y / z).real)
        return canvas.render()

    return make


def _cmd_lattice(args):
    lat = _require_lattice(args)
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


def _trunc(args) -> int | None:
    if args.trunc is not None and args.trunc < 0:
        raise InvalidArgumentError(f"--trunc must be at least 0, got {args.trunc}")
    return args.trunc


def _cmd_theta(args):
    lat = _require_lattice(args)
    v = theta(_finite("--z", args.z), lat, _trunc(args))
    return {"z": _pair(args.z), "value": _pair(complex(v))}, None, None


def _cmd_wp(args):
    lat = _require_lattice(args)
    p, pp = wp_pair(_finite("--z", args.z), lat, trunc=_trunc(args))
    return {"z": _pair(args.z), "p": _sphere_json(p), "pprime": _sphere_json(pp)}, None, None


def _cmd_build_fn(args):
    lat = _require_lattice(args)
    f = _function_from_args(args, lat)
    return f.to_json(), None, None


def _cmd_decompose2(args):
    lat = _require_lattice(args)
    f = _function_from_args(args, lat)
    g, t = decompose_degree2(f)
    doc = {
        "mobius": {"a": _pair(g.a), "b": _pair(g.b), "c": _pair(g.c), "d": _pair(g.d)},
        "t": _pair(t.rep),
    }
    return doc, None, None


def _cmd_zeros(args):
    lat = _require_lattice(args)
    if args.wp and (args.zeros or args.poles or args.fn is not None):
        raise InvalidArgumentError("give --wp or a function (--zeros and --poles, or --fn), not both")
    f = wp_evaluable(lat) if args.wp else _function_from_args(args, lat)
    zeros, poles = locate_divisor_pair(f, lat)
    doc = {"zeros": zeros.to_json(), "poles": poles.to_json(),
           "abel_defect": abel_defect(zeros, poles, lat)}
    rows = [["zero", *e] for e in zeros.to_json()] + [["pole", *e] for e in poles.to_json()]
    return doc, (["kind", "re", "im", "mult"], rows), None


def _cmd_cubic(args):
    cubic, lat = _cubic_from_args(args)
    doc = cubic.to_json()
    doc["smooth"] = cubic.is_smooth()
    return doc, None, _cubic_svg(cubic, inflection_points(cubic, lat), tangents=True)


def _cmd_inflections(args):
    cubic, lat = _cubic_from_args(args)
    infl = inflection_points(cubic, lat)
    doc = {"family": cubic.family, "inflections": [p.to_json() for p in infl]}
    rows = [
        [i] + [c for pair in p.to_json() for c in pair] for i, p in enumerate(infl)
    ]
    header = ["index", "x_re", "x_im", "y_re", "y_im", "z_re", "z_im"]
    return doc, (header, rows), _cubic_svg(cubic, infl, tangents=True)


def _cmd_hesse_scan(args):
    if args.grid is not None and args.grid < 1:
        raise InvalidArgumentError(f"--grid must be at least 1, got {args.grid}")
    tol = hesse.CONCURRENCY_TOL if args.tol is None else args.tol
    if not 0.0 < tol < 1.0:  # also refuses NaN
        raise InvalidArgumentError(f"--tol must be finite and in (0, 1), got {args.tol}")
    if args.radius is not None and not 0.0 < args.radius < math.inf:  # also refuses NaN
        raise InvalidArgumentError(f"--radius must be finite and > 0, got {args.radius}")
    if (args.grid is None) == (args.t_raw is None):
        raise InvalidArgumentError("hesse-scan needs either --t or --grid, not both")
    if args.exact and args.t_raw is None:
        raise InvalidArgumentError("--exact needs --t")
    if args.exact and args.tol is not None:
        raise InvalidArgumentError("--exact takes no --tol: its determinants are exact")
    if args.radius is not None and args.grid is None:
        raise InvalidArgumentError("--radius needs --grid")
    if args.grid is not None:
        radius = 8.0 if args.radius is None else args.radius
        axis = np.linspace(-radius, radius, args.grid)
        found = []
        for re in axis:  # one kernel call per grid row
            moduli = hesse.concurrency_det_moduli(re + 1j * axis)
            for j in np.flatnonzero((moduli <= tol).any(axis=1)):
                found.append((re, axis[j], *hesse.concurrency_hits(moduli[j], tol)))
        hits = [{"t": [re, im], "triples": [list(tr) for tr in trs]} for re, im, trs, _ in found]
        doc = {"grid": args.grid, "radius": radius, "hits": hits}
    else:
        try:
            if args.exact:
                a_s, b_s = args.t_raw.split(",")
                tq = hesse.QEps(Fraction(a_s), Fraction(b_s))
                t_c = tq.to_complex()  # the report prints t's double value
            else:
                t_c = _parse_complex(args.t_raw)
        except (ValueError, ArithmeticError, argparse.ArgumentTypeError) as exc:
            raise InvalidArgumentError(f"--t {args.t_raw!r}: {exc}") from None
        _finite("--t", t_c)
        if args.exact:
            # an exact zero is reported with modulus 0
            triples = hesse.concurrency_scan_exact(tq)
            dets = [0.0] * len(triples)
            doc = {"t_exact": [str(tq.a), str(tq.b)], "exact": True}
        else:
            triples, dets = hesse.concurrency_hits(hesse.concurrency_det_moduli(t_c), tol)
            doc = {"exact": False}
        doc.update(t=_pair(t_c), concurrent_triples=[list(tr) for tr in triples])
        found = [(t_c.real, t_c.imag, triples, dets)]
    rows = [[re, im, "|".join(map(str, tr)), m] for re, im, trs, ms in found for tr, m in zip(trs, ms)]
    return doc, (["t_re", "t_im", "triple_indices", "det_modulus"], rows), None


def _cmd_fiber(args):
    cubic, lat = _cubic_from_args(args)
    q = _point_from_pairs(args.q)
    fib = covering.lambda_fiber(cubic, q)
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
    return doc, (header, rows), _cubic_svg(cubic, pts)


def _cmd_branch_divisors(args):
    lat = _require_lattice(args)
    f = _function_from_args(args, lat)
    doc = {}
    if args.method in ("tangents", "both"):
        divs = covering.branch_divisors_via_tangents(f, lat)
        doc["via_tangents"] = [d.to_json() for d in divs]
    if args.method in ("direct", "both"):
        divs = covering.branch_divisors_direct(f, lat)
        doc["direct"] = [d.to_json() for d in divs]
    return doc, None, None


def _cmd_monodromy(args):
    lat = _require_lattice(args)
    if args.circle_samples < 3:
        raise InvalidArgumentError(
            f"--circle-samples must be at least 3, got {args.circle_samples}")
    cubic = weierstrass_cubic(lat)
    rng = np.random.default_rng(args.seed)
    if args.q:
        q0 = _point_from_pairs(args.q)
        onc, hits = covering.critical_locus_check(cubic, q0, lat)
        if onc:
            raise InvalidArgumentError(
                f"--q lies on the inflectional tangents {hits}, where the fiber is not simple")
    else:
        while True:
            q0 = point_from_vec(rng.standard_normal(6).view(np.complex128))
            if not cubic.on_curve(q0, 1e-4):
                # generous clearance from the critical locus keeps the loop
                # tails well conditioned
                onc, _ = covering.critical_locus_check(cubic, q0, lat, tol=1e-2)
                if not onc:
                    break
    loops, kinds, perms, transitive, order = covering.covering_monodromy(
        cubic, q0, lat, seed=args.seed, circle_samples=args.circle_samples
    )
    doc = {
        "basepoint": q0.to_json(),
        "generators": [list(p.images) for p in perms],
        "kinds": kinds,
        "transitive": transitive,
        "group_order": order,
    }

    def svg() -> bytes:
        # the basepoint fiber again, solved only when an SVG is asked for
        fib0 = covering.lambda_fiber(cubic, q0)
        paths = [lp.samples for lp in loops]
        return _cubic_svg(cubic, [q0] + fib0.points(), paths=paths)()

    return doc, None, svg


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="elliptica",
        description="elliptic functions, plane cubics and their tangency covering",
        allow_abbrev=False,
    )
    sub = p.add_subparsers(dest="command", required=True)
    lattice_options = [
        ("--omega1", dict(type=_parse_complex, help="first lattice generator re,im")),
        ("--omega2", dict(type=_parse_complex, help="second lattice generator re,im")),
        ("--tau", dict(type=_parse_complex, help="lattice Z + tau Z")),
    ]
    report = [
        ("--format", dict(dest="fmt", choices=["json", "csv", "svg"], default="json")),
        ("--out", dict(help="write the report here instead of stdout")),
    ]

    def add(name, handler, help, *options, lattice=True):
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        # a token such as "-0.3,0.2" is a value, not an option; argparse
        # reads only plain negative numbers that way by default
        sp._negative_number_matcher = re.compile(r"^-\.?\d")
        for flag, kw in [*(lattice_options if lattice else []), *report, *options]:
            sp.add_argument(flag, **kw)
        sp.set_defaults(handler=handler)

    z = ("--z", dict(type=_parse_complex, required=True))
    trunc = ("--trunc", dict(
        type=int, help="theta terms per sign (default: as many as the tail bound "
                       "needs, 1-4 for a reduced lattice; the term ladder cannot overflow)"))
    function = [("--zeros", dict(type=_parse_divisor_point, action="append")),
                ("--poles", dict(type=_parse_divisor_point, action="append")),
                ("--fn", dict(help="EllipticFunction JSON file"))]
    t = ("--t", dict(type=_parse_complex, help="hesse parameter re,im"))
    add("lattice", _cmd_lattice, "normalize, classify and report invariants")
    add("theta", _cmd_theta, "evaluate the Jacobi theta function", z, trunc)
    add("wp", _cmd_wp, "evaluate wp and wp'", z, trunc)
    add("build-fn", _cmd_build_fn, "build an elliptic function from divisors", *function)
    add("decompose2", _cmd_decompose2, "degree-2 normal form g o wp o translation", *function)
    add("zeros", _cmd_zeros, "locate zero and pole divisors numerically", *function,
        ("--wp", dict(action="store_true", help="use the wp function")))
    add("branch-divisors", _cmd_branch_divisors, "branch divisors of a degree-3 function", *function,
        ("--method", dict(choices=["tangents", "direct", "both"], default="both")))
    add("cubic", _cmd_cubic, "weierstrass or hesse cubic report", t)
    add("inflections", _cmd_inflections, "the nine inflection points", t)
    add("hesse-scan", _cmd_hesse_scan, "84-case concurrency scan",
        ("--t", dict(dest="t_raw", help="re,im (float mode) or a,b rationals meaning a+b*eps (--exact)")),
        ("--exact", dict(action="store_true", help="exact Q(eps) determinants")),
        ("--grid", dict(type=int, help="scan an n x n grid of t values, n >= 1")),
        ("--radius", dict(type=float, help="grid half-width, finite and > 0 (default 8); only with --grid")),
        ("--tol", dict(type=float, help="concurrency tolerance in (0, 1); not with --exact")),
        lattice=False)
    add("fiber", _cmd_fiber, "tangency fiber over a base point", t,
        ("--q", dict(type=_parse_complex, nargs=3, required=True, help="base point: three re,im pairs")))
    add("monodromy", _cmd_monodromy, "monodromy of the 6-sheeted tangency covering",
        ("--q", dict(type=_parse_complex, nargs=3, help="base point (default: seeded generic point)")),
        ("--circle-samples", dict(type=int, default=48,
                                  help="vertices of each lasso's circle around a branch point, at least 3")),
        ("--seed", dict(type=int, default=0, help="seed of the basepoint and the loop line")))
    return p


def _run(argv: list[str]):
    args = build_parser().parse_args(argv)
    try:
        # every non-finite value is refused below, so numpy's overflow and
        # invalid-value warnings would only put noise ahead of the error
        with np.errstate(all="ignore"):
            json_doc, csv_doc, svg_fn = args.handler(args)
        field = _nonfinite_field(json_doc, "") or _nonfinite_field(csv_doc and csv_doc[1], "rows")
        if field is not None:
            raise NonFiniteResultError(
                f"{args.command} computed a non-finite value at {field}", field=field
            )
        payload = render_report(args.fmt, json_doc, csv_doc, svg_fn)
        return 0, payload, args.out
    except EllipticaError as exc:
        return 1, to_json_bytes({"error": exc.to_json()}), None
    # np.linalg.LinAlgError is a ValueError; ArithmeticError covers
    # ZeroDivisionError and OverflowError
    except (ValueError, ArithmeticError) as exc:
        err = InternalError(f"{args.command}: {exc}", exception=type(exc).__name__)
        return 1, to_json_bytes({"error": err.to_json()}), None


def dispatch(argv: list[str]) -> tuple[int, bytes]:
    """Route argv to a subcommand; returns (exit status, report bytes).

    Domain errors yield status 1 with a structured error document; usage
    errors exit with status 2 through argparse.
    """
    status, payload, _ = _run(argv)
    return status, payload


def main(argv: list[str] | None = None) -> int:
    status, payload, out = _run(sys.argv[1:] if argv is None else argv)
    if status == 0 and out:
        try:
            with open(out, "wb") as fh:
                fh.write(payload)
            return 0
        except OSError as exc:
            err = InvalidArgumentError(f"--out {out}: {exc.strerror}")
            status, payload = 1, to_json_bytes({"error": err.to_json()})
    try:
        (sys.stdout if status == 0 else sys.stderr).buffer.write(payload)
    except BrokenPipeError:
        pass
    return status


if __name__ == "__main__":
    sys.exit(main())
