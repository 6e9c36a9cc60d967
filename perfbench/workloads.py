"""The benchmark's five workloads: seeded inputs, the timed task, the check.

Every workload derives the inputs of task i from (seed, i) alone, so a task's
input does not depend on how many tasks ran before it.  Tasks come in rounds
of ``round_size`` that balance the input mix (lattice kinds, cubics, CLI
subcommands); a run stops only at a round boundary.  ``check`` returns
(passed, normalised error, note, digest text); the error is scale-free and is
only used for tasks that passed.

The program is called through module attributes at call time
(``el.locate_zeros``, ``D.locate_divisor_pair``) so that the layer tracer's
wrappers are seen.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

import elliptica as el
from elliptica import divisors as D
from elliptica import hesse as H

TH = importlib.import_module("elliptica.theta")  # ``elliptica.theta`` is also a function

HERE = os.path.dirname(os.path.abspath(__file__))
CLITRACE = os.path.join(HERE, "clitrace.py")
TRACE_MARK = "#perfbench-trace "

SQUARE = el.make_lattice(1.0, 1j)
HEXAGONAL = el.make_lattice(1.0, np.exp(1j * np.pi / 3.0))
GENERIC = el.make_lattice(1.0, 0.3 + 1.4j)


def now_ns() -> int:
    """The system-wide monotonic clock, comparable across processes."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def task_rng(seed: int, i: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, i])


def lattice_json(lat) -> list:
    return [[lat.omega1.real, lat.omega1.imag], [lat.omega2.real, lat.omega2.imag]]


def cpair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def random_torus_points(rng, lat, n, min_sep=0.05):
    """n lifts with pairwise torus separation above min_sep * |omega1|
    (the rule of the ``random_abel_function`` test fixture)."""
    out = []
    scale = abs(lat.omega1)
    while len(out) < n:
        z = complex(
            rng.uniform(0.04, 0.96) * lat.omega1.real + rng.uniform(0.04, 0.96) * lat.omega2.real,
            rng.uniform(0.04, 0.96) * lat.omega1.imag + rng.uniform(0.04, 0.96) * lat.omega2.imag,
        )
        if all(el.torus_distance(z, w, lat) > min_sep * scale for w in out):
            out.append(z)
    return out


def abel_points(rng, lat, degree=3, min_sep=0.05):
    """Zeros and poles of a random degree-n elliptic function with simple
    divisors, the last point of each closing the Abel condition exactly."""
    while True:
        pts = random_torus_points(rng, lat, 2 * (degree - 1), min_sep)
        zeros = pts[: degree - 1]
        poles = pts[degree - 1:]
        zeros = zeros + [-sum(zeros)]
        poles = poles + [-sum(poles)]
        allpts = zeros + poles
        if all(
            el.torus_distance(allpts[i], allpts[j], lat) > min_sep * abs(lat.omega1)
            for i in range(len(allpts))
            for j in range(i + 1, len(allpts))
        ):
            return zeros, poles


def build(zeros, poles, lat):
    return el.build_from_divisors(
        el.divisor([(z, 1) for z in zeros], lat),
        el.divisor([(p, 1) for p in poles], lat),
        lat,
    )


def match_dist(d1, d2, lat) -> float:
    """Largest distance of the greedy multiset matching that
    ``divisors.match_divisors`` performs; inf on a degree mismatch, so
    ``match_dist(...) <= tol`` exactly when ``match_divisors(..., tol)``."""
    a, b = d1.lifts(), d2.lifts()
    if len(a) != len(b):
        return math.inf
    used = [False] * len(b)
    worst = 0.0
    for x in a:
        best, bi = math.inf, -1
        for j, y in enumerate(b):
            if not used[j]:
                d = el.torus_distance(x, y, lat)
                if d < best:
                    best, bi = d, j
        if bi < 0:
            return math.inf
        used[bi] = True
        worst = max(worst, best)
    return worst


def divisor_text(div) -> str:
    return repr([(p.rep.real, p.rep.imag, m) for p, m in div.points])


class Workload:
    name = ""
    round_size = 1
    prefix = 1          # fewest tasks of an untraced run; its errors give err_digits
    trace_tasks = 1     # the traced run's fixed task list; its results are fingerprinted
    spawns_processes = False

    def __init__(self, seed: int):
        self.seed = seed
        self.traced = False

    def make_input(self, i: int) -> dict:
        raise NotImplementedError

    def run(self, inp: dict):
        raise NotImplementedError

    def check(self, inp: dict, out) -> tuple[bool, float, str, str]:
        raise NotImplementedError

    def describe(self, inp: dict) -> dict:
        return {k: v for k, v in inp.items() if not k.startswith("_")}

    def probe_inputs(self) -> list[dict]:
        """Inputs of a documented defect, run once after the timed loop and
        reported apart from the timed tasks."""
        return []

    def known_defect(self, inp: dict, note: str, raised: bool) -> str | None:
        """Name of the documented seed-commit defect a failed task shows, if
        any.  Any other failure makes the run incorrect."""
        return None


# -- abel_divisors ------------------------------------------------------------

class AbelDivisors(Workload):
    """Criteria 5 and 7 on one random degree-3 Abel function per task."""

    name = "abel_divisors"
    round_size = 4
    prefix = 16         # about 2 s per task: at least 16 tasks keep the run's content steady
    trace_tasks = 4
    LATTICE_KINDS = ("square", "hexagonal", "generic", "random")

    def make_input(self, i):
        rng = task_rng(self.seed, i)
        kind = self.LATTICE_KINDS[i % 4]
        if kind == "random":
            lat = el.make_lattice(1.0, complex(rng.uniform(-0.45, 0.45), rng.uniform(1.05, 2.0)))
        else:
            lat = {"square": SQUARE, "hexagonal": HEXAGONAL, "generic": GENERIC}[kind]
        zeros, poles = abel_points(rng, lat)
        return {"lattice_kind": kind, "lattice": lattice_json(lat),
                "zeros": [cpair(z) for z in zeros], "poles": [cpair(p) for p in poles],
                "_lat": lat, "_zeros": zeros, "_poles": poles}

    def run(self, inp):
        lat = inp["_lat"]
        f = build(inp["_zeros"], inp["_poles"], lat)
        zeros, poles = D.locate_divisor_pair(f, lat)
        bt = el.branch_divisors_via_tangents(f, lat)
        bd = el.branch_divisors_direct(f, lat)
        return f, zeros, poles, bt, bd

    def known_defect(self, inp, note, raised):
        if not raised and note.startswith("branch divisor"):
            return "criterion 7 disagreement: the two branch-divisor algorithms differ"
        return None

    def check(self, inp, out):
        f, zeros, poles, bt, bd = out
        lat = inp["_lat"]
        scale = abs(lat.omega1)
        digest = "|".join(divisor_text(d) for d in [zeros, poles, *bt, *bd])
        if zeros.degree != 3 or poles.degree != 3:
            return False, math.inf, f"located degrees {zeros.degree}/{poles.degree}", digest
        errs = [match_dist(zeros, f.zeros, lat), match_dist(poles, f.poles, lat),
                el.abel_defect(zeros, poles, lat)]
        if max(errs) > 1e-6:
            return False, max(errs) / scale, "criterion 5 tolerance", digest
        if len(bt) > 6 or len(bd) > 6 or len(bt) != len(bd):
            return False, math.inf, f"branch divisor counts {len(bt)}/{len(bd)}", digest
        used = [False] * len(bd)
        for d1 in bt:
            for j, d2 in enumerate(bd):
                if used[j]:
                    continue
                dist = match_dist(d1, d2, lat)
                if dist <= 1e-6:
                    used[j] = True
                    errs.append(dist)
                    break
            else:
                return False, math.inf, "branch divisor multisets disagree", digest
        for divs in (bt, bd):
            if sum(sum(m - 1 for _, m in d.points) for d in divs) != 6:
                return False, math.inf, "ramification does not sum to 6", digest
        return True, max(errs) / scale, "", digest


# -- wp_grid ------------------------------------------------------------------

IM_TAU_MIN = math.sqrt(3.0) / 2.0
IM_TAU_MAX = 16.0
# wp at the seed commit: the theta power ladder b**k, k <= 24, overflows once
# 24 * pi * Im(tau) exceeds log(DBL_MAX), and 0 * inf gives NaN
NAN_IM_TAU = math.log(sys.float_info.max) / (24.0 * math.pi)
# the timed sample stops just below that, so that no timed task fails; the
# range above it is covered by the untimed defect probe
IM_TAU_TIMED_MAX = 9.4
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def jtheta_ref(mp, z: complex, tau: complex, d: int) -> complex:
    """theta^(d)(z) for theta(z) = sum exp(i pi (n^2 tau + 2 n z)), from
    mpmath: pi^d jtheta(3, pi z, exp(i pi tau), d)."""
    q = mp.exp(1j * mp.pi * mp.mpc(tau))
    return complex(mp.pi ** d * mp.jtheta(3, mp.pi * mp.mpc(z), q, d))


class WpGrid(Workload):
    """wp, theta and a degree-3 quotient on a few thousand points of one
    lattice per task.  Im tau is log-uniform on [sqrt(3)/2, 9.4], drawn as a
    seeded rotation of the golden-ratio sequence: marginally log-uniform, and
    every prefix of the run covers the range evenly.  Lattices with Im tau in
    (NAN_IM_TAU, 16], where the seed commit returns NaN, are the defect
    probe: checked the same way, outside the timed loop."""

    name = "wp_grid"
    round_size = 1
    prefix = 32
    trace_tasks = 32
    POINTS = 2048
    ORACLE_POINTS = 4
    PROBES = 4

    def __init__(self, seed):
        super().__init__(seed)
        self.u0 = float(task_rng(seed, 0, stream=1).uniform())

    def make_input(self, i):
        u = (self.u0 + i * GOLDEN) % 1.0
        return self._lattice_input(task_rng(self.seed, i),
                                   IM_TAU_MIN * (IM_TAU_TIMED_MAX / IM_TAU_MIN) ** u)

    def probe_inputs(self):
        out = []
        for j in range(self.PROBES):
            u = (self.u0 + j * GOLDEN) % 1.0
            im = NAN_IM_TAU * (IM_TAU_MAX / NAN_IM_TAU) ** u
            out.append(self._lattice_input(task_rng(self.seed, j, stream=2), im))
        return out

    def _lattice_input(self, rng, im):
        lo = math.sqrt(max(0.0, 1.0 - im * im))
        re = float(rng.choice([-1.0, 1.0])) * rng.uniform(lo, 0.5)
        lat = el.make_lattice(1.0, complex(re, im))
        n = self.POINTS
        z = rng.uniform(0.0, 1.0, n) * lat.omega1 + rng.uniform(0.0, 1.0, n) * lat.omega2
        zeros, poles = abel_points(rng, lat)
        sub = rng.choice(n, self.ORACLE_POINTS, replace=False)
        return {"tau": cpair(lat.tau), "points": n,
                "zeros": [cpair(v) for v in zeros], "poles": [cpair(v) for v in poles],
                "_lat": lat, "_z": z, "_zeros": zeros, "_poles": poles, "_sub": sub}

    def known_defect(self, inp, note, raised):
        if not raised and inp["tau"][1] > NAN_IM_TAU:
            return f"theta power-ladder overflow: non-finite wp/theta for Im tau > {NAN_IM_TAU:.4f}"
        return None

    def run(self, inp):
        lat, z = inp["_lat"], inp["_z"]
        p, pp = el.wp_values(z, lat)
        th = el.theta(np.concatenate([z, z + 1.0, z + lat.tau]), lat)
        f = build(inp["_zeros"], inp["_poles"], lat)
        v, dl = f.values_and_dlog(np.concatenate([z, z + lat.omega2]))
        return p, pp, th, v, dl

    def check(self, inp, out):
        lat, z = inp["_lat"], inp["_z"]
        p, pp, th, v, dl = out
        digest = hashlib.sha256(b"".join(a.tobytes() for a in out)).hexdigest()
        n = len(z)
        tau = lat.tau
        errs = []
        with np.errstate(all="ignore"):
            # criterion 3: Weierstrass residual
            g2, g3 = el.weierstrass_invariants(lat)
            resid = np.abs(pp ** 2 - 4.0 * p ** 3 + g2 * p + g3) / (1.0 + np.abs(p) ** 3)
            errs.append(float(resid.max()))
            if not errs[-1] <= 1e-8:
                return False, math.inf, f"Weierstrass residual {errs[-1]:.3g}", digest
            # criterion 4: theta quasi-periodicity
            t0, t1, t2 = th[:n], th[n:2 * n], th[2 * n:]
            rhs = np.exp(-1j * np.pi * (tau + 2.0 * z)) * t0
            e1 = float(np.abs(t1 - t0).max() / np.abs(t0).max())
            e2 = float(np.abs(t2 - rhs).max() / np.abs(rhs).max())
            errs += [e1, e2]
            if not (e1 <= 1e-10 and e2 <= 1e-10):
                return False, math.inf, f"theta laws {e1:.3g} {e2:.3g}", digest
            # the quotient and its log derivative are periodic in omega2
            e3 = float((np.abs(v[n:] - v[:n]) / (1.0 + np.abs(v[:n]))).max())
            e4 = float((np.abs(dl[n:] - dl[:n]) / (1.0 + np.abs(dl[:n]))).max())
            errs += [e3, e4]
            if not (e3 <= 1e-8 and e4 <= 1e-8):
                return False, math.inf, f"quotient periodicity {e3:.3g} {e4:.3g}", digest
        # independent oracle on a seeded subsample, derivatives 0..3
        import mpmath as mp

        zs = z[inp["_sub"]]
        derivs, logf = TH.theta_derivs_reduced(zs, lat, order=3)
        with mp.workdps(50):
            for d in range(4):
                ours = th[inp["_sub"]] if d == 0 else derivs[d] * np.exp(logf)
                ref = np.array([jtheta_ref(mp, complex(w), tau, d) for w in zs])
                e = float(np.abs(ours - ref).max() / np.abs(ref).max())
                errs.append(e)
                if not e <= 1e-10:
                    return False, math.inf, f"mpmath theta^({d}) error {e:.3g}", digest
        return True, max(errs), "", digest

# -- monodromy ----------------------------------------------------------------

class Monodromy(Workload):
    """One basepoint per task, on the generic, square and Hesse t=2 cubics in
    turn: fiber solve, loop library, then the base fiber continued around
    one seeded loop of the library."""

    name = "monodromy"
    round_size = 3
    prefix = 9
    trace_tasks = 9
    CUBIC_KINDS = ("generic", "square", "hesse2")

    def __init__(self, seed):
        super().__init__(seed)
        self.cubics = {
            "generic": (el.weierstrass_cubic(GENERIC), GENERIC),
            "square": (el.weierstrass_cubic(SQUARE), SQUARE),
            "hesse2": (el.hesse_cubic(2.0), None),
        }

    def make_input(self, i):
        kind = self.CUBIC_KINDS[i % 3]
        cubic, lat = self.cubics[kind]
        rng = task_rng(self.seed, i)
        while True:
            # the CLI's clearance rule
            q = el.point_from_vec(rng.standard_normal(6).view(np.complex128))
            if cubic.on_curve(q, 1e-4):
                continue
            onc, _ = el.critical_locus_check(cubic, q, lat, tol=1e-2)
            if not onc:
                break
        return {"cubic": kind, "basepoint": q.to_json(), "loop": int(rng.integers(0, 9)),
                "library_seed": int(rng.integers(0, 2 ** 31)), "_q": q}

    def run(self, inp):
        cubic, lat = self.cubics[inp["cubic"]]
        fib0 = el.lambda_fiber(cubic, inp["_q"])
        loops = el.tangent_loop_library(cubic, inp["_q"], lat, seed=inp["library_seed"])
        end = el.continue_fiber(cubic, loops[inp["loop"]], fib0)
        return fib0, end

    def known_defect(self, inp, note, raised):
        if raised and note == "ValueError: consecutive loop samples too far apart":
            return "tangent_loop_library: loop samples too far apart for continuation"
        return None

    def check(self, inp, out):
        fib0, end = out
        start = np.array([p.vec for p in fib0.points()])
        stop = np.array([p.vec for p in end.points()])
        digest = repr(np.round(stop, 12).tolist())
        if fib0.total != 6 or len(fib0.entries) != 6 or len(stop) != 6:
            return False, math.inf, "base fiber is not 6 simple points", digest
        cr = np.cross(stop[:, None, :], start[None, :, :])
        dist = np.linalg.norm(cr, axis=2) / (
            np.linalg.norm(stop, axis=1)[:, None] * np.linalg.norm(start, axis=1)[None, :])
        images = dist.argmin(axis=1)
        close = float(dist.min(axis=1).max())
        if sorted(images.tolist()) != list(range(6)):
            return False, math.inf, f"sheets do not match bijectively: {images.tolist()}", digest
        if close > 1e-5:
            return False, math.inf, f"loop end misses the base fiber by {close:.3g}", digest
        perm = el.Permutation(tuple(int(j) for j in images))
        digest += repr(perm.images)
        if perm.cycle_type() != (2, 1, 1, 1, 1):
            return False, math.inf, f"cycle type {perm.cycle_type()}", digest
        return True, close, "", digest


# -- hesse_exact --------------------------------------------------------------

class HesseExact(Workload):
    """One exact concurrency scan per task; every eighth task is one of the
    seven special parameters, the rest are criterion 1's random rationals."""

    name = "hesse_exact"
    round_size = 8
    prefix = 56
    trace_tasks = 56
    SPECIALS = list(H.EXACT_SPECIAL_SMOOTH) + list(H.EXACT_SPECIAL_SINGULAR)

    def make_input(self, i):
        if i % 8 == 0:
            k = (i // 8) % 7
            tq, kind = self.SPECIALS[k], ("smooth" if k < 4 else "singular")
        else:
            rng = task_rng(self.seed, i)
            while True:
                a = Fraction(int(rng.integers(-18, 19)), int(rng.integers(1, 7)))
                b = Fraction(int(rng.integers(-18, 19)), int(rng.integers(1, 7)))
                tq = H.QEps(a, b)
                if not any((tq - s).is_zero() for s in self.SPECIALS):
                    break
            kind = "generic"
        return {"t": [str(tq.a), str(tq.b)], "kind": kind, "_tq": tq}

    def run(self, inp):
        return el.concurrency_scan_exact(inp["_tq"])

    def check(self, inp, triples):
        digest = repr(triples)
        kind = inp["kind"]
        dets = H.concurrency_dets(inp["_tq"].to_complex())
        if kind == "generic":
            if triples != []:
                return False, math.inf, f"{len(triples)} triples at a generic t", digest
            low = min(dets.values())
            if not low > 1e-9:
                return False, math.inf, f"float-mode minimum determinant {low:.3g}", digest
            return True, 0.0, "", digest
        if (kind == "smooth" and len(triples) != 3) or (kind == "singular" and not triples):
            return False, math.inf, f"{len(triples)} triples at a {kind} special t", digest
        worst = max(dets[tr] for tr in triples)
        if not worst <= H.CONCURRENCY_TOL:
            return False, math.inf, f"float-mode determinant {worst:.3g}", digest
        return True, worst, "", digest


# -- cli ----------------------------------------------------------------------

def _arg(flag: str, *values) -> str:
    parts = []
    for v in values:
        if isinstance(v, (complex, np.complexfloating)):
            parts += [repr(float(v.real)), repr(float(v.imag))]
        else:
            parts.append(str(v))
    return f"--{flag}=" + ",".join(parts)


def _reduced_tau(rng) -> complex:
    return complex(rng.uniform(-0.45, 0.45), rng.uniform(1.05, 2.0))


CLI_KINDS = ("lattice", "theta", "wp", "build-fn", "zeros", "decompose2", "cubic-svg",
             "inflections-csv", "hesse-exact", "hesse-grid-csv", "fiber", "domain-error")


class Cli(Workload):
    """One ``python -m elliptica`` subprocess per task, cycling through the
    README examples with seeded arguments, and one deliberate domain error."""

    name = "cli"
    round_size = len(CLI_KINDS)
    prefix = len(CLI_KINDS)
    trace_tasks = len(CLI_KINDS)
    spawns_processes = True

    def __init__(self, seed):
        super().__init__(seed)
        self.env = dict(os.environ)
        self.child_import_ms: list[float] = []
        self.child_start_ms: list[float] = []
        self.child_traces: list[dict] = []

    def make_input(self, i):
        kind = CLI_KINDS[i % len(CLI_KINDS)]
        rng = task_rng(self.seed, i)
        tau = _reduced_tau(rng)
        inp = {"kind": kind}
        if kind == "lattice":
            w2 = complex(2.0 * rng.uniform(-1.0, 1.0), 2.0 * rng.uniform(0.5, 2.5))
            inp["argv"] = ["lattice", _arg("omega1", 2.0 + 0j), _arg("omega2", w2)]
            inp["_w"] = (2.0 + 0j, w2)
        elif kind in ("theta", "wp"):
            z = complex(rng.uniform(0.05, 0.95)) + rng.uniform(0.05, 0.95) * tau
            inp["argv"] = [kind, _arg("tau", tau), _arg("z", z)]
            inp["_tau"], inp["_z"] = tau, z
        elif kind == "build-fn":
            lat = el.make_lattice(1.0, tau)
            zeros, poles = abel_points(rng, lat)
            inp["argv"] = (["build-fn", _arg("tau", tau)]
                           + [_arg("zeros", z, 1) for z in zeros]
                           + [_arg("poles", p, 1) for p in poles])
            inp["_lat"], inp["_zeros"], inp["_poles"] = lat, zeros, poles
        elif kind == "zeros":
            inp["argv"] = ["zeros", _arg("tau", tau), "--wp", "--format", "csv"]
            inp["_tau"] = tau
        elif kind == "decompose2":
            lat = el.make_lattice(1.0, tau)
            while True:
                z1, p1, p2 = random_torus_points(rng, lat, 3, 0.1)
                z2 = p1 + p2 - z1
                if min(el.torus_distance(z2, w, lat) for w in (z1, p1, p2)) > 0.1:
                    break
            inp["argv"] = ["decompose2", _arg("tau", tau), _arg("zeros", z1, 1), _arg("zeros", z2, 1),
                           _arg("poles", p1, 1), _arg("poles", p2, 1)]
            inp["_lat"], inp["_zeros"], inp["_poles"] = lat, [z1, z2], [p1, p2]
        elif kind == "cubic-svg":
            inp["argv"] = ["cubic", _arg("tau", tau), "--format", "svg"]
        elif kind == "inflections-csv":
            while True:
                t = complex(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
                if abs(t ** 3 + 27.0) > 1.0:
                    break
            inp["argv"] = ["inflections", _arg("t", t), "--format", "csv"]
            inp["_t"] = t
        elif kind == "hesse-exact":
            if (i // len(CLI_KINDS)) % 2 == 0:
                tq = list(H.EXACT_SPECIAL_SMOOTH)[(i // (2 * len(CLI_KINDS))) % 4]
                expect = 3
            else:
                tq = HesseExact(self.seed).make_input(i * 8 + 1)["_tq"]
                expect = 0
            inp["argv"] = ["hesse-scan", f"--t={tq.a},{tq.b}", "--exact"]
            inp["_expect"] = expect
        elif kind == "hesse-grid-csv":
            inp["argv"] = ["hesse-scan", "--grid", "40", "--radius", "8", "--format", "csv"]
        elif kind == "fiber":
            lat = el.make_lattice(1.0, tau)
            cubic = el.weierstrass_cubic(lat)
            while True:
                v = rng.standard_normal(6).view(np.complex128)
                v = v * np.where(v.real < 0, -1.0, 1.0)  # positive real parts keep argv unambiguous
                q = el.point_from_vec(v)
                if cubic.on_curve(q, 1e-4):
                    continue
                onc, _ = el.critical_locus_check(cubic, q, lat, tol=1e-2)
                if not onc:
                    break
            vals = [f"{float(c.real)!r},{float(c.imag)!r}" for c in v]
            inp["argv"] = ["fiber", _arg("tau", tau), "--q", *vals]
            inp["_cubic"], inp["_q"] = cubic, q
        else:  # the README's own build-fn example: degrees 3 and 4
            inp["argv"] = ["build-fn", "--tau", "0.3,1.4", "--zeros", "0.2,0.3,1",
                           "--zeros", "0.5,1.0,1", "--zeros=-0.7,-1.3,1", "--poles", "0.1,0.1,1",
                           "--poles", "0.6,1.2,1", "--poles=-0.7,-1.3,2"]
        return inp

    def describe(self, inp):
        return {"kind": inp["kind"], "argv": inp["argv"]}

    def run(self, inp):
        if self.traced:
            cmd = [sys.executable, CLITRACE, *inp["argv"]]
        else:
            cmd = [sys.executable, "-m", "elliptica", *inp["argv"]]
        spawn = now_ns()
        proc = subprocess.run(cmd, capture_output=True, env=self.env, timeout=120)
        err = proc.stderr
        if self.traced:
            head, sep, tail = err.decode().rpartition("\n" + TRACE_MARK)
            if sep:
                rec = json.loads(tail)
                err = head.encode()
                self.child_start_ms.append((rec["t_start_ns"] - spawn) * 1e-6)
                self.child_import_ms.append(rec["import_ms"])
                self.child_traces.append(rec)
        return proc.returncode, proc.stdout, err

    def check(self, inp, out):
        code, stdout, stderr = out
        kind = inp["kind"]
        digest = f"{code}:{stdout!r}"
        if kind == "domain-error":
            try:
                doc = json.loads(stderr)["error"]
            except (ValueError, KeyError, TypeError):
                return False, math.inf, f"exit {code}, unstructured stderr {stderr[-200:]!r}", digest
            ok = code == 1 and stdout == b"" and doc.get("operation") == "build_from_divisors"
            return ok, 0.0, "" if ok else f"exit {code}, error {doc}", digest
        if code != 0:
            return False, math.inf, f"exit {code}: {stderr[-300:]!r}", digest
        try:
            ok, err, note = getattr(self, "_check_" + kind.replace("-", "_"))(inp, stdout)
        except (ValueError, KeyError, IndexError, TypeError, el.EllipticaError) as exc:
            return False, math.inf, f"unparseable {kind} report: {exc!r}", digest
        return ok, err, note, digest

    # each returns (passed, normalised error, note)
    def _check_lattice(self, inp, out):
        doc = json.loads(out)
        w1 = complex(*doc["lattice"]["omega1"])
        w2 = complex(*doc["lattice"]["omega2"])
        tau = w2 / w1
        if not (tau.imag > 0 and abs(tau.real) <= 0.5 + 1e-12 and abs(tau) >= 1 - 1e-12):
            return False, math.inf, f"basis not reduced: tau={tau}"
        # the input generators must be integer combinations of the output basis
        # and vice versa (unimodular change of basis)
        lat = el.make_lattice(w1, w2)
        coeffs = [lat.coords(w) for w in inp["_w"]]
        err = max(abs(c - round(c)) for ab in coeffs for c in ab)
        det = round(coeffs[0][0]) * round(coeffs[1][1]) - round(coeffs[0][1]) * round(coeffs[1][0])
        ok = err <= 1e-9 and abs(det) == 1
        return ok, err, "" if ok else f"not the same lattice (err {err:.3g}, det {det})"

    def _check_theta(self, inp, out):
        doc = json.loads(out)
        val = complex(*doc["value"])
        import mpmath as mp

        with mp.workdps(50):
            ref = jtheta_ref(mp, inp["_z"], inp["_tau"], 0)
        err = abs(val - ref) / abs(ref)
        return err <= 1e-10, err, "" if err <= 1e-10 else f"theta error {err:.3g}"

    def _check_wp(self, inp, out):
        doc = json.loads(out)
        p, pp = complex(*doc["p"]), complex(*doc["pprime"])
        g2, g3 = el.weierstrass_invariants(el.make_lattice(1.0, inp["_tau"]))
        err = abs(pp ** 2 - 4.0 * p ** 3 + g2 * p + g3) / (1.0 + abs(p) ** 3)
        return err <= 1e-8, err, "" if err <= 1e-8 else f"Weierstrass residual {err:.3g}"

    def _check_build_fn(self, inp, out):
        doc = json.loads(out)
        lat = inp["_lat"]
        got_z = el.divisor([(complex(a, b), m) for a, b, m in doc["zeros"]], lat)
        got_p = el.divisor([(complex(a, b), m) for a, b, m in doc["poles"]], lat)
        want_z = el.divisor([(z, 1) for z in inp["_zeros"]], lat)
        want_p = el.divisor([(p, 1) for p in inp["_poles"]], lat)
        err = max(match_dist(got_z, want_z, lat), match_dist(got_p, want_p, lat))
        ok = err <= 1e-9 and doc["scale"] == [1, 0]
        return ok, err, "" if ok else f"divisor mismatch {err:.3g}, scale {doc['scale']}"

    def _check_zeros(self, inp, out):
        lines = out.decode().strip().split("\n")
        if lines[0] != "kind,re,im,mult":
            return False, math.inf, f"csv header {lines[0]!r}"
        lat = el.make_lattice(1.0, inp["_tau"])
        rows = [line.split(",") for line in lines[1:]]
        zeros = [(complex(float(r[1]), float(r[2])), int(r[3])) for r in rows if r[0] == "zero"]
        poles = [(complex(float(r[1]), float(r[2])), int(r[3])) for r in rows if r[0] == "pole"]
        if sum(m for _, m in zeros) != 2 or len(poles) != 1 or poles[0][1] != 2:
            return False, math.inf, f"wp divisors {zeros} / {poles}"
        scale = max(abs(e) for e in el.half_period_values(lat))
        errs = [el.torus_distance(poles[0][0], 0.0, lat),
                el.abel_defect(el.divisor(zeros, lat), el.divisor(poles, lat), lat)]
        errs += [abs(el.wp_values(z, lat)[0]) / scale for z, _ in zeros]
        err = max(errs)
        return err <= 1e-6, err, "" if err <= 1e-6 else f"wp zero error {err:.3g}"

    def _check_decompose2(self, inp, out):
        doc = json.loads(out)
        mob = doc["mobius"]
        g = el.MobiusTransform(*(complex(*mob[k]) for k in "abcd"))
        t = complex(*doc["t"])
        lat = inp["_lat"]
        f = build(inp["_zeros"], inp["_poles"], lat)
        gs = np.linspace(0.11, 0.93, 5)
        worst = 0.0
        for a in gs:
            for b in gs:
                z = complex(a * lat.omega1 + b * lat.omega2)
                pv, _ = el.wp_pair(z - t, lat)
                worst = max(worst, el.chordal(el.eval_elliptic(f, z), g(pv)))
        return worst <= 1e-6, worst, "" if worst <= 1e-6 else f"g o wp mismatch {worst:.3g}"

    def _check_cubic_svg(self, inp, out):
        ok = (out.startswith(b"<svg") and out.endswith(b"</svg>\n")
              and out.count(b"<polyline") > 0 and out.count(b"<circle") > 0)
        return ok, 0.0, "" if ok else "malformed svg"

    def _check_inflections_csv(self, inp, out):
        lines = out.decode().strip().split("\n")
        if len(lines) != 10:
            return False, math.inf, f"{len(lines)} csv lines"
        t = inp["_t"]
        worst = 0.0
        for line in lines[1:]:
            c = [float(x) for x in line.split(",")[1:]]
            x, y, z = complex(c[0], c[1]), complex(c[2], c[3]), complex(c[4], c[5])
            f = x ** 3 + y ** 3 + z ** 3 + t * x * y * z
            scale = abs(x) ** 3 + abs(y) ** 3 + abs(z) ** 3 + abs(t * x * y * z)
            worst = max(worst, abs(f) / scale)
        return worst <= 1e-9, worst, "" if worst <= 1e-9 else f"off-curve inflection {worst:.3g}"

    def _check_hesse_exact(self, inp, out):
        doc = json.loads(out)
        n = len(doc["concurrent_triples"])
        ok = doc["exact"] is True and n == inp["_expect"]
        return ok, 0.0, "" if ok else f"{n} triples, expected {inp['_expect']}"

    def _check_hesse_grid_csv(self, inp, out):
        lines = out.decode().strip().split("\n")
        ok = lines[0] == "t_re,t_im,triple_indices,det_modulus" and all(
            len(line.split(",")) == 4 and float(line.split(",")[3]) <= 1e-9 for line in lines[1:])
        return ok, 0.0, "" if ok else "malformed scan csv"

    def _check_fiber(self, inp, out):
        doc = json.loads(out)
        cubic, q = inp["_cubic"], inp["_q"]
        mults = [e["multiplicity"] for e in doc["entries"]]
        if doc["total"] != 6 or sum(mults) != 6:
            return False, math.inf, f"fiber multiplicities {mults}"
        worst = 0.0
        for e in doc["entries"]:
            p = el.point_from_vec(np.array([complex(*c) for c in e["point"]]))
            worst = max(worst, el.tangent_line(cubic, p, tol=1e-6).incidence(q))
        return worst <= 1e-8, worst, "" if worst <= 1e-8 else f"tangent misses q by {worst:.3g}"


WORKLOADS = {w.name: w for w in (AbelDivisors, WpGrid, Monodromy, HesseExact, Cli)}
