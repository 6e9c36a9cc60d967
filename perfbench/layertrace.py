"""Outside-only layer tracing for elliptica.

Each public function of a layer module (and each public method, plus
``__call__`` and the arithmetic dunders, of the classes defined there) is
wrapped, and the wrapper replaces the original everywhere it was imported
inside the ``elliptica`` package.  No file under ``src/`` changes.

A wrapped call opens a span.  Spans are aggregated as they close instead of
being stored: a span's self time is its duration minus the time of the spans
it directly caused, and self time is also summed per layer for the current
task id.  A call "enters" a layer when its caller span belongs to another
layer (or there is none); ``calls`` metrics count entries only, so a layer's
internal calls to its own public functions are not counted twice.

Layers are the modules below; ``sphere`` and ``errors`` are left out because
they take under 1% of self time in every profile.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = ("theta", "elliptic", "divisors", "lattice", "cubic", "projective",
          "covering", "hesse", "report", "cli")
_DUNDERS = {"__call__", "__add__", "__sub__", "__mul__", "__neg__"}
# layers whose calls carry a point count: the size of the first ndarray argument
_POINT_LAYERS = {"theta", "elliptic"}

# stats record fields
CALLS, ENTRIES, SELF_NS, MEASURE, ENTRY_MEASURE, SINGLE_ENTRIES = range(6)


def _points(args, result):
    for a in args:
        size = getattr(a, "size", None)
        if size is not None and hasattr(a, "ndim"):
            return int(size)
    return 1


# per-function measures taken from the arguments or the result
_MEASURES = {
    "divisors.locate_zeros": lambda args, result: result.degree,
    "covering.continue_fiber": lambda args, result: len(args[1].samples) - 1,
    "report.render_report": lambda args, result: len(result),
}


class Tracer:
    """Span aggregator; ``active`` gates recording so checks run untraced."""

    def __init__(self):
        self.active = False
        self.stack: list[list] = []
        self.names: list[str] = []
        self.stats: list[list[int]] = []
        self.edges: dict[tuple[int, int], list[int]] = {}
        self.root_ns = 0
        self.task_layers: dict[str, int] = {}

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's public functions and patch the wrappers in."""
        wrappers: dict[int, object] = {}
        self._patches: list[tuple[object, str, object, object]] = []
        for layer in LAYERS:
            mod = importlib.import_module(f"elliptica.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{name}"))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, val in list(vars(obj).items()):
                        if not inspect.isfunction(val):
                            continue
                        if attr.startswith("_") and attr not in _DUNDERS:
                            continue
                        wrapped = self._wrap(val, layer, f"{layer}.{name}.{attr}")
                        self._patches.append((obj, attr, val, wrapped))
        # replace every module-level reference, in the defining module and
        # wherever the function was imported
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "elliptica" or modname.startswith("elliptica.")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, name, obj, hit[1]))
        self.patch(True)

    def patch(self, on: bool) -> None:
        """Swap the wrappers in (on) or restore the original functions."""
        for target, attr, original, wrapper in self._patches:
            setattr(target, attr, wrapper if on else original)

    def _wrap(self, fn, layer: str, name: str):
        fid = len(self.names)
        self.names.append(name)
        self.stats.append([0, 0, 0, 0, 0, 0])
        measure = _MEASURES.get(name, _points if layer in _POINT_LAYERS else None)
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [0, fid, layer]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                dur = clock() - t0
                stack.pop()
                tracer._close(frame, parent, dur, 0)
                raise
            dur = clock() - t0
            stack.pop()
            tracer._close(frame, parent, dur, measure(args, result) if measure else 0)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _close(self, frame, parent, dur: int, m: int) -> None:
        fid, layer = frame[1], frame[2]
        rec = self.stats[fid]
        own = dur - frame[0]
        rec[CALLS] += 1
        rec[SELF_NS] += own
        rec[MEASURE] += m
        self.task_layers[layer] = self.task_layers.get(layer, 0) + own
        if parent is None:
            self.root_ns += dur
            entry = True
        else:
            parent[0] += dur
            entry = parent[2] != layer
            key = (parent[1], fid)
            edge = self.edges.get(key)
            if edge is None:
                edge = self.edges[key] = [0, 0]
            edge[0] += 1
            edge[1] += m
        if entry:
            rec[ENTRIES] += 1
            rec[ENTRY_MEASURE] += m
            rec[SINGLE_ENTRIES] += m == 1

    # -- tasks and export ------------------------------------------------
    def end_task(self) -> dict[str, int]:
        """Per-layer self ns of the task just finished; resets the bucket."""
        out, self.task_layers = self.task_layers, {}
        return out

    def export(self) -> dict:
        return {
            "names": self.names,
            "stats": self.stats,
            "edges": [[a, b, c, m] for (a, b), (c, m) in self.edges.items()],
            "root_ns": self.root_ns,
        }


class Summary:
    """Aggregated span statistics by function name, mergeable across processes."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}
        self.edges: dict[tuple[str, str], list[int]] = {}
        self.root_ns = 0

    def add(self, exported: dict) -> None:
        names = exported["names"]
        for name, rec in zip(names, exported["stats"]):
            acc = self.stats.setdefault(name, [0] * 6)
            for i, v in enumerate(rec):
                acc[i] += v
        for a, b, c, m in exported["edges"]:
            acc = self.edges.setdefault((names[a], names[b]), [0, 0])
            acc[0] += c
            acc[1] += m
        self.root_ns += exported["root_ns"]

    def _sum(self, field: int, pred) -> int:
        return sum(rec[field] for name, rec in self.stats.items() if pred(name))

    def _layer(self, field: int, layer: str) -> int:
        return self._sum(field, lambda n: n.split(".", 1)[0] == layer)

    def _fn(self, field: int, name: str) -> int:
        return self.stats.get(name, [0] * 6)[field]

    def _edge(self, pred) -> tuple[int, int]:
        count = points = 0
        for (a, b), (c, m) in self.edges.items():
            if pred(a, b):
                count += c
                points += m
        return count, points

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics that come from spans (values, no units)."""
        ms = 1e-6
        lay = lambda name: name.split(".", 1)[0]  # noqa: E731
        out: dict[str, float] = {}
        calls = self._layer(ENTRIES, "theta")
        points = self._layer(ENTRY_MEASURE, "theta")
        out["theta.calls"] = calls
        out["theta.points"] = points
        out["theta.points_per_call"] = points / calls if calls else 0.0
        out["theta.single_calls"] = self._layer(SINGLE_ENTRIES, "theta")
        out["theta.self_ms"] = self._layer(SELF_NS, "theta") * ms
        out["elliptic.calls"] = self._layer(ENTRIES, "elliptic")
        out["elliptic.single_calls"] = self._layer(SINGLE_ENTRIES, "elliptic")
        out["elliptic.self_ms"] = self._layer(SELF_NS, "elliptic") * ms
        zeros = self._fn(MEASURE, "divisors.locate_zeros")
        evals, contour_points = self._edge(
            lambda a, b: lay(a) == "divisors" and lay(b) == "elliptic")
        out["divisors.locate_zeros.calls"] = self._fn(CALLS, "divisors.locate_zeros")
        out["divisors.evals_per_zero"] = evals / zeros if zeros else 0.0
        out["divisors.contour_points"] = contour_points
        out["divisors.self_ms"] = self._layer(SELF_NS, "divisors") * ms
        out["lattice.calls"] = self._layer(ENTRIES, "lattice")
        out["lattice.self_ms"] = self._layer(SELF_NS, "lattice") * ms
        attempts, _ = self._edge(
            lambda a, b: a == "covering.continue_fiber" and b == "covering.polar_conic")
        segments = self._fn(MEASURE, "covering.continue_fiber")
        out["covering.continue_fiber.calls"] = self._fn(CALLS, "covering.continue_fiber")
        out["covering.step_attempts"] = attempts
        out["covering.step_useful_ratio"] = segments / attempts if attempts else 0.0
        out["covering.lambda_fiber.calls"] = self._fn(CALLS, "covering.lambda_fiber")
        out["covering.self_ms"] = self._layer(SELF_NS, "covering") * ms
        out["covering.branch_divisors.self_ms"] = (
            self._fn(SELF_NS, "covering.branch_divisors_direct")
            + self._fn(SELF_NS, "covering.branch_divisors_via_tangents")) * ms
        out["projective.proj_distance.calls"] = self._fn(CALLS, "projective.proj_distance")
        out["projective.self_ms"] = self._layer(SELF_NS, "projective") * ms
        out["cubic.F.calls"] = self._fn(CALLS, "cubic.Cubic.F")
        out["cubic.grad.calls"] = self._fn(CALLS, "cubic.Cubic.grad")
        out["cubic.self_ms"] = self._layer(SELF_NS, "cubic") * ms
        out["hesse.qeps_mul.calls"] = self._fn(CALLS, "hesse.QEps.__mul__")
        out["hesse.self_ms"] = self._layer(SELF_NS, "hesse") * ms
        out["report.self_ms"] = self._layer(SELF_NS, "report") * ms
        out["report.bytes_out"] = self._fn(MEASURE, "report.render_report")
        out["cli.self_ms"] = self._layer(SELF_NS, "cli") * ms
        return out

    def top_functions(self, k: int = 12) -> list[list]:
        """The k functions with the most self time: [name, calls, self_ms]."""
        ranked = sorted(self.stats.items(), key=lambda it: -it[1][SELF_NS])[:k]
        return [[name, rec[CALLS], rec[SELF_NS] * 1e-6] for name, rec in ranked if rec[CALLS]]
