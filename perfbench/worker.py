"""One workload, run as a closed loop with one client in a fresh interpreter.

Started by run.py, which imports only SETUP_REQUEST from it; prints one
JSON record as its last stdout line.  With --setup-only it stops after
set-up, so run.py can sample set-up time in several fresh interpreters; an
untraced run asks for SETUP_SAMPLES of them at even intervals of its loop,
pausing meanwhile.

Untraced run: tasks are issued one after another until --seconds of loop
time have passed, stopping at a round boundary and never before the
workload's minimum task count; task times are plain wall times.  The
workload's defect-probe inputs, if any, are run once afterwards.  Traced
run: each task of a fixed list is run once untraced and once traced; the
difference in wall time is the tracing overhead, and the per-layer numbers
come from the traced runs only.
"""
import time

T_START_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

HARD_LIMIT_S = 120.0      # stop issuing tasks after this much process time
MAX_LISTED_FAILURES = 50
SETUP_SAMPLES = 6         # with the run's own set-up, seven samples of setup_s
SETUP_REQUEST = "#perfbench-setup-sample"


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Inputs:
    """Task inputs made on demand, outside every timed region; the time
    spent is reported separately."""

    def __init__(self, workload, keep: bool):
        self.workload = workload
        self.keep = keep
        self.cache = {}
        self.gen_ns = 0

    def get(self, i):
        inp = self.cache.get(i)
        if inp is None:
            t0 = now_ns()
            inp = self.workload.make_input(i)
            self.gen_ns += now_ns() - t0
            self.cache[i] = inp
        if not self.keep:
            self.cache.pop(i - 1, None)
        return inp


def run_one(workload, inp, tracer=None):
    """(wall s, passed, error, note, digest text, raised) for one task, where
    raised means the task or its check raised; the tracer, if given, records
    the task but not its check."""
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        out = workload.run(inp)
    except Exception as exc:  # a failed task is counted, never fatal
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        note = f"{type(exc).__name__}: {exc}"
        return dt, False, math.inf, note, note, True
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    try:
        ok, err, note, digest = workload.check(inp, out)
    except Exception as exc:
        note = f"check raised {type(exc).__name__}: {exc}"
        return dt, False, math.inf, note, note, True
    return dt, ok, err, note, digest, False


class Tally:
    """Task outcomes, the failure list and the digest of the results of the
    first ``trace_tasks`` tasks."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.walls = []
        self.passed = 0
        self.failures = []
        self.failed = 0
        self.unexplained = 0
        self.prefix_errs = []
        self.errs = []
        self.digest = hashlib.sha256()

    def add(self, i, inp, result):
        dt, ok, err, note, digest, raised = result
        self.walls.append(dt)
        if i < self.workload.trace_tasks:
            self.digest.update(f"{i}:{ok}:{digest}\n".encode())
        if ok:
            self.passed += 1
            self.errs.append(err)
            if i < self.workload.prefix:
                self.prefix_errs.append(err)
            return
        self.failed += 1
        defect = self.workload.known_defect(inp, note, raised)
        if defect is None:
            self.unexplained += 1
        if len(self.failures) < MAX_LISTED_FAILURES:
            self.failures.append({"task": i, "seed": self.seed, "input": self.workload.describe(inp),
                                  "error": note[:500], "raised": raised, "known_defect": defect})


def end_to_end(tally):
    walls = tally.walls
    n = len(walls)
    ordered = sorted(walls)
    if n >= 11:
        tail, pct = ordered[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = ordered[-1], 100.0
    errs = tally.prefix_errs or tally.errs
    worst = max(errs) if errs else 1.0
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if tally.workload.spawns_processes else resource.RUSAGE_SELF)
    return {
        "tasks_per_s": tally.passed / sum(walls),
        "task_p50_ms": statistics.median(walls) * 1e3,
        "task_tail_ms": tail * 1e3,
        "pass_frac": tally.passed / n,
        "err_digits": -math.log10(max(worst, 1e-17)),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }, {
        "n": n,
        "tail_percentile": pct,
        "timed_s": sum(walls),
        "task_ms": [round(x * 1e3, 3) for x in walls],
        "err_samples": len(errs),
        "err_from": "prefix" if tally.prefix_errs else "all passing tasks",
        "worst_err": worst,
    }


def defect_probe(workload, seed):
    """Outcome of each of the workload's defect-probe inputs, untimed; not
    counted among the tasks."""
    out = []
    for inp in workload.probe_inputs():
        _, ok, _, note, _, raised = run_one(workload, inp)
        out.append({"seed": seed, "input": workload.describe(inp), "passed": ok,
                    "error": note[:500], "raised": raised,
                    "known_defect": None if ok else workload.known_defect(inp, note, raised)})
    return out


def request_setup_sample() -> float:
    """Have run.py time one set-up-only interpreter; returns the pause in s."""
    t0 = time.perf_counter()
    print(SETUP_REQUEST, flush=True)
    sys.stdin.readline()
    return time.perf_counter() - t0


def timed_run(workload, inputs, args):
    """Closed loop; returns the tally and the loop time, pauses excluded."""
    tally = Tally(workload, args.seed)
    t_loop = time.perf_counter()
    paused = 0.0
    samples = 0
    i = 0
    while True:
        if i % workload.round_size == 0:
            loop_s = time.perf_counter() - t_loop - paused
            if samples < SETUP_SAMPLES and loop_s >= samples * args.seconds / SETUP_SAMPLES:
                paused += request_setup_sample()
                samples += 1
            if i >= workload.prefix and loop_s >= args.seconds:
                break
        if (now_ns() - T_START_NS) * 1e-9 > HARD_LIMIT_S:
            break
        inp = inputs.get(i)
        tally.add(i, inp, run_one(workload, inp))
        i += 1
    return tally, time.perf_counter() - t_loop - paused


def traced_run(workload, inputs, args):
    from layertrace import Summary, Tracer

    k = workload.trace_tasks
    todo = [inputs.get(i) for i in range(k)]
    tracer = Tracer()
    tracer.install()
    tracer.patch(False)
    plain = Tally(workload, args.seed)
    traced = Tally(workload, args.seed)
    per_task = []
    # each task runs once untraced and once traced, alternating which goes
    # first, so warm-up and drift fall on both sides of the overhead
    for i, inp in enumerate(todo):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                plain.add(i, inp, run_one(workload, inp))
                continue
            tracer.patch(True)
            workload.traced = True
            children = len(getattr(workload, "child_traces", ()))
            result = run_one(workload, inp, tracer)
            workload.traced = False
            tracer.patch(False)
            layers = tracer.end_task()
            if workload.spawns_processes and len(workload.child_traces) > children:
                layers = workload.child_traces[-1]["task_layers"]
            per_task.append({"task": i, "wall_ms": result[0] * 1e3,
                             "self_ms": {name: ns * 1e-6 for name, ns in sorted(layers.items())}})
            traced.add(i, inp, result)
    summary = Summary()
    summary.add(tracer.export())
    for rec in getattr(workload, "child_traces", []):
        summary.add(rec["trace"])
    wall_plain, wall_traced = sum(plain.walls), sum(traced.walls)
    metrics = summary.layer_metrics()
    if workload.spawns_processes:
        metrics["cli.import_ms"] = statistics.median(workload.child_import_ms or [0.0])
        metrics["cli.interp_start_ms"] = statistics.median(workload.child_start_ms or [0.0])
    else:
        metrics["cli.import_ms"] = args.import_ms
        metrics["cli.interp_start_ms"] = (T_START_NS - args.spawn_ns) * 1e-6 if args.spawn_ns else 0.0
    metrics["trace.overhead_frac"] = (wall_traced - wall_plain) / wall_plain
    metrics["trace.unaccounted_frac"] = (wall_traced - summary.root_ns * 1e-9) / wall_traced
    counts = {name: metrics[name] for name in
              ("theta.points", "covering.step_attempts", "hesse.qeps_mul.calls",
               "divisors.evals_per_zero")}
    detail = {
        "tasks": k,
        "untraced_wall_s": wall_plain,
        "traced_wall_s": wall_traced,
        "results_match": plain.digest.hexdigest() == traced.digest.hexdigest(),
        "top_self_ms": summary.top_functions(),
        "per_task": per_task,
    }
    return traced, metrics, counts, detail


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes
    import glob

    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawn-ns", type=int, default=0)
    args = ap.parse_args(argv)
    # the program's own overflow warnings would only add stderr noise
    warnings.simplefilter("ignore", RuntimeWarning)

    t0 = now_ns()
    import elliptica  # noqa: F401
    args.import_ms = (now_ns() - t0) * 1e-6
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    inputs = Inputs(workload, keep=bool(args.trace))
    for i in range(workload.round_size):
        inputs.get(i)
    t_ready = now_ns()
    record = {"t_start_ns": T_START_NS, "t_ready_ns": t_ready, "import_ms": args.import_ms}
    if args.setup_only:
        print(json.dumps(record))
        return 0
    setup_gen_ns = inputs.gen_ns
    if args.trace:
        tally, metrics, counts, detail = traced_run(workload, inputs, args)
        record.update(metrics=metrics, counts=counts, trace=detail,
                      consistent=detail["results_match"])
    else:
        tally, loop_s = timed_run(workload, inputs, args)
        metrics, detail = end_to_end(tally)
        detail["loop_s"] = loop_s
        record.update(metrics=metrics, detail=detail, consistent=True,
                      defect_probe=defect_probe(workload, args.seed))
    record.update(
        attempted=len(tally.walls),
        failed=tally.failed,
        unexplained_failures=tally.unexplained,
        failures=tally.failures,
        digest=tally.digest.hexdigest(),
        input_gen_ms={"setup": setup_gen_ns * 1e-6, "total": inputs.gen_ns * 1e-6},
        blas_threads=blas_threads(),
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
