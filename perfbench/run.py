"""elliptica benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the repository root (the directory holding ``src/elliptica``).  The
program is used from source through PYTHONPATH; nothing is installed.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full record (run context, sample counts, failures, trace detail), which
``--out`` also appends to FILE as one JSON line for ``compare.py``.

Set-up time is the median of the measured interpreter's own set-up and of
the set-up-only interpreters it asks for during its timed loop, so that the
samples are spread over the run like the tasks; in plain seconds.
Task times are plain wall times.  Determinism is
checked against earlier runs of the same code, workload and seed, stored in
``.perfbench/fingerprints.json``; a mismatch makes the run incorrect.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

from worker import SETUP_REQUEST

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("abel_divisors", "wp_grid", "monodromy", "hesse_exact", "cli")
RUN_TIMEOUT_S = 170.0
FINGERPRINT_COUNTS = ("theta.points", "covering.step_attempts", "hesse.qeps_mul.calls",
                      "divisors.evals_per_zero")


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics a run prints, from BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class RunError(Exception):
    pass


def spawn_worker(base, extra, env, deadline):
    """Start a fresh worker interpreter; return (spawn ns, its JSON record,
    set-up samples).  Each SETUP_REQUEST line the worker prints is answered,
    after one set-up-only interpreter has been timed, by a line on its stdin;
    the worker pauses its loop meanwhile."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *base, *extra]
    spawn = now_ns()
    proc = subprocess.Popen(cmd + ["--spawn-ns", str(spawn)], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, env=env, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    samples, last = [], ""
    try:
        for line in proc.stdout:
            if line.strip() == SETUP_REQUEST:
                samples.append(setup_sample(base, env, deadline))
                proc.stdin.write("\n")
                proc.stdin.flush()
            elif line.strip():
                last = line
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RunError("worker exceeded the run time limit" if time.monotonic() >= deadline
                       else f"worker exited with status {proc.returncode}")
    if not last:
        raise RunError("worker printed no record")
    return spawn, json.loads(last), samples


def setup_sample(base, env, deadline) -> float:
    """Seconds from spawn to the first task being ready, in a fresh
    interpreter that stops there."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *base, "--setup-only"]
    spawn = now_ns()
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True, check=True,
                             timeout=max(1.0, deadline - time.monotonic())).stdout
    except (subprocess.TimeoutExpired, subprocess.CalledProcessError) as exc:
        raise RunError(f"set-up sample failed: {exc}") from None
    return (json.loads(out.strip().splitlines()[-1])["t_ready_ns"] - spawn) * 1e-9


def code_hash(root: str) -> str:
    h = hashlib.sha256()
    for base in (os.path.join(root, "src", "elliptica"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def check_fingerprint(root: str, key: str, fingerprint: dict) -> list[str]:
    """Compare with the stored fingerprint for key, store it when new;
    returns the names of the fields that differ."""
    path = os.path.join(root, ".perfbench", "fingerprints.json")
    try:
        with open(path) as fh:
            store = json.load(fh)
    except (OSError, ValueError):
        store = {}
    old = store.get(key, {})
    diff = [k for k, v in fingerprint.items() if k in old and old[k] != v]
    if not diff:
        store[key] = {**old, **fingerprint}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + f".{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(store, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return diff


def cpu_ticks() -> list[int]:
    """The machine-wide cpu line of /proc/stat (read only); empty if absent."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_frac(start: list[int], end: list[int]) -> float | None:
    """Share of CPU time the hypervisor gave to other guests (the steal
    column) between two cpu_ticks() readings."""
    if len(start) < 8 or len(end) < 8:
        return None
    delta = [b - a for a, b in zip(start, end)]
    return delta[7] / sum(delta[:8]) if sum(delta[:8]) else 0.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def version(pkg: str) -> str:
    try:
        return metadata.version(pkg)
    except metadata.PackageNotFoundError:
        return "missing"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="elliptica benchmark run")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="append the full record to this JSON-lines file")
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "elliptica", "__init__.py")):
        print("perfbench: no src/elliptica in the current directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    compileall.compile_dir(os.path.join(src, "elliptica"), quiet=1)

    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"

    load_start, ticks_start = os.getloadavg(), cpu_ticks()
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        spawn, rec, samples = spawn_worker(
            base, ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups = [(rec["t_ready_ns"] - spawn) * 1e-9] + samples
    load_end, ticks_end = os.getloadavg(), cpu_ticks()

    units = metric_units(args.trace)
    if args.trace:
        values = rec["metrics"]
        fingerprint = {"digest": rec["digest"],
                       "counts": {k: values[k] for k in FINGERPRINT_COUNTS}}
    else:
        values = dict(rec["metrics"], setup_s=statistics.median(setups))
        fingerprint = {"digest": rec["digest"]}
    key = f"{args.workload}/seed={args.seed}/code={code_hash(root)}"
    mismatched = check_fingerprint(root, key, fingerprint)

    correct = rec["consistent"] and rec["unexplained_failures"] == 0 and not mismatched
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "unexplained_failures": rec["unexplained_failures"],
        "fingerprint": {"key": key, **fingerprint, "mismatched": mismatched},
        "failures": rec["failures"],
        "defect_probe": rec.get("defect_probe", []),
        "setup_samples_s": setups,
        "detail": rec.get("detail") or rec.get("trace"),
        "context": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": version("numpy"),
            "mpmath": version("mpmath"),
            "blas_threads": rec["blas_threads"],
            "blas_env": env["OPENBLAS_NUM_THREADS"],
            "loadavg_start": load_start,
            "loadavg_end": load_end,
            "steal_frac": steal_frac(ticks_start, ticks_end),
            "import_ms": rec["import_ms"],
            "input_gen_ms": rec["input_gen_ms"],
        },
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    probe = record["defect_probe"]
    if probe:
        print(f"# {args.workload} defect probe: {sum(not p['passed'] for p in probe)} of "
              f"{len(probe)} failed, not counted among the tasks")
    for name, m in record["metrics"].items():
        print(f"# {args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
