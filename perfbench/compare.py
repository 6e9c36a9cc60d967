"""Parent-versus-change comparison under the benchmark's own rule.

    python3 perfbench/compare.py pairs --parent DIR --change DIR --out DIR [--workloads W ...]
    python3 perfbench/compare.py judge PARENT.jsonl CHANGE.jsonl

``pairs`` runs this directory's run.py (identical benchmark code for both
sides) in the two checkouts, alternating which side goes first in each pair;
pair k uses seed k for k = 1..PAIRS, and one more pair uses HELDOUT_SEED.
Records are appended to OUT/parent.jsonl and OUT/change.jsonl, then judged.

``judge`` prints one row per workload.  A workload is void when any run of
either side is incorrect (an unexplained failure or a determinism
mismatch); its metrics are not judged, and the exit status is 1.  Otherwise,
for each end-to-end metric of BENCHMARK.json, over the pairs of untraced
runs that share a seed:

- gain: the change wins at least 9 in 10 pairs (ties count for neither
  side), the medians differ by more than the parent's interquartile range,
  the held-out pair also goes the change's way, and the change's failed
  share is not above the parent's;
- regression: the change's median is worse than the parent's by more than
  the metric's bound (a share of the parent's median); for ``err_digits``,
  which is fixed for a fixed seed, also when the change loses more than
  ERR_DIGITS_SLACK digits on any seed;
- unresolved: the parent's interquartile range is wider than the bound,
  unless every change run reads better than every parent run;
- same: none of the above.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
PAIRS = 10
HELDOUT_SEED = 1000003
ERR_DIGITS_SLACK = 0.5


def load_spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


def run_pairs(args) -> int:
    spec = load_spec()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    os.makedirs(args.out, exist_ok=True)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    seeds = list(range(1, PAIRS + 1)) + [HELDOUT_SEED]
    for k, seed in enumerate(seeds):
        for workload in workloads:
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", "0", "--out", os.path.join(os.path.abspath(args.out), f"{side}.jsonl")]
                proc = subprocess.run(cmd, cwd=sides[side], stdout=subprocess.DEVNULL)
                status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
                print(f"pair {k} seed {seed} {workload} {side}: {status}", flush=True)
    return judge(os.path.join(args.out, "parent.jsonl"), os.path.join(args.out, "change.jsonl"))


def load_runs(path: str) -> dict:
    """{workload: {seed: record}} of untraced runs (the last run per seed wins)."""
    runs: dict = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"] == 0:
                runs.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(metric: dict, parent: list, change: list, held: tuple | None, fail_up: bool):
    """Verdict on one metric over paired values (same seed at the same index)."""
    better = (lambda c, p: c < p) if metric["better"] == "lower" else (lambda c, p: c > p)
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    worse_by = (cm - pm) / abs(pm) if metric["better"] == "lower" else (pm - cm) / abs(pm)
    dominates = all(better(c, p) for c in change for p in parent)
    info = {"parent_median": pm, "parent_q": [q1, q3], "change_median": cm,
            "change_q": list(quartiles(change)), "wins": wins, "pairs": len(parent),
            "worse_by": worse_by, "heldout_better": None if held is None else better(held[1], held[0])}
    if worse_by > metric["bound"]:
        return "regression", info
    if metric["name"] == "err_digits" and any(p - c > ERR_DIGITS_SLACK for p, c in zip(parent, change)):
        return "regression", info
    if (q3 - q1) > metric["bound"] * abs(pm) and not dominates:
        return "unresolved", info
    if (wins >= 0.9 * len(parent) and len(parent) >= PAIRS and abs(cm - pm) > q3 - q1
            and better(cm, pm) and info["heldout_better"] is not False):
        return ("gain, void: more failures" if fail_up else "gain"), info
    return "same", info


def fail_share(records) -> float:
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 0.0


def judge(parent_path: str, change_path: str) -> int:
    spec = load_spec()
    parent_runs, change_runs = load_runs(parent_path), load_runs(change_path)
    regressions = 0
    details = []
    print("workload | failed share parent -> change | " + " | ".join(
        m["name"] for m in spec["end_to_end"]))
    for workload in [w["name"] for w in spec["workloads"]]:
        p_by_seed = parent_runs.get(workload, {})
        c_by_seed = change_runs.get(workload, {})
        seeds = sorted(s for s in p_by_seed if s in c_by_seed and s != HELDOUT_SEED)
        if not seeds:
            print(f"{workload} | no paired runs")
            continue
        p_recs = [p_by_seed[s] for s in seeds]
        c_recs = [c_by_seed[s] for s in seeds]
        pf, cf = fail_share(p_recs), fail_share(c_recs)
        incorrect = {side: sorted(s for s, r in by_seed.items() if not r["correct"])
                     for side, by_seed in (("parent", p_by_seed), ("change", c_by_seed))}
        if incorrect["parent"] or incorrect["change"]:
            regressions += 1
            print(f"{workload} | {pf:.4f} -> {cf:.4f} | void: incorrect runs, seeds "
                  f"parent {incorrect['parent']} change {incorrect['change']}")
            continue
        fail_up = cf > pf
        cells = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in p_recs]
            cv = [r["metrics"][name]["value"] for r in c_recs]
            held = None
            if HELDOUT_SEED in p_by_seed and HELDOUT_SEED in c_by_seed:
                held = (p_by_seed[HELDOUT_SEED]["metrics"][name]["value"],
                        c_by_seed[HELDOUT_SEED]["metrics"][name]["value"])
            v, info = verdict(metric, pv, cv, held, fail_up)
            regressions += v == "regression"
            cells.append(v)
            details.append((workload, name, metric["unit"], v, info))
        flag = " (more failures)" if fail_up else ""
        print(f"{workload} | {pf:.4f} -> {cf:.4f}{flag} | " + " | ".join(cells))
    print()
    for workload, name, unit, v, info in details:
        print(f"{workload:14s} {name:13s} parent {info['parent_median']:.6g} "
              f"[{info['parent_q'][0]:.6g}, {info['parent_q'][1]:.6g}] "
              f"change {info['change_median']:.6g} [{info['change_q'][0]:.6g}, "
              f"{info['change_q'][1]:.6g}] {unit}; wins {info['wins']}/{info['pairs']}; "
              f"held-out {info['heldout_better']}; {v}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("pairs", help="run alternating parent/change pairs, then judge")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workloads", nargs="*")
    j = sub.add_parser("judge", help="judge two JSON-lines result sets")
    j.add_argument("parent")
    j.add_argument("change")
    args = ap.parse_args(argv)
    if args.cmd == "pairs":
        return run_pairs(args)
    return judge(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
