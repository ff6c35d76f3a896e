#!/usr/bin/env python3
"""Run the benchmark over many seeds and record how steady it is.

    python3 perfbench/steadiness.py --runs 10 --label set-a
    python3 perfbench/steadiness.py --runs 10 --label set-b

Each workload runs ``--runs`` times untraced, seeds 1, 2, ...  For every end-to-end metric the record holds the ten values,
their median and their spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) over the median,
next to the metric's bound from ``BENCHMARK.json``.  The host-speed
probe of each run (a fixed pure-Python loop timed at its start and end)
is kept beside the values, as a diagnostic.

Sets accumulate in ``--record`` under their labels.  When a set with
the same seeds is already there, the new set is compared with it: each
median must not be worse by more than the bound, and the deterministic
metrics must repeat exactly, seed by seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Values that depend only on the seed, never on timing.
DETERMINISTIC = ("issue_recall", "issue_precision", "report_ok_ratio", "query_ok_ratio")


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} was not correct: {lines[-2]}")
    diagnostics = json.loads(lines[-2][2:])
    run = {
        "seed": seed,
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "calibration_s": diagnostics["calibration_s"],
        "samples": diagnostics["samples"],
    }
    if trace:
        artefact = BENCH / "out" / f"{workload}-seed{seed}-trace1.json"
        saved = json.loads(artefact.read_text("utf-8"))
        run["layer_extras"] = saved["layer_extras"]
        run["self_time"] = saved["self_time"]
    return run


def spread(values: list[float]) -> tuple[float, float]:
    """(median, quartile distance over median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def summarize(runs: list[dict], bounds: dict) -> dict:
    table = {}
    for name, (bound, better) in bounds.items():
        values = [r["metrics"][name] for r in runs]
        median, width = spread(values)
        table[name] = {
            "median": median, "spread": width, "bound": bound,
            "steady": width <= bound / 3,
            "better": better, "values": values,
        }
    return table


def compare(old: dict, new: dict, workload: str) -> list[str]:
    """Problems between two sets of one workload (empty when they agree)."""
    problems = []
    for name, row in new["metrics"].items():
        before, after = old["metrics"][name]["median"], row["median"]
        worse = (after - before if row["better"] == "lower" else before - after) / before
        if worse > row["bound"]:
            problems.append(f"{workload}/{name}: median worse by {worse:.1%}")
    old_runs = {r["seed"]: r for r in old["runs"]}
    for run in new["runs"]:
        twin = old_runs.get(run["seed"])
        for name in DETERMINISTIC if twin else ():
            if twin["metrics"][name] != run["metrics"][name]:
                problems.append(f"{workload}/{name}: seed {run['seed']} changed")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--label", default="set")
    parser.add_argument("--record", type=Path, default=BENCH / "steadiness.json")
    parser.add_argument(
        "--traced", action="store_true",
        help="instead, record one traced run per workload (per-layer view)",
    )
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    record = json.loads(args.record.read_text("utf-8")) if args.record.exists() else {}
    record.setdefault("run_seconds", spec["run_seconds"])
    if args.traced:
        traced = record.setdefault("traced", {})
        for workload in workloads:
            traced[workload] = run_once(workload, 1, spec["run_seconds"], 1)
            print(workload, traced[workload]["metrics"], flush=True)
        args.record.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        return 0
    sets = record.setdefault("sets", {})
    current = sets.setdefault(args.label, {})
    problems = []
    for workload in workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: {runs[-1]['metrics']}", flush=True)
        current[workload] = {"runs": runs, "metrics": summarize(runs, bounds)}
        for name, row in current[workload]["metrics"].items():
            flag = "" if row["steady"] else "  NOT STEADY"
            print(f"  {name:16s} median {row['median']:.4g} spread "
                  f"{row['spread']:.2%} bound {row['bound']:.0%}{flag}")
            if not row["steady"]:
                problems.append(f"{workload}/{name}: spread {row['spread']:.1%}")
        for label, other in sets.items():
            if label != args.label and workload in other:
                problems += [f"vs {label}: {p}" for p in compare(other[workload], current[workload], workload)]
        args.record.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for problem in problems:
        print("PROBLEM", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
