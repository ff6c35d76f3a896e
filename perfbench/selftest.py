#!/usr/bin/env python3
"""Fast self-test of the benchmark at a tiny input scale.

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` gives every metric a direction and a
valid bound; that every workload, untraced and traced, prints exactly
the metrics listed for it there with their units, correct and without
failures; that one seed repeats its inputs and its
deterministic values while another seed changes the inputs; and that
the benchmark exits non-zero without printing a result in a directory
that holds only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from run import END_TO_END, PER_LAYER  # noqa: E402
from steadiness import DETERMINISTIC  # noqa: E402

SECONDS = "2"
#: Per-layer values that depend on the seed only, never on timing.
COUNTS = (
    "analyzer.queries", "llm.rounds", "sca.vets", "journey.observations",
    "journey.attempts", "journey.fix_gain", "cache.hit_ratio",
)


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done


def result_of(done) -> tuple[dict, dict]:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    diagnostics = json.loads(lines[-2][2:])
    return result, diagnostics


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["better"] in ("lower", "higher"), metric
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values()), bounds
    assert bounds["setup_s"] == max(bounds.values()), "setup_s needs the largest bound"


def check_result(result: dict, table: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(table), set(result["metrics"]) ^ set(table)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == table[name], (name, entry)
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), (name, entry)
        if table is END_TO_END:
            assert entry["value"] > 0, (name, entry)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    check_spec(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        first, first_diag = result_of(bench(workload, 1, 0))
        check_result(first, END_TO_END)
        traced, traced_diag = result_of(bench(workload, 1, 1))
        check_result(traced, PER_LAYER)
        assert traced_diag["inputs"] == first_diag["inputs"], "one seed, two inputs"
        assert traced["metrics"]["obs.coverage"]["value"] >= 0.9, traced["metrics"]["obs.coverage"]
        again, _ = result_of(bench(workload, 1, 0))
        for name in DETERMINISTIC:
            assert again["metrics"][name] == first["metrics"][name], (workload, name)
        retraced, _ = result_of(bench(workload, 1, 1))
        for name in COUNTS:
            assert retraced["metrics"][name] == traced["metrics"][name], (workload, name)
        if workload == "campaign":
            assert traced["metrics"]["cache.hit_ratio"]["value"] == 0.5
        _, other_diag = result_of(bench(workload, 2, 0))
        shared = set(other_diag["inputs"]) & set(first_diag["inputs"])
        assert len(shared) < len(first_diag["inputs"]) / 2, "seed ignored"
        print(f"ok {workload}")

    with tempfile.TemporaryDirectory(dir=BENCH / "out") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = bench("campaign", 1, 0, cwd=bare)
        assert done.returncode != 0, "ran without the program source"
        assert not done.stdout.strip(), done.stdout
    print("ok bare checkout fails")
    return 0


if __name__ == "__main__":
    sys.exit(main())
