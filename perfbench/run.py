#!/usr/bin/env python3
"""ION benchmark: seeded workloads through the public APIs.

    python3 perfbench/run.py --workload dxt-heavy --seed 1 --seconds 25 --trace 0

Set-up runs ``seeds.py`` in a child process several times (imports,
seeded input generation, one warm-up report) and reports the median as
``setup_s``.  The measuring process then warms up once and repeats
whole cycles of its workload until ``--seconds`` have passed.

With ``--trace 0`` the last line of stdout is a JSON object with every
end-to-end metric, measured with tracing off.  With ``--trace 1`` the
cycles alternate between no tracer and a fresh ``repro.obs.Tracer``;
per-layer metrics come from the traced cycles only, and
``obs.overhead`` compares the two halves.  The traced run also writes
a self-time table to ``perfbench/out/``.  Every report is checked (see
``runners.py``); a failed check counts the report as failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from checkout import BENCH, OUT, ROOT, use_checkout_source  # noqa: E402

#: Metric name -> unit, as listed in BENCHMARK.json.  With ``--trace 0``
#: every workload reports every end-to-end metric; with ``--trace 1``
#: every per-layer metric.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

SETUP_REPEATS = 5
#: A percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10
MB = 1e6


def calibrate() -> float:
    """Median seconds of a fixed pure-Python loop (host-speed probe)."""
    def loop() -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc + i * i) % 1_000_003
        return time.perf_counter() - t0

    return statistics.median(loop() for _ in range(3))


def set_up(args, work: Path) -> tuple[float, dict, Path, list[float]]:
    """Run the input child ``SETUP_REPEATS`` times; keep the first inputs."""
    repeats = 1 if args.tiny else SETUP_REPEATS
    walls, manifests = [], []
    for index in range(repeats):
        out = work / f"setup-{index}"
        command = [
            sys.executable, str(BENCH / "seeds.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--out", str(out),
        ] + (["--tiny"] if args.tiny else [])
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms,
        # which quantizes a one-second set-up by 5%.
        done = subprocess.run(command, cwd=ROOT)
        walls.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: input generation failed ({done.returncode})")
        manifests.append(json.loads((out / "manifest.json").read_text("utf-8")))
        if index:
            shutil.rmtree(out)
    digests = {tuple(i["digest"] for i in m["inputs"]) for m in manifests}
    if len(digests) != 1:
        raise SystemExit("perfbench: one seed generated different inputs")
    return statistics.median(walls), manifests[0], work / "setup-0", walls


def percentile(values: list[float], q: int) -> float | None:
    """The q-th percentile, if at least TAIL_SAMPLES samples lie beyond it."""
    if len(values) * (100 - q) / 100 < TAIL_SAMPLES:
        return None
    return statistics.quantiles(values, n=100)[q - 1]


def measure(runner, seconds: float, traced: bool):
    """Repeat whole cycles for ``seconds``; alternate tracing if traced."""
    from repro.obs.trace import NULL_TRACER, Tracer
    from layers import CYCLE

    cycles = []
    gc.collect()
    started = time.perf_counter()
    # A traced run needs at least one cycle of each kind.
    least = 2 if traced else 1
    while len(cycles) < least or time.perf_counter() - started < seconds:
        tracer = Tracer() if traced and len(cycles) % 2 else NULL_TRACER
        cpu = cpu_seconds()
        with tracer.span(CYCLE):
            cycle = runner.cycle(tracer, measure_csv=tracer is not NULL_TRACER)
        cycle.cpu = cpu_seconds() - cpu
        cycles.append((cycle, tracer.spans()))
    return cycles


def cpu_seconds() -> float:
    """User and system CPU of this process and its reaped children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (
            resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN),
        )
    )


def per_input(outcomes) -> list:
    """The first good outcome of each input, in input order.

    Every repetition of an input must render the same report, so its
    scores repeat too; averaging one outcome per input keeps quality
    values bit-identical whatever the number of cycles.
    """
    first: dict = {}
    for outcome in outcomes:
        if outcome.error is None:
            first.setdefault(outcome.key, outcome)
    return list(first.values())


def end_to_end(cycles, setup_s: float) -> dict[str, float]:
    outcomes = [o for cycle, _ in cycles for o in cycle.outcomes]
    good = [o for o in outcomes if o.error is None]
    inputs = per_input(outcomes)
    queries = sum(o.queries for o in outcomes)
    return {
        "setup_s": setup_s,
        "report_p50_s": statistics.median(o.seconds for o in good) if good else 0.0,
        "reports_per_s": len(good) / sum(c.wall for c, _ in cycles),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB,
        "issue_recall": statistics.fmean(o.recall for o in inputs) if inputs else 0.0,
        "issue_precision": statistics.fmean(o.precision for o in inputs) if inputs else 0.0,
        "report_ok_ratio": len(good) / len(outcomes),
        "query_ok_ratio": 1 - sum(o.degraded for o in outcomes) / queries if queries else 0.0,
    }


def per_layer(cycles, manifest: dict) -> tuple[dict, list[dict], dict]:
    """Per-layer metrics of the traced cycles, the self-time table, extras.

    Times and counts are per report (per journey on ``journey``).  A
    layer a workload does not exercise reads 0 there; those layers are
    given as rates, sizes, counts or ratios, never as seconds.
    """
    from layers import add_self_times, coverage, layer_totals

    traced = [(c, spans) for c, spans in cycles if spans]
    plain = [c for c, spans in cycles if not spans]
    t: dict[str, float] = {}
    rows: dict[str, dict] = {}
    covered = wall = 0.0
    for cycle, spans in traced:
        for key, value in layer_totals(spans).items():
            t[key] = t.get(key, 0.0) + value
        add_self_times(spans, rows)
        got, cycle_wall = coverage(spans)
        covered += got
        wall += cycle_wall
    table = sorted(rows.values(), key=lambda r: -r["self_s"])
    for row in table:
        row["share"] = row["self_s"] / wall

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    reports = sum(len(c.outcomes) for c, _ in traced)
    setup = manifest["setup"]
    if not t["simulations"]:
        # dxt-heavy and campaign simulate only while setting up.
        t["simulations"], t["simulate_s"] = setup["simulations"], setup["simulate_s"]
        t["simulated_segments"] = setup["segments"]
    gains = [o.fix_gain for o in per_input(o for c, _ in traced for o in c.outcomes)]

    def median_seconds(group) -> float:
        return statistics.median(o.seconds for c in group for o in c.outcomes)

    metrics = {
        "iosim.simulate_s": ratio(t["simulate_s"], t["simulations"]),
        "iosim.segments_per_s": ratio(t["simulated_segments"], t["simulate_s"]),
        "darshan.log_mb": ratio(setup["log_bytes"] / MB, setup["logs"]),
        "darshan.write_mb_per_s": ratio(setup["log_bytes"] / MB, setup["write_s"]),
        "darshan.read_segments_per_s": ratio(
            sum(c.segments_read for c, _ in traced), t["read_s"]
        ),
        "extractor.extract_s": ratio(t["extract_s"], reports),
        "extractor.rows_per_s": ratio(t["rows"], t["extract_s"]),
        "extractor.csv_mb": ratio(sum(c.csv_bytes for c, _ in traced) / MB, t["extractions"]),
        "analyzer.analyze_s": ratio(t["analyze_s"], reports),
        "analyzer.critical_query_s": ratio(t["critical_s"], t["analyses"]),
        "analyzer.queries": ratio(t["queries"], reports),
        "llm.rounds": ratio(t["rounds"], reports),
        "llm.round_self_s": ratio(t["round_self_s"], reports),
        "sca.vets": ratio(t["vets"], reports),
        "sca.vet_s": ratio(t["vet_s"], reports),
        "cache.hit_ratio": ratio(
            sum(c.cache_hits for c, _ in traced), sum(c.cache_lookups for c, _ in traced)
        ),
        "batch.overlap": ratio(sum(c.busy for c, _ in traced), sum(c.wall for c, _ in traced)),
        "batch.cpu_util": ratio(sum(c.cpu for c, _ in traced), sum(c.wall for c, _ in traced)),
        "journey.observations": ratio(t["observations"], reports),
        "journey.attempts": ratio(t["attempts"], reports),
        "journey.fix_gain": (
            math.exp(statistics.fmean(map(math.log, gains))) if gains and all(gains) else 0.0
        ),
        "render.report_s": ratio(t["render_s"], reports),
        "obs.overhead": median_seconds(c for c, _ in traced) / median_seconds(plain) - 1,
        "obs.coverage": ratio(covered, wall),
    }
    # Layer times that only some workloads have; kept out of the
    # metrics so no metric reads a constant 0 s.
    extras = {
        "darshan.write_s": ratio(setup["write_s"], setup["logs"]),
        "darshan.read_s": ratio(t["read_s"], reports),
        "cache.hit_s": ratio(t["hit_s"], t["hits"]),
        "cache.miss_s": ratio(t["miss_s"], sum(c.cache_lookups for c, _ in traced) - t["hits"]),
        "journey.observe_s": ratio(t["observe_s"], t["observations"]),
    }
    return metrics, table, extras


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("dxt-heavy", "campaign", "journey"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, one set-up (self-test)")
    args = parser.parse_args(argv)
    use_checkout_source()

    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)).resolve()
    # The program's scratch space (tempfile.mkdtemp) stays in the checkout.
    os.environ["TMPDIR"] = str(work / "tmp")
    (work / "tmp").mkdir()
    tempfile.tempdir = None
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    calibration_start = calibrate()
    setup_s, manifest, inputs_dir, setup_walls = set_up(args, work)

    from runners import RUNNERS
    from repro.obs.trace import NULL_TRACER

    runner = RUNNERS[args.workload](manifest, inputs_dir, work)
    warm = runner.warm_up(NULL_TRACER)
    cycles = measure(runner, args.seconds, traced=bool(args.trace))
    calibration_end = calibrate()

    outcomes = [o for cycle, _ in cycles for o in cycle.outcomes]
    failed = [o for o in warm.outcomes + outcomes if o.error]
    seconds = sorted(o.seconds for o in outcomes if o.error is None)
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cycles": len(cycles),
        "samples": {"setup_s": len(setup_walls), "report_p50_s": len(seconds)},
        "setup_walls_s": setup_walls,
        "report_p90_s": percentile(seconds, 90) if seconds else None,
        "calibration_s": {"start": calibration_start, "end": calibration_end},
        "errors": sorted({o.error for o in failed})[:5],
        "inputs": [i["digest"][:16] for i in manifest["inputs"]],
    }
    if args.trace:
        metrics, table, extras = per_layer(cycles, manifest)
        diagnostics["layer_extras"] = extras
        diagnostics["self_time"] = table
        units = PER_LAYER
    else:
        metrics = end_to_end(cycles, setup_s)
        units = END_TO_END
    artefact = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    artefact.write_text(
        json.dumps({**diagnostics, "metrics": metrics}, indent=1), encoding="utf-8"
    )
    if args.trace:
        print(f"{'span':28s} {'count':>7s} {'total_s':>9s} {'self_s':>9s} {'share':>6s}")
        for row in diagnostics["self_time"]:
            print(f"{row['span']:28s} {row['count']:7d} {row['total_s']:9.3f} "
                  f"{row['self_s']:9.3f} {row['share']:6.3f}")
    print("# " + json.dumps({k: v for k, v in diagnostics.items() if k != "self_time"}))
    result = {
        "correct": not failed,
        "attempted": len(warm.outcomes) + len(outcomes),
        "failed": len(failed),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
