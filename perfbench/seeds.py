"""Seeded benchmark inputs, generated in a child process.

``python3 perfbench/seeds.py --workload NAME --seed N --out DIR`` draws
the workload's inputs from the seed, simulates them, writes the log
files (``dxt-heavy`` and ``campaign``), runs one warm-up report and
writes ``DIR/manifest.json``.  The benchmark runs this child before its
timed phase, so simulation memory never counts toward the measuring
process's peak RSS, and times the child's whole life as set-up.

The seed drives the scale and knob draws of every input.  Draws stay
inside ranges that keep each input's injected issues, so quality
metrics are comparable across seeds, and keep the work per input
within about 1% on ``dxt-heavy`` and ``journey``, so timings are too.
Each input also gets a distinct file or directory name, rank count or
header size, so no two inputs of one seed share a log digest; the child
checks this and fails otherwise.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from checkout import use_checkout_source  # noqa: E402

#: Small registry workloads of the campaign (DXT volume negligible).
CAMPAIGN_MIX = (
    "ior-easy-2k-shared",
    "ior-easy-1m-shared",
    "ior-easy-1m-fpp",
    "ior-easy-mixed",
    "ior-rnd4k",
    "md-workbench",
    "stdio-logger",
    "openpmd-optimized",
    "e2e-baseline",
    "e2e-optimized",
)
CAMPAIGN_VARIANTS = 3

#: IO500-shaped workloads whose journeys verify a remedy, with their
#: scale relative to the journey scale and their default file name.
JOURNEY_MIX = {
    "ior-easy-2k-shared": (2.0, "/lustre/ior-easy/ior_file_easy"),
    "ior-rnd4k": (1.0, "/lustre/ior-rnd/IOR_file_random"),
    "ior-hard": (1.0, "/lustre/ior-hard/IOR_file"),
}


def _tag(seed: int, variant: int) -> str:
    return f"s{seed}v{variant}"


def _campaign_draw(rng: random.Random, name: str, tag: str, pick: int):
    """(scale, knobs) of one campaign log; ``pick`` differs per variant."""
    if name.startswith("ior-easy"):
        default = "/lustre/ior-mixed/ior_file_mixed" if name == "ior-easy-mixed" else "/lustre/ior-easy/ior_file_easy"
        return rng.uniform(0.010, 0.014), {
            "file_name": f"{default}.{tag}",
            "seed": rng.randrange(1 << 30),
        }
    if name == "ior-rnd4k":
        return rng.uniform(0.0045, 0.0055), {
            "file_name": f"/lustre/ior-rnd/IOR_file_random.{tag}",
            "seed": rng.randrange(1 << 30),
        }
    if name == "md-workbench":
        return rng.uniform(0.10, 0.12), {"directory": f"/lustre/mdwb-{tag}"}
    if name == "stdio-logger":
        return rng.uniform(0.008, 0.012), {"log_path": f"/lustre/run/app-{tag}.log"}
    if name == "openpmd-optimized":
        return 12 / 384, {"seed": rng.randrange(1 << 30)}
    # e2e-*: no name knob.  Issues hold for 8-32 ranks on the baseline
    # (``pick`` is the rank count) and for any small odd header write on
    # the optimized replay.
    if name == "e2e-baseline":
        return pick / 1024, {}
    return 12 / 1024, {"header_write_size": 2 * pick + 301}


def draw_specs(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The seeded input specs of one benchmark workload."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if workload == "dxt-heavy":
        # Only the rank count scales openPMD; each rank is ~8% of the
        # work at 12 ranks, so the seed moves per-rank knobs instead.
        ranks, main, aux, reads = (8, 120, 60, 120) if tiny else (12, 716, 397, 718)
        knobs = {
            "writes_main_per_rank": main + rng.randint(-4, 4),
            "writes_aux_per_rank": aux + rng.randint(-4, 4),
            "reads_per_rank": reads + rng.randint(-4, 4),
            "small_size": 2 * rng.randint(3200, 3352) + 1,
            "seed": rng.randrange(1 << 30),
        }
        return [
            {"name": "openpmd-baseline", "workload": "openpmd-baseline",
             "scale": ranks / 384, "knobs": knobs}
        ]
    if workload == "campaign":
        mix = CAMPAIGN_MIX[::3] if tiny else CAMPAIGN_MIX
        variants = 1 if tiny else CAMPAIGN_VARIANTS
        specs = []
        for name in mix:
            # Distinct picks give each variant a distinct log, also where
            # the pick is all that varies (the e2e-baseline rank count).
            population = range(8, 33) if name == "e2e-baseline" else range(1800)
            picks = rng.sample(population, variants)
            for variant in range(variants):
                scale, knobs = _campaign_draw(
                    rng, name, _tag(seed, variant), picks[variant]
                )
                specs.append({
                    "name": f"{name}-{variant}", "workload": name,
                    "scale": scale, "knobs": knobs,
                })
        return specs
    if workload == "journey":
        base = 0.002 if tiny else 0.005
        return [
            {"name": name, "workload": name,
             "scale": relative * base * rng.uniform(0.99, 1.01),
             "knobs": {"file_name": f"{default}.{_tag(seed, 0)}",
                       "seed": rng.randrange(1 << 30)}}
            for name, (relative, default) in JOURNEY_MIX.items()
        ]
    raise SystemExit(f"perfbench: unknown workload {workload!r}")


def generate(workload: str, seed: int, out: Path, tiny: bool) -> dict:
    """Simulate every input, write the log files and the manifest."""
    from repro.darshan.binformat import write_log
    from repro.service.cache import log_digest
    from repro.workloads.registry import make_workload

    specs = draw_specs(workload, seed, tiny)
    setup = {"simulations": 0, "simulate_s": 0.0, "segments": 0,
             "logs": 0, "write_s": 0.0, "log_bytes": 0}
    digests: dict[str, str] = {}
    for spec in specs:
        t0 = time.perf_counter()
        bundle = make_workload(spec["workload"], spec["knobs"]).run(
            scale=spec["scale"]
        )
        setup["simulate_s"] += time.perf_counter() - t0
        setup["simulations"] += 1
        spec["segments"] = len(bundle.log.dxt_segments)
        setup["segments"] += spec["segments"]
        spec["truth"] = {
            "issues": sorted(i.value for i in bundle.truth.issues),
            "mitigations": sorted(m.value for m in bundle.truth.mitigations),
        }
        spec["digest"] = log_digest(bundle.log)
        clash = digests.get(spec["digest"])
        if clash is not None:
            raise SystemExit(
                f"perfbench: seed {seed} drew identical logs for "
                f"{clash} and {spec['name']}"
            )
        digests[spec["digest"]] = spec["name"]
        if workload != "journey":
            spec["path"] = f"{spec['name']}.darshan"
            t0 = time.perf_counter()
            path = write_log(bundle.log, out / spec["path"])
            setup["write_s"] += time.perf_counter() - t0
            setup["logs"] += 1
            setup["log_bytes"] += path.stat().st_size
    return {"workload": workload, "seed": seed, "inputs": specs, "setup": setup}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    use_checkout_source()
    from runners import RUNNERS
    from repro.obs.trace import NULL_TRACER

    args.out.mkdir(parents=True, exist_ok=True)
    manifest = generate(args.workload, args.seed, args.out, args.tiny)
    runner = RUNNERS[args.workload](manifest, args.out, args.out)
    warm = runner.warm_up(NULL_TRACER)
    failed = [o for o in warm.outcomes if o.error]
    if failed:
        raise SystemExit(f"perfbench: warm-up failed: {failed[0].error}")
    manifest["reference"] = runner.references
    (args.out / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True), encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
