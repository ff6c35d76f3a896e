"""The three benchmark workloads, driven through the public APIs.

Each runner turns the seeded inputs of a manifest (see ``seeds.py``)
into reports.  One *cycle* is the unit the timed phase repeats:

- ``dxt-heavy``: one ``IoNavigator.diagnose_file`` of a large
  openPMD log, rendered to text, JSON and HTML;
- ``campaign``: one ``BatchNavigator.run`` over every small log,
  each submitted twice against a fresh ``ExtractionCache``, and every
  report rendered;
- ``journey``: one ``JourneyNavigator.navigate`` per seeded IO500
  configuration, each journey report rendered.

Every public call sits inside a ``bench.*`` span of the tracer handed
in, so under a real :class:`repro.obs.Tracer` the program's own spans
nest beneath the benchmark's.  Timings use ``time.perf_counter`` and
are the same with or without a tracer.

Correctness: every report is hashed after its scratch paths are
replaced by placeholders, and the digest must equal the reference the
set-up child computed for the same input (or, for inputs the child did
not warm up, the first digest seen in this process).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.evaluation.matching import score_ion
from repro.ion import AnalyzerConfig, IoNavigator
from repro.ion.htmlreport import render_html
from repro.ion.issues import IssueType, MitigationNote
from repro.ion.report import render_report
from repro.ion.serialize import report_to_dict
from repro.journey.executor import JourneyConfig, JourneyNavigator
from repro.journey.htmlreport import render_journey_html
from repro.journey.render import render_journey
from repro.journey.serialize import journey_to_dict
from repro.service.batch import BatchConfig, BatchNavigator
from repro.service.cache import ExtractionCache
from repro.util.metrics import MetricsRegistry
from repro.workloads.base import GroundTruth
from repro.workloads.registry import make_workload

#: ``tempfile.mkdtemp`` names the program uses for its scratch space.
_MKDTEMP = re.compile(r"(<scratch>/ion-(?:batch-|journey-)?)[a-z0-9_]{8}")


@dataclass
class Outcome:
    """One report (one journey on ``journey``) and how it went."""

    key: str
    seconds: float = 0.0
    digest: str = ""
    recall: float = 0.0
    precision: float = 0.0
    queries: int = 0
    degraded: int = 0
    #: Final over initial aggregate bandwidth (journeys only).
    fix_gain: float = 0.0
    error: str | None = None


@dataclass
class Cycle:
    """The outcomes of one cycle plus what the per-layer view needs."""

    outcomes: list[Outcome]
    wall: float = 0.0
    #: Per-report seconds summed; over ``wall`` this is the overlap.
    busy: float = 0.0
    csv_bytes: int = 0
    cache_hits: int = 0
    cache_lookups: int = 0
    #: DXT segments decoded from log files in this cycle.
    segments_read: int = 0
    #: CPU seconds of this process and its reaped children.
    cpu: float = 0.0


def truth_of(spec: dict) -> GroundTruth:
    return GroundTruth.of(
        {IssueType(value) for value in spec["truth"]["issues"]},
        {MitigationNote(value) for value in spec["truth"]["mitigations"]},
    )


def digest_of(parts: list[str], roots: list[str]) -> str:
    """SHA-256 of the rendered report with scratch paths replaced."""
    blob = "\0".join(parts)
    for root in roots:
        blob = blob.replace(root, "<scratch>")
    blob = _MKDTEMP.sub(r"\1*", blob)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def render_ion(report) -> list[str]:
    return [
        json.dumps(report_to_dict(report), sort_keys=True),
        render_report(report),
        render_html(report),
    ]


def render_trip(report) -> list[str]:
    return [
        json.dumps(journey_to_dict(report), sort_keys=True),
        render_journey(report),
        render_journey_html(report),
    ]


def csv_bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*.csv"))


class Runner:
    """Shared plumbing: inputs, scratch roots, reference digests."""

    def __init__(self, manifest: dict, inputs_dir: Path, work: Path) -> None:
        self.inputs = manifest["inputs"]
        self.inputs_dir = inputs_dir
        self.work = work
        self.references: dict[str, str] = dict(manifest.get("reference", {}))
        self.tmp = Path(tempfile.gettempdir()).resolve()
        self.roots = [str(self.tmp), str(self.work.resolve())]

    def check(self, out: Outcome, parts: list[str]) -> None:
        """Hash the report and compare it with the input's reference."""
        out.digest = digest_of(parts, self.roots)
        expected = self.references.setdefault(out.key, out.digest)
        if out.digest != expected:
            out.error = f"report digest {out.digest[:12]} != {expected[:12]}"

    def score(self, out: Outcome, spec: dict, report) -> None:
        """Quality against the input's ground truth, and query health."""
        score = score_ion(truth_of(spec), report)
        out.recall = score.recall
        out.precision = score.precision
        out.queries = report.health.queries
        out.degraded = report.health.degraded

    def warm_up(self, tracer) -> Cycle:
        """One cycle over the first input only."""
        return self.cycle(tracer, specs=self.inputs[:1])

    def cycle(self, tracer, measure_csv: bool = False, specs=None) -> Cycle:
        """One report per input, serially."""
        started = time.perf_counter()
        cycle = Cycle([])
        for spec in self.inputs if specs is None else specs:
            out = Outcome(spec["name"])
            try:
                self.report(spec, out, cycle, tracer, measure_csv)
            except Exception as exc:  # noqa: BLE001 - counted as a failed report
                out.error = f"{type(exc).__name__}: {exc}"
            cycle.busy += out.seconds
            cycle.outcomes.append(out)
        cycle.wall = time.perf_counter() - started
        return cycle


class DxtHeavy(Runner):
    """``ion``-style diagnosis of one large DXT-bearing log file."""

    name = "dxt-heavy"

    def report(self, spec, out, cycle, tracer, measure_csv) -> None:
        started = time.perf_counter()
        with tracer.span("bench.navigator"):
            nav = IoNavigator(config=AnalyzerConfig(parallel_prompts=2), tracer=tracer)
        try:
            with tracer.span("bench.diagnose_file"):
                result = nav.diagnose_file(self.inputs_dir / spec["path"])
            with tracer.span("bench.render"):
                parts = render_ion(result.report)
            out.seconds = time.perf_counter() - started
            with tracer.span("bench.check"):
                self.check(out, parts)
                self.score(out, spec, result.report)
                if measure_csv:
                    cycle.csv_bytes += csv_bytes_under(result.extraction.directory)
        finally:
            with tracer.span("bench.close"):
                nav.close()
        cycle.segments_read += spec["segments"]


class Campaign(Runner):
    """A batch campaign over small logs, each submitted twice."""

    name = "campaign"

    def cycle(self, tracer, measure_csv: bool = False, specs=None) -> Cycle:
        """Every log submitted twice through one batch pool and cache."""
        specs = self.inputs if specs is None else specs
        started = time.perf_counter()
        cache_root = self.work / "cache"
        with tracer.span("bench.cache_reset"):
            shutil.rmtree(cache_root, ignore_errors=True)
            cache = ExtractionCache(cache_root)
        paths = [self.inputs_dir / spec["path"] for spec in specs]
        config = BatchConfig(
            max_workers=2, analyzer=AnalyzerConfig(parallel_prompts=1)
        )
        cycle = Cycle([])
        summaries = []
        try:
            with BatchNavigator(config=config, cache=cache, tracer=tracer) as batch:
                # Two submissions of every log: the second run finds the
                # whole first run in the cache.
                for _ in range(2):
                    with tracer.span("bench.batch_run"):
                        summaries.append(batch.run(paths))
        except Exception as exc:  # noqa: BLE001 - the whole round failed
            error = f"{type(exc).__name__}: {exc}"
            cycle.outcomes = [
                Outcome(spec["name"], error=error) for spec in specs + specs
            ]
            cycle.wall = time.perf_counter() - started
            return cycle
        for submission, summary in enumerate(summaries):
            for traced, spec in zip(summary.outcomes, specs):
                out = Outcome(spec["name"])
                cycle.outcomes.append(out)
                cycle.busy += traced.duration_seconds
                if not traced.ok:
                    out.error = traced.error
                    continue
                t0 = time.perf_counter()
                with tracer.span("bench.render"):
                    parts = render_ion(traced.report)
                out.seconds = traced.duration_seconds + time.perf_counter() - t0
                with tracer.span("bench.check"):
                    self.check(out, parts)
                    self.score(out, spec, traced.report)
                    if traced.cache_hit != bool(submission):
                        out.error = (
                            f"cache {'hit' if traced.cache_hit else 'miss'} "
                            f"on submission {submission + 1}"
                        )
                cycle.segments_read += spec["segments"]
        stats = cache.stats
        cycle.cache_hits = stats.hits
        cycle.cache_lookups = stats.hits + stats.misses
        if measure_csv:
            cycle.csv_bytes = csv_bytes_under(cache_root)
        with tracer.span("bench.cache_reset"):
            shutil.rmtree(cache_root, ignore_errors=True)
        cycle.wall = time.perf_counter() - started
        return cycle


class Journey(Runner):
    """Closed-loop journeys over seeded IO500 configurations."""

    name = "journey"

    def report(self, spec, out, cycle, tracer, measure_csv) -> None:
        started = time.perf_counter()
        with tracer.span("bench.navigator"):
            workload = make_workload(spec["workload"], spec["knobs"])
            metrics = MetricsRegistry()
            nav = JourneyNavigator(
                analyzer_config=AnalyzerConfig(parallel_prompts=2),
                journey_config=JourneyConfig(scale=spec["scale"]),
                metrics=metrics,
                tracer=tracer,
            )
        try:
            with tracer.span("bench.navigate"):
                report = nav.navigate(workload)
            with tracer.span("bench.render"):
                parts = render_trip(report)
            out.seconds = time.perf_counter() - started
            with tracer.span("bench.check"):
                self.check(out, parts)
                self.score(out, spec, report.initial_report)
                # Every observation along the journey, not only the first.
                out.queries = int(metrics.snapshot()["analyzer.query.seconds.count"])
                out.degraded = metrics.counter_value("analyzer.queries.degraded")
                out.fix_gain = report.overall_delta.bandwidth_ratio
                if not math.isfinite(out.fix_gain) or out.fix_gain <= 0:
                    out.error = f"fix gain {out.fix_gain}"
                if measure_csv:
                    cycle.csv_bytes += csv_bytes_under(self.tmp)
        finally:
            with tracer.span("bench.close"):
                nav.close()


RUNNERS = {runner.name: runner for runner in (DxtHeavy, Campaign, Journey)}
