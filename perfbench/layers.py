"""Per-layer numbers from the spans of the traced run.

Self time of a span is its duration minus the part of that interval
its children cover.  Children are linked by ``parent_id``; a span the
program starts as a new trace root (``batch.campaign``,
``trace.diagnose``, ``journey.navigate``) is adopted by the innermost
span that contains it in time on its own thread or, failing that, on
the main thread, where the benchmark and the schedulers
(``batch.campaign``) run.  So waiting in a scheduler shows as the
scheduler's self time instead of vanishing, and one batch worker's
diagnosis never eats into another worker's spans.
"""

from __future__ import annotations

import threading
from collections import defaultdict

CYCLE = "bench.cycle"


def _union(intervals: list[tuple[float, float]]) -> float:
    total, edge = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= edge:
            continue
        total += end - max(start, edge)
        edge = end
    return total


def self_times(spans: list) -> dict[str, float]:
    """span_id -> self seconds, for every finished span."""
    by_id = {s.span_id: s for s in spans}
    main = threading.main_thread().name
    children: dict[str, list] = defaultdict(list)
    for span in spans:
        parent = by_id.get(span.parent_id) if span.parent_id else None
        if parent is None and span.name != CYCLE:
            hosts = [
                h for h in spans
                if h is not span and h.start <= span.start and h.end >= span.end
            ]
            own = [h for h in hosts if h.thread == span.thread]
            hosts = own or [h for h in hosts if h.thread == main]
            if hosts:
                parent = min(hosts, key=lambda h: (h.duration, -h.start))
        if parent is not None:
            children[parent.span_id].append(span)
    result = {}
    for span in spans:
        covered = _union([
            (max(c.start, span.start), min(c.end, span.end))
            for c in children[span.span_id]
        ])
        result[span.span_id] = max(span.duration - covered, 0.0)
    return result


def coverage(spans: list) -> tuple[float, float]:
    """(covered seconds, wall seconds) of the cycle roots.

    Covered time is the union of every other span's interval inside a
    cycle; for a serial run it equals the summed self time of those
    spans, and under threads it counts overlapping work once.
    """
    roots = [s for s in spans if s.name == CYCLE]
    covered = 0.0
    for root in roots:
        covered += _union([
            (max(s.start, root.start), min(s.end, root.end))
            for s in spans
            if s is not root and s.end > root.start and s.start < root.end
        ])
    return covered, sum(r.duration for r in roots)


def add_self_times(spans: list, rows: dict[str, dict]) -> None:
    """Add per-name count, inclusive and self seconds of ``spans`` to rows."""
    selfs = self_times(spans)
    for span in spans:
        row = rows.setdefault(
            span.name, {"span": span.name, "count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["count"] += 1
        row["total_s"] += span.duration
        row["self_s"] += selfs[span.span_id]


def layer_totals(spans: list) -> dict[str, float]:
    """Span-derived sums and counts; callers turn them into metrics."""
    selfs = self_times(spans)
    by_name: dict[str, list] = defaultdict(list)
    children: dict[str, list] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent_id:
            children[span.parent_id].append(span)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    rounds = by_name["llm.round"]
    diagnoses = by_name["trace.diagnose"]
    vet_in_rounds = sum(
        c.duration for r in rounds for c in children[r.span_id] if c.name == "sca.vet"
    )
    # Journey simulations: the DXT rows of the extraction that follows
    # each ``simulate`` inside one ``journey.observe`` are its segments.
    simulated = sum(
        event.attributes.get("rows", 0)
        for observe in by_name["journey.observe"]
        for child in children[observe.span_id]
        if child.name == "extractor.extract"
        for event in child.events
        if event.attributes.get("module") == "DXT"
    )
    return {
        "extract_s": total("extractor.extract"),
        "extractions": len(by_name["extractor.extract"]),
        "rows": sum(s.attributes.get("rows", 0) for s in by_name["extractor.extract"]),
        "analyze_s": total("analyzer.analyze"),
        "analyses": len(by_name["analyzer.analyze"]),
        # The slowest issue query of each report, summed over reports.
        "critical_s": sum(
            max(
                (d.duration for d in _descendants(a, children) if d.name == "analyzer.query"),
                default=0.0,
            )
            for a in by_name["analyzer.analyze"]
        ),
        "queries": len(by_name["analyzer.query"]) + len(by_name["analyzer.summarize"]),
        "rounds": len(rounds),
        "round_self_s": total("llm.round") - vet_in_rounds,
        "vets": len(by_name["sca.vet"]),
        "vet_s": total("sca.vet"),
        "render_s": total("bench.render"),
        "observations": len(by_name["journey.observe"]),
        "attempts": len(by_name["journey.attempt"]),
        "simulations": len(by_name["simulate"]),
        "simulate_s": total("simulate"),
        "simulated_segments": simulated,
        "observe_s": total("journey.observe"),
        # Decoding a log file is the self time of the call that reads it.
        "read_s": sum(
            selfs[s.span_id]
            for s in by_name["bench.diagnose_file"] + by_name["trace.diagnose"]
        ),
        "hits": sum(1 for s in diagnoses if s.attributes.get("cache.hit")),
        "hit_s": sum(s.duration for s in diagnoses if s.attributes.get("cache.hit")),
        "miss_s": sum(s.duration for s in diagnoses if not s.attributes.get("cache.hit")),
    }


def _descendants(span, children):
    stack = list(children[span.span_id])
    while stack:
        child = stack.pop()
        yield child
        stack.extend(children[child.span_id])
