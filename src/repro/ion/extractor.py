"""The ION Extractor: Darshan log -> per-module CSV files.

Mirrors the paper's design: the general parser output becomes one CSV
per module present in the log (``POSIX.csv``, ``MPI-IO.csv``,
``STDIO.csv``, ``LUSTRE.csv``), each row a unique (file, rank) pair
with one column per Darshan counter; the DXT parser output becomes
``DXT.csv`` with one row per traced read/write operation.

The extractor also distills the *system parameters* the Analyzer
injects into prompts (rank count, stripe and RPC sizes) — stripe
geometry is read out of the LUSTRE module records rather than asked of
the user, a step the paper lists as future work.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.darshan.binformat import read_log
from repro.darshan.counters import counters_for, fcounters_for
from repro.darshan.log import DarshanLog
from repro.darshan.records import DXT_MODULES, DXT_OPERATIONS
from repro.obs.trace import NULL_TRACER
from repro.util.csvio import write_rows
from repro.util.errors import ExtractionError
from repro.util.metrics import MetricsRegistry
from repro.util.units import MIB

DXT_COLUMNS = (
    "module",
    "rank",
    "operation",
    "segment",
    "offset",
    "length",
    "start",
    "end",
    "file_id",
    "file",
)

_BASE_COLUMNS = ("file_id", "rank", "file")

#: One ``DXT.csv`` row, formatted exactly as ``csv.DictWriter`` writes
#: the same cells (start/end as ``%.9f``, the file cell pre-quoted).
_DXT_LINE = "%s,%d,%s,%d,%d,%d,%.9f,%.9f,%d,%s\r\n"


def _csv_cell(text: str) -> str:
    """``text`` quoted as the ``csv`` module quotes a non-final cell."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow([text, ""])
    return buffer.getvalue()[: -len(",\r\n")]


def _write_dxt_csv(path: Path, log: DarshanLog) -> int:
    """Write ``DXT.csv`` straight from the log's DXT columns.

    The bytes equal what :func:`~repro.util.csvio.write_rows` writes
    for the same rows; ``segment`` numbers each (module, file, rank)
    stream's operations from 0 in log order.
    """
    table = log.dxt_segments
    files = {rid: _csv_cell(log.path_for(rid)) for rid in set(table.record_ids)}
    segment_index: dict[tuple[int, int, int], int] = {}

    def lines():
        for module, rank, op, offset, length, start, end, rid in zip(
            table.module_codes,
            table.ranks,
            table.op_codes,
            table.offsets,
            table.lengths,
            table.start_times,
            table.end_times,
            table.record_ids,
        ):
            key = (module, rid, rank)
            index = segment_index.get(key, 0)
            segment_index[key] = index + 1
            yield _DXT_LINE % (
                DXT_MODULES[module],
                rank,
                DXT_OPERATIONS[op],
                index,
                offset,
                length,
                start,
                end,
                rid,
                files[rid],
            )

    with path.open("w", newline="") as handle:
        handle.write(",".join(DXT_COLUMNS) + "\r\n")
        handle.writelines(lines())
    return len(table)


@dataclass
class ExtractionResult:
    """Everything the Analyzer needs to build prompts."""

    directory: Path
    csv_paths: dict[str, Path]
    columns: dict[str, list[str]]
    row_counts: dict[str, int]
    system: dict[str, object] = field(default_factory=dict)

    def has_module(self, module: str) -> bool:
        """Whether a module CSV was produced (including ``DXT``)."""
        return module in self.csv_paths

    def path_for(self, module: str) -> Path:
        """The CSV path of one module."""
        try:
            return self.csv_paths[module]
        except KeyError:
            raise ExtractionError(f"no CSV extracted for module {module!r}") from None


class Extractor:
    """Unpacks Darshan logs into the Analyzer's CSV interchange format."""

    def __init__(
        self,
        rpc_size: int = 4 * MIB,
        metrics: MetricsRegistry | None = None,
        tracer=None,
    ) -> None:
        # The RPC size is not recorded in Darshan logs; like the paper,
        # it enters as a system hyper-parameter (default: Lustre's 4 MiB).
        self.rpc_size = rpc_size
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer or NULL_TRACER

    def extract_file(self, log_path: str | Path, out_dir: str | Path) -> ExtractionResult:
        """Parse a binary log file and extract its CSVs."""
        return self.extract(read_log(log_path), out_dir)

    def extract(self, log: DarshanLog, out_dir: str | Path) -> ExtractionResult:
        """Extract CSVs for every module present in ``log``."""
        with self.tracer.span("extractor.extract") as span:
            with self.metrics.timer("extractor.extract.seconds").time():
                result = self._extract(log, out_dir)
            for module in sorted(result.row_counts):
                span.add_event(
                    "csv.emit", module=module, rows=result.row_counts[module]
                )
            span.set_attribute("modules", len(result.csv_paths))
            span.set_attribute("rows", sum(result.row_counts.values()))
        self.metrics.counter("extractor.extractions").inc()
        self.metrics.counter("extractor.rows").inc(sum(result.row_counts.values()))
        return result

    def _extract(self, log: DarshanLog, out_dir: str | Path) -> ExtractionResult:
        # Resolved so the CSV paths quoted in prompts stay valid inside
        # the code interpreter's sandbox, whose relative-path handling
        # is anchored to the extraction directory itself.
        directory = Path(out_dir).resolve()
        directory.mkdir(parents=True, exist_ok=True)
        csv_paths: dict[str, Path] = {}
        columns: dict[str, list[str]] = {}
        row_counts: dict[str, int] = {}
        for module in log.modules:
            path = directory / f"{module}.csv"
            fieldnames = list(_BASE_COLUMNS) + list(counters_for(module)) + list(
                fcounters_for(module)
            )
            rows = (
                {
                    "file_id": record.record_id,
                    "rank": record.rank,
                    "file": log.path_for(record.record_id),
                    **record.counters,
                    **{k: f"{v:.9f}" for k, v in record.fcounters.items()},
                }
                for record in log.records[module]
            )
            row_counts[module] = write_rows(path, fieldnames, rows)
            csv_paths[module] = path
            columns[module] = fieldnames
        if log.has_dxt:
            path = directory / "DXT.csv"
            row_counts["DXT"] = _write_dxt_csv(path, log)
            csv_paths["DXT"] = path
            columns["DXT"] = list(DXT_COLUMNS)
        if not csv_paths:
            raise ExtractionError("log contains no module records to extract")
        return ExtractionResult(
            directory=directory,
            csv_paths=csv_paths,
            columns=columns,
            row_counts=row_counts,
            system=self._system_parameters(log),
        )

    def _system_parameters(self, log: DarshanLog) -> dict[str, object]:
        """Distill prompt-level system facts from the log."""
        system: dict[str, object] = {
            "nprocs": log.job.nprocs,
            "run_time_seconds": round(log.job.run_time, 6),
            "rpc_size": self.rpc_size,
            "executable": log.job.executable,
        }
        stripe_sizes = [
            record.counters["LUSTRE_STRIPE_SIZE"]
            for record in log.records.get("LUSTRE", [])
        ]
        stripe_widths = [
            record.counters["LUSTRE_STRIPE_WIDTH"]
            for record in log.records.get("LUSTRE", [])
        ]
        if stripe_sizes:
            # Dominant stripe size across files; per-file values remain
            # available to analysis code through LUSTRE.csv.
            size_counts = Counter(stripe_sizes)
            system["lustre_stripe_size"] = size_counts.most_common(1)[0][0]
            system["lustre_stripe_width"] = Counter(stripe_widths).most_common(1)[0][0]
        else:
            posix = log.records.get("POSIX", [])
            if posix:
                system["lustre_stripe_size"] = posix[0].counters[
                    "POSIX_FILE_ALIGNMENT"
                ]
        return system
