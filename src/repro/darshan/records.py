"""Record models stored inside a Darshan log.

A log holds one :class:`JobRecord`, a name table mapping 64-bit record
ids to file paths, per-module :class:`ModuleRecord` arrays (one per
(file, rank) pair that touched the module), and — when extended tracing
was enabled — a :class:`DxtTable` of traced segments, one row per POSIX
or MPI-IO read/write operation.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.darshan.counters import counters_for, fcounters_for

#: Rank value Darshan uses for records reduced across all ranks of a
#: shared file.  We keep per-rank records by default but the reduction
#: helper in :mod:`repro.darshan.log` produces records with this rank.
SHARED_RANK = -1


@dataclass
class JobRecord:
    """Job-level header stored once per log."""

    job_id: int
    uid: int
    nprocs: int
    start_time: float
    end_time: float
    executable: str = "unknown"
    metadata: dict[str, str] = field(default_factory=dict)

    @property
    def run_time(self) -> float:
        """Wall-clock duration of the job in seconds."""
        return max(0.0, self.end_time - self.start_time)


@dataclass
class NameRecord:
    """Mapping from a 64-bit record id to the file path it names."""

    record_id: int
    path: str
    mount_point: str = "/lustre"
    fs_type: str = "lustre"


@dataclass
class ModuleRecord:
    """One Darshan record: counters for a (module, file, rank) triple."""

    module: str
    record_id: int
    rank: int
    counters: dict[str, int] = field(default_factory=dict)
    fcounters: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        known = counters_for(self.module)
        fknown = fcounters_for(self.module)
        for name in self.counters:
            if name not in known:
                raise KeyError(f"{name!r} is not a {self.module} counter")
        for name in self.fcounters:
            if name not in fknown:
                raise KeyError(f"{name!r} is not a {self.module} fcounter")
        # Normalize to the full counter set so downstream consumers can
        # index any registered counter without .get() chains.
        self.counters = {name: self.counters.get(name, 0) for name in known}
        self.fcounters = {name: self.fcounters.get(name, 0.0) for name in fknown}

    def get(self, counter: str) -> int | float:
        """Look up an integer or float counter by name."""
        if counter in self.counters:
            return self.counters[counter]
        if counter in self.fcounters:
            return self.fcounters[counter]
        raise KeyError(f"{counter!r} is not a {self.module} counter")


@dataclass(frozen=True, slots=True)
class DxtSegment:
    """One traced I/O operation from the DXT module.

    ``module`` is ``"X_POSIX"`` or ``"X_MPIIO"`` (matching darshan-dxt-parser
    naming), ``operation`` is ``"read"`` or ``"write"``.
    """

    module: str
    record_id: int
    rank: int
    operation: str
    offset: int
    length: int
    start_time: float
    end_time: float
    hostname: str = "node0"

    def __post_init__(self) -> None:
        if self.operation not in ("read", "write"):
            raise ValueError(f"bad DXT operation {self.operation!r}")
        if self.module not in ("X_POSIX", "X_MPIIO"):
            raise ValueError(f"bad DXT module {self.module!r}")
        if self.length < 0 or self.offset < 0:
            raise ValueError("DXT offset/length must be non-negative")
        if self.end_time < self.start_time:
            raise ValueError("DXT segment ends before it starts")

    @property
    def duration(self) -> float:
        """Wall time of the operation in seconds."""
        return self.end_time - self.start_time


#: DXT module and operation names, indexed by their codes in a
#: :class:`DxtTable` and in the binary log.
DXT_MODULES = ("X_POSIX", "X_MPIIO")
DXT_OPERATIONS = ("read", "write")
_MODULE_CODES = {name: code for code, name in enumerate(DXT_MODULES)}
_OPERATION_CODES = {name: code for code, name in enumerate(DXT_OPERATIONS)}


class DxtTable:
    """Every DXT segment of a log, stored as one ``array`` per field.

    This is the only in-memory form of DXT data: the simulator appends
    to it, the binary format decodes into and encodes from its columns,
    and the extractor writes ``DXT.csv`` straight from them.  Hostnames
    are interned: :attr:`hostnames` holds each distinct name once and
    :attr:`host_indexes` points into it.  Iteration and indexing give
    :class:`DxtSegment` rows.
    """

    __slots__ = (
        "module_codes",
        "op_codes",
        "ranks",
        "record_ids",
        "offsets",
        "lengths",
        "start_times",
        "end_times",
        "host_indexes",
        "hostnames",
        "_host_lookup",
    )

    def __init__(self) -> None:
        self.module_codes = array("B")
        self.op_codes = array("B")
        self.ranks = array("q")
        self.record_ids = array("Q")
        self.offsets = array("Q")
        self.lengths = array("Q")
        self.start_times = array("d")
        self.end_times = array("d")
        self.host_indexes = array("I")
        self.hostnames: list[str] = []
        self._host_lookup: dict[str, int] = {}

    @classmethod
    def from_columns(
        cls,
        module_codes: Iterable[int],
        op_codes: Iterable[int],
        ranks: Iterable[int],
        record_ids: Iterable[int],
        offsets: Iterable[int],
        lengths: Iterable[int],
        start_times: Iterable[float],
        end_times: Iterable[float],
        host_indexes: Iterable[int],
        hostnames: Iterable[str],
    ) -> "DxtTable":
        """Build a table from whole columns, validated column-wise.

        Raises :class:`ValueError` on the conditions :meth:`add` rejects
        row by row, on a host index past :attr:`hostnames` and on
        columns of unequal length.
        """
        table = cls()
        try:
            table.module_codes = array("B", module_codes)
            table.op_codes = array("B", op_codes)
            table.ranks = array("q", ranks)
            table.record_ids = array("Q", record_ids)
            table.offsets = array("Q", offsets)
            table.lengths = array("Q", lengths)
            table.start_times = array("d", start_times)
            table.end_times = array("d", end_times)
            table.host_indexes = array("I", host_indexes)
        except OverflowError:
            raise ValueError("DXT value out of range for its column") from None
        table.hostnames = list(hostnames)
        table._host_lookup = {name: index for index, name in enumerate(table.hostnames)}
        if len({len(column) for column in table._columns()}) > 1:
            raise ValueError("DXT columns differ in length")
        if table:
            if max(table.module_codes) >= len(DXT_MODULES):
                raise ValueError(f"bad DXT module code {max(table.module_codes)}")
            if max(table.op_codes) >= len(DXT_OPERATIONS):
                raise ValueError(f"bad DXT operation code {max(table.op_codes)}")
            if max(table.host_indexes) >= len(table.hostnames):
                raise ValueError("DXT host index past the hostname table")
            if any(map(operator.lt, table.end_times, table.start_times)):
                raise ValueError("DXT segment ends before it starts")
        return table

    def _columns(self) -> tuple[array, ...]:
        return (
            self.module_codes,
            self.op_codes,
            self.ranks,
            self.record_ids,
            self.offsets,
            self.lengths,
            self.start_times,
            self.end_times,
            self.host_indexes,
        )

    def add(
        self,
        module: str,
        record_id: int,
        rank: int,
        operation: str,
        offset: int,
        length: int,
        start_time: float,
        end_time: float,
        hostname: str = "node0",
    ) -> None:
        """Append one segment; validates it as :class:`DxtSegment` does."""
        op_code = _OPERATION_CODES.get(operation)
        if op_code is None:
            raise ValueError(f"bad DXT operation {operation!r}")
        module_code = _MODULE_CODES.get(module)
        if module_code is None:
            raise ValueError(f"bad DXT module {module!r}")
        if length < 0 or offset < 0:
            raise ValueError("DXT offset/length must be non-negative")
        if end_time < start_time:
            raise ValueError("DXT segment ends before it starts")
        host = self._host_lookup.get(hostname)
        if host is None:
            host = self._host_lookup[hostname] = len(self.hostnames)
            self.hostnames.append(hostname)
        size = len(self.module_codes)
        try:
            self.record_ids.append(record_id)
            self.ranks.append(rank)
            self.offsets.append(offset)
            self.lengths.append(length)
        except OverflowError:
            # Keep the columns the same length.
            for column in (self.record_ids, self.ranks, self.offsets):
                del column[size:]
            raise ValueError("DXT record id, rank, offset or length out of range") from None
        self.module_codes.append(module_code)
        self.op_codes.append(op_code)
        self.start_times.append(start_time)
        self.end_times.append(end_time)
        self.host_indexes.append(host)

    def append(self, segment: DxtSegment) -> None:
        """Append one :class:`DxtSegment` row."""
        self.add(
            segment.module,
            segment.record_id,
            segment.rank,
            segment.operation,
            segment.offset,
            segment.length,
            segment.start_time,
            segment.end_time,
            segment.hostname,
        )

    def __len__(self) -> int:
        return len(self.module_codes)

    def __getitem__(self, index: int) -> DxtSegment:
        return DxtSegment(
            DXT_MODULES[self.module_codes[index]],
            self.record_ids[index],
            self.ranks[index],
            DXT_OPERATIONS[self.op_codes[index]],
            self.offsets[index],
            self.lengths[index],
            self.start_times[index],
            self.end_times[index],
            self.hostnames[self.host_indexes[index]],
        )

    def __iter__(self) -> Iterator[DxtSegment]:
        return map(
            DxtSegment,
            map(DXT_MODULES.__getitem__, self.module_codes),
            self.record_ids,
            self.ranks,
            map(DXT_OPERATIONS.__getitem__, self.op_codes),
            self.offsets,
            self.lengths,
            self.start_times,
            self.end_times,
            map(self.hostnames.__getitem__, self.host_indexes),
        )

    def __repr__(self) -> str:
        return f"DxtTable({len(self)} segments)"
