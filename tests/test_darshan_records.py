"""Tests for Darshan record models and counter registries."""

from __future__ import annotations

import pytest

from repro.darshan.counters import (
    LUSTRE_MODULE,
    MPIIO_MODULE,
    POSIX_MODULE,
    STDIO_MODULE,
    counters_for,
    fcounters_for,
    known_modules,
)
from repro.darshan.records import DxtSegment, DxtTable, JobRecord, ModuleRecord
from repro.util.ids import file_record_id


class TestCounterRegistry:
    def test_known_modules(self):
        assert known_modules() == (
            POSIX_MODULE, MPIIO_MODULE, STDIO_MODULE, LUSTRE_MODULE,
        )

    def test_posix_has_size_histograms(self):
        names = counters_for(POSIX_MODULE)
        assert "POSIX_SIZE_READ_0_100" in names
        assert "POSIX_SIZE_WRITE_1G_PLUS" in names

    def test_posix_fcounters(self):
        assert "POSIX_F_READ_TIME" in fcounters_for(POSIX_MODULE)

    def test_lustre_has_no_fcounters(self):
        assert fcounters_for(LUSTRE_MODULE) == ()

    def test_unknown_module_rejected(self):
        with pytest.raises(KeyError):
            counters_for("BOGUS")
        with pytest.raises(KeyError):
            fcounters_for("BOGUS")

    def test_counter_names_unique_per_module(self):
        for module in known_modules():
            names = counters_for(module)
            assert len(names) == len(set(names))


class TestJobRecord:
    def test_run_time(self):
        job = JobRecord(job_id=1, uid=2, nprocs=4, start_time=1.0, end_time=3.5)
        assert job.run_time == 2.5

    def test_run_time_never_negative(self):
        job = JobRecord(job_id=1, uid=2, nprocs=4, start_time=5.0, end_time=1.0)
        assert job.run_time == 0.0


class TestModuleRecord:
    def test_counters_normalized_to_full_set(self):
        record = ModuleRecord(
            module=POSIX_MODULE,
            record_id=file_record_id("/a"),
            rank=0,
            counters={"POSIX_READS": 5},
        )
        assert record.counters["POSIX_READS"] == 5
        assert record.counters["POSIX_WRITES"] == 0
        assert record.fcounters["POSIX_F_READ_TIME"] == 0.0

    def test_unknown_counter_rejected(self):
        with pytest.raises(KeyError):
            ModuleRecord(
                module=POSIX_MODULE,
                record_id=1,
                rank=0,
                counters={"NOT_A_COUNTER": 1},
            )

    def test_unknown_fcounter_rejected(self):
        with pytest.raises(KeyError):
            ModuleRecord(
                module=POSIX_MODULE,
                record_id=1,
                rank=0,
                fcounters={"POSIX_READS": 1.0},  # int counter, not float
            )

    def test_get_spans_both_kinds(self):
        record = ModuleRecord(
            module=POSIX_MODULE,
            record_id=1,
            rank=0,
            counters={"POSIX_READS": 3},
            fcounters={"POSIX_F_READ_TIME": 1.25},
        )
        assert record.get("POSIX_READS") == 3
        assert record.get("POSIX_F_READ_TIME") == 1.25
        with pytest.raises(KeyError):
            record.get("MISSING")


class TestDxtSegment:
    def _segment(self, **overrides):
        params = dict(
            module="X_POSIX",
            record_id=1,
            rank=0,
            operation="write",
            offset=0,
            length=100,
            start_time=0.0,
            end_time=1.0,
        )
        params.update(overrides)
        return DxtSegment(**params)

    def test_duration(self):
        assert self._segment().duration == 1.0

    def test_bad_operation_rejected(self):
        with pytest.raises(ValueError):
            self._segment(operation="stat")

    def test_bad_module_rejected(self):
        with pytest.raises(ValueError):
            self._segment(module="X_NFS")

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            self._segment(offset=-1)

    def test_time_travel_rejected(self):
        with pytest.raises(ValueError):
            self._segment(start_time=2.0, end_time=1.0)


_SEGMENT = dict(
    module="X_POSIX",
    record_id=1,
    rank=0,
    operation="write",
    offset=0,
    length=100,
    start_time=0.0,
    end_time=1.0,
)


class TestDxtTable:
    def test_rows_round_trip(self):
        rows = [
            DxtSegment(**_SEGMENT),
            DxtSegment("X_MPIIO", 7, 3, "read", 5, 9, 1.5, 2.0, hostname="n1"),
            DxtSegment(**{**_SEGMENT, "rank": -1}),
        ]
        table = DxtTable()
        for row in rows:
            table.append(row)
        assert len(table) == 3
        assert list(table) == rows
        assert table[1] == rows[1] and table[-1] == rows[-1]
        assert table.hostnames == ["node0", "n1"]
        assert list(table.host_indexes) == [0, 1, 0]

    @pytest.mark.parametrize(
        "overrides",
        [
            {"operation": "stat"},
            {"module": "X_NFS"},
            {"offset": -1},
            {"length": -1},
            {"start_time": 2.0, "end_time": 1.0},
            {"record_id": 2**64},
            {"length": 2**64},
        ],
    )
    def test_add_rejects_invalid_segments(self, overrides):
        table = DxtTable()
        with pytest.raises(ValueError):
            table.add(**{**_SEGMENT, **overrides})
        assert len(table) == 0
        assert all(len(column) == 0 for column in table._columns())

    def test_from_columns_matches_appends(self):
        table = DxtTable()
        table.append(DxtSegment(**_SEGMENT))
        rebuilt = DxtTable.from_columns(*table._columns(), table.hostnames)
        assert list(rebuilt) == list(table)

    @pytest.mark.parametrize(
        "column, value",
        [
            (0, 2),  # module code
            (1, 2),  # operation code
            (7, -1.0),  # end before start
            (8, 1),  # host index past the hostname table
        ],
    )
    def test_from_columns_validates(self, column, value):
        columns = [[0], [0], [0], [1], [0], [100], [0.0], [1.0], [0]]
        columns[column] = [value]
        with pytest.raises(ValueError):
            DxtTable.from_columns(*columns, ["node0"])

    def test_from_columns_rejects_ragged_columns(self):
        with pytest.raises(ValueError, match="length"):
            DxtTable.from_columns([0], [0], [0], [1], [0], [100], [0.0], [1.0], [], ["n"])
