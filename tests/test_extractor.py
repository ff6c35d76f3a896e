"""Tests for the ION Extractor."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.darshan.log import DarshanLog
from repro.darshan.records import DxtSegment, JobRecord, NameRecord
from repro.ion.extractor import DXT_COLUMNS, Extractor
from repro.util.csvio import read_rows, write_rows
from repro.util.errors import ExtractionError
from repro.util.units import MIB


class TestExtraction:
    def test_csv_per_module(self, easy_2k_bundle, tmp_path):
        result = Extractor().extract(easy_2k_bundle.log, tmp_path)
        assert set(result.csv_paths) == {"POSIX", "LUSTRE", "DXT"}
        for path in result.csv_paths.values():
            assert path.exists()

    def test_posix_rows_one_per_file_rank(self, easy_extraction, easy_2k_bundle):
        rows = read_rows(easy_extraction.path_for("POSIX"))
        assert len(rows) == len(easy_2k_bundle.log.records_for("POSIX")) == 4
        assert rows[0]["file"] == "/lustre/ior-easy/ior_file_easy"
        assert "POSIX_FILE_NOT_ALIGNED" in rows[0]

    def test_counter_values_survive(self, easy_extraction, easy_2k_bundle):
        rows = read_rows(easy_extraction.path_for("POSIX"))
        total_writes = sum(int(row["POSIX_WRITES"]) for row in rows)
        expected = sum(
            r.counters["POSIX_WRITES"]
            for r in easy_2k_bundle.log.records_for("POSIX")
        )
        assert total_writes == expected == 4096

    def test_dxt_rows_one_per_op(self, easy_extraction, easy_2k_bundle):
        assert easy_extraction.row_counts["DXT"] == len(
            easy_2k_bundle.log.dxt_segments
        )
        rows = read_rows(easy_extraction.path_for("DXT"))
        assert rows[0]["operation"] in ("read", "write")
        assert int(rows[0]["segment"]) == 0

    def test_dxt_segment_numbering_per_stream(self, easy_extraction):
        rows = read_rows(easy_extraction.path_for("DXT"))
        first_rank0 = [r for r in rows if r["rank"] == "0"][:3]
        assert [int(r["segment"]) for r in first_rank0] == [0, 1, 2]

    def test_system_parameters(self, easy_extraction):
        system = easy_extraction.system
        assert system["nprocs"] == 4
        assert system["rpc_size"] == 4 * MIB
        assert system["lustre_stripe_size"] == MIB
        assert system["lustre_stripe_width"] == 4
        assert system["run_time_seconds"] > 0

    def test_columns_recorded(self, easy_extraction):
        assert easy_extraction.columns["POSIX"][:3] == ["file_id", "rank", "file"]
        assert "POSIX_F_READ_TIME" in easy_extraction.columns["POSIX"]

    def test_has_module_and_path_for(self, easy_extraction):
        assert easy_extraction.has_module("POSIX")
        assert not easy_extraction.has_module("MPI-IO")
        with pytest.raises(ExtractionError):
            easy_extraction.path_for("MPI-IO")

    def test_empty_log_rejected(self, tmp_path):
        log = DarshanLog(
            job=JobRecord(job_id=1, uid=1, nprocs=1, start_time=0, end_time=1)
        )
        with pytest.raises(ExtractionError):
            Extractor().extract(log, tmp_path)

    def test_extract_file_round_trip(self, easy_2k_bundle, tmp_path):
        from repro.darshan.binformat import write_log

        log_path = write_log(easy_2k_bundle.log, tmp_path / "trace.darshan")
        result = Extractor().extract_file(log_path, tmp_path / "out")
        assert result.row_counts["POSIX"] == 4

    def test_custom_rpc_size(self, easy_2k_bundle, tmp_path):
        result = Extractor(rpc_size=16 * MIB).extract(
            easy_2k_bundle.log, tmp_path
        )
        assert result.system["rpc_size"] == 16 * MIB

    def test_mpiio_trace_extracts_mpiio_csv(self, tmp_path):
        from repro.workloads.openpmd import OpenPmdOptimized

        bundle = OpenPmdOptimized().run(scale=0.025)
        result = Extractor().extract(bundle.log, tmp_path)
        assert result.has_module("MPI-IO")
        rows = read_rows(result.path_for("MPI-IO"))
        assert any(int(r["MPIIO_COLL_WRITES"]) > 0 for r in rows)


def _reference_dxt_csv(log: DarshanLog, path) -> None:
    """``DXT.csv`` as the row-dict ``csv.DictWriter`` path writes it."""
    segment_index: Counter = Counter()

    def rows():
        for seg in log.dxt_segments:
            key = (seg.module, seg.record_id, seg.rank)
            index = segment_index[key]
            segment_index[key] += 1
            yield {
                "module": seg.module,
                "rank": seg.rank,
                "operation": seg.operation,
                "segment": index,
                "offset": seg.offset,
                "length": seg.length,
                "start": f"{seg.start_time:.9f}",
                "end": f"{seg.end_time:.9f}",
                "file_id": seg.record_id,
                "file": log.path_for(seg.record_id),
            }

    write_rows(path, DXT_COLUMNS, rows())


#: File paths with the characters the CSV quoting rules care about.
_PATHS = st.text(
    st.sampled_from('/a ,"\'\t\r\n;é字')
    | st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=16,
)
_SEGMENTS = st.lists(
    st.tuples(
        st.sampled_from(["X_POSIX", "X_MPIIO"]),
        st.integers(0, 2),  # which of the three files
        st.integers(-1, 3),
        st.sampled_from(["read", "write"]),
        st.integers(0, 2**63),
        st.integers(0, 2**40),
        st.floats(0, 1e7, allow_nan=False),
        st.floats(0, 1e3, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)


class TestColumnarDxtCsv:
    @settings(
        max_examples=60,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,  # tmp_path is reused safely
        ],
    )
    @given(paths=st.lists(_PATHS, min_size=3, max_size=3), segments=_SEGMENTS)
    def test_matches_dictwriter_output(self, tmp_path, paths, segments):
        log = DarshanLog(
            job=JobRecord(job_id=1, uid=1, nprocs=4, start_time=0, end_time=1)
        )
        for record_id, path in enumerate(paths):
            log.add_name(NameRecord(record_id, path))
        for module, record_id, rank, op, offset, length, start, duration in segments:
            log.add_dxt(
                DxtSegment(
                    module, record_id, rank, op, offset, length, start, start + duration
                )
            )
        result = Extractor().extract(log, tmp_path / "columnar")
        _reference_dxt_csv(log, tmp_path / "reference.csv")
        assert result.row_counts["DXT"] == len(segments)
        assert result.path_for("DXT").read_bytes() == (
            tmp_path / "reference.csv"
        ).read_bytes()
