"""Round-trip and corruption tests for the binary log format."""

from __future__ import annotations

import hashlib
import io
import struct
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.darshan.binformat import MAGIC, read_log, write_log
from repro.service.cache import log_digest
from repro.darshan.counters import counters_for, fcounters_for
from repro.darshan.log import DarshanLog
from repro.darshan.records import DxtSegment, JobRecord, ModuleRecord, NameRecord
from repro.util.errors import DarshanFormatError


def sample_log():
    log = DarshanLog(
        job=JobRecord(
            job_id=77, uid=1001, nprocs=4, start_time=0.0, end_time=12.5,
            executable="app.x", metadata={"key": "value"},
        )
    )
    log.add_name(NameRecord(10, "/lustre/a", "/lustre", "lustre"))
    log.add_name(NameRecord(20, "/lustre/b"))
    log.add_record(
        ModuleRecord(
            module="POSIX", record_id=10, rank=0,
            counters={"POSIX_READS": 5, "POSIX_BYTES_READ": 500},
            fcounters={"POSIX_F_READ_TIME": 1.25},
        )
    )
    log.add_record(
        ModuleRecord(
            module="MPI-IO", record_id=20, rank=1,
            counters={"MPIIO_COLL_WRITES": 7},
        )
    )
    log.add_record(
        ModuleRecord(
            module="LUSTRE", record_id=10, rank=0,
            counters={"LUSTRE_STRIPE_SIZE": 1048576, "LUSTRE_STRIPE_WIDTH": 4},
        )
    )
    log.add_dxt(DxtSegment("X_POSIX", 10, 0, "read", 0, 500, 0.5, 0.75))
    return log


class TestRoundTrip:
    def test_full_round_trip(self, tmp_path):
        log = sample_log()
        path = write_log(log, tmp_path / "log.darshan")
        back = read_log(path)
        assert back.job.job_id == 77
        assert back.job.metadata == {"key": "value"}
        assert back.version == log.version
        assert back.name_records[10].path == "/lustre/a"
        assert back.records_for("POSIX")[0].counters["POSIX_READS"] == 5
        assert back.records_for("POSIX")[0].fcounters[
            "POSIX_F_READ_TIME"
        ] == pytest.approx(1.25)
        assert back.records_for("MPI-IO")[0].counters["MPIIO_COLL_WRITES"] == 7
        assert back.records_for("LUSTRE")[0].counters["LUSTRE_STRIPE_SIZE"] == 1048576
        assert len(back.dxt_segments) == 1
        assert back.dxt_segments[0].operation == "read"

    def test_empty_modules_omitted(self, tmp_path):
        log = DarshanLog(
            job=JobRecord(job_id=1, uid=1, nprocs=1, start_time=0, end_time=1)
        )
        log.add_name(NameRecord(1, "/a"))
        path = write_log(log, tmp_path / "empty.darshan")
        back = read_log(path)
        assert back.modules == []
        assert not back.has_dxt

    @settings(
        max_examples=25,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,  # tmp_path is reused safely
        ],
    )
    @given(
        counters=st.dictionaries(
            st.sampled_from(counters_for("POSIX")),
            st.integers(min_value=0, max_value=2**60),
            max_size=10,
        ),
        fcounters=st.dictionaries(
            st.sampled_from(fcounters_for("POSIX")),
            st.floats(0, 1e9, allow_nan=False),
            max_size=5,
        ),
        rank=st.integers(-1, 3),
    )
    def test_arbitrary_record_round_trip(self, tmp_path, counters, fcounters, rank):
        log = DarshanLog(
            job=JobRecord(job_id=1, uid=1, nprocs=4, start_time=0, end_time=1)
        )
        log.add_name(NameRecord(5, "/x"))
        log.add_record(
            ModuleRecord(
                module="POSIX", record_id=5, rank=rank,
                counters=counters, fcounters=fcounters,
            )
        )
        path = write_log(log, tmp_path / "prop.darshan")
        back = read_log(path).records_for("POSIX")[0]
        for name, value in counters.items():
            assert back.counters[name] == value
        for name, value in fcounters.items():
            assert back.fcounters[name] == pytest.approx(value)
        assert back.rank == rank


class TestCorruption:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.darshan"
        path.write_bytes(b"NOTDSHN!" + b"\x00" * 100)
        with pytest.raises(DarshanFormatError, match="magic"):
            read_log(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = write_log(sample_log(), tmp_path / "log.darshan")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(DarshanFormatError):
            read_log(path)

    def test_crc_mismatch_rejected(self, tmp_path):
        path = write_log(sample_log(), tmp_path / "log.darshan")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a bit inside the last section payload
        path.write_bytes(bytes(data))
        with pytest.raises(DarshanFormatError, match="CRC"):
            read_log(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.darshan"
        path.write_bytes(b"")
        with pytest.raises(DarshanFormatError):
            read_log(path)

    def test_magic_only_rejected(self, tmp_path):
        path = tmp_path / "short.darshan"
        path.write_bytes(MAGIC + struct.pack("<I", 3))
        with pytest.raises(DarshanFormatError):
            read_log(path)


def _sections(data: bytes) -> list[tuple[str, bytes]]:
    """(name, decompressed payload) of every section of a log file."""
    stream = io.BytesIO(data[len(MAGIC):])
    (count,) = struct.unpack("<I", stream.read(4))
    sections = []
    for _ in range(count):
        (name_len,) = struct.unpack("<H", stream.read(2))
        name = stream.read(name_len).decode("utf-8")
        length, _crc = struct.unpack("<QI", stream.read(12))
        sections.append((name, zlib.decompress(stream.read(length))))
    assert not stream.read()
    return sections


def _with_section(path, name: str, payload: bytes) -> None:
    """Rewrite one section of the log at ``path`` with a valid CRC."""
    out = io.BytesIO()
    sections = _sections(path.read_bytes())
    out.write(MAGIC + struct.pack("<I", len(sections)))
    for section, data in sections:
        data = payload if section == name else data
        compressed = zlib.compress(data)
        out.write(struct.pack("<H", len(section)) + section.encode("utf-8"))
        out.write(struct.pack("<QI", len(compressed), zlib.crc32(compressed)))
        out.write(compressed)
    path.write_bytes(out.getvalue())


def _dxt_section(
    record_id=10, start=0.5, end=0.75, hostname=b"node0", trailing=b""
) -> bytes:
    segment = struct.pack("<BBqQQQdd", 0, 0, 0, record_id, 0, 500, start, end)
    return (
        struct.pack("<I", 1)
        + segment
        + struct.pack("<H", len(hostname))
        + hostname
        + trailing
    )


def _names_section(path=b"/lustre/a", trailing=b"") -> bytes:
    out = struct.pack("<I", 2)
    for record_id, name in ((10, path), (20, b"/lustre/b")):
        out += struct.pack("<Q", record_id)
        for text in (name, b"/lustre", b"lustre"):
            out += struct.pack("<H", len(text)) + text
    return out + trailing


def _mpiio_section(record_id=20, trailing=b"") -> bytes:
    counters = counters_for("MPI-IO")
    fcounters = fcounters_for("MPI-IO")
    out = struct.pack("<III", 1, len(counters), len(fcounters))
    out += struct.pack("<Qq", record_id, 1)
    out += struct.pack(f"<{len(counters)}q", *([0] * len(counters)))
    out += struct.pack(f"<{len(fcounters)}d", *([0.0] * len(fcounters)))
    return out + trailing


class TestMalformedSections:
    """Sections with a valid CRC but bad content fail only with
    DarshanFormatError."""

    def test_unedited_sections_still_read(self, tmp_path):
        path = write_log(sample_log(), tmp_path / "log.darshan")
        _with_section(path, "dxt", _dxt_section())
        _with_section(path, "names", _names_section())
        _with_section(path, "mod:MPI-IO", _mpiio_section())
        assert read_log(path).dxt_segments[0] == sample_log().dxt_segments[0]

    @pytest.mark.parametrize(
        "section, payload, match",
        [
            ("dxt", _dxt_section(start=1.0, end=0.5), "ends before it starts"),
            ("dxt", _dxt_section(record_id=99), "unknown record id"),
            ("dxt", _dxt_section(hostname=b"node\xff"), "UTF-8"),
            ("dxt", _dxt_section(trailing=b"\x00"), "trailing bytes"),
            ("dxt", _dxt_section()[:-2], "truncated"),
            ("dxt", b"\x01\x00\x00\x00\x07" + _dxt_section()[5:], "module"),
            ("names", _names_section(path=b"/lustre/\xc3"), "UTF-8"),
            ("names", _names_section(trailing=b"\x00"), "trailing bytes"),
            ("mod:MPI-IO", _mpiio_section(record_id=99), "unknown record id"),
            ("mod:MPI-IO", _mpiio_section(trailing=b"\x00"), "trailing bytes"),
        ],
        ids=[
            "dxt-end-before-start",
            "dxt-unknown-record-id",
            "dxt-non-utf8-hostname",
            "dxt-trailing-bytes",
            "dxt-truncated-hostname",
            "dxt-bad-module-code",
            "names-non-utf8-path",
            "names-trailing-bytes",
            "module-unknown-record-id",
            "module-trailing-bytes",
        ],
    )
    def test_rejected_with_format_error(self, tmp_path, section, payload, match):
        path = write_log(sample_log(), tmp_path / "log.darshan")
        _with_section(path, section, payload)
        with pytest.raises(DarshanFormatError, match=match):
            read_log(path)


class TestPinnedEncoding:
    """The encoders' output for :func:`sample_log`, pinned so a change
    to the in-memory form cannot move log bytes or cache keys."""

    def test_write_log_bytes(self, tmp_path):
        data = write_log(sample_log(), tmp_path / "log.darshan").read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "40e4bc9e27191acebb222e7214796593be40af7a073e2cf433c3d3aafe6e29d2"
        )

    def test_log_digest(self):
        assert log_digest(sample_log()) == (
            "23094a4e842fa1660e9bfc71123344398022820ba7ca6ab0a179bb6f8457479a"
        )
