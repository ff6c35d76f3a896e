"""Binary on-disk format for Darshan logs.

The real Darshan log is a sequence of zlib-compressed regions behind a
small header; this module implements the same shape.  A file is:

``magic | version string | section count | sections...``

where each section is ``name | compressed length | CRC32 | zlib payload``
and the payload is fixed-width struct packing (no JSON for record data),
so the reader is a genuine binary parser with integrity checking.

Use :func:`write_log` / :func:`read_log`; everything else is framing.
"""

from __future__ import annotations

import io
import json
import struct
import sys
import zlib
from array import array
from pathlib import Path
from typing import Iterable

from repro.darshan.counters import counters_for, fcounters_for, known_modules
from repro.darshan.log import DarshanLog
from repro.darshan.records import DxtTable, JobRecord, ModuleRecord, NameRecord
from repro.util.errors import DarshanFormatError

MAGIC = b"DSHNRPRO"


# -- low-level packing -------------------------------------------------


def _pack_str(buffer: io.BytesIO, text: str) -> None:
    data = text.encode("utf-8")
    if len(data) > 0xFFFF:
        raise DarshanFormatError(f"string too long to serialize ({len(data)} bytes)")
    buffer.write(struct.pack("<H", len(data)))
    buffer.write(data)


class _Reader:
    """Cursor over one decompressed section payload."""

    def __init__(self, data: bytes, section: str) -> None:
        self._data = data
        self._pos = 0
        self._section = section

    def take(self, count: int) -> bytes:
        if self._pos + count > len(self._data):
            raise DarshanFormatError(
                f"section {self._section!r} truncated at byte {self._pos}"
            )
        chunk = self._data[self._pos : self._pos + count]
        self._pos += count
        return chunk

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def read_str(self) -> str:
        (length,) = self.unpack("<H")
        try:
            return self.take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DarshanFormatError(
                f"section {self._section!r} holds a non-UTF-8 string: {exc}"
            ) from None

    def finish(self) -> None:
        """Raise unless every byte of the payload was consumed."""
        if self._pos != len(self._data):
            raise DarshanFormatError(
                f"section {self._section!r} has {len(self._data) - self._pos} "
                "trailing bytes"
            )


# -- section encoders ---------------------------------------------------


def _encode_job(job: JobRecord, version: str) -> bytes:
    payload = {
        "version": version,
        "job_id": job.job_id,
        "uid": job.uid,
        "nprocs": job.nprocs,
        "start_time": job.start_time,
        "end_time": job.end_time,
        "executable": job.executable,
        "metadata": job.metadata,
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _decode_job(data: bytes) -> tuple[JobRecord, str]:
    try:
        payload = json.loads(data.decode("utf-8"))
        job = JobRecord(
            job_id=int(payload["job_id"]),
            uid=int(payload["uid"]),
            nprocs=int(payload["nprocs"]),
            start_time=float(payload["start_time"]),
            end_time=float(payload["end_time"]),
            executable=str(payload.get("executable", "unknown")),
            metadata=dict(payload.get("metadata", {})),
        )
        return job, str(payload["version"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DarshanFormatError(f"corrupt job section: {exc}") from exc


def _encode_names(names: dict[int, NameRecord]) -> bytes:
    buffer = io.BytesIO()
    buffer.write(struct.pack("<I", len(names)))
    for record_id in sorted(names):
        record = names[record_id]
        buffer.write(struct.pack("<Q", record.record_id))
        _pack_str(buffer, record.path)
        _pack_str(buffer, record.mount_point)
        _pack_str(buffer, record.fs_type)
    return buffer.getvalue()


def _decode_names(data: bytes) -> dict[int, NameRecord]:
    reader = _Reader(data, "names")
    (count,) = reader.unpack("<I")
    names: dict[int, NameRecord] = {}
    for _ in range(count):
        (record_id,) = reader.unpack("<Q")
        path = reader.read_str()
        mount = reader.read_str()
        fs_type = reader.read_str()
        names[record_id] = NameRecord(record_id, path, mount, fs_type)
    reader.finish()
    return names


def _encode_module(module: str, records: list[ModuleRecord]) -> bytes:
    counter_names = counters_for(module)
    fcounter_names = fcounters_for(module)
    buffer = io.BytesIO()
    buffer.write(
        struct.pack("<III", len(records), len(counter_names), len(fcounter_names))
    )
    for record in records:
        buffer.write(struct.pack("<Qq", record.record_id, record.rank))
        values = [record.counters[name] for name in counter_names]
        buffer.write(struct.pack(f"<{len(values)}q", *values))
        fvalues = [record.fcounters[name] for name in fcounter_names]
        if fvalues:
            buffer.write(struct.pack(f"<{len(fvalues)}d", *fvalues))
    return buffer.getvalue()


def _decode_module(module: str, data: bytes) -> list[ModuleRecord]:
    counter_names = counters_for(module)
    fcounter_names = fcounters_for(module)
    reader = _Reader(data, f"mod:{module}")
    count, n_counters, n_fcounters = reader.unpack("<III")
    if n_counters != len(counter_names) or n_fcounters != len(fcounter_names):
        raise DarshanFormatError(
            f"module {module} was written with {n_counters}/{n_fcounters} "
            f"counters but this build registers "
            f"{len(counter_names)}/{len(fcounter_names)}"
        )
    records = []
    for _ in range(count):
        record_id, rank = reader.unpack("<Qq")
        values = reader.unpack(f"<{n_counters}q")
        fvalues = reader.unpack(f"<{n_fcounters}d") if n_fcounters else ()
        records.append(
            ModuleRecord(
                module=module,
                record_id=record_id,
                rank=rank,
                counters=dict(zip(counter_names, values)),
                fcounters=dict(zip(fcounter_names, fvalues)),
            )
        )
    reader.finish()
    return records


#: The fixed part of one v1 DXT segment: module and op codes, rank,
#: record id, offset, length, start and end times — the first eight
#: :class:`DxtTable` columns, in order.  A ``<H`` hostname length and
#: the hostname bytes follow it.
_DXT_TYPECODES = "BBqQQQdd"
_DXT_FIELDS = struct.Struct("<" + _DXT_TYPECODES)
_HOST_LEN = struct.Struct("<H")
_COUNT = struct.Struct("<I")


def _encode_dxt(table: DxtTable) -> bytes:
    hosts = []
    for hostname in table.hostnames:
        buffer = io.BytesIO()
        _pack_str(buffer, hostname)
        hosts.append(buffer.getvalue())
    pack = _DXT_FIELDS.pack
    parts = [_COUNT.pack(len(table))]
    parts.extend(
        pack(module, op, rank, record_id, offset, length, start, end) + hosts[host]
        for module, op, rank, record_id, offset, length, start, end, host in zip(
            table.module_codes,
            table.op_codes,
            table.ranks,
            table.record_ids,
            table.offsets,
            table.lengths,
            table.start_times,
            table.end_times,
            table.host_indexes,
        )
    )
    return b"".join(parts)


def _decode_dxt(data: bytes, record_ids: Iterable[int]) -> DxtTable:
    """Decode a v1 DXT section straight into columns.

    One pass finds each segment's hostname and copies its fixed part
    into one buffer; each column is then gathered from that buffer with
    strided byte copies.  Every malformation — truncation, trailing
    bytes, bad module/op codes, a segment ending before it starts, a
    record id missing from the name table, a hostname that is not
    UTF-8 — raises :class:`DarshanFormatError`.
    """
    fixed = _DXT_FIELDS.size
    header = fixed + _HOST_LEN.size
    host_len = _HOST_LEN.unpack_from
    parts: list[bytes] = []
    hosts: list[bytes] = []
    try:
        (count,) = _COUNT.unpack_from(data, 0)
        pos = _COUNT.size
        for _ in range(count):
            (length,) = host_len(data, pos + fixed)
            parts.append(data[pos : pos + fixed])
            hosts.append(data[pos + header : pos + header + length])
            pos += header + length
    except struct.error:
        raise DarshanFormatError("section 'dxt' truncated") from None
    if pos != len(data):
        raise DarshanFormatError(
            f"section 'dxt' {'truncated' if pos > len(data) else 'has trailing bytes'}"
        )
    blob = b"".join(parts)
    columns = []
    offset = 0
    for typecode in _DXT_TYPECODES:
        column = array(typecode)
        width = column.itemsize
        gathered = bytearray(count * width)
        for byte in range(width):
            gathered[byte::width] = blob[offset + byte :: fixed]
        column.frombytes(gathered)
        if sys.byteorder == "big":
            column.byteswap()
        columns.append(column)
        offset += width
    interned = {host: index for index, host in enumerate(dict.fromkeys(hosts))}
    try:
        hostnames = [host.decode("utf-8") for host in interned]
    except UnicodeDecodeError as exc:
        raise DarshanFormatError(f"DXT hostname is not UTF-8: {exc}") from None
    try:
        table = DxtTable.from_columns(
            *columns, map(interned.__getitem__, hosts), hostnames
        )
    except ValueError as exc:
        raise DarshanFormatError(f"corrupt DXT section: {exc}") from None
    unknown = set(table.record_ids).difference(record_ids)
    if unknown:
        raise DarshanFormatError(
            f"DXT segment references unknown record id {min(unknown):#x}"
        )
    return table


# -- file framing -------------------------------------------------------


def _write_section(handle, name: str, payload: bytes) -> None:
    compressed = zlib.compress(payload, level=6)
    name_bytes = name.encode("utf-8")
    handle.write(struct.pack("<H", len(name_bytes)))
    handle.write(name_bytes)
    handle.write(struct.pack("<QI", len(compressed), zlib.crc32(compressed)))
    handle.write(compressed)


def _read_exact(handle, count: int) -> bytes:
    data = handle.read(count)
    if len(data) != count:
        raise DarshanFormatError(
            f"log truncated: wanted {count} bytes, got {len(data)}"
        )
    return data


def _read_section(handle) -> tuple[str, bytes]:
    (name_len,) = struct.unpack("<H", _read_exact(handle, 2))
    try:
        name = _read_exact(handle, name_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DarshanFormatError(f"section name is not UTF-8: {exc}") from None
    length, crc = struct.unpack("<QI", _read_exact(handle, 12))
    compressed = _read_exact(handle, length)
    if zlib.crc32(compressed) != crc:
        raise DarshanFormatError(f"section {name!r} failed its CRC check")
    try:
        return name, zlib.decompress(compressed)
    except zlib.error as exc:
        raise DarshanFormatError(f"section {name!r} failed to inflate: {exc}") from exc


def write_log(log: DarshanLog, path: str | Path) -> Path:
    """Serialize ``log`` to ``path`` and return the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    sections: list[tuple[str, bytes]] = [
        ("job", _encode_job(log.job, log.version)),
        ("names", _encode_names(log.name_records)),
    ]
    for module in known_modules():
        records = log.records.get(module)
        if records:
            sections.append((f"mod:{module}", _encode_module(module, records)))
    if log.dxt_segments:
        sections.append(("dxt", _encode_dxt(log.dxt_segments)))
    with path.open("wb") as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<I", len(sections)))
        for name, payload in sections:
            _write_section(handle, name, payload)
    return path


def read_log(path: str | Path) -> DarshanLog:
    """Parse a binary log from ``path``.

    Raises :class:`~repro.util.errors.DarshanFormatError` on a bad
    magic number, CRC mismatch, truncation, or counter-set skew.
    """
    path = Path(path)
    with path.open("rb") as handle:
        magic = handle.read(len(MAGIC))
        if magic != MAGIC:
            raise DarshanFormatError(
                f"{path} is not a Darshan log (magic {magic!r})"
            )
        (section_count,) = struct.unpack("<I", _read_exact(handle, 4))
        sections = dict(_read_section(handle) for _ in range(section_count))
    if "job" not in sections or "names" not in sections:
        raise DarshanFormatError(f"{path} is missing its job or name section")
    job, version = _decode_job(sections["job"])
    log = DarshanLog(job=job, version=version)
    for record in _decode_names(sections["names"]).values():
        log.add_name(record)
    for module in known_modules():
        payload = sections.get(f"mod:{module}")
        if payload is None:
            continue
        for record in _decode_module(module, payload):
            if record.record_id not in log.name_records:
                raise DarshanFormatError(
                    f"{module} record references unknown record id "
                    f"{record.record_id:#x}"
                )
            log.add_record(record)
    if "dxt" in sections:
        log.dxt_segments = _decode_dxt(sections["dxt"], log.name_records)
    return log
