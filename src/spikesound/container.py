"""On-disk containers and JSON files: the one place their rules live.

A container is a magic string, a little-endian struct header, then payload
pieces whose lengths follow exactly from the header.  The spike (.spk)
and feature (.spkf) modules keep only their layouts.
JSON files are written with sorted keys, two-space indent and a newline,
CSV files by csv.writer with "\n" line endings and read back by read_csv
against the header they were written with.  Every file is written
through write_file and every output directory made by make_dir, so one
that cannot be written or made is a DataError.
"""

from __future__ import annotations

import csv
import io
import json
import struct
from collections.abc import Callable, Iterable
from pathlib import Path

from .errors import DataError


def write_file(path: str | Path, data: bytes) -> None:
    """Write data to path; an OSError, e.g. a directory in the way, is a
    DataError naming the file."""
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def write_container(path: str | Path, magic: bytes, header: struct.Struct,
                    fields: tuple, pieces: Iterable[bytes]) -> None:
    write_file(path, b"".join([magic, header.pack(*fields), *pieces]))


def read_container(path: str | Path, magic: bytes, header: struct.Struct,
                   what: str, layout: Callable):
    """Return layout(fields, take) for the container at path.

    layout checks the header fields and takes the payload pieces in order,
    each with take(n_bytes); it raises DataError, or ValueError, KeyError
    or TypeError, on a bad field.  Those, an unreadable file, a bad magic,
    a cut header or payload, and bytes past the last piece all raise
    DataError naming the file.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {what}: {exc}") from exc
    pos = len(magic) + header.size

    def take(n: int) -> bytes:
        nonlocal pos
        if len(data) < pos + n:
            raise DataError("truncated payload")
        pos += n
        return data[pos - n : pos]

    try:
        if data[: len(magic)] != magic:
            raise DataError(f"bad magic {data[:len(magic)]!r}")
        if len(data) < pos:
            raise DataError("truncated header")
        result = layout(header.unpack_from(data, len(magic)), take)
        if len(data) > pos:
            raise DataError("longer than its header declares")
    except DataError as exc:
        raise DataError(f"{what} {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{what} {path}: bad field {exc!r}") from exc
    return result


def make_dir(path: str | Path) -> Path:
    """Create the directory path and its parents; DataError if it cannot be
    made, e.g. when a parent is a regular file."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create directory {path}: {exc}") from exc
    return path


def write_json(path: str | Path, obj) -> None:
    write_file(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def write_csv(path: str | Path, header: list[str], rows: Iterable[list]) -> None:
    """UTF-8 CSV of the header and rows, "\n" line endings."""
    text = io.StringIO()
    w = csv.writer(text, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    write_file(path, text.getvalue().encode("utf-8"))


def read_csv(path: str | Path, what: str, header: list[str], parse: Callable,
             error: type[Exception] = DataError) -> list:
    """[parse(*fields) for each row] of a CSV that write_csv wrote with header.

    The file must be UTF-8, its first row must equal header, and every other
    row, blank ones skipped, must have one field per column.  Any of those
    faults, and a DataError or ValueError from parse, is a DataError naming
    the file (and the line); a file that cannot be opened raises error.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    try:
        rows = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} {path} is not UTF-8: {exc}") from exc
    parsed = []
    try:
        if next(rows, None) != header:
            raise DataError(f"header must be {','.join(header)}")
        for fields in filter(None, rows):  # blank rows skipped, as csv.DictReader does
            if len(fields) != len(header):
                raise DataError(f"need the {len(header)} fields {','.join(header)}")
            parsed.append(parse(*fields))
    except (DataError, ValueError, csv.Error) as exc:
        raise DataError(f"{what} {path} line {rows.line_num}: {exc}") from exc
    return parsed


def read_json(path: str | Path, what: str, error: type[Exception] = DataError):
    """Parsed JSON at path; error naming the file if it is unreadable."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
