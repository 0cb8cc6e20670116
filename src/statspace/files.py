"""File access and the output text format shared by every reader and writer.

A target is a path or an open text stream, and to read text, also a
bytearray holding a file's bytes as already read. A path opens as UTF-8 with
``newline=""`` (so CSV quoting sees raw line ends and ``"\\n"`` is written
as is), or as bytes in mode ``"rb"`` or ``"wb"``, and is closed on exit; a
bytearray is read the same way as a path's text and left as it was (only
``ingest.parse_csv`` empties one, as it parses); an open text stream is
used as given and left open. Any other target raises TypeError. A path
opened for writing is replaced atomically: readers see the old file or the
whole new one, and a write that fails leaves the old file as it was.

Every output is written in one call given its target: a table, given
column by column, by :func:`write_table`, and any other text by
:func:`write_text`. Numbers are written in shortest round-trip form, so a
value read back is bit-identical: ``repr(float(v))`` in CSV, the same digits
``json`` writes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from contextlib import contextmanager
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterator, Mapping, Sequence

from .errors import ParseError, quoted_path

if TYPE_CHECKING:
    from .table import StatTable

Target = str | Path | IO[str]
_READ_BLOCK = 1 << 16  # bytes per read of read_bytes
# Characters of lines per NUL check of csv_rows. A text file decodes 8 KB at
# a time; a block about that size meets a byte that is not UTF-8 at most one
# decode sooner than reading line by line, so a fault well before it wins.
_LINE_BLOCK = 1 << 13


@contextmanager
def opened(target: Target | bytearray, mode: str = "r") -> Iterator[IO]:
    """A stream on ``target``, closed on exit only if opened here: text in
    mode ``"r"`` or ``"w"``, and for a path, bytes in ``"rb"`` or ``"wb"``.
    In mode ``"r"``, a bytearray is read as a file's bytes: the stream has
    its own copy, so the caller may empty the bytearray once it is opened.

    Bytes that are not UTF-8, met while a text stream is read, raise
    :class:`ParseError`; any other target raises TypeError.
    """
    try:
        if isinstance(target, (str, Path)) and mode.startswith("w"):
            with _replacing(Path(target), mode.replace("w", "x")) as fh:
                yield fh
        elif isinstance(target, (str, Path)):
            with _open(target, mode) as fh:
                yield fh
        elif isinstance(target, bytearray) and mode == "r":
            with io.TextIOWrapper(io.BytesIO(target), encoding="utf-8", newline="") as fh:
                yield fh
        elif isinstance(target, io.TextIOBase):
            yield target
        else:
            raise TypeError(f"not a path or a text stream: {type(target).__name__}")
    except UnicodeDecodeError as exc:
        where = f"{quoted_path(target)}: " if isinstance(target, (str, Path)) else ""
        raise ParseError(
            f"{where}not UTF-8 text: byte {exc.object[exc.start]:#04x} ({exc.reason})"
        ) from None


def _open(path: str | Path, mode: str) -> IO:
    if "b" in mode:
        return open(path, mode)
    return open(path, mode, encoding="utf-8", newline="")


@contextmanager
def _replacing(path: Path, mode: str) -> Iterator[IO]:
    """A new file beside ``path``, opened in ``mode`` (``"x"`` or ``"xb"``),
    that replaces it on a clean exit.

    The file is made by ``open(..., "x")``, so it gets the usual mode for a
    new file (``mkstemp`` would give 0600), and a name already taken is an
    error rather than a file overwritten. On an exception it is removed.
    """
    temp = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    fh = _open(temp, mode)
    try:
        with fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def csv_rows(stream: IO[str], what: str) -> Iterator[tuple[int, list[str]]]:
    """``(line number, cells)`` for each row a strict ``csv.reader`` reads
    from the text ``stream``, blank rows (no cells) included. The number is
    that of the row's last line.

    A NUL byte or a quoting fault raises :class:`ParseError` naming ``what``
    and the line. ``csv.reader`` refuses NUL on Python 3.10 but keeps it in
    the cell from 3.11 on; here it is an error on every version. So is a
    UTF-8 byte-order mark at the start, which would join the first cell.
    """
    reader = csv.reader(chain.from_iterable(_nul_free(stream, what)), strict=True)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise ParseError(f"malformed {what} at line {reader.line_num}: {exc}") from None


def _nul_free(stream: IO[str], what: str) -> Iterator[list[str]]:
    """The lines of ``stream``, a block at a time. Each block is checked for
    NUL once; the line that holds one is found only then, and the error is
    raised once the lines before it are read, as a fault there comes first."""
    number = 0  # lines before the block
    while block := stream.readlines(_LINE_BLOCK):
        if not number and block[0].startswith("\ufeff"):
            raise ParseError(f"{what} line 1: starts with a UTF-8 byte-order mark (BOM)")
        if "\x00" in "".join(block):
            at = next(i for i, line in enumerate(block) if "\x00" in line)
            yield block[:at]
            raise ParseError(f"{what} line {number + at + 1}: NUL byte")
        number += len(block)
        yield block


def read_text(source: Target | bytearray) -> str:
    with opened(source) as fh:
        return fh.read()


def read_bytes(path: str | Path) -> bytearray:
    """The bytes of the file at ``path``, read once. The result is mutable,
    so its reader can free it while others still hold it."""
    with opened(path, "rb") as fh:
        return read_all(fh)


def read_all(stream: IO[bytes]) -> bytearray:
    """The bytes left in the binary ``stream``, read a block at a time."""
    data = bytearray()
    while block := stream.read(_READ_BLOCK):
        data += block
    return data


def write_text(destination: Target, text: str) -> None:
    with opened(destination, "w") as fh:
        fh.write(text)


def to_json(doc) -> str:
    """The output JSON text of ``doc``: ``json.dumps`` with a two-space
    indent, and a final newline. A NaN or infinite float raises ValueError,
    since JSON has no such value."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def write_table(destination: Target, columns: Mapping[str, list | StatTable], fmt: str) -> None:
    """Write a table, given column by column, as ``fmt`` ("csv" or "json").

    Each column is a list of one value per row (a str, int or float), or a
    :class:`StatTable`, whose rows are written a list per row under the key
    and whose columns, in CSV, under its ``stat_names``. JSON is
    ``json.dumps(rows, indent=2) + "\\n"`` of the row dicts, byte for byte; a
    NaN or infinite float raises ValueError before anything is written. CSV
    has a header of the keys and the tables' column names, then one
    ``csv.writer`` line per row, floats as ``repr(float(v))``; no rows
    writes an empty file. Each column is converted once, by C functions
    mapped over it, and one ``%`` template per row places the cells.
    """
    header: list[str] = []  # the CSV header
    fields: list[str] = []  # the JSON template's lines, one per key
    cells: list[list] = []  # per cell of a row, its value in each row
    numbers: list[list[float]] = []  # the cells that hold floats
    for key, column in columns.items():
        name = "    " + encode_basestring_ascii(key).replace("%", "%%") + ": "
        if isinstance(column, list):
            values, is_float = _cells(column, fmt)
            header.append(key)
            fields.append(name + ("%r" if is_float else "%s"))
            cells.append(values)
            numbers += [values] if is_float else []
        else:
            header += column.stat_names
            items = ",\n      ".join(["%r"] * column.n_stats)
            fields.append(name + "[\n      " + items + "\n    ]")
            scores = _components(column.values)
            cells += scores
            numbers += scores
    n = len(cells[0]) if cells else 0
    if fmt != "json":
        with opened(destination, "w") as fh:
            if n:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(zip(*cells))  # csv.writer writes a float as its repr
        return
    if not all(all(map(math.isfinite, values)) for values in numbers):
        bad = next(v for row in zip(*numbers) for v in row if not math.isfinite(v))
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    template = "  {\n" + ",\n".join(fields) + "\n  }"
    rows = ",\n".join([template % row for row in zip(*cells)])
    write_text(destination, "[\n" + rows + "\n]\n" if n else "[]\n")


def _components(matrix) -> list[list[float]]:
    """The columns of an n x k C-contiguous numpy array or memoryview of
    floats, one list per component: its buffer read as one flat list, with
    no list per row. No rows gives k empty lists."""
    n, k = matrix.shape
    # memoryview casts no view with a 0 in its shape
    flat = memoryview(matrix).cast("B").cast("d").tolist() if n else []
    return [flat[j::k] for j in range(k)]


def _cells(column: Sequence, fmt: str) -> tuple[Sequence, bool]:
    """A column's cells for the row template, and whether they are floats:
    floats as exact floats, and for JSON any other value as its text."""
    try:
        return list(map(float.__float__, column)), True
    except TypeError:  # not all floats
        pass
    if fmt != "json":
        return column, False
    try:
        return list(map(encode_basestring_ascii, column)), False
    except TypeError:  # not all str
        return [json.dumps(value, allow_nan=False) for value in column], False
