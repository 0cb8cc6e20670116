"""File access and the output text format shared by every reader and writer.

A target is a path or an open stream. A path opens as UTF-8 with
``newline=""`` (so CSV quoting sees raw line ends and ``"\\n"`` is written
as is) and is closed on exit; an open text stream is used as given and left
open; a byte stream is decoded as UTF-8 and also left open. A path opened
for writing is replaced atomically: readers see the old file or the whole
new one, and a write that fails leaves the old file as it was.

Numbers are written in shortest round-trip form, so a value read back is
bit-identical: ``repr(float(v))`` in CSV, the same digits ``json`` writes.
"""

from __future__ import annotations

import csv
import io
import math
import os
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .errors import ParseError

Target = str | Path | IO[str] | IO[bytes]


@contextmanager
def opened(target: Target, mode: str = "r") -> Iterator[IO[str]]:
    """A text stream on ``target``, closed on exit only if opened here.

    Bytes that are not UTF-8, met while the stream is read, raise
    :class:`ParseError`.
    """
    try:
        if isinstance(target, (str, Path)) and mode == "w":
            with _replacing(Path(target)) as fh:
                yield fh
        elif isinstance(target, (str, Path)):
            with open(target, mode, encoding="utf-8", newline="") as fh:
                yield fh
        elif isinstance(target, io.TextIOBase):
            yield target
        else:
            stream = io.TextIOWrapper(target, encoding="utf-8", newline="")
            try:
                yield stream
            finally:
                stream.detach()  # flushes, and leaves the byte stream open
    except UnicodeDecodeError as exc:
        where = f"{target}: " if isinstance(target, (str, Path)) else ""
        raise ParseError(
            f"{where}not UTF-8 text: byte {exc.object[exc.start]:#04x} ({exc.reason})"
        ) from None


@contextmanager
def _replacing(path: Path) -> Iterator[IO[str]]:
    """A new file beside ``path`` that replaces it on a clean exit.

    The file is made by ``open(..., "x")``, so it gets the usual mode for a
    new file (``mkstemp`` would give 0600), and a name already taken is an
    error rather than a file overwritten. On an exception it is removed.
    """
    temp = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    fh = open(temp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def csv_rows(lines: Iterable[str], what: str) -> Iterator[tuple[int, list[str]]]:
    """``(line number, cells)`` for each row a strict ``csv.reader`` reads
    from ``lines``, blank rows (no cells) included. The number is that of
    the row's last line.

    A NUL byte or a quoting fault raises :class:`ParseError` naming ``what``
    and the line. ``csv.reader`` refuses NUL on Python 3.10 but keeps it in
    the cell from 3.11 on; here it is an error on every version.
    """
    reader = csv.reader(_nul_free(lines, what), strict=True)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise ParseError(f"malformed {what} at line {reader.line_num}: {exc}") from None


def _nul_free(lines: Iterable[str], what: str) -> Iterator[str]:
    for number, line in enumerate(lines, 1):
        if "\x00" in line:
            raise ParseError(f"{what} line {number}: NUL byte")
        yield line


def read_text(source: Target) -> str:
    with opened(source) as fh:
        return fh.read()


def write_text(destination: Target, text: str) -> None:
    with opened(destination, "w") as fh:
        fh.write(text)


def to_json(doc) -> str:
    """The output JSON text of ``doc``: two-space indent, final newline.

    The text is ``json.dumps(doc, indent=2) + "\\n"``, byte for byte, for
    documents of dicts with str keys, lists, tuples, str, int, float, bool
    and None. It is built around C leaf encoders: ``float.__repr__``
    mapped over each list of floats and ``encode_basestring_ascii`` for
    strings, where ``json.dumps`` with an indent runs its pure-Python
    encoder over every value. A NaN or infinite float raises ValueError,
    since JSON has no such value; another type raises TypeError.
    """
    return _json_value(doc, "\n") + "\n"


def _json_value(value, newline: str) -> str:
    """``value`` as JSON text, with ``newline`` the line end and indent of
    the line it starts on."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_floats([value], "")
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            encode_basestring_ascii(key) + ": " + _json_value(item, inner)  # str keys only
            for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:
            body = _json_floats(value, "," + inner)
        except TypeError:  # not all floats
            body = ("," + inner).join([_json_value(item, inner) for item in value])
        return "[" + inner + body + newline + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_floats(values, separator: str) -> str:
    """The floats ``values`` joined by ``separator``; TypeError on any other type."""
    text = separator.join(map(float.__repr__, values))
    if "n" in text:  # "nan", "inf" or "-inf": finite reprs hold no letter n
        bad = next(v for v in values if not math.isfinite(v))
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    return text


def write_records(destination: Target, records: Sequence[Mapping[str, object]]) -> None:
    """Write one CSV row per record, under a header of the first record's keys.

    Floats are written as ``repr(float(v))``; other values as ``str``. A
    list-valued field (component scores) is spread over columns
    ``PC1..PCk``. Lines end in ``"\\n"``. No records writes an empty file.
    """
    with opened(destination, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if not records:
            return
        header: list[str] = []
        for key, value in records[0].items():
            if isinstance(value, list):
                header.extend(f"PC{i + 1}" for i in range(len(value)))
            else:
                header.append(key)
        writer.writerow(header)
        for record in records:
            row: list[object] = []
            for value in record.values():
                row.extend(value if isinstance(value, list) else (value,))
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
