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
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Mapping, Sequence

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


def read_text(source: Target) -> str:
    with opened(source) as fh:
        return fh.read()


def write_text(destination: Target, text: str) -> None:
    with opened(destination, "w") as fh:
        fh.write(text)


def to_json(doc) -> str:
    """The output JSON text of ``doc``: two-space indent, final newline.

    A NaN or infinite float raises ValueError, since JSON has no such value.
    """
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


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
