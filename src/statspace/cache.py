"""The two caches a subcommand keeps in its output directory, and the
record that lets it key them without reading the players file.

``.statspace-table`` holds the players table: the players file parsed,
filtered and built. ``.statspace-scores`` holds one model's projection of
that table: the entity ids, names and minutes, and the n x k player scores.
A subcommand that finds the key it would compute reads the file instead of
doing the work again.

Both files have one format. The first line is the key (a BLAKE2b digest of
what decides the contents) and a CRC-32 of the rest of the file. Then come
arrays in ``.npy`` format (version 1.0), each payload starting at a
multiple of 64 bytes from the file's start: a list of labels as the UTF-8
bytes of the labels joined by NUL (which no CSV cell holds), and floats in
native byte order. A file whose key, CRC or layout does not match is a
miss, whatever the damage. This module reads and writes the format without
numpy, so a process that finds the projection cached never imports it.

The keys are digests of content, and the players file is the one large
input. So whoever digests it writes ``.statspace-players`` beside the
caches: one line with the digest, the file's device, inode, size and
modification and change times, and a CRC-32 of the rest of the line. A
later process whose ``stat`` of the file gives the same five fields takes
the digest from there and does not open the file, but only if the file's
times are older than the record's own modification time (git's "racy git"
rule): a file changed within the same timestamp step as the record was
written could keep all five fields. A whole-second modification time
marks a file system that keeps coarse times; there the file must be two
seconds older.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import re
import stat
import sys
import zlib
from array import array
from _blake2 import blake2b  # what hashlib.blake2b is; hashlib itself loads OpenSSL
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import files

if TYPE_CHECKING:
    from .policy import FilterPolicy
    from .table import ScoreSet, StatTable

TABLE = ".statspace-table"
SCORES = ".statspace-scores"
PLAYERS = ".statspace-players"

_HERE = Path(__file__).parent
# the sources that parse the players file, build the table, and read and
# write this format; found by path, so that no module is imported for its key
_TABLE_SOURCES = ("ingest.py", "policy.py", "table.py", "files.py", "cache.py", "cli.py")
_LABELS = "|u1"
_FLOATS = "<f8" if sys.byteorder == "little" else ">f8"
_ITEM_BYTES = {_LABELS: 1, _FLOATS: 8}
_ALIGN = 64
_MAGIC = b"\x93NUMPY\x01\x00"
_HEADER = re.compile(
    rb"\{'descr': '([^']*)', 'fortran_order': False, 'shape': \(((?:\d+, )*\d*,?)\), \} *\n"
)
# what identifies the players file's contents in the record, in its order
_STAT_FIELDS = ("st_dev", "st_ino", "st_size", "st_mtime_ns", "st_ctime_ns")
_SECOND_NS = 10**9


class Projection(NamedTuple):
    """Player scores without numpy: an id, name and minutes per player, and
    the n x k component scores as one 2-D memoryview of floats, whose
    ``tolist()`` gives a list of k floats per player."""

    entity_ids: list[str]
    entity_names: list[str]
    minutes: list[float]
    scores: memoryview

    @property
    def k(self) -> int:
        return self.scores.shape[1]


def _digest(data) -> str:
    return blake2b(data, digest_size=32).hexdigest()


def _numpy_identity() -> str:
    """A digest of the files numpy reads its version from, found without
    importing numpy: ``version.py``, and ``_version.py`` where a release
    keeps the version string there. Empty if numpy is not installed."""
    spec = importlib.util.find_spec("numpy")
    if spec is None or spec.origin is None:
        return ""
    folder = Path(spec.origin).parent
    found = [folder / name for name in ("version.py", "_version.py")]
    return _digest(b"".join(path.read_bytes() for path in found if path.is_file()))


def table_key(schema: Sequence[str], policy: FilterPolicy, players: str) -> str:
    """A digest of all that decides the table: ``players``, the digest of
    the players file's bytes; the schema and filter policy, numpy and
    Python, and the sources that parse the file and read and write the
    caches."""
    doc = [list(schema), vars(policy), _numpy_identity(), sys.version, players]
    doc += [_digest((_HERE / name).read_bytes()) for name in _TABLE_SOURCES]
    return _digest(json.dumps(doc).encode())


def scores_key(table: str, model: bytearray) -> str:
    """A digest of the table's key, the model file's bytes and the source
    that reads the model and projects the table."""
    doc = [table, _digest(model), _digest((_HERE / "pca.py").read_bytes())]
    return _digest(json.dumps(doc).encode())


def holds_key(path: Path, key: str) -> bool:
    """Whether the cache file at ``path`` was written under ``key``."""
    try:
        with files.opened(path, "rb") as fh:
            return fh.readline().split(b" ")[0] == key.encode()
    except OSError:
        return False


def _write(path: Path, key: str, arrays: list[tuple[str, tuple[int, ...], object]]) -> None:
    """Write ``(descr, shape, payload)`` arrays to ``path`` under ``key``;
    a payload is any C-contiguous buffer. A write that fails is passed
    over, since the cache only saves work."""
    pieces = []
    offset = len(key) + 10  # the key line: key, space, 8 hex digits, newline
    for descr, shape, payload in arrays:
        text = "{'descr': %r, 'fortran_order': False, 'shape': %r, }" % (descr, shape)
        text += " " * (-(offset + len(_MAGIC) + 2 + len(text) + 1) % _ALIGN) + "\n"
        header = _MAGIC + len(text).to_bytes(2, "little") + text.encode()
        pieces += [header, payload]
        offset += len(header) + memoryview(payload).nbytes
    crc = 0
    for piece in pieces:
        crc = zlib.crc32(piece, crc)
    _put(path, [f"{key} {crc:08x}\n".encode(), *pieces])


def _put(path: Path, pieces: list) -> None:
    """Write the buffers ``pieces`` to ``path`` in turn, creating its
    directory. A write that fails is passed over, since the caches only
    save work."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with files.opened(path, "wb") as fh:
            for piece in pieces:
                fh.write(piece)
    except OSError:
        pass


def _read(path: Path, key: str, descrs: Sequence[str]) -> list[tuple[tuple[int, ...], memoryview]]:
    """The ``(shape, payload)`` of each array of the cache file at ``path``,
    which must hold arrays of ``descrs`` in turn, under ``key``. Raises
    ValueError or OSError on any other file."""
    data = files.read_bytes(path)
    start = data.find(b"\n") + 1
    if not data.startswith(f"{key} ".encode()):
        raise ValueError("written under another key")
    if data[:start] != f"{key} {zlib.crc32(memoryview(data)[start:]):08x}\n".encode():
        raise ValueError("damaged")
    arrays = []
    for descr in descrs:
        size = int.from_bytes(data[start + 8 : start + 10], "little")
        header = _HEADER.fullmatch(data, start + 10, start + 10 + size)
        if data[start : start + 8] != _MAGIC or not header or header[1].decode() != descr:
            raise ValueError("not an array of the expected type")
        shape = tuple(int(n) for n in header[2].split(b",") if n.strip())
        start += 10 + size
        end = start + math.prod(shape) * _ITEM_BYTES[descr]
        arrays.append((shape, memoryview(data)[start:end]))
        start = end
    if start != len(data):
        raise ValueError("not the expected arrays")
    return arrays


def _labels(names: list[str]) -> tuple[str, tuple[int, ...], bytes]:
    text = "\0".join(names).encode()
    return _LABELS, (len(text),), text


def _floats(values: list[float]) -> tuple[str, tuple[int, ...], memoryview]:
    return _FLOATS, (len(values),), memoryview(array("d", values))


def _matrix(values) -> tuple[str, tuple[int, ...], object]:
    """A 2-D float array, C-contiguous as written."""
    return _FLOATS, values.shape, values if values.flags.c_contiguous else values.copy()


def save_table(path: Path, key: str, table: StatTable) -> None:
    """Write ``table`` to ``path`` under ``key``. The labels are joined into
    one string each: encoding them one by one (as JSON does) leaves small
    objects behind that raise the process's peak memory."""
    _write(
        path,
        key,
        [
            _labels(table.entity_ids),
            _labels(table.entity_names),
            _labels(table.stat_names),
            _floats(table.minutes),
            _matrix(table.values),
        ],
    )


def load_table(path: Path, key: str) -> StatTable | None:
    """The table cached at ``path`` under ``key``, or None. Its values are
    a view of the file's bytes as read, so the table costs no copy."""
    import numpy as np

    from .table import StatTable

    try:
        descrs = [_LABELS] * 3 + [_FLOATS] * 2
        ids, names, stats, minutes, (shape, values) = _read(path, key, descrs)
        return StatTable(
            entity_ids=_split(ids[1]),
            entity_names=_split(names[1]),
            stat_names=_split(stats[1]),
            minutes=minutes[1].cast("d").tolist(),
            values=np.frombuffer(values, float).reshape(shape),
        )
    except Exception:  # whatever the fault in a damaged or foreign file, a miss
        return None


def save_scores(path: Path, key: str, names: list[str], scores: ScoreSet) -> None:
    """Write the projection ``scores`` of the players ``names`` to ``path``
    under ``key``."""
    _write(
        path,
        key,
        [
            _labels(scores.entity_ids),
            _labels(names),
            _floats(scores.minutes),
            _matrix(scores.scores),
        ],
    )


def load_scores(path: Path, key: str) -> Projection | None:
    """The projection cached at ``path`` under ``key``, or None. Its scores
    are a view of the file's bytes as read."""
    try:
        descrs = [_LABELS] * 2 + [_FLOATS] * 2
        ids, names, minutes, (shape, values) = _read(path, key, descrs)
        n, k = shape
        projection = Projection(
            entity_ids=_split(ids[1]),
            entity_names=_split(names[1]),
            minutes=minutes[1].cast("d").tolist(),
            scores=values.cast("d", shape),
        )
        columns = (projection.entity_ids, projection.entity_names, projection.minutes)
        return projection if k and {len(column) for column in columns} == {n} else None
    except Exception:  # whatever the fault in a damaged or foreign file, a miss
        return None


def _split(labels: memoryview) -> list[str]:
    return bytes(labels).decode().split("\0")


class Players:
    """The players file as the table cache sees it: ``key``, its table key
    (None unless it is a regular file), from the digest recorded in the
    output directory ``out`` where that record vouches for the file, else
    from the file's bytes, which are then kept in ``data`` for the parse."""

    def __init__(self, path: Path, out: Path, schema: Sequence[str], policy: FilterPolicy):
        self.path, self.record, self._decides = path, out / PLAYERS, (schema, policy)
        self.data: bytearray | None = None
        self._to_record: tuple[int, ...] | None = None  # to record, once digested
        self._digest = _recorded(self.record, path)
        if self._digest is None:
            self.read()
        else:
            self.key = table_key(schema, policy, self._digest)

    def read(self) -> None:
        """Read the file's bytes into ``data``, once, and key them."""
        with files.opened(self.path, "rb") as fh:
            before = _identity(os.fstat(fh.fileno()))
            self.data = files.read_all(fh)
            after = _identity(os.fstat(fh.fileno()))
        self._digest = None if before is None else _digest(self.data)
        self.key = None if before is None else table_key(*self._decides, self._digest)
        self._to_record = before if before == after else None  # not if changed while read

    def remember(self) -> None:
        """Record the digest for later processes, if this one computed it
        from a regular file that did not change while it was read. Called
        once a cache is written or found, so that a command that fails in
        the parse leaves nothing behind."""
        if self._to_record is not None:
            line = " ".join([self._digest, *map(str, self._to_record)]).encode()
            _put(self.record, [line, b" %08x\n" % zlib.crc32(line)])
            self._to_record = None


def _identity(status: os.stat_result) -> tuple[int, ...] | None:
    """The identity fields of a regular file's ``status``, else None."""
    if not stat.S_ISREG(status.st_mode):
        return None
    return tuple(getattr(status, name) for name in _STAT_FIELDS)


def _recorded(record: Path, players: Path) -> str | None:
    """The digest the ``record`` file holds for the file at ``players``, if
    the record is whole, names the file as it is now, and was written after
    the file last changed (by two seconds where times are whole seconds)."""
    try:
        with files.opened(record, "rb") as fh:
            line = fh.read(256)
            written = os.fstat(fh.fileno()).st_mtime_ns
        now = _identity(os.stat(players))
    except OSError:
        return None
    body = line[:-10]  # the line ends in a space, 8 hex digits of CRC-32 and a newline
    if line[-10:] != b" %08x\n" % zlib.crc32(body):
        return None
    digest, *identity = body.split(b" ")
    if now is None or identity != [b"%d" % field for field in now]:
        return None
    mtime, ctime = now[3], now[4]
    margin = 2 * _SECOND_NS if mtime % _SECOND_NS == 0 else 1
    return digest.decode("latin-1") if max(mtime, ctime) + margin <= written else None
