"""The two caches a subcommand keeps in its output directory, and the
record that lets it key them without reading the players file.

Each holds one ``StatTable``. ``.statspace-table`` holds the players
table: the players file parsed, filtered and built. ``.statspace-scores``
holds one model's projection of that table: the players' ids, names and
minutes, and their n x k scores under the component names ``pca`` gave
them, keyed by the table's key and the model file's bytes: as ``fit``
wrote them, or as the subcommand that projected read them. A process asks
one ``Store`` for both; where it finds the key it would compute, it reads
the file instead of doing the work again. Each cache is looked up with one
read of its file, hit or miss, and a process reads the players file at
most once.

Both files have one format, which one ``_save`` writes. The first line is
the key (a BLAKE2b digest of what decides the contents) and a CRC-32 of the
rest of the file. The second holds the sizes in bytes of five arrays,
padded with spaces so that the first array starts at a multiple of 64
bytes from the file's start. Then come the arrays, each padded with zero
bytes to a multiple of 64: the entity ids, the names and the column names,
each list as the UTF-8 bytes of its labels joined by NUL (which no CSV cell
holds); the n minutes; and the n x p values, row by row. Floats are in native byte order, which the
key records. A file whose key, CRC or layout does not match is a miss,
whatever the damage. This module reads and writes the format without
numpy: the table cache's values are handed to numpy, and checked finite,
but the projection cache's stay a memoryview, so a process that finds the
projection cached never imports numpy.

The keys are digests of content: the players input is keyed by the bytes
a process read from it, so a pipe such as ``<(zcat players.csv.gz)`` is
cached as a file of the same bytes is. The players file is the one large
input. So whoever digests a regular one writes ``.statspace-players``
beside the caches: one line with the digest, the file's device, inode,
size and modification and change times, and a CRC-32 of the rest of the
line. A pipe has no such identity and gets no record: each process reads
it and digests its bytes. A later process whose ``stat`` of the file
gives the same five fields takes the digest from there and does not open
the file, but only if the file's times are older than the record's own
modification time (git's "racy git" rule): a file changed within the
same timestamp step as the record was written could keep all five
fields. A whole-second modification time marks a file system that keeps
coarse times; there the file must be two seconds older.
"""

from __future__ import annotations

import importlib.util
import json
import os
import stat
import sys
import zlib
from array import array
from _blake2 import blake2b  # what hashlib.blake2b is; hashlib itself loads OpenSSL
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from . import files

if TYPE_CHECKING:
    from .table import FilterPolicy, StatTable

TABLE = ".statspace-table"
SCORES = ".statspace-scores"
PLAYERS = ".statspace-players"

_HERE = Path(__file__).parent
# the sources that parse the players file, hold its schema and filter
# policy, build the table, and read and write this format; found by path, so
# that no module is imported for its key
_TABLE_SOURCES = ("ingest.py", "table.py", "files.py", "cache.py")
_ALIGN = 64
# what identifies the players file's contents in the record, in its order
_STAT_FIELDS = ("st_dev", "st_ino", "st_size", "st_mtime_ns", "st_ctime_ns")
_SECOND_NS = 10**9


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
    the players file's bytes; the schema and filter policy, numpy, Python
    and the byte order of the floats, and the sources that parse the file
    and read and write the caches."""
    doc = [list(schema), vars(policy), _numpy_identity(), sys.version, sys.byteorder, players]
    doc += [_digest((_HERE / name).read_bytes()) for name in _TABLE_SOURCES]
    return _digest(json.dumps(doc).encode())


def scores_key(table: str, model: bytes) -> str:
    """A digest of the table's key, the model file's bytes and the source
    that reads the model and projects the table."""
    doc = [table, _digest(model), _digest((_HERE / "pca.py").read_bytes())]
    return _digest(json.dumps(doc).encode())


def _save(path: Path, key: str, table: StatTable) -> None:
    """Write ``table`` to ``path`` under ``key``; its values are a
    C-contiguous buffer of floats, as every table here holds. Each label
    list is joined into one string: encoding the labels one by one (as JSON
    does) leaves small objects behind that raise the process's peak memory."""
    labels = (table.entity_ids, table.entity_names, table.stat_names)
    arrays = ["\0".join(names).encode() for names in labels]
    arrays.append(memoryview(array("d", table.minutes)).cast("B"))
    arrays.append(memoryview(table.values).cast("B"))
    sizes = " ".join(str(len(data)) for data in arrays)
    used = len(key) + 10 + len(sizes) + 1  # the key line is the key, a space, 8 hex digits, "\n"
    pieces = [(sizes + " " * (-used % _ALIGN) + "\n").encode()]
    for data in arrays:
        pieces += [data, bytes(-len(data) % _ALIGN)]
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


def _load(path: Path, key: str, view: Callable[[memoryview], object]) -> StatTable | None:
    """The table that ``_save`` wrote to ``path`` under ``key``, or None for
    any other file. Its values are ``view`` of a 2-D memoryview of the
    file's bytes as read, so they cost no copy: ``np.asarray`` for the
    players table, whose values ``StatTable`` then checks finite, and
    ``memoryview`` for the scores, which need no numpy."""
    from .table import StatTable

    try:
        data = files.read_bytes(path)
        start = data.find(b"\n") + 1
        if data[:start] != f"{key} {zlib.crc32(memoryview(data)[start:]):08x}\n".encode():
            return None  # written under another key, or damaged
        first = end = data.index(b"\n", start) + 1
        arrays = []
        for size in map(int, data[start:end].split()):
            arrays.append(memoryview(data)[end : end + size])
            end += size + -size % _ALIGN
        ids, names, columns = (bytes(labels).decode().split("\0") for labels in arrays[:3])
        minutes, values = arrays[3:]
        if first % _ALIGN or end != len(data) or len(names) != len(ids):
            return None  # not the expected layout
        values = view(values.cast("d", (len(ids), len(columns))))
        return StatTable(ids, names, minutes.cast("d").tolist(), columns, values)
    except Exception:  # whatever the fault in a damaged or foreign file, a miss
        return None


class Store:
    """The caches in the output directory ``out`` for the players file at
    ``players``, read under ``schema`` and ``policy``: what a process asks
    for the players table and the players' scores.

    The file is keyed by the digest recorded in ``out`` where that record
    vouches for it, else by the digest of its bytes, which are then kept for
    the parse unless the table proves cached. A pipe is keyed by its bytes
    as a file is, and is never recorded. The record is written once a cache
    is written or found, so that a command that fails in the parse leaves
    nothing behind.
    """

    def __init__(self, players: Path, out: Path, schema: Sequence[str], policy: FilterPolicy):
        self._path, self._out, self._decides = players, out, (schema, policy)
        self._data: bytearray | None = None
        self._to_record: tuple[int, ...] | None = None  # to record, once digested
        self._digest = _recorded(out / PLAYERS, players)
        if self._digest is None:
            self._read()
        else:
            self._key = table_key(schema, policy, self._digest)

    def _read(self) -> None:
        """Read the file's bytes into ``_data``, once, and key them."""
        with files.opened(self._path, "rb") as fh:
            before = _identity(os.fstat(fh.fileno()))
            self._data = files.read_all(fh)
            after = _identity(os.fstat(fh.fileno()))
        self._digest = _digest(self._data)
        self._key = table_key(*self._decides, self._digest)
        self._to_record = before if before == after else None  # not if changed while read

    def _remember(self) -> None:
        """Record the digest for later processes, if this one computed it
        from a file that has an identity to record (a regular file, not a
        pipe) and that did not change while it was read."""
        if self._to_record is not None:
            line = " ".join([self._digest, *map(str, self._to_record)]).encode()
            _put(self._out / PLAYERS, [line, b" %08x\n" % zlib.crc32(line)])
            self._to_record = None

    def table(self) -> StatTable:
        """The players table: the cached one if the table cache holds the
        file's key, else the file's bytes parsed, filtered and built, then
        cached under the key of those bytes.

        The cache file is read once, by one ``_load``. The players
        file is read only on a miss, or where its key was not recorded, and
        then once: the bytes serve the key and the parse, so the table cached
        is the one the key names. A hit drops them once it has loaded the table.
        """
        import numpy as np

        path = self._out / TABLE
        table = _load(path, self._key, np.asarray)
        if table is not None:
            self._data = None  # a hit needs the bytes no more
            self._remember()
            return table
        if self._data is None:  # keyed from the record
            self._read()
        from . import ingest  # called through the module, where a tracer can wrap it

        schema, policy = self._decides
        records = ingest.parse_csv(self._data, schema, policy)  # empties the bytes
        records = ingest.apply_filter(records, policy)
        table = ingest.build_table(records)
        _save(path, self._key, table)
        self._remember()
        return table

    def scores(self, model: Path, check: Callable[[int], None]) -> StatTable:
        """The players' scores on the model saved at ``model``: the cached
        ones if the projection cache holds the key of the players file and
        the model file's bytes, else the table projected and cached.

        The model file is read once, here: its bytes serve the key and the
        load. ``check`` is given the model's k before the table is built; a
        hit has the k of the model it was projected on.
        """
        data = files.read_bytes(model)
        found = _load(self._out / SCORES, scores_key(self._key, data), memoryview)
        if found is not None:
            check(found.n_stats)
            self._remember()
            return found
        from . import pca

        fitted = pca.load_model(data)
        check(fitted.k)
        scores = pca.transform(fitted, self.table())
        self.keep_scores(data, scores)  # table() may have keyed the file anew from its bytes
        return scores

    def keep_scores(self, model: bytes, scores: StatTable) -> None:
        """Cache ``scores``, the players' scores on the model whose file
        bytes are ``model``: those ``pca.save_model`` returned, or those a
        miss in ``scores`` read. The key is of those bytes, not of the file read
        back, which may have been replaced since."""
        _save(self._out / SCORES, scores_key(self._key, model), scores)


def _identity(status: os.stat_result) -> tuple[int, ...] | None:
    """The identity fields of a regular file's ``status``, to record; None
    for a pipe or any other file, which has no lasting identity."""
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
