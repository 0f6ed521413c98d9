"""CSV ingestion and serialization for tables and emission accounts.

Table layout mirrors how published tables are displayed: a header row of
sector names followed by a ``D`` column and an optional ``T`` column,
one row per sector, then optional trailing ``V`` and ``T`` rows. The
corner cell of the header carries the money unit label (it may be left
empty). Example::

    MCHF,Agri,Industry,D,T
    Agri,100,50,50,200
    Industry,30,20,50,100
    V,70,30,,
    T,200,100,,

When totals appear both as a column and as a bottom row the two are
cross-checked. An emission file is two columns, sector label and value,
with a header line whose second cell declares the emission unit;
sectors are matched to the table by label, not position, so row order
is free::

    sector,kt CO2
    Industry,10
    Agri,20

All numbers are written with 17 significant digits, so a parse of a
serialized economy reproduces it bit for bit.

A file is read whole, as bytes, and held once: it is never decoded to
one string. Its UTF-8 is checked and its characters counted first, in
line-aligned chunks. If it holds no quote and no carriage return, as
every file written here with plain labels does, its lines are found at
its newline bytes, decoded one at a time and split on ``,``; any other
file goes through the csv module, which reads the bytes through a text
wrapper and reads them the same way. Rows are converted one at a time
into the economy's arrays, so no list of every cell exists. The read
stays whole because choosing the reader needs the whole file.

:func:`parse_table` converts a file's text once per distinct content.
The output of its text stage (money unit, labels, transactions, demand
and the V and T vectors, or their absence) is kept in a cache directory,
``$XDG_CACHE_HOME/iofootprint`` or ``~/.cache/iofootprint``, under a
BLAKE2b digest of the file's bytes, of ``csv.field_size_limit()`` and of
a tag naming the entry format, the package version, the bytes of this
module's own file and the numpy and Python versions, so that a changed
reader never loads what another one stored. A later read of the same
bytes loads that entry in place of converting the text; the economy is
then built and checked under the call's own tolerance and flags, exactly
as after a parse. An entry carries a CRC-32 of its contents, and a cache
directory that is not the user's own or that others may write to is not
used. The directory holds at most :data:`_CACHE_ENTRIES` entries, the
least recently used leaving first. Any failure to read, check or write
an entry counts as a miss. Emission files are not cached.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import os
import stat
import struct
import sys
import tempfile
import zlib
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

try:  # a plain ``import hashlib`` loads OpenSSL, several MiB of resident memory
    from _blake2 import blake2b
except ImportError:  # an interpreter built without its own BLAKE2
    from hashlib import blake2b

from . import __version__
from .economy import (
    DEFAULT_BALANCE_TOL,
    Economy,
    EmissionAccount,
    ZERO_TOTAL_ERROR,
    build_economy,
)
from .errors import (
    DuplicateSector,
    MissingSector,
    NegativeEntry,
    ParseError,
    UnknownSector,
)
from .reporting import FLOAT_SPEC

# Row/column labels with structural meaning; they cannot name sectors.
RESERVED_LABELS = frozenset({"D", "T", "V"})

# Totals printed both as a column and as a bottom row are the same published
# figure; they must agree to print-rounding precision no matter how loose the
# balance tolerance is.
TOTAL_CROSS_CHECK_TOL = 1e-9


def _check_labels(sectors, unit_kind: str = "", unit: str = "",
                  lineno: int | None = None) -> None:
    """Raise unless a file carries the unit and every sector label unchanged.

    This is the table format's one label rule: :func:`parse_table` applies
    it to a header's sector cells, and each writer before a file opens.
    The readers strip labels and drop a row's blank last cells, and files
    are UTF-8, so a padded unit or label, one that UTF-8 cannot encode (a
    lone surrogate), an empty emission unit (its header row's last cell),
    an empty sector list and an empty or reserved sector label are each a
    :class:`ParseError`, and a repeated label is a :class:`DuplicateSector`.
    ``lineno`` is the line of a header being read.
    """
    _check_cell(unit_kind, unit)
    if unit_kind == "emission unit" and not unit:
        raise ParseError("emission unit is empty; an emission header "
                         "must declare the unit in its second cell")
    if not sectors:
        raise ParseError("a table file needs at least one sector")
    where = "" if lineno is None else f"line {lineno}: "
    seen = set()
    for j, label in enumerate(sectors):
        _check_cell("sector label", label)
        if label in RESERVED_LABELS:
            raise ParseError(
                f"{where}{label!r} is a reserved label and cannot name a sector",
                line=lineno, column=2 + j,
            )
        if not label:
            raise ParseError(f"{where}empty sector name", line=lineno, column=2 + j)
        if label in seen:
            raise DuplicateSector(f"{where}duplicate sector {label!r}")
        seen.add(label)


def _check_cell(kind: str, text: str) -> None:
    """Raise :class:`ParseError` unless a reader gets ``text`` back from its cell."""
    if text != text.strip():
        raise ParseError(f"{kind} {text!r} has leading or trailing whitespace, "
                         "which a reader would strip")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ParseError(f"{kind} {text!r} cannot be written as UTF-8") from None


def _read_bytes(path) -> bytes:
    # Read whole, not streamed: choosing the reader needs every byte.
    with open(path, "rb") as file:
        return file.read()


def _read_rows(path) -> tuple[int, Iterator[tuple[int, list[str]]]]:
    """:func:`_rows` of the file at ``path``."""
    return _rows(_read_bytes(path))


def _rows(data: bytes) -> tuple[int, Iterator[tuple[int, list[str]]]]:
    """A file's length in characters and its non-empty rows, each with its first line.

    Lines are 1-based. Only the label cell is stripped. Numeric cells keep
    their padding, which :func:`_parse_number` and numpy ignore, and the
    callers strip the other cells of a header. Trailing blank cells are
    dropped: spreadsheet exports pad short rows. A file that is not UTF-8
    is refused before any row is read.
    """
    length = _utf8_length(data)
    limit = csv.field_size_limit()
    if b'"' in data or b"\r" in data:
        rows = _csv_rows(data, limit)
    else:
        rows = _split_rows(data, limit)
    return length, _nonblank(rows)


# Bytes decoded at once to check a file that is not ASCII. Each chunk ends
# after the first newline at or beyond this size, so its decoded text (up
# to four bytes a character) stays small beside the file itself.
_DECODE_CHUNK = 1 << 16


def _utf8_length(data: bytes) -> int:
    """The number of characters in ``data``; :class:`ParseError` unless it is UTF-8.

    A chunk that ends just after a newline ends between characters (the
    byte ``0x0a`` occurs in no multibyte sequence), so the chunks decode
    to the whole file's characters and fail at its first bad byte.
    """
    if data.isascii():
        return len(data)
    view = memoryview(data)
    length = start = 0
    while start < len(data):
        end = data.find(b"\n", start + _DECODE_CHUNK - 1) + 1 or len(data)
        try:
            length += len(str(view[start:end], "utf-8"))
        except UnicodeDecodeError as err:
            bad = start + err.start
            lineno = data.count(b"\n", 0, bad) + 1
            raise ParseError(
                f"line {lineno}: byte {data[bad]:#04x} is not UTF-8 text",
                line=lineno,
            ) from None
        start = end
    return length


def _nonblank(rows) -> Iterator[tuple[int, list[str]]]:
    for lineno, cells in rows:
        while cells and not cells[-1].strip():
            cells.pop()
        if cells:
            cells[0] = cells[0].strip()
            yield lineno, cells


def _oversized(lineno: int, limit: int) -> ParseError:
    return ParseError(
        f"line {lineno}: field larger than field limit ({limit})", line=lineno
    )


def _split_rows(data: bytes, limit: int) -> Iterator[tuple[int, list[str]]]:
    r"""Every line of UTF-8 bytes with no quote and no carriage return, as csv reads it.

    Lines end at ``b"\n"`` only (``str.splitlines`` would also split at
    ``"\x0c"``, ``"\x1c"`` or ``"\u2028"``), and cells at every comma.
    Each line is decoded on its own.
    """
    start = 0
    for lineno in itertools.count(1):
        end = data.find(b"\n", start)
        line = str(data[start:] if end < 0 else data[start:end], "utf-8")
        cells = line.split(",")
        if len(line) > limit and max(map(len, cells)) > limit:
            raise _oversized(lineno, limit)
        yield lineno, cells
        if end < 0:
            return
        start = end + 1


def _csv_rows(data: bytes, limit: int) -> Iterator[tuple[int, list[str]]]:
    """Every record of UTF-8 bytes in the csv module's dialect."""
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    reader = csv.reader(text)
    lineno = 1
    try:
        for row in reader:
            yield lineno, row
            lineno = reader.line_num + 1  # a quoted cell may span lines
    except csv.Error:  # the one error the default dialect raises here
        raise _oversized(lineno, limit) from None


def _parse_number(cell: str, lineno: int, column: int) -> float:
    """One cell as a finite float.

    Digit separators (``1_000``) and non-ASCII digits (``١٢``) are rejected,
    though ``float()`` reads both.
    """
    cell = cell.strip()
    try:
        if "_" in cell or not cell.isascii():
            raise ValueError
        value = float(cell)
    except ValueError:
        raise ParseError(
            f"line {lineno}, column {column}: {cell!r} is not a number",
            line=lineno, column=column,
        ) from None
    if not math.isfinite(value):
        raise ParseError(
            f"line {lineno}, column {column}: {cell!r} is not finite",
            line=lineno, column=column,
        )
    return value


def _parse_numbers(cells: list[str], lineno: int, column: int) -> np.ndarray:
    """A row of cells as finite floats, the first cell at 1-based ``column``.

    The whole row is converted in one call; only a row that fails it is
    retried cell by cell, so that the error names the first bad cell.
    """
    joined = "".join(cells)
    if "_" not in joined and joined.isascii():
        try:
            values = np.array(cells, dtype=float)
        except ValueError:
            pass
        else:
            if np.isfinite(values).all():
                return values
    return np.array(
        [_parse_number(cell, lineno, column + j) for j, cell in enumerate(cells)]
    )


class _Text(NamedTuple):
    """What a table file's text holds: the output of the text stage."""

    money_unit: str
    sectors: list[str]
    transactions: np.ndarray
    demand: np.ndarray
    value_added: np.ndarray | None
    totals: np.ndarray | None


def parse_table(path, *, tol_rel: float = DEFAULT_BALANCE_TOL,
                allow_negative_value_added: bool = False,
                on_zero_total: str = ZERO_TOTAL_ERROR) -> Economy:
    """Parse a table file into a validated economy.

    Totals and value added found in the file are passed through as
    supplied figures; absent ones are derived. Balance violations beyond
    ``tol_rel`` surface as :class:`ImbalancedTable` from the economy
    builder, parse-level problems as :class:`ParseError` with a 1-based
    line (and column where it applies).

    The file is read once. Its text is converted only when the parse
    cache (see the module docstring) holds no entry for its bytes; the
    economy is built from the text stage's output either way. The bytes
    are held until an entry has loaded, so an entry that fails to load
    is a miss that still needs no second read of the file.
    """
    data = _read_bytes(path)
    directory = _cache_dir()
    if directory is None:
        text = _parse_text(path, data)
    else:
        key = _cache_key(data)
        text = _load_entry(directory, key)
        if text is None:
            text = _parse_text(path, data)
            _store_entry(directory, key, text)
    del data  # the economy is built without the file beside it
    return build_economy(
        text.sectors, text.transactions, text.demand, text.value_added, text.totals,
        money_unit=text.money_unit, tol_rel=tol_rel,
        allow_negative_value_added=allow_negative_value_added,
        on_zero_total=on_zero_total,
    )


def _parse_text(path, data: bytes) -> _Text:
    """The text stage of :func:`parse_table`: a file's bytes as arrays and labels."""
    length, rows = _rows(data)
    lineno, header = next(rows, (1, None))
    if header is None:
        raise ParseError(f"{path}: file is empty", line=1)
    header = [cell.strip() for cell in header]
    if len(header) < 3:
        raise ParseError(
            f"line {lineno}: header needs at least one sector and a D column",
            line=lineno,
        )
    money_unit = header[0]
    try:
        d_position = header.index("D", 1)  # corner cell is the money unit
    except ValueError:
        raise ParseError(
            f"line {lineno}: header has no D column", line=lineno
        ) from None
    sectors = header[1:d_position]
    if not sectors:
        raise ParseError(
            f"line {lineno}: header has no sector columns before D", line=lineno
        )
    trailing = header[d_position + 1:]
    if trailing not in ([], ["T"]):
        raise ParseError(
            f"line {lineno}: unexpected header columns after D: {trailing}",
            line=lineno,
        )
    has_total_column = trailing == ["T"]
    _check_labels(sectors, lineno=lineno)

    n = len(sectors)
    # Each of the n sector rows holds at least n + 1 commas and a line end,
    # so a shorter text is refused before the n x n matrix is allocated.
    if n * (n + 2) > length:
        raise ParseError(f"line {lineno}: header names {n} sectors, too many "
                         f"for a file of {length} characters", line=lineno)
    width = 1 + n + 1 + (1 if has_total_column else 0)
    transactions = np.zeros((n, n))
    demand = np.zeros(n)
    totals_column = np.zeros(n) if has_total_column else None
    for i in range(n):
        lineno, cells = next(rows, (lineno, None))
        if cells is None:
            raise ParseError(
                f"expected {n} sector rows after the header, found {i}",
                line=lineno,
            )
        if cells[0] != sectors[i]:
            raise ParseError(
                f"line {lineno}: row label {cells[0]!r} does not match "
                f"header order (expected {sectors[i]!r})",
                line=lineno, column=1,
            )
        if len(cells) != width:
            raise ParseError(
                f"line {lineno}: row has {len(cells)} cells, expected {width}",
                line=lineno,
            )
        values = _parse_numbers(cells[1:], lineno, 2)
        transactions[i] = values[:n]
        demand[i] = values[n]
        if has_total_column:
            totals_column[i] = values[n + 1]

    vectors: dict[str, np.ndarray] = {}  # the optional V and T rows
    for lineno, cells in rows:
        label = cells[0]
        if label not in ("V", "T"):
            raise ParseError(
                f"line {lineno}: unexpected row label {label!r} "
                "(only V and T rows may follow the sector rows)",
                line=lineno, column=1,
            )
        if label in vectors:
            raise ParseError(f"line {lineno}: duplicate {label} row", line=lineno)
        if len(cells) - 1 != n:
            raise ParseError(
                f"line {lineno}: {label} row has {len(cells) - 1} values, "
                f"expected {n}",
                line=lineno,
            )
        vectors[label] = _parse_numbers(cells[1:], lineno, 2)
    value_added = vectors.get("V")
    totals_row = vectors.get("T")

    totals = totals_column if totals_column is not None else totals_row
    if totals_column is not None and totals_row is not None:
        scale = np.maximum(np.maximum(np.abs(totals_column), np.abs(totals_row)), 1.0)
        worst = int(np.argmax(np.abs(totals_column - totals_row) / scale))
        if (abs(totals_column[worst] - totals_row[worst])
                > TOTAL_CROSS_CHECK_TOL * scale[worst]):
            raise ParseError(
                f"total of sector {sectors[worst]!r} differs between the T "
                f"column ({float(totals_column[worst])!r}) and the T row "
                f"({float(totals_row[worst])!r})"
            )

    return _Text(money_unit, sectors, transactions, demand, value_added, totals)


# The parse cache. An entry is one file: the tag, a header, the labels as
# UTF-8 separated by 0xff (a byte UTF-8 never uses, so every label, NULs
# and line breaks included, reads back exactly), then the float64
# transactions, demand, and V and T when present, in native byte order.
# The header's CRC-32 covers the labels and the arrays: it catches a
# damaged entry, while the directory check keeps other users' files out.

# Files kept, entries and unfinished temporary files alike; the least
# recently written or used is removed first.
_CACHE_ENTRIES = 4
_ENTRY_SUFFIX = ".parsed"
_TEMP_SUFFIX = ".tmp"
# key, n, V present, T present, label bytes, CRC-32 of labels and arrays
_ENTRY_HEADER = struct.Struct("<32s5Q")
_LABEL_SEPARATOR = b"\xff"


def _entry_tag(source) -> bytes | None:
    """The tag hashed into every key and beginning every entry; None if unreadable.

    It names the entry layout and its byte order, and everything the text
    stage's output depends on besides the file: the package version, the
    bytes of ``source`` (this module's own file, which holds the whole
    text stage) and the numpy and Python versions that convert the cells.
    """
    try:
        with open(source, "rb") as file:
            code = blake2b(file.read(), digest_size=16).hexdigest()
    except OSError:  # run from a zip archive, say
        return None
    return (f"iofootprint parse cache 2, version {__version__}, code {code}, "
            f"numpy {np.__version__}, python {sys.version.split()[0]}, "
            f"{sys.byteorder}-endian\n").encode()


# None turns the cache off: without this module's bytes no key is safe.
_ENTRY_TAG = _entry_tag(__file__)


def _cache_key(data: bytes) -> bytes:
    """The digest naming the entry for a table file's bytes."""
    digest = blake2b(_ENTRY_TAG, digest_size=32)
    digest.update(b"%d\n" % csv.field_size_limit())  # the limit can fail a parse
    digest.update(data)
    return digest.digest()


def _cache_dir() -> str | None:
    """``$XDG_CACHE_HOME/iofootprint``, else ``~/.cache/iofootprint``; None if no cache.

    As the XDG base directory specification asks, an empty or relative
    ``XDG_CACHE_HOME`` is ignored. There is no cache without a home, off
    POSIX (where :func:`_private` cannot tell who owns the directory), or
    when :data:`_ENTRY_TAG` could not be made.
    """
    if _ENTRY_TAG is None or not hasattr(os, "geteuid"):
        return None
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "iofootprint") if os.path.isabs(base) else None


def _private(directory: str) -> bool:
    """Whether ``directory`` is a directory of this user that no one else may write to."""
    try:
        info = os.stat(directory)
    except OSError:
        return False
    return (stat.S_ISDIR(info.st_mode) and info.st_uid == os.geteuid()
            and not info.st_mode & 0o022)


def _entry_path(directory: str, key: bytes) -> str:
    return os.path.join(directory, key.hex() + _ENTRY_SUFFIX)


def _load_entry(directory: str, key: bytes) -> _Text | None:
    """The cached text stage for ``key``, or None on any failure (a miss)."""
    if not _private(directory):
        return None
    path = _entry_path(directory, key)
    try:
        with open(path, "rb") as file:
            text = _read_entry(file, key)
    except (OSError, ValueError):  # UnicodeDecodeError is a ValueError
        return None
    if text is not None:
        with contextlib.suppress(OSError):
            os.utime(path)  # now the most recently used
    return text


def _read_entry(file, key: bytes) -> _Text | None:
    """An entry's contents, or None unless its tag, key, size and CRC all fit."""
    head = file.read(len(_ENTRY_TAG) + _ENTRY_HEADER.size)
    if len(head) != len(_ENTRY_TAG) + _ENTRY_HEADER.size or not head.startswith(
            _ENTRY_TAG):
        return None
    stored_key, n, has_v, has_t, label_size, crc = _ENTRY_HEADER.unpack_from(
        head, len(_ENTRY_TAG))
    if stored_key != key or n < 1 or has_v > 1 or has_t > 1:
        return None
    # The size bounds n before anything of size n x n is allocated.
    if os.fstat(file.fileno()).st_size != (
            len(head) + label_size + 8 * n * (n + 1 + has_v + has_t)):
        return None
    label_bytes = file.read(label_size)
    arrays = [np.empty((n, n)), np.empty(n)]
    arrays += [np.empty(n) if present else None for present in (has_v, has_t)]
    for array in arrays:
        if array is not None and file.readinto(array) != array.nbytes:
            return None
    if _crc(label_bytes, arrays) != crc:
        return None
    labels = [str(label, "utf-8") for label in label_bytes.split(_LABEL_SEPARATOR)]
    if len(labels) != n + 1:
        return None
    return _Text(labels[0], labels[1:], *arrays)


def _crc(label_bytes: bytes, arrays) -> int:
    crc = zlib.crc32(label_bytes)
    for array in arrays:
        if array is not None:
            crc = zlib.crc32(array, crc)
    return crc


def _store_entry(directory: str, key: bytes, text: _Text) -> None:
    """Write ``text`` as the entry for ``key``, then evict; every failure is ignored."""
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        if not _private(directory):
            return
        fd, temp = tempfile.mkstemp(suffix=_TEMP_SUFFIX, dir=directory)
    except OSError:
        return
    try:
        with open(fd, "wb") as file:
            _write_entry(file, key, text)
        # A reader sees the whole entry or none.
        os.replace(temp, _entry_path(directory, key))
        _evict(directory)
    except OSError:
        pass
    finally:
        with contextlib.suppress(OSError):
            os.unlink(temp)  # already gone once the entry is in place


def _write_entry(file, key: bytes, text: _Text) -> None:
    labels = _LABEL_SEPARATOR.join(
        label.encode("utf-8") for label in [text.money_unit, *text.sectors])
    vectors = [text.value_added, text.totals]
    arrays = [text.transactions, text.demand, *vectors]
    file.write(_ENTRY_TAG)
    file.write(_ENTRY_HEADER.pack(key, len(text.sectors),
                                  *(vector is not None for vector in vectors),
                                  len(labels), _crc(labels, arrays)))
    file.write(labels)
    for array in arrays:
        if array is not None:
            file.write(array)


def _evict(directory: str) -> None:
    """Keep the :data:`_CACHE_ENTRIES` most recent entries and temporary files.

    A temporary file counts as well: one that a killed writer left behind
    leaves like an entry, once that many newer files have been written.
    """
    files = sorted(
        (entry.stat().st_mtime_ns, entry.path) for entry in os.scandir(directory)
        if entry.name.endswith((_ENTRY_SUFFIX, _TEMP_SUFFIX))
    )
    for _, path in files[:-_CACHE_ENTRIES]:
        os.unlink(path)


def _cell(text: str) -> str:
    r"""``text`` as one cell, quoted as the csv module quotes it under ``"\r\n"``.

    A cell holding a comma, a quote, ``"\n"`` or ``"\r"`` is quoted, with
    its quotes doubled; any other cell is written as it is.
    """
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _table_lines(econ: Economy) -> Iterator[str]:
    yield ",".join(map(_cell, [econ.money_unit, *econ.sectors, "D", "T"])) + "\n"
    vector_row = ",".join([FLOAT_SPEC] * econ.n)
    sector_row = f"{vector_row},{FLOAT_SPEC},{FLOAT_SPEC}"
    for i, label in enumerate(econ.sectors):
        row = econ.transactions[i].tolist()
        row += (econ.demand[i], econ.totals[i])
        yield f"{_cell(label)},{sector_row % tuple(row)}\n"
    for label, values in (("V", econ.value_added), ("T", econ.totals)):
        yield f"{label},{vector_row % tuple(values.tolist())},,\n"


def serialize_table(econ: Economy) -> str:
    """Render an economy in the table layout, exactly re-parseable."""
    _check_labels(econ.sectors, "money unit", econ.money_unit)
    return "".join(_table_lines(econ))


def write_table(econ: Economy, path) -> None:
    _check_labels(econ.sectors, "money unit", econ.money_unit)  # before the file opens
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(_table_lines(econ))


def parse_emissions(path, econ: Economy) -> EmissionAccount:
    """Parse an emission file and align it to the economy's sector order.

    Emission files are small beside their table and are not cached.
    """
    _, rows = _read_rows(path)
    lineno, header = next(rows, (1, None))
    if header is None:
        raise ParseError(f"{path}: file is empty", line=1)
    if len(header) < 2:
        raise ParseError(
            f"line {lineno}: emission header must declare the unit in its "
            "second cell",
            line=lineno,
        )
    unit = header[1].strip()

    known = frozenset(econ.sectors)
    values: dict[str, float] = {}
    for lineno, cells in rows:
        if len(cells) != 2:
            raise ParseError(
                f"line {lineno}: expected two cells (sector, value), "
                f"got {len(cells)}",
                line=lineno,
            )
        label, cell = cells
        if label not in known:
            raise UnknownSector(
                f"line {lineno}: sector {label!r} does not appear in the table"
            )
        if label in values:
            raise DuplicateSector(f"line {lineno}: duplicate sector {label!r}")
        value = _parse_number(cell, lineno, 2)
        if value < 0:
            raise NegativeEntry(
                f"line {lineno}: emission of sector {label!r} is negative "
                f"({value!r})",
                index=label,
            )
        values[label] = value

    missing = [s for s in econ.sectors if s not in values]
    if missing:
        raise MissingSector(
            f"emission file has no entry for sector {missing[0]!r}"
            + (f" (and {len(missing) - 1} more)" if len(missing) > 1 else "")
        )
    emissions = np.array([values[s] for s in econ.sectors])
    return EmissionAccount(emissions, emission_unit=unit)


def _emission_lines(account: EmissionAccount, econ: Economy) -> list[str]:
    if account.emissions.shape != (econ.n,):
        raise MissingSector(
            f"account has {account.emissions.shape[0]} entries, "
            f"economy has {econ.n} sectors"
        )
    _check_labels(econ.sectors, "emission unit", account.emission_unit)
    return [f"sector,{_cell(account.emission_unit)}\n"] + [
        f"{_cell(label)},{FLOAT_SPEC % value}\n"
        for label, value in zip(econ.sectors, account.emissions.tolist())
    ]


def serialize_emissions(account: EmissionAccount, econ: Economy) -> str:
    """Render an emission account in table sector order, exactly re-parseable."""
    return "".join(_emission_lines(account, econ))


def write_emissions(account: EmissionAccount, econ: Economy, path) -> None:
    lines = _emission_lines(account, econ)  # fails before the file is opened
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(lines)
