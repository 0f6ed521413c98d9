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

A file is read whole and decoded as UTF-8. If it holds no quote and no
carriage return, as every file written here with plain labels does, its
lines are split on ``,`` directly; any other file goes through the csv
module, which reads it the same way. Rows are converted one at a time
into the economy's arrays, so no list of every cell exists. The read
stays whole because choosing the reader needs the whole text.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from collections.abc import Iterator

import numpy as np

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


def _read_rows(path) -> Iterator[tuple[int, list[str]]]:
    """Non-empty rows with the 1-based file line each starts on.

    Only the label cell is stripped. Numeric cells keep their padding,
    which :func:`_parse_number` and numpy ignore, and the callers strip
    the other cells of a header. Trailing blank cells are dropped:
    spreadsheet exports pad short rows.
    """
    with open(path, "rb") as file:
        # Read whole, not streamed: the reader choice below needs the text.
        data = file.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        lineno = data.count(b"\n", 0, err.start) + 1
        raise ParseError(
            f"line {lineno}: byte {data[err.start]:#04x} is not UTF-8 text",
            line=lineno,
        ) from None
    del data
    limit = csv.field_size_limit()
    if '"' in text or "\r" in text:
        rows = _csv_rows(text, limit)
    else:
        rows = _split_rows(text, limit)
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


def _split_rows(text: str, limit: int) -> Iterator[tuple[int, list[str]]]:
    r"""Every line of a text with no quote and no carriage return, as csv reads it.

    Lines end at ``"\n"`` only (``str.splitlines`` would also split at
    ``"\x0c"``, ``"\x1c"`` or ``"\u2028"``), and cells at every comma.
    """
    start = 0
    for lineno in itertools.count(1):
        end = text.find("\n", start)
        line = text[start:] if end < 0 else text[start:end]
        cells = line.split(",")
        if len(line) > limit and max(map(len, cells)) > limit:
            raise _oversized(lineno, limit)
        yield lineno, cells
        if end < 0:
            return
        start = end + 1


def _csv_rows(text: str, limit: int) -> Iterator[tuple[int, list[str]]]:
    """Every record of a text in the csv module's dialect."""
    reader = csv.reader(io.StringIO(text, newline=""))
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


def parse_table(path, *, tol_rel: float = DEFAULT_BALANCE_TOL,
                allow_negative_value_added: bool = False,
                on_zero_total: str = ZERO_TOTAL_ERROR) -> Economy:
    """Parse a table file into a validated economy.

    Totals and value added found in the file are passed through as
    supplied figures; absent ones are derived. Balance violations beyond
    ``tol_rel`` surface as :class:`ImbalancedTable` from the economy
    builder, parse-level problems as :class:`ParseError` with a 1-based
    line (and column where it applies).
    """
    rows = _read_rows(path)
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

    return build_economy(
        sectors, transactions, demand, value_added, totals,
        money_unit=money_unit, tol_rel=tol_rel,
        allow_negative_value_added=allow_negative_value_added,
        on_zero_total=on_zero_total,
    )


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
    """Parse an emission file and align it to the economy's sector order."""
    rows = _read_rows(path)
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

    values: dict[str, float] = {}
    for lineno, cells in rows:
        if len(cells) != 2:
            raise ParseError(
                f"line {lineno}: expected two cells (sector, value), "
                f"got {len(cells)}",
                line=lineno,
            )
        label, cell = cells
        if label not in econ.sectors:
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
