"""The table reader against the one that decoded each file whole.

The reference below decodes the file into one string before it splits
it, as ``tableio._read_rows`` did before it held the file once, as bytes.
For every drawn file both must give the same length and rows, or the
same ``ParseError`` message, line and column.
"""

import csv
import io
import itertools
from collections.abc import Iterator
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iofootprint import ParseError, tableio


def reference_read_rows(path) -> tuple[int, Iterator[tuple[int, list[str]]]]:
    """A file's decoded length and its non-empty rows, each with its first line.

    Lines are 1-based. Only the label cell is stripped. Numeric cells keep
    their padding, which :func:`_parse_number` and numpy ignore, and the
    callers strip the other cells of a header. Trailing blank cells are
    dropped: spreadsheet exports pad short rows.
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
    return len(text), _nonblank(rows)


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


def outcome(read, path):
    """``read(path)`` with its rows listed, or its ParseError as (message, line, column)."""
    try:
        length, rows = read(path)
        return length, list(rows)
    except ParseError as err:
        return str(err), err.line, err.column


def both_outcomes(path, data, *, chunk=tableio._DECODE_CHUNK):
    """The reference's outcome and the reader's on ``data``, its UTF-8 checked in ``chunk``s."""
    path.write_bytes(data)
    with mock.patch.object(tableio, "_DECODE_CHUNK", chunk):
        return outcome(reference_read_rows, path), outcome(tableio._read_rows, path)


# Characters that are ASCII, Latin-1, BMP and astral, and ones that
# str.splitlines() or str.strip() treat as line breaks or whitespace.
CHARS = st.sampled_from(["a", "Z", "7", ".", "-", " ", "\t", "\xa0", "é", "€",
                         "\U0001F600", "\x0c", "\x1c", "\x85", "\u2028"])
# Bytes that no UTF-8 text holds at that place: stray continuation bytes,
# leads with too few continuations, an encoded surrogate, bytes past U+10FFFF.
BAD_BYTES = st.sampled_from([b"\x80", b"\xbf", b"\xc3", b"\xc0\xaf", b"\xe2\x82",
                             b"\xed\xa0\x80", b"\xf0\x9f\x98", b"\xf4\x90\x80\x80",
                             b"\xf5", b"\xff"])
# Field limits: csv's own, and small ones that drawn cells reach and pass.
LIMITS = st.sampled_from([None, 2, 5])


def quoted(text):
    return '"' + text.replace('"', '""') + '"'


@st.composite
def files(draw):
    """A file as bytes, and the field limit to read it under (None: csv's own)."""
    limit = draw(LIMITS)
    word = st.lists(CHARS, max_size=4).map("".join)
    cell_kinds = [
        word,
        st.sampled_from(["", " ", "\t ", "1", "2.5", "1e3"]),
        st.lists(st.one_of(CHARS, st.sampled_from([",", '"', "\n", "\r"])),
                 max_size=4).map("".join).map(quoted),
    ]
    if limit is not None:  # a cell at, or one past, the limit in characters
        cell_kinds.append(st.builds(lambda c, k: c * (limit + k), CHARS,
                                    st.integers(0, 1)))
    rows = draw(st.lists(st.lists(st.one_of(cell_kinds), max_size=5), max_size=6))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(",".join(row) for row in rows)
    if draw(st.booleans()):
        text += end
    if draw(st.booleans()):
        text = "\ufeff" + text
    data = text.encode("utf-8")
    fault = draw(st.sampled_from([None, "byte", "cut-at-eof", "cut-at-line-end"]))
    if fault == "byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(BAD_BYTES) + data[at:]
    elif fault == "cut-at-eof":
        data += draw(st.sampled_from(["é", "€", "\U0001F600"])).encode("utf-8")[:-1]
    elif fault == "cut-at-line-end":  # a sequence cut short just before a newline
        ends = [k for k, byte in enumerate(data) if byte == ord("\n")]
        at = draw(st.sampled_from(ends)) if ends else len(data)
        cut = draw(st.sampled_from(["é", "€", "\U0001F600"])).encode("utf-8")[:-1]
        data = data[:at] + cut + data[at:]
    return data, limit


@settings(max_examples=400, deadline=None)
@given(drawn=files(), chunk=st.sampled_from([1, 2, 3, 8, tableio._DECODE_CHUNK]))
@example(drawn=("s,\u00e9\n".encode("utf-8") + b"\xe2\x82\n", None), chunk=4)
@example(drawn=(b"\xef\xbb\xbfMU,a\r\n\r\n a ,1, ,\r", 2), chunk=1)
def test_reader_matches_reference(tmp_path_factory, drawn, chunk):
    data, limit = drawn
    path = tmp_path_factory.getbasetemp() / "reference.csv"
    saved = csv.field_size_limit()
    if limit is not None:
        csv.field_size_limit(limit)
    try:
        expected, got = both_outcomes(path, data, chunk=chunk)
    finally:
        csv.field_size_limit(saved)
    assert got == expected


LIMIT = csv.field_size_limit()


@pytest.mark.parametrize("char", ["x", "é", "€", "\U0001F600"])
@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["split", "csv"])
def test_field_limit_counts_characters(tmp_path, char, extra, end):
    """A cell of csv's own limit in characters is read; one more is refused."""
    data = end.join(["MU,a,D", "a," + char * (LIMIT + extra) + ",1", ""])
    expected, got = both_outcomes(tmp_path / "t.csv", data.encode("utf-8"))
    assert got == expected
    if extra:
        assert got == (f"line 2: field larger than field limit ({LIMIT})", 2, None)
    else:
        assert got[0] == len(data)


def test_bad_byte_in_a_later_chunk(tmp_path):
    """The first bad byte is found, and its line named, past the first chunk."""
    line = "é," * 999 + "1\n"
    lines = (tableio._DECODE_CHUNK // len(line.encode("utf-8")) + 3)
    data = (line * lines).encode("utf-8") + b"x\xff\n" + line.encode("utf-8")
    expected, got = both_outcomes(tmp_path / "t.csv", data)
    assert got == expected == (f"line {lines + 1}: byte 0xff is not UTF-8 text",
                               lines + 1, None)
