import csv
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iofootprint import (
    DuplicateSector,
    Economy,
    EmissionAccount,
    FootprintError,
    GeneratorConfig,
    ImbalancedTable,
    MissingSector,
    NegativeEntry,
    ParseError,
    UnknownSector,
    ZeroTotal,
    generate_economy,
    parse_emissions,
    parse_table,
    serialize_emissions,
    serialize_table,
)
from iofootprint import tableio
from iofootprint.reporting import format_float
from iofootprint.tableio import write_emissions, write_table

WORKED_TABLE = """\
MU,s1,s2,D,T
s1,100,50,50,200
s2,30,20,50,100
V,70,30,,
T,200,100,,
"""

MINIMAL_TABLE = """\
,s1,s2,D
s1,100,50,50
s2,30,20,50
"""

EMISSIONS = """\
sector,kt CO2
s1,20
s2,10
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParseTable:
    def test_full_layout(self, tmp_path, worked_economy):
        econ = parse_table(write(tmp_path, "t.csv", WORKED_TABLE))
        assert econ.sectors == ("s1", "s2")
        assert econ.money_unit == "MU"
        assert np.array_equal(econ.transactions, worked_economy.transactions)
        assert np.array_equal(econ.demand, worked_economy.demand)
        assert np.array_equal(econ.totals, worked_economy.totals)
        assert np.array_equal(econ.value_added, worked_economy.value_added)

    def test_minimal_layout_derives_totals(self, tmp_path):
        econ = parse_table(write(tmp_path, "t.csv", MINIMAL_TABLE))
        assert econ.totals.tolist() == [200.0, 100.0]
        assert econ.value_added.tolist() == [70.0, 30.0]
        assert econ.money_unit == ""

    def test_total_row_only(self, tmp_path):
        text = (",s1,s2,D\n"
                "s1,100,50,50\n"
                "s2,30,20,50\n"
                "T,200,100\n")
        econ = parse_table(write(tmp_path, "t.csv", text))
        assert econ.totals.tolist() == [200.0, 100.0]

    def test_quoted_fields_accepted(self, tmp_path):
        text = ('"MU","s1","s2","D"\n'
                '"s1","100","50","50"\n'
                '"s2","30","20","50"\n')
        econ = parse_table(write(tmp_path, "t.csv", text))
        assert econ.totals.tolist() == [200.0, 100.0]

    def test_non_numeric_cell_located(self, tmp_path):
        text = WORKED_TABLE.replace("30,20", "30,oops")
        with pytest.raises(ParseError) as exc:
            parse_table(write(tmp_path, "t.csv", text))
        assert exc.value.line == 3
        assert exc.value.column == 3

    def test_corrupted_total_row(self, tmp_path):
        text = WORKED_TABLE.replace("T,200,100", "T,999,100").replace(
            "s1,100,50,50,200", "s1,100,50,50,999"
        )
        with pytest.raises(ImbalancedTable):
            parse_table(write(tmp_path, "t.csv", text))

    def test_total_row_contradicting_row_sums(self, tmp_path):
        text = (",s1,s2,D\n"
                "s1,100,50,50\n"
                "s2,30,20,50\n"
                "T,999,100\n")
        with pytest.raises(ImbalancedTable):
            parse_table(write(tmp_path, "t.csv", text))

    def test_column_row_total_cross_check(self, tmp_path):
        text = WORKED_TABLE.replace("T,200,100", "T,222,100")
        with pytest.raises(ParseError):
            parse_table(write(tmp_path, "t.csv", text))

    def test_duplicate_sector_header(self, tmp_path):
        text = (",s1,s1,D\n"
                "s1,1,1,1\n"
                "s1,1,1,1\n")
        with pytest.raises(DuplicateSector):
            parse_table(write(tmp_path, "t.csv", text))

    def test_reserved_label_rejected(self, tmp_path):
        text = (",V,s2,D\n"
                "V,1,1,1\n"
                "s2,1,1,1\n")
        with pytest.raises(ParseError):
            parse_table(write(tmp_path, "t.csv", text))

    def test_row_label_order_mismatch(self, tmp_path):
        text = (",s1,s2,D\n"
                "s2,30,20,50\n"
                "s1,100,50,50\n")
        with pytest.raises(ParseError) as exc:
            parse_table(write(tmp_path, "t.csv", text))
        assert exc.value.line == 2

    def test_ragged_row_rejected(self, tmp_path):
        text = (",s1,s2,D\n"
                "s1,100,50,50,7\n"
                "s2,30,20,50\n")
        with pytest.raises(ParseError):
            parse_table(write(tmp_path, "t.csv", text))

    def test_missing_d_column(self, tmp_path):
        text = (",s1,s2\n"
                "s1,1,2\n"
                "s2,3,4\n")
        with pytest.raises(ParseError):
            parse_table(write(tmp_path, "t.csv", text))

    def test_zero_sector_policies(self, tmp_path):
        text = (",live,dead,D\n"
                "live,10,0,10\n"
                "dead,0,0,0\n")
        path = write(tmp_path, "t.csv", text)
        with pytest.raises(ZeroTotal):
            parse_table(path)
        econ = parse_table(path, on_zero_total="drop")
        assert econ.sectors == ("live",)


class TestParseEmissions:
    def test_aligned(self, tmp_path):
        econ = parse_table(write(tmp_path, "t.csv", WORKED_TABLE))
        acct = parse_emissions(write(tmp_path, "e.csv", EMISSIONS), econ)
        assert acct.emissions.tolist() == [20.0, 10.0]
        assert acct.emission_unit == "kt CO2"

    def test_reordered_rows(self, tmp_path):
        econ = parse_table(write(tmp_path, "t.csv", WORKED_TABLE))
        text = "sector,kt CO2\ns2,10\ns1,20\n"
        acct = parse_emissions(write(tmp_path, "e.csv", text), econ)
        assert acct.emissions.tolist() == [20.0, 10.0]

    def test_missing_sector(self, tmp_path):
        econ = parse_table(write(tmp_path, "t.csv", WORKED_TABLE))
        text = "sector,kt CO2\ns1,20\n"
        with pytest.raises(MissingSector) as exc:
            parse_emissions(write(tmp_path, "e.csv", text), econ)
        assert "s2" in str(exc.value)

    def test_unknown_sector(self, tmp_path):
        econ = parse_table(write(tmp_path, "t.csv", WORKED_TABLE))
        text = "sector,kt CO2\ns1,20\ns2,10\nghost,1\n"
        with pytest.raises(UnknownSector):
            parse_emissions(write(tmp_path, "e.csv", text), econ)

    def test_duplicate_sector(self, tmp_path):
        econ = parse_table(write(tmp_path, "t.csv", WORKED_TABLE))
        text = "sector,kt CO2\ns1,20\ns1,10\n"
        with pytest.raises(DuplicateSector):
            parse_emissions(write(tmp_path, "e.csv", text), econ)

    def test_negative_value(self, tmp_path):
        econ = parse_table(write(tmp_path, "t.csv", WORKED_TABLE))
        text = "sector,kt CO2\ns1,-20\ns2,10\n"
        with pytest.raises(NegativeEntry):
            parse_emissions(write(tmp_path, "e.csv", text), econ)

    def test_bad_number(self, tmp_path):
        econ = parse_table(write(tmp_path, "t.csv", WORKED_TABLE))
        text = "sector,kt CO2\ns1,20\ns2,many\n"
        with pytest.raises(ParseError) as exc:
            parse_emissions(write(tmp_path, "e.csv", text), econ)
        assert exc.value.line == 3


class TestRoundTrip:
    def assert_economies_equal(self, a, b):
        assert a.sectors == b.sectors
        assert a.money_unit == b.money_unit
        assert np.array_equal(a.transactions, b.transactions)
        assert np.array_equal(a.demand, b.demand)
        assert np.array_equal(a.value_added, b.value_added)
        assert np.array_equal(a.totals, b.totals)

    def test_worked_economy_fixpoint(self, tmp_path, worked_economy):
        first = parse_table(
            write(tmp_path, "a.csv", serialize_table(worked_economy))
        )
        second = parse_table(write(tmp_path, "b.csv", serialize_table(first)))
        self.assert_economies_equal(first, second)

    @pytest.mark.parametrize("seed", [3, 7, 21])
    def test_generated_fixpoint_with_ugly_floats(self, tmp_path, seed):
        econ, acct = generate_economy(GeneratorConfig(n=6, seed=seed))
        first = parse_table(write(tmp_path, "a.csv", serialize_table(econ)))
        second = parse_table(write(tmp_path, "b.csv", serialize_table(first)))
        self.assert_economies_equal(first, second)
        self.assert_economies_equal(first, econ)
        acct1 = parse_emissions(
            write(tmp_path, "e1.csv", serialize_emissions(acct, econ)), first
        )
        acct2 = parse_emissions(
            write(tmp_path, "e2.csv", serialize_emissions(acct1, first)), second
        )
        assert np.array_equal(acct1.emissions, acct2.emissions)
        assert np.array_equal(acct1.emissions, acct.emissions)
        assert acct1.emission_unit == acct.emission_unit


class TestDigitSeparators:
    """``1_000`` is not a number in a table or emission file, though float() takes it."""

    def test_table_cell(self, tmp_path):
        text = WORKED_TABLE.replace("s1,100,", "s1,1_00,")
        with pytest.raises(ParseError, match="'1_00' is not a number") as exc:
            parse_table(write(tmp_path, "t.csv", text))
        assert (exc.value.line, exc.value.column) == (2, 2)

    def test_vector_row_cell(self, tmp_path):
        text = WORKED_TABLE.replace("V,70,30", "V,70,3_0")
        with pytest.raises(ParseError, match="'3_0' is not a number") as exc:
            parse_table(write(tmp_path, "t.csv", text))
        assert (exc.value.line, exc.value.column) == (4, 3)

    def test_emission_cell(self, tmp_path):
        econ = parse_table(write(tmp_path, "t.csv", WORKED_TABLE))
        text = EMISSIONS.replace("s1,20", "s1,2_0")
        with pytest.raises(ParseError, match="'2_0' is not a number") as exc:
            parse_emissions(write(tmp_path, "e.csv", text), econ)
        assert (exc.value.line, exc.value.column) == (2, 2)


# Spellings of one nonnegative double that float() reads back exactly.
SPELLINGS = [repr, "%.17g".__mod__, "%.20e".__mod__, "%.17E".__mod__,
             lambda v: "+" + repr(v)]
# Cells that are not finite numbers, or that only float() would accept.
NOT_NUMBERS = ["oops", "1_000", "2_5.5", "1e1_0", "1__0", "nan", "NaN", "inf",
               "-Infinity", "1e999", "0x1p3", "1.5.2", "e5", "1d3"]


@st.composite
def cell_text(draw, low):
    """(logical text, as written in the file) of one numeric cell."""
    if draw(st.integers(0, 15)) == 0:
        text = draw(st.sampled_from(NOT_NUMBERS))
    else:
        value = draw(st.floats(min_value=low, max_value=1e300))
        text = draw(st.sampled_from(SPELLINGS))(value)
    padded = " " * draw(st.integers(0, 2)) + text + " " * draw(st.integers(0, 2))
    return text, f'"{padded}"' if draw(st.booleans()) else padded


@st.composite
def tables(draw):
    """A table of cells as text, with the 1-based line of each row of cells."""
    n = draw(st.integers(1, 5))
    rows = []
    for i in range(n):
        cells = [draw(cell_text(0.0)) for _ in range(n)] + [draw(cell_text(1.0))]
        rows.append((f"s{i}", cells))
    if draw(st.booleans()):
        rows.append(("V", [draw(cell_text(0.0)) for _ in range(n)]))
    header = ",".join(["MU", *(f"s{i}" for i in range(n)), "D"])
    text = "\n".join([header] + [",".join([label] + [written for _, written in cells])
                                 for label, cells in rows]) + "\n"
    return n, text, [(2 + k, [logical for logical, _ in cells])
                     for k, (_, cells) in enumerate(rows)]


def reference_parse(rows):
    """Per-cell float() over the numeric cells: values, or the first error."""
    parsed = []
    for lineno, cells in rows:
        values = []
        for column, cell in enumerate(cells, start=2):
            prefix = f"line {lineno}, column {column}: {cell!r} is"
            try:
                if "_" in cell:
                    raise ValueError
                value = float(cell)
            except ValueError:
                return None, (f"{prefix} not a number", lineno, column)
            if not math.isfinite(value):
                return None, (f"{prefix} not finite", lineno, column)
            values.append(value)
        parsed.append(values)
    return parsed, None


@settings(max_examples=100, deadline=None)
@given(tables())
def test_parse_matches_per_cell_reference(tmp_path_factory, table):
    n, text, rows = table
    path = write(tmp_path_factory.getbasetemp(), "property.csv", text)
    expected, error = reference_parse(rows)
    if error is not None:
        with pytest.raises(ParseError) as exc:
            parse_table(path, tol_rel=math.inf, allow_negative_value_added=True)
        assert (str(exc.value), exc.value.line, exc.value.column) == error
        return
    econ = parse_table(path, tol_rel=math.inf, allow_negative_value_added=True)
    assert econ.transactions.tolist() == [row[:n] for row in expected[:n]]
    assert econ.demand.tolist() == [row[n] for row in expected[:n]]
    if len(expected) > n:
        assert econ.value_added.tolist() == expected[n]


def reference_serialize(econ):
    """The per-cell writer: one format_float call per number."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([econ.money_unit, *econ.sectors, "D", "T"])
    for i, label in enumerate(econ.sectors):
        writer.writerow([label, *map(format_float, econ.transactions[i]),
                         format_float(econ.demand[i]), format_float(econ.totals[i])])
    writer.writerow(["V", *map(format_float, econ.value_added), "", ""])
    writer.writerow(["T", *map(format_float, econ.totals), "", ""])
    return out.getvalue()


def reference_serialize_emissions(account, econ):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["sector", account.emission_unit])
    for label, value in zip(econ.sectors, account.emissions):
        writer.writerow([label, format_float(value)])
    return out.getvalue()


def economy_from(labels, values, money_unit=""):
    """An economy (balanced or not) whose arrays take ``values`` in order."""
    n = len(labels)
    parts = np.split(np.asarray(values, dtype=float), [n * n, n * n + n, n * n + 2 * n])
    return Economy(labels, parts[0].reshape(n, n), *parts[1:], money_unit=money_unit)


@st.composite
def float_economies(draw):
    n = draw(st.integers(1, 5))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=n * n + 3 * n, max_size=n * n + 3 * n))
    return economy_from([f"s{i}" for i in range(n)], values)


class TestSerializeBytes:
    EDGE = [-0.0, 5e-324, 1.7976931348623157e308, 0.1]
    LABELS = ("a,b", 'say "hi"', "plain", 'both, "x"')

    def edge_economy(self):
        n = len(self.LABELS)
        return economy_from(self.LABELS, np.resize(self.EDGE, n * n + 3 * n),
                            money_unit='M,"U"')

    def test_table_matches_per_cell_writer(self):
        econ = self.edge_economy()
        text = serialize_table(econ)
        assert text == reference_serialize(econ)
        for spelled in ("-0,", "4.9406564584124654e-324", "1.7976931348623157e+308",
                        "0.10000000000000001", '"a,b"', '"say ""hi"""', '"M,""U"""'):
            assert spelled in text

    def test_emissions_match_per_cell_writer(self):
        econ = self.edge_economy()
        account = EmissionAccount(self.EDGE, emission_unit='kt, "CO2"')
        assert (serialize_emissions(account, econ)
                == reference_serialize_emissions(account, econ))

    def test_written_bytes_equal_serialized(self, tmp_path):
        econ = self.edge_economy()
        account = EmissionAccount(self.EDGE, emission_unit="kt")
        write_table(econ, tmp_path / "t.csv")
        write_emissions(account, econ, tmp_path / "e.csv")
        assert (tmp_path / "t.csv").read_bytes() == serialize_table(econ).encode()
        assert ((tmp_path / "e.csv").read_bytes()
                == serialize_emissions(account, econ).encode())

    def test_mismatched_account_writes_nothing(self, tmp_path, worked_economy):
        path = tmp_path / "e.csv"
        with pytest.raises(MissingSector):
            write_emissions(EmissionAccount([1.0]), worked_economy, path)
        assert not path.exists()

    @settings(max_examples=100, deadline=None)
    @given(float_economies())
    def test_random_doubles_match_per_cell_writer(self, econ):
        assert serialize_table(econ) == reference_serialize(econ)


class TestLabelsWithSpecialCharacters:
    """Labels and units holding a line break, a comma or a quote stay one cell."""

    LABELS = ("A\nB", "C", "d,e", 'say "hi"', 'all\n, "three"')

    def special_economy(self):
        n = len(self.LABELS)
        econ, _ = generate_economy(GeneratorConfig(n=n, seed=11))
        return Economy(self.LABELS, econ.transactions, econ.demand,
                       econ.value_added, econ.totals, money_unit='M\n,"U"')

    def test_table_round_trips(self, tmp_path):
        econ = self.special_economy()
        write_table(econ, tmp_path / "t.csv")
        parsed = parse_table(tmp_path / "t.csv")
        TestRoundTrip().assert_economies_equal(parsed, econ)

    def test_emissions_round_trip(self, tmp_path):
        econ = self.special_economy()
        account = EmissionAccount(np.arange(econ.n, dtype=float),
                                  emission_unit='kt\n"CO2", e')
        write_emissions(account, econ, tmp_path / "e.csv")
        parsed = parse_emissions(tmp_path / "e.csv", econ)
        assert np.array_equal(parsed.emissions, account.emissions)
        assert parsed.emission_unit == account.emission_unit

    def test_serialized_text_matches_per_cell_writer(self):
        econ = self.special_economy()
        account = EmissionAccount(np.ones(econ.n), emission_unit="a\nb")
        assert serialize_table(econ) == reference_serialize(econ)
        assert (serialize_emissions(account, econ)
                == reference_serialize_emissions(account, econ))


class TestPhysicalLineNumbers:
    def test_position_counts_lines_inside_quoted_cells(self, tmp_path):
        text = ('MU,"A\nB",C,D\n'
                '"A\nB",1,2,3\n'
                "C,4,5,oops\n")
        with pytest.raises(ParseError, match="line 5, column 4") as exc:
            parse_table(write(tmp_path, "t.csv", text))
        assert (exc.value.line, exc.value.column) == (5, 4)

    def test_crlf_table_parses_the_same(self, tmp_path):
        lf = parse_table(write(tmp_path, "lf.csv", WORKED_TABLE))
        path = tmp_path / "crlf.csv"
        path.write_bytes(WORKED_TABLE.replace("\n", "\r\n").encode())
        crlf = parse_table(path)
        TestRoundTrip().assert_economies_equal(crlf, lf)


NON_ASCII_TWELVES = ["١٢", "１２"]  # Arabic-Indic, fullwidth


class TestNonAsciiDigits:
    """Digits outside ASCII are not a number, though float() reads them."""

    @pytest.mark.parametrize("twelve", NON_ASCII_TWELVES)
    def test_table_cell(self, tmp_path, twelve):
        text = WORKED_TABLE.replace("s2,30,", f"s2,{twelve},")
        with pytest.raises(ParseError, match=f"{twelve!r} is not a number") as exc:
            parse_table(write(tmp_path, "t.csv", text))
        assert (exc.value.line, exc.value.column) == (3, 2)

    @pytest.mark.parametrize("twelve", NON_ASCII_TWELVES)
    def test_vector_row_cell(self, tmp_path, twelve):
        text = WORKED_TABLE.replace("V,70,30", f"V,70,{twelve}")
        with pytest.raises(ParseError, match=f"{twelve!r} is not a number") as exc:
            parse_table(write(tmp_path, "t.csv", text))
        assert (exc.value.line, exc.value.column) == (4, 3)

    @pytest.mark.parametrize("twelve", NON_ASCII_TWELVES)
    def test_emission_cell(self, tmp_path, twelve):
        econ = parse_table(write(tmp_path, "t.csv", WORKED_TABLE))
        text = EMISSIONS.replace("s2,10", f"s2,{twelve}")
        with pytest.raises(ParseError, match=f"{twelve!r} is not a number") as exc:
            parse_emissions(write(tmp_path, "e.csv", text), econ)
        assert (exc.value.line, exc.value.column) == (3, 2)


class TestMalformedTable:
    @pytest.mark.parametrize("text, line, column", [
        ("", 1, None),
        ("MU,D\n", 1, None),
        ("MU,D,T\n", 1, None),
        ("MU,s1,D,T,X\ns1,1,1,2\n", 1, None),
        ("MU,s1,,D\ns1,1,1,1\n", 1, 3),
        ("MU,s1,s2,D\ns1,1,1,1\n", 2, None),
        (WORKED_TABLE + "X,1,2\n", 6, 1),
        (WORKED_TABLE.replace("T,200,100,,", "V,70,30"), 5, None),
        (WORKED_TABLE.replace("V,70,30,,", "V,70,30,1"), 4, None),
    ], ids=["empty", "short-header", "no-sectors", "extra-columns", "empty-name",
            "too-few-rows", "unknown-row", "duplicate-v", "wide-v"])
    def test_located(self, tmp_path, text, line, column):
        with pytest.raises(ParseError) as exc:
            parse_table(write(tmp_path, "t.csv", text))
        assert (exc.value.line, exc.value.column) == (line, column)


class TestMalformedEmissions:
    @pytest.mark.parametrize("text, line", [
        ("", 1),
        ("sector\ns1,20\ns2,10\n", 1),
        ("sector,kt\ns1,20,5\ns2,10\n", 2),
    ], ids=["empty", "one-cell-header", "three-cell-row"])
    def test_located(self, tmp_path, worked_economy, text, line):
        with pytest.raises(ParseError) as exc:
            parse_emissions(write(tmp_path, "e.csv", text), worked_economy)
        assert (exc.value.line, exc.value.column) == (line, None)


# Two readers serve parse_table and parse_emissions: a file with no quote and
# no carriage return is split on "\n" and ",", any other goes through the csv
# module. Everything below checks that the choice never shows.


def for_both_readers(text):
    """``text`` as given (the split reader) and with CRLF line ends (csv).

    An empty file becomes one blank CRLF line, which is still empty.
    """
    assert '"' not in text and "\r" not in text
    return [text, text.replace("\n", "\r\n") or "\r\n"]


def parse_outcome(parse, path, *args, **kwargs):
    """``parse(path, ...)``, or its ParseError as (message, line, column)."""
    try:
        return parse(path, *args, **kwargs)
    except ParseError as err:
        return str(err), err.line, err.column


def economy_bytes(econ):
    arrays = (econ.transactions, econ.demand, econ.value_added, econ.totals)
    return (econ.sectors, econ.money_unit, *(a.tobytes() for a in arrays))


def outcomes(path, texts, parse=parse_table, *args, **kwargs):
    """The outcome of parsing each of ``texts``, written in turn to ``path``."""
    results = []
    for text in texts:
        path.write_bytes(text.encode("utf-8"))
        result = parse_outcome(parse, path, *args, **kwargs)
        results.append(economy_bytes(result) if isinstance(result, Economy)
                       else result)
    return results


@settings(max_examples=100, deadline=None)
@given(tables())
def test_both_readers_match_per_cell_reference(tmp_path_factory, table):
    """The reference property, on each drawn table unquoted (split reader)
    and with only its money unit quoted (csv reader)."""
    n, text, rows = table
    plain = text.replace('"', "")
    path = tmp_path_factory.getbasetemp() / "readers.csv"
    split, quoted = outcomes(path, [plain, '"MU"' + plain[2:]], tol_rel=math.inf,
                             allow_negative_value_added=True)
    assert split == quoted
    expected, error = reference_parse(rows)
    if error is not None:
        assert split == error
        return
    transactions, demand, value_added = (np.frombuffer(b) for b in split[2:5])
    assert transactions.reshape(n, n).tolist() == [row[:n] for row in expected[:n]]
    assert demand.tolist() == [row[n] for row in expected[:n]]
    if len(expected) > n:
        assert value_added.tolist() == expected[n]


# TestMalformedTable's inputs, read from its parametrize mark.
_MALFORMED = TestMalformedTable.test_located.pytestmark[0]

# Inputs that a reader cutting lines with str.splitlines(), or keeping blank
# or padded cells, would read differently from the csv module.
QUIRKS = {
    "padded-header": WORKED_TABLE.replace("MU,s1,s2,D,T", " MU, s1 ,s2\t,D ,T\xa0"),
    "blank-trailing-cells": WORKED_TABLE.replace(",200\n", ",200, ,\t\n"),
    "blank-lines": WORKED_TABLE.replace("\ns2,", "\n\n \t\n\ns2,"),
    "no-final-newline": WORKED_TABLE[:-1],
    "nbsp-padded-numbers": WORKED_TABLE.replace("s2,30,20,", "s2,\xa030\xa0, 20\xa0,"),
    "form-feed-label": WORKED_TABLE.replace("s1", "s\x0c1"),
    "file-separator-label": WORKED_TABLE.replace("s1", "s\x1c1"),
    "line-separator-label": WORKED_TABLE.replace("s1", "s\u20281"),
}


class TestBothReaders:
    def test_reader_follows_quotes_and_carriage_returns(self, tmp_path, monkeypatch):
        calls = []
        for name in ("_split_rows", "_csv_rows"):
            def spy(*args, _real=getattr(tableio, name), _name=name):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(tableio, name, spy)
        texts = [WORKED_TABLE, WORKED_TABLE.replace("MU", '"MU"'),
                 WORKED_TABLE.replace("\n", "\r\n")]
        split, quoted, crlf = outcomes(tmp_path / "t.csv", texts)
        assert calls == ["_split_rows", "_csv_rows", "_csv_rows"]
        assert split == quoted == crlf

    @pytest.mark.parametrize(*_MALFORMED.args, **_MALFORMED.kwargs)
    def test_malformed_table_located(self, tmp_path, text, line, column):
        split, csv_ = outcomes(tmp_path / "t.csv", for_both_readers(text))
        assert split == csv_
        assert split[1:] == (line, column)

    @pytest.mark.parametrize("text", QUIRKS.values(), ids=QUIRKS.keys())
    def test_same_economy(self, tmp_path, text):
        split, csv_ = outcomes(tmp_path / "t.csv", for_both_readers(text))
        assert split == csv_
        worked = economy_bytes(parse_table(write(tmp_path, "w.csv", WORKED_TABLE)))
        assert split[1:] == worked[1:]
        header = text.split("\n", 1)[0].split(",")
        assert split[0] == tuple(cell.strip() for cell in header[1:3])

    @pytest.mark.parametrize("text", QUIRKS.values(), ids=QUIRKS.keys())
    def test_same_error_line(self, tmp_path, text):
        text = text.replace("V,70,30", "V,70,oops")
        split, csv_ = outcomes(tmp_path / "t.csv", for_both_readers(text))
        assert split == csv_
        line = text[:text.index("V,70,oops")].count("\n") + 1
        assert split[1:] == (line, 3)

    def test_same_emissions(self, tmp_path, worked_economy):
        text = "sector, kt CO2 \n\n s2 ,\xa010\xa0, \ns1,20"
        split, csv_ = outcomes(tmp_path / "e.csv", for_both_readers(text),
                               parse_emissions, worked_economy)
        for account in (split, csv_):
            assert account.emissions.tolist() == [20.0, 10.0]
            assert account.emission_unit == "kt CO2"


class TestFieldLimit:
    """A cell longer than csv.field_size_limit() is a located ParseError."""

    LIMIT = csv.field_size_limit()

    @pytest.mark.parametrize("text, line", [
        (WORKED_TABLE.replace("s2", "x" * (LIMIT + 1)), 1),
        (WORKED_TABLE.replace("V,70,", "V," + "0" * (LIMIT - 1) + "70,"), 4),
    ], ids=["label", "number"])
    def test_located_on_both_readers(self, tmp_path, text, line):
        split, csv_ = outcomes(tmp_path / "t.csv", for_both_readers(text))
        assert split == csv_ == (
            f"line {line}: field larger than field limit ({self.LIMIT})", line, None)

    @pytest.mark.parametrize("text", [
        WORKED_TABLE.replace("s2", "x" * LIMIT),
        WORKED_TABLE.replace("V,70,", "V," + "0" * (LIMIT - 2) + "70,"),
    ], ids=["label", "number"])
    def test_limit_itself_is_accepted(self, tmp_path, text):
        split, csv_ = outcomes(tmp_path / "t.csv", for_both_readers(text))
        assert split == csv_
        assert isinstance(split[0], tuple)  # the sectors of a parsed economy


class TestUndecodable:
    def test_table_names_line_of_first_bad_byte(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(WORKED_TABLE.replace("s2,30", "s\xe92,30").encode("latin-1"))
        with pytest.raises(ParseError, match="line 3: byte 0xe9 is not UTF-8") as exc:
            parse_table(path)
        assert (exc.value.line, exc.value.column) == (3, None)

    def test_emissions(self, tmp_path, worked_economy):
        path = tmp_path / "e.csv"
        path.write_bytes("sector,kt CO₂\ns1,20\ns2,10\n".encode("utf-16"))
        with pytest.raises(ParseError, match="line 1: byte 0xff") as exc:
            parse_emissions(path, worked_economy)
        assert exc.value.line == 1


def test_total_mismatch_message_prints_plain_floats(tmp_path):
    text = "MU,a,b,D,T\na,1,0,1,2\nb,0,1,1,2\nT,2,2.5\n"
    with pytest.raises(ParseError) as exc:
        parse_table(write(tmp_path, "t.csv", text))
    assert str(exc.value) == (
        "total of sector 'b' differs between the T column (2.0) and the T row (2.5)"
    )


class TestPaddedLabels:
    """A label or unit the readers would strip is refused before anything is written."""

    @staticmethod
    def economy(sectors=("a", "b"), money_unit="MU"):
        return Economy(sectors, np.eye(2), [1.0, 1.0], [1.0, 1.0], [2.0, 2.0],
                       money_unit)

    @pytest.mark.parametrize("sectors, money_unit, unit, message", [
        ((" a", "b "), " MU", "kt", "money unit ' MU'"),
        ((" a", "b "), "MU", "kt", "sector label ' a'"),
        (("a", "b\xa0"), "MU", "kt", "sector label 'b\\xa0'"),
        (("a", "\x1cb"), "MU", "kt", "sector label '\\x1cb'"),
        (("a", "b"), "MU\t", "kt", "money unit 'MU\\t'"),
    ], ids=["money-unit", "sector", "nbsp", "file-separator", "tab"])
    def test_table_is_refused(self, tmp_path, sectors, money_unit, unit, message):
        econ = self.economy(sectors, money_unit)
        for write_out in (lambda: write_table(econ, tmp_path / "t.csv"),
                          lambda: serialize_table(econ)):
            with pytest.raises(ParseError) as exc:
                write_out()
            assert str(exc.value) == (
                f"{message} has leading or trailing whitespace, "
                "which a reader would strip"
            )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sectors, unit", [
        ((" a", "b "), "kt"), (("a", "b"), " kt"), (("a", "b"), "kt\xa0"),
    ], ids=["sector", "unit", "nbsp-unit"])
    def test_emissions_are_refused(self, tmp_path, sectors, unit):
        econ = self.economy(sectors, "MU")
        account = EmissionAccount([1.0, 2.0], unit)
        with pytest.raises(ParseError, match="leading or trailing whitespace"):
            write_emissions(account, econ, tmp_path / "e.csv")
        with pytest.raises(ParseError, match="leading or trailing whitespace"):
            serialize_emissions(account, econ)
        assert list(tmp_path.iterdir()) == []

    def test_inner_whitespace_round_trips(self, tmp_path):
        econ = self.economy(("farm a", "b\xa0b"), "M U")
        account = EmissionAccount([1.0, 2.0], "kt CO2")
        write_table(econ, tmp_path / "t.csv")
        write_emissions(account, econ, tmp_path / "e.csv")
        parsed = parse_table(tmp_path / "t.csv")
        assert (parsed.sectors, parsed.money_unit) == (econ.sectors, "M U")
        assert parse_emissions(tmp_path / "e.csv", parsed).emission_unit == "kt CO2"


def crlf_reference_line(cells):
    """``cells`` as the csv module writes them under ``"\\r\\n"``, ended by ``"\\n"``."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow(cells)
    return out.getvalue()[:-2] + "\n"


# Labels and units built from the characters the label rule has to decide on.
label_texts = st.one_of(
    st.sampled_from(["", "D", "T", "V", "a"]),
    st.text(st.sampled_from([",", '"', "\r", "\n", " ", "\xa0", "\x1c", "a", "D"]),
            max_size=4),
)


def carried(sectors, unit, unit_may_be_empty):
    """Whether a file can carry ``unit`` and ``sectors`` unchanged."""
    return (all(label == label.strip() for label in (unit, *sectors))
            and (bool(unit) or unit_may_be_empty)
            and all(label and label not in {"D", "T", "V"} for label in sectors)
            and len(set(sectors)) == len(sectors))


class TestOneLabelRule:
    """Each writer refuses what the readers cannot carry, before a file opens,
    and writes everything else so that it reads back unchanged."""

    @staticmethod
    def economy(sectors, money_unit="MU"):
        base, _ = generate_economy(GeneratorConfig(n=len(sectors), seed=5))
        return Economy(sectors, base.transactions, base.demand, base.value_added,
                       base.totals, money_unit)

    @staticmethod
    def refusal(write, path):
        """The FootprintError ``write(path)`` raises, or None; a refusal leaves no file."""
        try:
            write(path)
        except FootprintError as err:
            assert not path.exists()
            return err
        return None

    def check_table(self, econ, path):
        """Refused as the rule says, or written, read back unchanged and returned None."""
        err = self.refusal(lambda p: write_table(econ, p), path)
        assert (err is None) == carried(econ.sectors, econ.money_unit, True)
        if err is not None:
            with pytest.raises(type(err), match=re.escape(str(err))):
                serialize_table(econ)
            return err
        text = serialize_table(econ)
        assert path.read_bytes() == text.encode()
        assert text.startswith(
            crlf_reference_line([econ.money_unit, *econ.sectors, "D", "T"]))
        parsed = parse_table(path)
        assert (parsed.sectors, parsed.money_unit) == (econ.sectors, econ.money_unit)
        assert economy_bytes(parsed) == economy_bytes(econ)

    def check_emissions(self, account, econ, path):
        """Refused as the rule says, or written, read back unchanged and returned None."""
        err = self.refusal(lambda p: write_emissions(account, econ, p), path)
        assert (err is None) == carried(econ.sectors, account.emission_unit, False)
        if err is not None:
            with pytest.raises(type(err), match=re.escape(str(err))):
                serialize_emissions(account, econ)
            return err
        text = serialize_emissions(account, econ)
        assert path.read_bytes() == text.encode()
        assert text.startswith(crlf_reference_line(["sector", account.emission_unit]))
        parsed = parse_emissions(path, econ)
        assert parsed.emission_unit == account.emission_unit
        assert parsed.emissions.tobytes() == account.emissions.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(sectors=st.lists(label_texts, min_size=1, max_size=4),
           money_unit=label_texts, emission_unit=label_texts)
    def test_writers_refuse_or_round_trip(self, tmp_path_factory, sectors,
                                          money_unit, emission_unit):
        directory = tmp_path_factory.mktemp("labels")
        econ = self.economy(sectors, money_unit)
        account = EmissionAccount(np.arange(1.0, econ.n + 1), emission_unit)
        self.check_table(econ, directory / "t.csv")
        self.check_emissions(account, econ, directory / "e.csv")

    @pytest.mark.parametrize("sectors, money_unit", [
        (("a\rb", "c"), "MU"), (("a", "b"), "M\rU"), (("a\r\nb", '"\r,'), "M\r\rU"),
    ], ids=["sector", "money-unit", "mixed"])
    def test_carriage_return_is_quoted_and_reads_back(self, tmp_path, sectors,
                                                      money_unit):
        econ = self.economy(sectors, money_unit)
        assert self.check_table(econ, tmp_path / "t.csv") is None
        account = EmissionAccount([1.0, 2.0], "kt\rCO2")
        assert self.check_emissions(account, econ, tmp_path / "e.csv") is None
        assert '"kt\rCO2"' in serialize_emissions(account, econ)

    @pytest.mark.parametrize("reserved", ["D", "T", "V"])
    def test_reserved_sector_is_refused(self, tmp_path, reserved):
        econ = self.economy(("a", reserved))
        account = EmissionAccount([1.0, 2.0], "kt")
        message = f"{reserved!r} is a reserved label and cannot name a sector"
        for write_out in (lambda: write_table(econ, tmp_path / "t.csv"),
                          lambda: serialize_table(econ),
                          lambda: write_emissions(account, econ, tmp_path / "e.csv"),
                          lambda: serialize_emissions(account, econ)):
            with pytest.raises(ParseError) as exc:
                write_out()
            assert str(exc.value) == message
        assert list(tmp_path.iterdir()) == []

    def test_repeated_sector_is_refused(self, tmp_path):
        econ = self.economy(("a", "a"))
        for write_out in (lambda: write_table(econ, tmp_path / "t.csv"),
                          lambda: serialize_table(econ)):
            with pytest.raises(DuplicateSector, match="duplicate sector 'a'"):
                write_out()
        assert list(tmp_path.iterdir()) == []

    def test_default_emission_unit_is_refused(self, tmp_path):
        econ = self.economy(("a", "b"))
        account = EmissionAccount([1.0, 2.0])  # the default unit is empty
        with pytest.raises(ParseError, match="emission unit is empty"):
            write_emissions(account, econ, tmp_path / "e.csv")
        with pytest.raises(ParseError, match="emission unit is empty"):
            serialize_emissions(account, econ)
        assert list(tmp_path.iterdir()) == []

    def test_reader_messages_name_the_header_line(self, tmp_path):
        for text, error, message in [
            (",a,V,D\na,1,1,1\nV,1,1,1\n", ParseError,
             "line 1: 'V' is a reserved label and cannot name a sector"),
            ('MU,a,"",D\n', ParseError, "line 1: empty sector name"),
            ("\nMU,a,a,D\n", DuplicateSector, "line 2: duplicate sector 'a'"),
        ]:
            with pytest.raises(error) as exc:
                parse_table(write(tmp_path, "t.csv", text))
            assert str(exc.value) == message


class TestTablesAWriterRefuses:
    """Each writer refuses, before a file opens, what no file can carry."""

    @staticmethod
    def assert_all_writers_refuse(tmp_path, econ, account, message):
        for write in (lambda: write_table(econ, tmp_path / "t.csv"),
                      lambda: serialize_table(econ),
                      lambda: write_emissions(account, econ, tmp_path / "e.csv"),
                      lambda: serialize_emissions(account, econ)):
            with pytest.raises(ParseError, match=message):
                write()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sectors, unit", [
        (("a\ud800", "b"), "MU"),
        (("a", "b"), "M\udfff"),
    ])
    def test_lone_surrogate(self, tmp_path, sectors, unit):
        econ = Economy(sectors, np.eye(2), np.ones(2), np.ones(2), np.full(2, 2.0),
                       money_unit=unit)
        account = EmissionAccount(np.ones(2), emission_unit=unit)
        self.assert_all_writers_refuse(tmp_path, econ, account,
                                       "cannot be written as UTF-8")

    def test_no_sectors(self, tmp_path):
        econ = Economy((), np.zeros((0, 0)), [], [], [], "MU")
        account = EmissionAccount(np.zeros(0), emission_unit="kt")
        self.assert_all_writers_refuse(tmp_path, econ, account,
                                       "^a table file needs at least one sector$")
