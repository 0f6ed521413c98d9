"""The parse cache: a table's text is converted once per distinct content.

``parse_table`` keeps the output of its text stage under a digest of the
file's bytes. Whatever the cache holds, or fails to hold, every parse must
give what a cold parse gives: the same economy, or the same error.
"""

import csv
import os
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iofootprint import (
    FootprintError,
    ImbalancedTable,
    ParseError,
    build_economy,
    parse_table,
    serialize_table,
    tableio,
)
from iofootprint.cli import run_command

WORKED_TABLE = """\
MU,s1,s2,D,T
s1,100,50,50,200
s2,30,20,50,100
V,70,30,,
T,200,100,,
"""


def write(path, text):
    path.write_bytes(text.encode("utf-8"))
    return path


def entries(cache):
    return sorted(cache.glob("*" + tableio._ENTRY_SUFFIX))


def outcome(path, **kwargs):
    """The parsed economy as comparable bytes, or the error as a tuple."""
    try:
        econ = parse_table(path, **kwargs)
    except FootprintError as err:
        return (type(err).__name__, str(err), getattr(err, "line", None),
                getattr(err, "column", None))
    arrays = (econ.transactions, econ.demand, econ.value_added, econ.totals)
    return (econ.sectors, econ.money_unit, *(a.tobytes() for a in arrays))


class CountParses:
    """Counts calls of the text stage, which a hit skips."""

    def __init__(self, patch):
        self.calls = 0
        real = tableio._parse_text

        def counted(*args):
            self.calls += 1
            return real(*args)
        patch.setattr(tableio, "_parse_text", counted)


# Labels that would not survive a lossy store: NULs (a numpy "U" array drops
# trailing ones), line breaks and quotes (quoted in the file), astral
# characters and a byte-order mark.
AWKWARD_LABELS = ["S\x00", "\x00", "a\nb", 'q"u,o\rx', "\U0001F600", "﻿x"]

labels = st.one_of(
    st.sampled_from(AWKWARD_LABELS),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4),
).filter(lambda label: label == label.strip() and label not in ("D", "T", "V"))


@st.composite
def table_files(draw):
    """The bytes of a balanced table file, maybe with CRLF ends, maybe damaged."""
    sectors = draw(st.lists(labels, min_size=1, max_size=4, unique=True))
    n = len(sectors)
    flows = st.floats(min_value=0.0, max_value=1e6)
    econ = build_economy(
        sectors,
        np.array(draw(st.lists(flows, min_size=n * n, max_size=n * n))).reshape(n, n),
        draw(st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=n, max_size=n)),
        money_unit=draw(labels | st.just("")), allow_negative_value_added=True,
    )
    data = serialize_table(econ).encode("utf-8")
    if draw(st.booleans()):
        data = data.replace(b"\n", b"\r\n")
    if draw(st.integers(0, 2)) == 0:
        # A damaged byte: most give a ParseError, some an imbalanced table.
        at = draw(st.integers(0, len(data) - 1))
        byte = draw(st.sampled_from([b"x", b",", b"\n", b'"', b"9", b"\xff"]))
        data = data[:at] + byte + data[at + 1:]
    return data


@settings(max_examples=150, deadline=None)
@given(data=table_files())
def test_cold_warm_and_unwritable_parses_agree(tmp_path_factory, data):
    base = tmp_path_factory.mktemp("differential")
    path = base / "table.csv"
    path.write_bytes(data)
    cache = base / "cache"
    flags = {"allow_negative_value_added": True}
    with pytest.MonkeyPatch.context() as patch:
        parses = CountParses(patch)
        patch.setenv("XDG_CACHE_HOME", str(cache))
        cold = outcome(path, **flags)
        stored = entries(cache / "iofootprint")
        warm = outcome(path, **flags)
        assert parses.calls == 2 - len(stored)  # a stored entry is loaded
        # A regular file where the cache directory should be: nothing is stored.
        patch.setenv("XDG_CACHE_HOME", str(path))
        unwritable = (outcome(path, **flags), outcome(path, **flags))
        assert parses.calls == 4 - len(stored)
    assert cold == warm == unwritable[0] == unwritable[1]
    # Only a text stage that succeeds is stored; the economy's own checks
    # (balance, signs, zero totals) run after it, on every parse.
    assert len(stored) == (0 if cold[0] in ("ParseError", "DuplicateSector") else 1)


class TestHit:
    def test_loads_the_entry_in_place_of_the_text(self, tmp_path, monkeypatch,
                                                  private_parse_cache):
        path = write(tmp_path / "t.csv", WORKED_TABLE)
        parses = CountParses(monkeypatch)
        cold = outcome(path)
        assert len(entries(private_parse_cache)) == 1
        assert outcome(path) == cold
        assert parses.calls == 1
        assert oct(private_parse_cache.stat().st_mode & 0o777) == "0o700"

    def test_labels_round_trip_exactly(self, tmp_path, monkeypatch):
        sectors = (*AWKWARD_LABELS, "é", "€")
        econ = build_economy(sectors, np.eye(len(sectors)), np.ones(len(sectors)),
                             money_unit="M\x00\U0001F600")
        path = write(tmp_path / "t.csv", serialize_table(econ))
        parses = CountParses(monkeypatch)
        cold, warm = parse_table(path), parse_table(path)
        assert parses.calls == 1
        for parsed in (cold, warm):
            assert parsed.sectors == sectors
            assert parsed.money_unit == "M\x00\U0001F600"

    def test_absent_vectors_stay_absent(self, tmp_path, monkeypatch):
        # No T column and no V or T row: totals and value added are derived.
        path = write(tmp_path / "t.csv", ",s1,s2,D\ns1,100,50,50\ns2,30,20,50\n")
        parses = CountParses(monkeypatch)
        assert outcome(path) == outcome(path)
        assert parses.calls == 1
        econ = parse_table(path)
        assert econ.totals.tolist() == [200.0, 100.0]
        assert econ.value_added.tolist() == [70.0, 30.0]

    def test_same_bytes_at_another_path(self, tmp_path, monkeypatch):
        first = write(tmp_path / "a.csv", WORKED_TABLE)
        second = write(tmp_path / "b.csv", WORKED_TABLE)
        parses = CountParses(monkeypatch)
        assert outcome(first) == outcome(second)
        assert parses.calls == 1

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_table_is_read_once(self, tmp_path):
        """A pipe yields its bytes once, so a second read would wait forever."""
        fifo = tmp_path / "table.fifo"
        os.mkfifo(fifo)
        results = []
        for _ in range(2):  # a miss, then a hit
            writer = threading.Thread(target=write, args=(fifo, WORKED_TABLE),
                                      daemon=True)
            reader = threading.Thread(target=lambda: results.append(outcome(fifo)),
                                      daemon=True)
            writer.start()
            reader.start()
            reader.join(timeout=30)
            writer.join(timeout=30)
            assert not reader.is_alive() and not writer.is_alive()
        assert results == [outcome(write(tmp_path / "t.csv", WORKED_TABLE))] * 2


class TestCallFlags:
    """A hit is built under the call's own tolerance and policies."""

    # The V row is 1e-6 off, so the column balance misses by that much.
    NEAR = WORKED_TABLE.replace("V,70,", "V,70.0001,")

    def test_tolerance_applies_to_a_warm_parse(self, tmp_path, monkeypatch):
        path = write(tmp_path / "t.csv", self.NEAR)
        parses = CountParses(monkeypatch)
        loose = outcome(path, tol_rel=1e-3)
        assert isinstance(loose[0], tuple)
        with pytest.raises(ImbalancedTable) as exc:
            parse_table(path, tol_rel=1e-9)
        assert not exc.value.report.ok
        assert outcome(path, tol_rel=1e-3) == loose
        assert parses.calls == 1

    def test_imbalanced_cold_parse_still_stores_its_text(self, tmp_path, monkeypatch):
        path = write(tmp_path / "t.csv", self.NEAR)
        parses = CountParses(monkeypatch)
        tight = outcome(path, tol_rel=1e-9)
        assert tight[0] == "ImbalancedTable"
        assert outcome(path, tol_rel=1e-9) == tight
        assert isinstance(outcome(path, tol_rel=1e-3)[0], tuple)
        assert parses.calls == 1

    def test_drop_warnings_repeat_on_a_warm_run(self, tmp_path, capsys):
        path = write(tmp_path / "t.csv",
                     "MU,a,b,z,D\na,1,0,0,1\nb,0,1,0,1\nz,0,0,0,0\n")
        runs = []
        for argv in (["validate", str(path), "--drop-zero-sectors"],) * 2 + (
                ["validate", str(path)],) * 2:
            code = run_command(argv)
            runs.append((code, *capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0
        assert "warning.type = iofootprint.economy" in runs[0][2]
        assert runs[2] == runs[3]
        assert runs[2][0] == 1
        assert "error.type = ZeroTotal" in runs[2][2]


class TestBadEntries:
    """An entry that cannot be read whole and for its key is a miss, then rewritten."""

    @staticmethod
    def other_table_entry(tmp_path):
        other = tmp_path / "other"
        other.mkdir()
        # Same labels and shape, other flows: an entry of the same size.
        path = write(other / "t.csv", WORKED_TABLE.replace("s1,100,50", "s1,90,60"))
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("XDG_CACHE_HOME", str(other / "cache"))
            outcome(path)  # imbalanced, but its text is stored
        (entry,) = entries(other / "cache" / "iofootprint")
        return entry.read_bytes()

    CORRUPTIONS = {
        "empty": lambda good, other: b"",
        "truncated-header": lambda good, other: good[:20],
        "truncated-labels": lambda good, other: good[
            :len(tableio._ENTRY_TAG) + tableio._ENTRY_HEADER.size + 3],
        "truncated-arrays": lambda good, other: good[:-8],
        "extra-byte": lambda good, other: good + b"\x00",
        "other-table": lambda good, other: other,
        # The right header, another table's labels and arrays: only the CRC differs.
        "other-contents": lambda good, other: good[:TestBadEntries.CONTENTS]
        + other[TestBadEntries.CONTENTS:],
        "flipped-array-bit": lambda good, other: TestBadEntries.flipped(good, -3),
        "flipped-crc-bit": lambda good, other: TestBadEntries.flipped(
            good, TestBadEntries.CONTENTS - 8),
        "tag": lambda good, other: b"X" + good[1:],
        "wider": lambda good, other: TestBadEntries.with_n(good, 3),
        "narrower": lambda good, other: TestBadEntries.with_n(good, 1),
        "not-utf-8": lambda good, other: TestBadEntries.labels_replaced(
            good, b"s1", b"\xc3("),
        "fewer-labels": lambda good, other: TestBadEntries.labels_replaced(
            good, b"\xffs2", b"\x00s2"),
    }

    CONTENTS = len(tableio._ENTRY_TAG) + tableio._ENTRY_HEADER.size

    @staticmethod
    def with_n(entry, n):
        at = len(tableio._ENTRY_TAG) + 32
        return entry[:at] + n.to_bytes(8, "little") + entry[at + 8:]

    @staticmethod
    def flipped(entry, at):
        """``entry`` with the lowest bit of its byte ``at`` flipped."""
        at %= len(entry)
        return entry[:at] + bytes([entry[at] ^ 1]) + entry[at + 1:]

    @staticmethod
    def labels_replaced(entry, old, new):
        """``entry`` with its labels changed and its CRC made to fit them."""
        assert len(old) == len(new)
        start = TestBadEntries.CONTENTS
        contents = entry[start:].replace(old, new, 1)
        crc = zlib.crc32(contents).to_bytes(8, "little")
        return entry[:start - 8] + crc + contents

    @pytest.mark.parametrize("corrupt", CORRUPTIONS)
    def test_is_a_miss_and_gets_rewritten(self, tmp_path, monkeypatch,
                                          private_parse_cache, corrupt):
        path = write(tmp_path / "t.csv", WORKED_TABLE)
        expected = outcome(path)
        (entry,) = entries(private_parse_cache)
        good = entry.read_bytes()
        other = self.other_table_entry(tmp_path)
        entry.write_bytes(self.CORRUPTIONS[corrupt](good, other))
        parses = CountParses(monkeypatch)
        assert outcome(path) == expected
        assert parses.calls == 1
        assert entry.read_bytes() == good
        assert outcome(path) == expected
        assert parses.calls == 1

    def test_unreadable_entry_is_a_miss(self, tmp_path, monkeypatch,
                                        private_parse_cache):
        path = write(tmp_path / "t.csv", WORKED_TABLE)
        expected = outcome(path)
        (entry,) = entries(private_parse_cache)
        entry.unlink()
        entry.mkdir()  # opening it raises IsADirectoryError
        parses = CountParses(monkeypatch)
        assert outcome(path) == expected
        assert parses.calls == 1


class TestKey:
    def test_smaller_field_limit_still_raises(self, tmp_path):
        label = "x" * 100
        path = write(tmp_path / "t.csv", WORKED_TABLE.replace("s2", label))
        assert parse_table(path).sectors == ("s1", label)
        previous = csv.field_size_limit(len(label) - 1)
        try:
            with pytest.raises(ParseError, match="field larger than field limit"):
                parse_table(path)
        finally:
            csv.field_size_limit(previous)
        assert parse_table(path).sectors == ("s1", label)

    def test_digest_covers_bytes_limit_and_format(self, monkeypatch):
        data = WORKED_TABLE.encode()
        key = tableio._cache_key(data)
        assert tableio._cache_key(data + b"\n") != key
        previous = csv.field_size_limit(1000)
        try:
            assert tableio._cache_key(data) != key
        finally:
            csv.field_size_limit(previous)
        assert tableio.__version__ in tableio._ENTRY_TAG.decode()
        assert np.__version__ in tableio._ENTRY_TAG.decode()
        monkeypatch.setattr(tableio, "_ENTRY_TAG", tableio._ENTRY_TAG + b"x")
        assert tableio._cache_key(data) != key

    def test_tag_covers_the_reader_code(self, tmp_path):
        """A changed text stage never loads the entries an older one stored."""
        source = Path(tableio.__file__).read_bytes()
        assert tableio._entry_tag(tableio.__file__) == tableio._ENTRY_TAG
        changed = tmp_path / "tableio.py"
        changed.write_bytes(source.replace(b"def _parse_text(", b"def _parse_text (", 1))
        assert tableio._entry_tag(changed) not in (None, tableio._ENTRY_TAG)
        assert tableio._entry_tag(tmp_path / "missing.py") is None

    def test_no_tag_no_cache(self, tmp_path, monkeypatch, private_parse_cache):
        monkeypatch.setattr(tableio, "_ENTRY_TAG", None)
        path = write(tmp_path / "t.csv", WORKED_TABLE)
        parses = CountParses(monkeypatch)
        assert outcome(path) == outcome(path)
        assert isinstance(outcome(path)[0], tuple)
        assert parses.calls == 3
        assert not private_parse_cache.exists()


class TestLocation:
    @pytest.mark.parametrize("value", [None, "", "relative/cache"])
    def test_home_cache_when_unset_empty_or_relative(self, tmp_path, monkeypatch,
                                                     value):
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        if value is None:
            monkeypatch.delenv("XDG_CACHE_HOME")
        else:
            monkeypatch.setenv("XDG_CACHE_HOME", value)
        monkeypatch.chdir(tmp_path)
        parse_table(write(tmp_path / "t.csv", WORKED_TABLE))
        assert len(entries(tmp_path / "home" / ".cache" / "iofootprint")) == 1
        assert not (tmp_path / "relative").exists()


class TestSharedDirectory:
    """A cache directory that another user owns or may write to is not used."""

    def test_group_writable_directory_is_not_used(self, tmp_path, monkeypatch,
                                                  private_parse_cache):
        path = write(tmp_path / "t.csv", WORKED_TABLE)
        expected = outcome(path)
        (entry,) = entries(private_parse_cache)
        private_parse_cache.chmod(0o770)
        entry.unlink()
        parses = CountParses(monkeypatch)
        assert outcome(path) == outcome(path) == expected
        assert parses.calls == 2
        assert not entries(private_parse_cache)  # nothing stored either
        private_parse_cache.chmod(0o700)
        assert outcome(path) == expected
        assert len(entries(private_parse_cache)) == 1

    def test_entries_of_another_owner_are_not_loaded(self, tmp_path, monkeypatch,
                                                     private_parse_cache):
        path = write(tmp_path / "t.csv", WORKED_TABLE)
        expected = outcome(path)
        parses = CountParses(monkeypatch)
        monkeypatch.setattr(os, "geteuid", lambda: os.stat(private_parse_cache).st_uid + 1)
        assert outcome(path) == expected
        assert parses.calls == 1


class TestEviction:
    def test_at_most_four_entries(self, tmp_path, private_parse_cache):
        for k in range(5):
            parse_table(write(tmp_path / f"t{k}.csv",
                              WORKED_TABLE.replace("MU", f"MU{k}")))
        assert len(entries(private_parse_cache)) == tableio._CACHE_ENTRIES == 4

    def test_least_recently_used_leaves_first(self, tmp_path, monkeypatch,
                                              private_parse_cache):
        paths = [write(tmp_path / f"t{k}.csv", WORKED_TABLE.replace("MU", f"MU{k}"))
                 for k in range(5)]
        names = {}
        for k, path in enumerate(paths[:4]):
            parse_table(path)
            (new,) = set(entries(private_parse_cache)) - set(names.values())
            names[k] = new
            os.utime(new, ns=(k * 10**9, k * 10**9))  # clearly ordered, oldest first
        parses = CountParses(monkeypatch)
        parse_table(paths[0])  # a hit makes the oldest the most recent
        parse_table(paths[4])
        assert parses.calls == 1
        assert [names[k].exists() for k in range(4)] == [True, False, True, True]
        assert len(entries(private_parse_cache)) == 4

    def test_left_temporary_files_count_and_leave(self, tmp_path,
                                                   private_parse_cache):
        """A temporary file that a killed writer left is evicted like an entry."""
        private_parse_cache.mkdir()
        left = private_parse_cache / ("x" + tableio._TEMP_SUFFIX)
        left.write_bytes(b"partial")
        os.utime(left, ns=(0, 0))
        paths = [write(tmp_path / f"t{k}.csv", WORKED_TABLE.replace("MU", f"MU{k}"))
                 for k in range(4)]
        parse_table(paths[0])
        assert left.exists()  # it may still be being written
        for path in paths[1:]:
            parse_table(path)
        assert not left.exists()
        assert len(entries(private_parse_cache)) == 4
