"""Tests for table/CSV reporting."""

from repro.experiments.reporting import (
    format_table,
    rows_fingerprint,
    rows_to_csv,
)

ROWS = [
    {"system": "vitis", "x": 1, "y": 0.25},
    {"system": "vitis", "x": 2, "y": 0.5},
    {"system": "rvr", "x": 1, "y": 0.75},
]


class TestFormatTable:
    def test_contains_all_cells(self):
        out = format_table(ROWS)
        assert "vitis" in out and "rvr" in out
        assert "0.250" in out and "0.750" in out

    def test_column_subset_and_order(self):
        out = format_table(ROWS, columns=["y", "system"])
        header = out.splitlines()[0]
        assert header.index("y") < header.index("system")
        assert "x" not in header

    def test_title(self):
        out = format_table(ROWS, title="Fig. X")
        assert out.splitlines()[0] == "Fig. X"

    def test_empty(self):
        assert "(no rows)" in format_table([])

    def test_alignment(self):
        lines = format_table(ROWS).splitlines()
        assert len({len(l) for l in lines[1:2]}) == 1


class TestCsv:
    def test_round_trip(self):
        import csv
        import io

        text = rows_to_csv(ROWS)
        back = list(csv.DictReader(io.StringIO(text)))
        assert len(back) == 3
        assert back[0]["system"] == "vitis"

    def test_empty(self):
        assert rows_to_csv([]) == ""

    def test_extra_keys_ignored(self):
        rows = [{"a": 1}, {"a": 2, "b": 3}]
        text = rows_to_csv(rows, columns=["a"])
        assert "b" not in text


class TestRowsFingerprint:
    def test_stable_and_value_sensitive(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 2, "b": 3.5}]
        same = [{"b": 2.5, "a": 1}, {"b": 3.5, "a": 2}]  # key order differs
        assert rows_fingerprint(rows) == rows_fingerprint(same)
        changed = [{"a": 1, "b": 2.5}, {"a": 2, "b": 3.6}]
        assert rows_fingerprint(rows) != rows_fingerprint(changed)

    def test_row_order_matters(self):
        rows = [{"a": 1}, {"a": 2}]
        assert rows_fingerprint(rows) != rows_fingerprint(list(reversed(rows)))
