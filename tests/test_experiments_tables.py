"""Every table in EXPERIMENTS.md quotes the committed ``results/*.csv``.

Each ``## Fig. N`` section's table is parsed cell by cell; a cell holds
one or more numbers separated by `` / `` (``″`` repeats the cell above),
and each must equal the CSV value formatted to the decimals printed.
The ``results`` entry of ``tools/contract.py`` keeps the CSVs byte-identical to a fresh run,
so together the two keep the document from drifting off the code.
"""

import csv
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: ``figure -> (csv, key column, {table column: row filter}, metrics)``.
_VITIS_PATTERNS = {
    f"Vitis {p}": {"system": "vitis", "pattern": p} for p in ("high", "low", "random")
}
_DELAY = ("traffic_overhead_pct", "mean_delay_hops")
TABLES = {
    "4": ("fig4", "n_friends", {**_VITIS_PATTERNS, "RVR": {"system": "rvr"}}, _DELAY),
    "6": ("fig6", "rt_size", {**_VITIS_PATTERNS, "RVR": {"system": "rvr"}}, _DELAY),
    "7": ("fig7", "alpha", {
        **{p: {"system": "vitis", "pattern": p} for p in ("high", "low", "random")},
        "RVR": {"system": "rvr"},
    }, ("traffic_overhead_pct",)),
    "10": ("fig10", "rt_size", {
        "Vitis": {"system": "vitis"}, "RVR": {"system": "rvr"},
        "OPT (bounded)": {"system": "opt"},
    }, ("hit_ratio",) + _DELAY),
    "12": ("fig12", "time", {
        "live": {"system": "vitis"}, "Vitis": {"system": "vitis"}, "RVR": {"system": "rvr"},
    }, ("hit_ratio", "traffic_overhead_pct")),
}

#: Fig. 5's rows are overhead bins: label -> ``[lo, hi)`` in percent.
FIG5_BINS = {"0–10%": (0, 10), "10–20%": (10, 20), ">20%": (20, 100)}


def _tables():
    """``figure -> (header, rows)`` for the first table of every
    ``## Fig.`` section, each row a list of cells with ``″`` resolved."""
    found, fig, rows = {}, None, None
    for line in (ROOT / "EXPERIMENTS.md").read_text().splitlines():
        heading = re.match(r"## Figs?\. (\d+)", line)
        if heading:
            fig, rows = heading.group(1), None
        elif line.startswith("|") and fig is not None and fig not in found:
            cells = [c.strip() for c in line.strip("|").split("|")]
            if rows is None:
                rows = [cells]
            elif not set("".join(cells)) <= set("-"):
                rows.append([rows[-1][i] if c == "″" else c for i, c in enumerate(cells)])
        elif rows is not None and fig not in found:
            found[fig] = (rows[0], rows[1:])
    return found


def _numbers(cell):
    return [n.strip().strip("*").strip() for n in cell.split(" / ")]


def _as_printed(value, text):
    decimals = len(text.partition(".")[2])
    return f"{float(value):.{decimals}f}" == text


def _rows(name):
    with open(ROOT / "results" / f"{name}.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_every_figure_table_is_checked():
    assert sorted(_tables(), key=int) == ["4", "5", "6", "7", "10", "12"]


@pytest.mark.parametrize("fig", sorted(TABLES, key=int))
def test_a_table_quotes_its_csv(fig):
    name, key, columns, metrics = TABLES[fig]
    header, rows = _tables()[fig]
    data = _rows(name)
    assert rows
    for cells in rows:
        label = cells[0]
        for column, cell in zip(header[1:], cells[1:]):
            want = dict(columns[column])
            (row,) = [
                r for r in data
                if float(r[key]) == float(label) and all(r[k] == v for k, v in want.items())
            ]
            fields = ("live_nodes",) if column == "live" else metrics
            for field, text in zip(fields, _numbers(cell), strict=True):
                assert _as_printed(row[field], text), (fig, label, column, field, row[field])


def test_the_fig5_table_quotes_its_csv():
    header, rows = _tables()["5"]
    data = _rows("fig5")
    for label, *cells in rows:
        lo, hi = FIG5_BINS[label]
        for system, cell in zip(header[1:], cells):
            share = sum(
                float(r["fraction_of_nodes"]) for r in data
                if r["system"] == system.lower() and r["pattern"] == "high"
                and lo <= float(r["bin_lo"]) and float(r["bin_hi"]) <= hi
            )
            (text,) = _numbers(cell)
            assert _as_printed(share, text), (label, system, share)
