"""Result formatting: aligned text tables and CSV.

Scenario functions return plain ``list[dict]`` rows; these helpers render
them the way the paper's figures/tables are read, and the benchmarks print
them into the captured output so EXPERIMENTS.md can quote them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from typing import Dict, Iterable, Optional, Sequence

__all__ = ["format_table", "rows_to_csv", "rows_fingerprint"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(
    rows: Sequence[Dict],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned monospace table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    table = [[_fmt(r.get(c, "")) for c in columns] for r in rows]
    widths = [
        max(len(str(c)), *(len(row[i]) for row in table)) for i, c in enumerate(columns)
    ]
    out = []
    if title:
        out.append(title)
    header = "  ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    out.append(header)
    out.append("  ".join("-" * w for w in widths))
    for row in table:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(out)


def rows_to_csv(rows: Sequence[Dict], columns: Optional[Sequence[str]] = None) -> str:
    """Rows as a CSV string (header included)."""
    if not rows:
        return ""
    if columns is None:
        columns = list(rows[0].keys())
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(columns), extrasaction="ignore")
    writer.writeheader()
    for r in rows:
        writer.writerow(r)
    return buf.getvalue()


def rows_fingerprint(rows: Sequence[Dict]) -> str:
    """Canonical sha256 of a sweep's reduced rows.

    Two runs of the same (scenario, seed, scale) must produce the same
    fingerprint — the determinism contract the golden-run tests pin — so
    a fingerprint change flags result drift.
    """
    material = json.dumps(list(rows), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()
