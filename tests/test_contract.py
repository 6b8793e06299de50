"""``tools/contract.py`` on a synthetic entry: a drifted pin fails the
check by name, ``repin`` writes the manifest back byte for byte, and
``--census`` records what the entry's commands enter, not what the
contract process does."""

import json
import re
import shlex
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import census  # noqa: E402
import contract  # noqa: E402
from repro.experiments.reporting import rows_to_csv  # noqa: E402

PRINT = f"{shlex.quote(sys.executable)} -c \"print('pinned')\" > out.txt"


@pytest.fixture
def table(tmp_path, monkeypatch):
    """A repository of one synthetic pinned entry and one committed file."""
    (tmp_path / "committed.txt").write_text("pinned\n")
    manifest = tmp_path / "contract.json"
    manifest.write_text(json.dumps({"_comment": "kept", "other": {"command": "x"}}))
    monkeypatch.setattr(contract, "ROOT", tmp_path)
    monkeypatch.setattr(contract, "MANIFEST", manifest)
    monkeypatch.setattr(contract, "ENTRIES", {
        "synthetic": contract.Entry((PRINT,), pin=contract.csv_pin("out.txt")),
        "copied": contract.Entry((PRINT,), files={"out.txt": "committed.txt"}),
    })
    assert contract.main(["repin", "synthetic"]) == 0
    return manifest


def _plant_drift(manifest):
    doc = json.loads(manifest.read_text())
    doc["synthetic"]["sha256"] = "0" * 64
    manifest.write_text(json.dumps(doc, indent=2) + "\n")


def test_a_planted_drift_fails_the_check_by_name_and_repin_restores_it(table, capsys):
    pinned = table.read_bytes()
    assert json.loads(pinned)["synthetic"]["command"] == PRINT
    assert contract.main(["check"]) == 0
    _plant_drift(table)
    assert contract.main(["check"]) == 1
    (failure,) = capsys.readouterr().out.splitlines()[-1:]
    assert failure.startswith("synthetic: sha256 drifted: pinned 0000")
    assert contract.main(["repin", "synthetic"]) == 0
    assert table.read_bytes() == pinned


def test_a_changed_committed_file_fails_the_check(table, tmp_path, capsys):
    (tmp_path / "committed.txt").write_text("moved\n")
    assert contract.main(["check", "copied"]) == 1
    assert "copied: out.txt differs from the committed committed.txt" in capsys.readouterr().out
    assert contract.main(["repin", "copied"]) == 0
    assert (tmp_path / "committed.txt").read_text() == "pinned\n"


def test_the_census_records_the_entrys_child_and_not_the_contract(table, tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(census.SRC.parent))
    call = "from repro.experiments.reporting import rows_to_csv; rows_to_csv([])"
    monkeypatch.setitem(contract.ENTRIES, "hooked", contract.Entry(
        (f"{shlex.quote(sys.executable)} -c {shlex.quote(call)}",)))
    out = tmp_path / "census"
    assert contract.main(["check", "hooked", "--census", str(out)]) == 0
    # One dump, the child's: the contract process, which ran the entry
    # and imports repro itself, is not hooked.
    (dump,) = [json.loads(p.read_text()) for p in out.glob("*.json")]
    assert dump["argv"] == ["-c"] and not dump["displaced"]
    code = rows_to_csv.__code__
    assert ["repro/experiments/reporting.py", code.co_firstlineno, "rows_to_csv"] in dump["calls"]


def test_ci_checks_every_entry():
    """Each entry that runs commands is named by exactly one CI row; the
    in-process ``deployed`` pin is replayed by the golden tests."""
    ci = (contract.ROOT / ".github" / "workflows" / "ci.yml").read_text()
    matrix = ci[ci.index("        entries:\n"):ci.index("    steps:", ci.index("  contract:"))]
    named = [n for line in re.findall(r"^ +- (.+)$", matrix, re.M) for n in line.split()]
    assert sorted(named) == sorted(n for n, e in contract.ENTRIES.items() if e.commands)
