"""Golden-run byte-identity: the pinned entries of the contract manifest.

Each ``rows-*`` entry of ``tests/fixtures/contract.json`` holds a scenario
command and the ``rows_sha256`` it printed on the pre-refactor code, and
``deployed`` pins message-driven mode; the tests replay both in process.
``python tools/contract.py repin NAME`` re-pins one after a deliberate
behaviour change.
"""

import shlex
import sys
from pathlib import Path

import pytest

from repro.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
import contract  # noqa: E402

PINNED = contract.load_manifest()
GOLDEN = sorted(k[len("rows-"):] for k in PINNED if k.startswith("rows-"))


@pytest.mark.slow
@pytest.mark.parametrize("scenario", GOLDEN)
def test_rows_sha256_matches_pre_refactor_fingerprint(scenario, capsys):
    golden = PINNED[f"rows-{scenario}"]
    argv = shlex.split(golden["command"])
    assert argv[:3] == ["python", "-m", "repro"]
    assert main(argv[3:]) == 0
    got = contract.rows_line(capsys.readouterr().out)
    assert got == {"rows": golden["rows"], "sha256": golden["sha256"]}, (
        f"{golden['command']} drifted from the pre-refactor golden fingerprint; "
        "the fast paths must stay byte-identical to the legacy implementation"
    )


@pytest.mark.parametrize("capacity", [False, True], ids=["elastic", "capacity"])
def test_deployed_mode_matches_pre_refactor_fingerprint(capacity):
    golden = PINNED["deployed"]
    got = contract.deployed_fingerprint(capacity)
    assert got == golden["capacity_sha256" if capacity else "elastic_sha256"], (
        "deployed-mode trajectory drifted from the fingerprint captured "
        "before DeployedVitis was re-seated on the shared system base"
    )
