"""run.py end to end: the contract's result line and --quick determinism."""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from workloads import WORKLOADS

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parent.parent


def _run(*extra, cwd=ROOT, script=PERF / "run.py"):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(script), *extra],
        cwd=str(cwd), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    return proc, time.perf_counter() - t0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quick_run_exits_zero_with_the_same_sha_twice(name):
    shas = []
    for _ in range(2):
        proc, _wall = _run("--workload", name, "--seed", "7", "--quick")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        shas.append(re.search(r"sim_sha256 ([0-9a-f]{64})", proc.stdout).group(1))
    assert shas[0] == shas[1]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quick_timed_part_stays_within_two_seconds(name):
    proc, _wall = _run("--workload", name, "--quick")
    assert proc.returncode == 0, proc.stderr
    seconds = re.search(r"repetition seconds (.*)", proc.stdout).group(1)
    setups = re.search(r"set-ups \(([^)]*) s\)", proc.stdout).group(1)
    total = sum(float(x) for x in re.findall(r"[0-9.]+", seconds + " " + setups))
    assert total <= 2.0, proc.stdout


def test_trace_flag_prints_per_layer_metrics_and_writes_the_spans():
    proc, _ = _run("--workload", "udp_pair", "--quick", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "net.wire.encode.calls" in result["metrics"]
    assert "ops_per_s" not in result["metrics"]
    trace = json.loads((PERF / "out" / "trace_udp_pair.json").read_text())
    assert trace["fields"][:5] == ["name", "start", "end", "parent", "repetition"]
    assert any(s[0] == "net.wire.decode" for s in trace["spans"])


def test_exits_nonzero_without_a_result_where_the_program_is_missing(tmp_path):
    bare = tmp_path / "benchmarks" / "perf"
    bare.mkdir(parents=True)
    for f in PERF.glob("*.py"):
        (bare / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc, wall = _run("--workload", "publish_static", "--seed", "1", "--seconds", "10",
                      "--trace", "0", cwd=tmp_path, script=bare / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert wall < 30
