"""Estimator, names and generators of the perf harness."""

import json
import re
from pathlib import Path

import pytest

import harness
import workloads
from types import SimpleNamespace

from harness import HostSpeed, Instance, median_rate
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[3]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _rep(ops, seconds):
    return SimpleNamespace(ops=ops, seconds=seconds, wall_s=2 * seconds)


class FixedHost:
    """A host-speed kernel that always reads the same, instantly."""

    def __init__(self, pass_seconds):
        self.pass_seconds = pass_seconds

    def slice(self):
        return self.pass_seconds

    speed = HostSpeed.speed


def test_median_of_k_ignores_one_slow_repetition():
    steady = [_rep(1000, 1.0), _rep(1000, 1.0), _rep(1000, 1.0)]
    burst = [_rep(1000, 1.0), _rep(1000, 5.0), _rep(1000, 1.0)]
    assert median_rate(steady) == median_rate(burst) == 1000.0


def test_median_of_k_is_the_median_of_rates_not_the_pooled_rate():
    reps = [_rep(100, 1.0), _rep(300, 1.0), _rep(1000, 10.0)]
    assert median_rate(reps) == 100.0  # rates 100, 300, 100
    assert median_rate(reps[:2]) == 200.0  # even K: the midpoint
    assert median_rate(reps, clock="wall_s") == 50.0


def test_times_are_scaled_to_the_nominal_host():
    w = WORKLOADS["publish_static"]
    for pass_seconds, factor in ((HostSpeed.NOMINAL_S, 1.0), (2 * HostSpeed.NOMINAL_S, 0.5)):
        inst = Instance(w, 1, 1, True, FixedHost(pass_seconds))
        inst.setup_done()
        with inst.timed() as rep:
            rep.checkpoint()
            rep.ops = 10
        inst.scale_to_nominal_host()
        # A host half as fast as the nominal one: its seconds count half.
        assert inst.setup_s == pytest.approx(inst.setup_wall_s * factor)
        assert rep.seconds == pytest.approx(rep.wall_s * factor)
        assert len(inst.slices) == 5  # start, set-up end, before, checkpoint, after


def test_the_clock_stops_while_a_repetition_is_paused(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(harness, "perf_counter", lambda: now[0])
    inst = Instance(WORKLOADS["udp_pair"], 1, 1, True, FixedHost(HostSpeed.NOMINAL_S))
    inst.setup_done()
    with inst.timed() as rep:
        now[0] += 1.0
        rep.pause()
        now[0] += 5.0  # settling, not measured
        rep.resume()
        now[0] += 2.0
    assert rep.wall_s == pytest.approx(3.0)


def test_repetitions_scale_with_seconds_and_never_reach_zero():
    w = WORKLOADS["publish_static"]
    assert harness._reps_for(w, harness.REFERENCE_SECONDS, quick=False) == w.reps
    assert harness._reps_for(w, 2 * harness.REFERENCE_SECONDS, quick=False) == 2 * w.reps
    assert harness._reps_for(WORKLOADS["churn_flash"], 1, quick=False) == 1
    assert harness._reps_for(w, harness.REFERENCE_SECONDS, quick=True) <= 2


def test_benchmark_json_names_match_what_the_harness_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for section, table in (("end_to_end", harness.END_TO_END), ("per_layer", harness.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert declared == table
        assert len(declared) == len(SPEC[section])  # each name once
    assert SPEC["run_seconds"] == harness.REFERENCE_SECONDS
    assert SPEC["paths"] == ["benchmarks/perf"]


def test_every_name_is_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for w in SPEC["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_wrapped_boundaries_feed_declared_per_layer_names():
    for span_name in list(harness.BOUNDARIES) + ["smallworld.lookup", "core.dissemination.publish"]:
        assert any(k.startswith(span_name + ".") for k in harness.PER_LAYER), span_name


@pytest.mark.parametrize("trace", [False, True])
def test_a_run_emits_exactly_the_declared_metrics(trace):
    report = harness.run_workload("churn_flash", seed=2, seconds=10, trace=trace, quick=True)
    section = "per_layer" if trace else "end_to_end"
    assert list(report["metrics"]) == [m["name"] for m in SPEC[section]]
    for m in SPEC[section]:
        assert report["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(report["metrics"][m["name"]]["value"], (int, float))
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1


def test_identical_state_repetitions_that_disagree_fail_the_run():
    inst = Instance(WORKLOADS["publish_static"], 1, 2, True, FixedHost(HostSpeed.NOMINAL_S))
    inst.identical("publish", {"messages": 10})
    inst.identical("publish", {"messages": 10})
    assert inst.mismatch == []
    inst.identical("publish", {"messages": 11})
    assert inst.mismatch


def _quick_instance(name, seed):
    return Instance(WORKLOADS[name], seed, 1, True, FixedHost(HostSpeed.NOMINAL_S))


def test_udp_corpus_is_a_function_of_the_seed_alone():
    a = workloads._udp_corpus(_quick_instance("udp_pair", 5))
    b = workloads._udp_corpus(_quick_instance("udp_pair", 5))
    c = workloads._udp_corpus(_quick_instance("udp_pair", 6))
    assert a == b
    assert a != c
    assert {(m.src, m.dst) for m in a} == {(0, 1), (1, 0)}
    kinds = {m.kind for m in a}
    assert {"Notification", "ProfileMessage", "Probe", "ProbeAck"} <= kinds


@pytest.mark.parametrize("name", ["twitter_build", "publish_faulty", "deployed_run"])
def test_workload_outputs_are_a_function_of_the_seed_alone(name):
    runs = [
        harness.run_workload(name, seed=s, seconds=10, trace=False, quick=True)
        for s in (4, 4, 5)
    ]
    assert runs[0]["sim_sha256"] == runs[1]["sim_sha256"]
    assert runs[0]["sim_sha256"] != runs[2]["sim_sha256"]
    for key in ("hit_ratio", "useful_msgs_pct", "delay_hops"):
        assert runs[0]["end_to_end"][key] == runs[1]["end_to_end"][key]
    assert runs[0]["attempted"] == runs[1]["attempted"]
