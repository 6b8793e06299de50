"""The chaos_sweep scenario (repro.experiments.chaos) and its CLI flags."""

import pytest

from repro.cli import main
from repro.experiments import run_sweep
from repro.experiments.chaos import chaos_sweep_spec
from repro.experiments.scenarios import SCENARIOS

SMALL = dict(n_nodes=60, n_topics=100, loss_rates=(0.05,), seed=0)


@pytest.fixture(scope="module")
def rows():
    return run_sweep(chaos_sweep_spec(**SMALL))


class TestSpec:
    def test_registered_scenario(self):
        assert "chaos_sweep" in SCENARIOS
        sweep = SCENARIOS["chaos_sweep"].sweep(seed=0, scale=0.3)
        assert sweep.name == "chaos_sweep"
        assert len(sweep.trials) == 4  # 2 loss rates x 2 detectors

    def test_rejects_unknown_detector(self):
        with pytest.raises(ValueError, match="unknown detectors"):
            chaos_sweep_spec(detectors=("swim", "raft"))

    def test_one_trial_per_detector_and_rate(self):
        sweep = chaos_sweep_spec(
            detectors=("swim",), loss_rates=(0.05, 0.1, 0.2)
        )
        assert len(sweep.trials) == 3


class TestRows:
    def test_row_keys_are_uniform(self, rows):
        assert len(rows) == 2
        keys = {tuple(r) for r in rows}
        assert len(keys) == 1  # rectangular CSV across the detector axis
        for col in (
            "detector", "detection_latency", "undetected", "victims",
            "rejoined", "false_evictions", "false_eviction_rate",
            "hit_ratio", "probes_sent", "suspicions", "refutations",
            "confirmations", "detector_rejoins",
        ):
            assert col in rows[0]

    def test_heartbeat_row_never_builds_a_detector(self, rows):
        hb = next(r for r in rows if r["detector"] == "heartbeat")
        assert hb["probes_sent"] == 0 and hb["confirmations"] == 0
        assert hb["detector_rejoins"] == 0

    def test_swim_machinery_engaged(self, rows):
        sw = next(r for r in rows if r["detector"] == "swim")
        assert sw["probes_sent"] > 0
        assert sw["confirmations"] >= 1
        assert sw["detector_rejoins"] == sw["rejoined"] > 0

    def test_acceptance_inequality(self, rows):
        """SWIM strictly beats the heartbeat baseline on false evictions
        at equal-or-better detection latency (the PR's acceptance gate,
        also enforced at bench scale in benchmarks/)."""
        hb = next(r for r in rows if r["detector"] == "heartbeat")
        sw = next(r for r in rows if r["detector"] == "swim")
        assert sw["false_eviction_rate"] < hb["false_eviction_rate"]
        assert sw["detection_latency"] <= hb["detection_latency"]

    def test_deterministic(self):
        assert run_sweep(chaos_sweep_spec(**SMALL)) == run_sweep(
            chaos_sweep_spec(**SMALL)
        )


class TestCliFlags:
    def test_chaos_flags_rejected_elsewhere(self):
        for flag in (["--detector", "swim"], ["--suspicion-timeout", "0.5"],
                     ["--probe-fanout", "2"]):
            with pytest.raises(SystemExit):
                main(["fig4"] + flag)

    def test_partition_rejected_on_chaos(self):
        with pytest.raises(SystemExit):
            main(["chaos_sweep", "--partition", "5"])

    def test_bad_detector_name_rejected(self):
        with pytest.raises(SystemExit):
            main(["chaos_sweep", "--detector", "raft"])

    def test_small_run_with_overrides(self, capsys):
        assert main([
            "chaos_sweep", "--scale", "0.3", "--loss-rate", "0.08",
            "--detector", "swim", "--detector", "heartbeat",
            "--probe-fanout", "2", "--suspicion-timeout", "0.6",
            "--fault-seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "false_eviction_rate" in out
        assert "swim" in out and "heartbeat" in out
