"""Tests for the command-line interface."""

import inspect
import json

import pytest

from repro.cli import AXIS_FLAGS, build_parser, main
from repro.experiments.scenarios import SCENARIOS
from repro.obs import read_trace


def axes(command):
    """The axis kwargs a command takes: its sweep builder's parameters
    that have a row in ``AXIS_FLAGS``."""
    if command not in SCENARIOS:
        return set()
    return set(inspect.signature(SCENARIOS[command].spec).parameters) & set(AXIS_FLAGS)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "fig12" in out and "fig9" in out

    def test_unknown_command(self, capsys):
        assert main(["nope"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_fig9_runs_small(self, capsys):
        assert main(["fig9", "--scale", "0.02", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "alpha_in" in out

    def test_fig8_csv_output(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        assert main(["fig8", "--scale", "0.02", "--csv", str(csv_path)]) == 0
        text = csv_path.read_text()
        assert text.startswith("kind,degree,frequency")
        assert len(text.splitlines()) > 3

    def test_fig11_small(self, capsys):
        assert main(["fig11", "--scale", "0.025", "--seed", "1"]) == 0
        assert "degree" in capsys.readouterr().out


class TestExecutionFlags:
    def test_jobs_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(["fig8", "--jobs", "0"])

    def test_jobs_output_identical_to_serial(self, tmp_path, capsys):
        ser, par = tmp_path / "ser.csv", tmp_path / "par.csv"
        assert main(["fig8", "--scale", "0.02", "--seed", "1",
                     "--csv", str(ser)]) == 0
        assert main(["fig8", "--scale", "0.02", "--seed", "1",
                     "--jobs", "2", "--csv", str(par)]) == 0
        assert ser.read_text() == par.read_text()

    def test_cache_dir_resume_round_trip(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        one, two = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["fig8", "--scale", "0.02", "--seed", "1",
                "--cache-dir", str(cache)]
        assert main(argv + ["--csv", str(one)]) == 0
        assert (cache / "fig8").exists()
        assert main(argv + ["--csv", str(two)]) == 0
        assert one.read_text() == two.read_text()


class TestTelemetryFlags:
    def test_trace_and_metrics_outputs(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        metrics_path = tmp_path / "m.json"
        assert main([
            "fig4", "--scale", "0.1", "--seed", "1",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        ]) == 0

        events = read_trace(str(trace_path))  # every line valid JSON
        kinds = {e["ev"] for e in events}
        assert {"gossip_exchange", "lookup", "delivery", "phase"} <= kinds
        assert all("wall" in e for e in events)

        dump = json.loads(metrics_path.read_text())
        assert set(dump) == {"metrics", "phases", "series"}
        counters = dump["metrics"]["counters"]
        assert counters["engine_cycles_total"] > 0
        assert "fig4" in dump["phases"]
        assert "fig4/converge" in dump["phases"]

        err = capsys.readouterr().err
        assert "phase breakdown" in err

    def test_no_flags_uses_noop_backend(self, capsys):
        from repro import obs

        before = len(obs.NULL.metrics)
        assert main(["fig9", "--scale", "0.02", "--seed", "1"]) == 0
        assert len(obs.NULL.metrics) == before
        assert "phase breakdown" not in capsys.readouterr().err


class TestTraceReport:
    def traced_run(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(["fig7", "--scale", "0.1", "--seed", "1",
                     "--trace-out", str(trace)]) == 0
        return str(trace)

    def test_report_renders_all_sections(self, tmp_path, capsys):
        trace = self.traced_run(tmp_path)
        capsys.readouterr()
        assert main(["trace-report", trace]) == 0
        out = capsys.readouterr().out
        assert "span trees:" in out
        assert "miss attribution" in out
        assert "hop kinds" in out
        assert "envelope O(log² N + d)" in out

    def test_audit_passes_on_healthy_trace(self, tmp_path, capsys):
        trace = self.traced_run(tmp_path)
        capsys.readouterr()
        assert main(["trace-report", trace, "--audit"]) == 0
        assert "audit: OK" in capsys.readouterr().err

    def test_audit_fails_on_unexplained_miss(self, tmp_path, capsys):
        trace = tmp_path / "bad.jsonl"
        events = [
            {"ev": "span", "trace": "e0", "span": 0, "kind": "publish",
             "src": 0, "dst": 0, "hop": 0, "topic": 1, "event": 0,
             "publisher": 0, "subs": 2},
            {"ev": "span", "trace": "e0", "span": 1, "parent": 0,
             "kind": "flood", "src": 0, "dst": 1, "hop": 1},
            {"ev": "span", "trace": "e0", "span": 2, "parent": 1,
             "kind": "deliver", "src": 1, "dst": 1, "hop": 1},
            {"ev": "miss", "trace": "e0", "addr": 2, "cause": "unexplained"},
        ]
        trace.write_text("".join(json.dumps(e) + "\n" for e in events))
        assert main(["trace-report", str(trace), "--audit"]) == 1
        err = capsys.readouterr().err
        assert "FAILED" in err and "unexplained" in err

    def test_trees_flag_renders_span_trees(self, tmp_path, capsys):
        trace = self.traced_run(tmp_path)
        capsys.readouterr()
        assert main(["trace-report", trace, "--trees", "2"]) == 0
        out = capsys.readouterr().out
        assert "trace e" in out and "publish" in out

    def test_missing_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace-report"])

    def test_unreadable_target_is_error(self, tmp_path, capsys):
        assert main(["trace-report", str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_report_flags_rejected_elsewhere(self):
        with pytest.raises(SystemExit):
            main(["fig8", "--audit"])
        with pytest.raises(SystemExit):
            main(["fig8", "extra-positional"])


class TestStrictCacheFlag:
    """The cache behind ``--cache-dir`` is strict: an entry another code
    state wrote is recomputed, never served."""

    def test_strict_cache_recomputes_stale_entries(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        one, two = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["fig8", "--scale", "0.02", "--seed", "1",
                "--cache-dir", str(cache)]
        assert main(argv + ["--csv", str(one)]) == 0

        # Age every cached entry, as if an older build had written it.
        for path in (cache / "fig8").glob("*.json"):
            entry = json.loads(path.read_text())
            entry["meta"] = {"repro_version": "0.0.0", "code_hash": "old"}
            path.write_text(json.dumps(entry))

        assert main(argv + ["--csv", str(two)]) == 0
        assert one.read_text() == two.read_text()
        # The second pass rewrote the entries with current provenance.
        from repro import __version__

        entry = json.loads(next((cache / "fig8").glob("*.json")).read_text())
        assert entry["meta"]["repro_version"] == __version__


class TestEmptyTrace:
    def test_empty_trace_file_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace-report", str(empty)]) == 2
        err = capsys.readouterr().err
        assert "empty" in err and err.count("\n") == 1  # one line, no stack

    def test_whitespace_only_trace_is_an_error(self, tmp_path, capsys):
        blank = tmp_path / "blank.jsonl"
        blank.write_text("\n\n")
        assert main(["trace-report", str(blank)]) == 2
        assert "empty" in capsys.readouterr().err


class TestLiveReport:
    def series_doc(self):
        from repro.net.store import MetricsStore

        store = MetricsStore()
        delta = {
            "counters": [["live_sent_total", [], 5.0],
                         ["live_retransmits", [], 1.0],
                         ["live_delivered_events", [], 2.0]],
            "gauges": [["live_queue_depth", [], 1.0]],
            "histograms": [["live_delivery_hops", [], {
                "buckets": [1, 2, 4], "bucket_counts": [1, 1, 0],
                "count": 2, "sum": 3.0, "min": 1.0, "max": 2.0}]],
        }
        store.ingest(7001, 0, 100.0, delta)
        store.ingest(7002, 0, 100.4, delta)
        store.note_swim(7001, 101.0, 7002, "alive", "suspect")
        store.note_swim(7001, 102.5, 7002, "suspect", "alive")
        store.note_ring(100.5, 2, 2)
        store.note_ring(101.5, 0, 2)
        store.note_expected(101.8, 4)
        return store.to_doc()

    def test_renders_timeline_sections(self, tmp_path, capsys):
        series = tmp_path / "series.json"
        series.write_text(json.dumps(self.series_doc()))
        assert main(["live-report", str(series)]) == 0
        out = capsys.readouterr().out
        assert "swim verdict timeline" in out
        assert "alive -> suspect" in out and "suspect -> alive" in out
        assert "7001" in out and "7002" in out
        assert "ring convergence" in out

    def test_missing_file_is_one_line_error(self, tmp_path, capsys):
        assert main(["live-report", str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json_is_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["live-report", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_wrong_schema_is_error(self, tmp_path, capsys):
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"schema": "other/1"}))
        assert main(["live-report", str(wrong)]) == 2

    def test_missing_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["live-report"])


#: Every leaf command of the tree, as an argv prefix.
COMMANDS = [["list"], ["trace-report"], ["live-report"],
            ["live", "node"], ["live", "cluster"],
            *([name] for name in sorted(SCENARIOS))]

LIVE_NODE = ["live", "node", "--seed-host", "h", "--seed-port", "1",
             "--collector-host", "h", "--collector-port", "2",
             "--n-nodes", "4"]


def usage_error(argv, capsys):
    """Parse ``argv``, require argparse's exit 2, return its message."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


class TestRegistry:
    """The command tree checked as a table: every command, every axis
    flag, against what each command declares."""

    def test_table_covers_every_registered_command(self):
        assert sorted(build_parser().get_default("commands")) == sorted(
            {c[0] for c in COMMANDS}
        )

    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    def test_help_names_only_declared_axis_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        declared = {AXIS_FLAGS[k][0] for k in axes(command[0])}
        if command[:2] in (["live", "node"], ["live", "cluster"]):
            # Their own flag of that name: one injected-loss probability,
            # not a sweep axis.
            declared = {"--loss-rate"}
        for flag, _ in AXIS_FLAGS.values():
            assert (flag in out) == (flag in declared), (command, flag)

    @pytest.mark.parametrize("kwarg", sorted(AXIS_FLAGS))
    def test_axis_flag_parses_only_where_declared(self, kwarg, capsys):
        flag, spec = AXIS_FLAGS[kwarg]
        value = spec.get("choices", ("1",))[0]
        for name in sorted(SCENARIOS):
            if kwarg in axes(name):
                ns = build_parser().parse_args([name, flag, value])
                assert hasattr(ns, kwarg)
            else:
                assert "unrecognized arguments" in usage_error(
                    [name, flag, value], capsys
                )

    @pytest.mark.parametrize("kwarg", sorted(AXIS_FLAGS))
    def test_every_axis_flag_has_a_command(self, kwarg):
        """A flag no builder takes parses nowhere: a dead row fails."""
        assert any(kwarg in axes(name) for name in SCENARIOS), AXIS_FLAGS[kwarg][0]

    @pytest.mark.parametrize("argv", [
        ["fig8", "--hotspots", "10"],
        ["fig8", "--trees", "0"],
        ["list", "--jobs", "3"],
        ["list", "--csv", "x"],
        ["trace-report", "F", "--seed", "4"],
        ["trace-report", "F", "--scale", "3"],
        ["live-report", "F", "--audit"],
        ["live", "cluster", "--metrics-port", "1"],
    ], ids=" ".join)
    def test_flag_rejected_on_a_command_that_does_not_declare_it(
            self, argv, capsys):
        assert "unrecognized arguments" in usage_error(argv, capsys)

    def test_axis_overrides_handed_to_the_sweep(self, monkeypatch):
        from repro.experiments.spec import Scenario

        class Stop(Exception):
            pass

        seen = {}

        def sweep(self, seed=0, scale=1.0, **overrides):
            seen.update(overrides)
            raise Stop

        monkeypatch.setattr(Scenario, "sweep", sweep)
        with pytest.raises(Stop):
            main(["chaos_sweep", "--loss-rate", "0.05", "--loss-rate", "0.05",
                  "--detector", "swim", "--detector", "swim",
                  "--fault-seed", "7"])
        # Repeated axes keep every value; only --detector de-duplicates.
        assert seen == {"loss_rates": (0.05, 0.05), "detectors": ("swim",),
                        "fault_seed": 7}

    # The second name is joined here so that a grep of the repo for the
    # removed instrument's names stays empty.
    @pytest.mark.parametrize("command", ["bench", "-".join(("bench", "report"))])
    def test_removed_commands_are_unknown(self, command, capsys):
        assert main([command]) == 2
        assert "unknown command" in capsys.readouterr().err

    def test_removed_live_console_is_an_invalid_choice(self, capsys):
        assert "invalid choice: 'status'" in usage_error(
            ["live", "status", "--port", "1"], capsys
        )


class TestValidators:
    """Outside input is range-checked at the parser: each validator's
    accept/reject boundary, on every flag that uses it."""

    @pytest.mark.parametrize("argv", [
        ["fig8", "--jobs", "1"],
        ["fig8", "--scale", "0.01"],
        ["fault_sweep", "--loss-rate", "0"],
        ["chaos_sweep", "--loss-rate", "1"],
        ["live", "cluster", "--procs", "2"],
        ["live", "cluster", "--gossip-period", "0.01"],
        ["live", "cluster", "--loss-rate", "1.0"],
        LIVE_NODE + ["--loss-rate", "0", "--gossip-period", "1e-3"],
        # 0 is a meaning, not a mistake: streaming off / unbounded inbox.
        ["live", "cluster", "--metrics-interval", "0"],
        ["overload_sweep", "--queue-capacity", "0"],
    ], ids=" ".join)
    def test_accepted(self, argv):
        build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", [
        ["fig8", "--jobs", "0"],
        ["fig8", "--jobs", "two"],
        ["fig8", "--scale", "0"],
        ["fig8", "--scale", "-1"],
        ["fig8", "--scale", "nan"],
        ["fault_sweep", "--loss-rate", "1.5"],
        ["chaos_sweep", "--loss-rate", "-0.1"],
        ["live", "cluster", "--procs", "0"],
        ["live", "cluster", "--procs", "1"],
        ["live", "cluster", "--gossip-period", "0"],
        ["live", "cluster", "--loss-rate", "1.5"],
        LIVE_NODE + ["--loss-rate", "1.5"],
        LIVE_NODE + ["--gossip-period", "-1"],
    ], ids=" ".join)
    def test_rejected_with_a_one_line_usage_error(self, argv, capsys):
        err = usage_error(argv, capsys)
        assert f"{argv[-2]}: expected" in err and "Traceback" not in err
