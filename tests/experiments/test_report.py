"""Tests for the markdown report generator."""

import pytest

from repro.experiments.report import Section, build_report, render_markdown_table

ROWS = [
    {"system": "vitis", "x": 1, "y": 0.25},
    {"system": "rvr", "x": 1, "y": 0.75},
]


def fake_scenario(**kwargs):
    return list(ROWS)


class TestMarkdownTable:
    def test_shape(self):
        md = render_markdown_table(ROWS)
        lines = md.splitlines()
        assert lines[0] == "| system | x | y |"
        assert lines[1] == "|---|---|---|"
        assert "| vitis | 1 | 0.250 |" in lines

    def test_column_selection(self):
        md = render_markdown_table(ROWS, columns=["y"])
        assert "system" not in md

    def test_empty(self):
        assert render_markdown_table([]) == "*(no rows)*"


class TestSection:
    def test_run_captures_rows_and_time(self):
        s = Section("My fig", fake_scenario, n_nodes=10).run()
        assert s.rows == ROWS
        assert s.elapsed >= 0.0

    def test_markdown_includes_expectation_and_params(self):
        s = Section("My fig", fake_scenario, expectation="vitis wins", n_nodes=10).run()
        md = s.to_markdown()
        assert md.startswith("## My fig")
        assert "vitis wins" in md
        assert "n_nodes=10" in md

    def test_not_run_placeholder(self):
        md = Section("Pending", fake_scenario).to_markdown()
        assert "*(not run)*" in md


class TestBuildReport:
    def test_assembles_sections(self):
        report = build_report(
            [Section("A", fake_scenario), Section("B", fake_scenario)],
            title="Repro",
            preamble="All figures.",
        )
        assert report.startswith("# Repro")
        assert "## A" in report and "## B" in report
        assert "All figures." in report

    def test_csv_side_channel(self, tmp_path):
        build_report(
            [Section("Fig X (test)", fake_scenario)],
            csv_dir=str(tmp_path),
        )
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        assert files[0].suffix == ".csv"
        assert "vitis" in files[0].read_text()

    def test_real_scenario_smoke(self):
        """End-to-end with an actual (tiny) scenario."""
        from repro.experiments import run_sweep
        from repro.experiments.scenarios import fig9_spec

        report = build_report(
            [Section("Fig 9", lambda **kw: run_sweep(fig9_spec(**kw)),
                     n_users=300, seed=1)],
        )
        assert "alpha_in" in report
