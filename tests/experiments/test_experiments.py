"""Smoke and shape tests for the figure experiment harnesses.

These run with a single trial (fast) and assert structural properties —
every cell present, applicability marked correctly, renders non-empty —
plus the cheap directional claims.  Full-shape verification lives in the
benchmarks and EXPERIMENTS.md.
"""

from dataclasses import replace

import pytest

from repro.core.errors import BudgetExceededError
from repro.experiments import fig3_sensitivity, fig6_tokens, suite
from repro.experiments.common import (
    ExperimentSettings,
    GridCell,
    measure,
    Section,
    measure_grid,
    trials_from_env,
    workers_from_env,
)
from repro.workloads import get_workload

FAST = ExperimentSettings(n_trials=1, base_seed=3, difficulty="easy")


class TestCommon:
    def test_trials_from_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRIALS", raising=False)
        assert trials_from_env(7) == 7

    def test_trials_from_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "3")
        assert trials_from_env() == 3

    def test_trials_from_env_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "zero")
        with pytest.raises(ValueError):
            trials_from_env()
        monkeypatch.setenv("REPRO_TRIALS", "0")
        with pytest.raises(ValueError):
            trials_from_env()

    def test_trials_from_env_strips_whitespace(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "  3 ")
        assert trials_from_env() == 3
        monkeypatch.setenv("REPRO_TRIALS", "   ")
        assert trials_from_env(7) == 7

    def test_workers_from_env_default_and_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert workers_from_env() == 1
        monkeypatch.setenv("REPRO_WORKERS", " 4 ")
        assert workers_from_env() == 4

    @pytest.mark.parametrize("raw", ["two", "0", "-3", "2.5"])
    def test_workers_from_env_validation(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            workers_from_env()

    def test_settings_follow_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        settings = ExperimentSettings(n_trials=1)
        assert settings.executor == "parallel"
        assert settings.max_workers == 3
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert ExperimentSettings(n_trials=1).executor == "serial"

    def test_settings_reject_unknown_executor(self):
        with pytest.raises(ValueError):
            ExperimentSettings(n_trials=1, executor="threads")
        with pytest.raises(ValueError):
            ExperimentSettings(n_trials=1, max_workers=0)

    def test_measure_runs(self):
        result = measure(get_workload("embodiedgpt").config, FAST)
        assert result.n_trials == 1

    def test_measure_grid_matches_measure(self):
        configs = [get_workload(name).config for name in ("embodiedgpt", "jarvis-1")]
        grid_results = measure_grid([GridCell(config=c) for c in configs], FAST)
        assert grid_results == [measure(c, FAST) for c in configs]


class TestCostMetering:
    def test_meter_collects_dispatched_episodes(self):
        section = Section()
        measure(get_workload("embodiedgpt").config, replace(FAST, section=section))
        meter = section.meter
        assert not meter.empty
        totals = meter.totals()
        assert all(prompt > 0 for prompt, _ in totals.values())
        line = meter.describe()
        assert line.startswith("LLM serving cost: $")
        for model in totals:
            assert model in line

    def test_dispatch_outside_meter_is_fine(self):
        assert FAST.section is None
        measure(get_workload("embodiedgpt").config, FAST)  # nothing to meter

    def test_suite_section_footer_carries_cost(self):
        block = suite._run_section(
            "Probe",
            lambda s: (measure(get_workload("embodiedgpt").config, s), "body")[1],
            FAST,
        )
        assert "LLM serving cost: $" in block
        assert block.splitlines()[-1].startswith("LLM serving cost:")

    def test_suite_section_without_episodes_has_no_footer(self):
        block = suite._run_section("Probe", lambda s: "body", FAST)
        assert "LLM serving cost" not in block


class TestPartitionedBudget:
    """``suite._run_section`` with a token share: the partitioned path."""

    @staticmethod
    def probe(n_trials):
        def runner(settings):
            measure(get_workload("embodiedgpt").config, replace(settings, n_trials=n_trials))
            return "body"

        return runner

    def test_overspending_section_stops_alone(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_BUDGET_TOKENS", raising=False)
        alone = suite._run_section("Probe", self.probe(1), FAST)
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger.jsonl"))
        stopped = []
        # Two trials against a 1-token share: the first spends it, so the
        # second is never admitted and only this section stops.
        tripped = suite._run_section(
            "Hungry", self.probe(2), FAST, partition=1, stopped=stopped
        )
        body = tripped.split("\n")[3:]
        assert body[0].startswith("[section stopped: its 1-token share of REPRO_BUDGET_TOKENS")
        assert body[1] == "fleet budget report (partial ledger):"
        assert "LLM serving cost" not in tripped
        assert stopped == ["Hungry"]
        # The next section, with a large share, restores the episode the
        # stopped one persisted and bills exactly what it bills alone.
        completed = suite._run_section(
            "Probe", self.probe(1), FAST, partition=10**9, stopped=stopped
        )
        assert stopped == ["Hungry"]
        assert completed.split("\n")[3:] == alone.split("\n")[3:]
        assert completed.split("\n")[-1].startswith("LLM serving cost: $")

    def test_unpartitioned_trip_propagates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "ledger.jsonl"))
        monkeypatch.setenv("REPRO_BUDGET_TOKENS", "1")
        stopped = []
        with pytest.raises(BudgetExceededError):
            suite._run_section("Hungry", self.probe(2), FAST, stopped=stopped)
        assert stopped == []


class TestFig3Structure:
    @pytest.fixture(scope="class")
    def result(self):
        return fig3_sensitivity.run(
            ExperimentSettings(n_trials=1, base_seed=5, difficulty="easy")
        )

    def test_all_cells_present(self, result):
        for subject in fig3_sensitivity.SUBJECTS:
            result.cell(subject, "baseline")
            for ablation in fig3_sensitivity.ABLATIONS:
                result.cell(subject, ablation)

    def test_not_applicable_matches_paper(self, result):
        assert not result.cell("jarvis-1", "communication").applicable
        assert not result.cell("coela", "reflection").applicable
        assert not result.cell("combo", "reflection").applicable
        assert result.cell("roco", "reflection").applicable

    def test_render_contains_na(self, result):
        text = fig3_sensitivity.render(result)
        assert "N/A" in text
        assert "w/o execution" in text

    def test_exec_ablation_catastrophic(self, result):
        assert result.mean_success_drop("execution") > 30.0


class TestFig6Structure:
    def test_token_series_growth(self):
        result = fig6_tokens.run(ExperimentSettings(n_trials=1, base_seed=2))
        for trace in result.traces:
            assert trace.series, trace.workload
            plan_slopes = [
                slope for name, slope in trace.slopes.items() if name.endswith(":plan")
            ]
            # Prompt growth: at least one agent's plan prompts must grow.
            assert max(plan_slopes) > 0, trace.workload

    def test_render(self):
        result = fig6_tokens.run(ExperimentSettings(n_trials=1, base_seed=2))
        text = fig6_tokens.render(result)
        assert "prompt tokens" in text
        assert "tok/step" in text
