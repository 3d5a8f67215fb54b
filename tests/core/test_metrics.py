"""Tests for metrics collection and aggregation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import MODULE_ORDER, ModuleName, SimClock
from repro.core.errors import FaultKind
from repro.core.metrics import EpisodeResult, MetricsCollector, aggregate
from repro.core.types import StepRecord, Subgoal


def build_result(
    success=True,
    steps=10,
    sim_seconds=120.0,
    planning=60.0,
    execution=40.0,
    messages=(4, 1),
) -> EpisodeResult:
    collector = MetricsCollector(workload="probe", horizon=50)
    clock = SimClock()
    clock.advance(planning, ModuleName.PLANNING)
    clock.advance(execution, ModuleName.EXECUTION)
    clock.now += sim_seconds - planning - execution  # unattributed env time
    collector.record_llm_call(1, "a0", "plan", 500, 130)
    collector.record_fault(FaultKind.SUBOPTIMAL)
    for _ in range(messages[0]):
        collector.record_message(useful=False)
    for _ in range(messages[1]):
        collector.record_message(useful=True)
    collector.record_step(StepRecord(step=1, agent="a0", subgoal=Subgoal("x")))
    return collector.finalize(clock, success=success, steps=steps, goal_progress=1.0)


class TestEpisodeResult:
    def test_sim_minutes(self):
        assert build_result(sim_seconds=120.0).sim_minutes == pytest.approx(2.0)

    def test_seconds_per_step(self):
        result = build_result(sim_seconds=100.0, steps=10)
        assert result.seconds_per_step == pytest.approx(10.0)

    def test_llm_fraction(self):
        result = build_result(planning=60.0, execution=40.0)
        assert result.llm_fraction == pytest.approx(0.6)

    def test_message_usefulness(self):
        result = build_result(messages=(4, 1))
        assert result.message_usefulness == pytest.approx(1 / 5)

    def test_message_usefulness_no_messages(self):
        assert build_result(messages=(0, 0)).message_usefulness == 0.0

    def test_module_breakdown_sums_to_one(self):
        breakdown = build_result().module_breakdown()
        assert sum(breakdown.values()) == pytest.approx(1.0)
        assert set(breakdown) == set(MODULE_ORDER)

    def test_faults_recorded(self):
        assert build_result().faults[FaultKind.SUBOPTIMAL] == 1


class TestCollector:
    def test_token_samples_recorded(self):
        collector = MetricsCollector(workload="w", horizon=10)
        collector.record_llm_call(3, "a1", "message", 200, 70)
        sample = collector.token_samples[0]
        assert (sample.step, sample.agent, sample.purpose) == (3, "a1", "message")

    def test_none_fault_ignored(self):
        collector = MetricsCollector(workload="w", horizon=10)
        collector.record_fault(None)
        assert not collector.faults


class TestDeploymentCost:
    def test_collector_attributes_tokens_per_model(self):
        collector = MetricsCollector(workload="probe", horizon=10)
        clock = SimClock()
        collector.record_llm_call(1, "a0", "plan", 100, 20, model="gpt-4")
        collector.record_llm_call(1, "a0", "message", 50, 10, model="gpt-4")
        collector.record_llm_call(2, "a1", "plan", 40, 5, model="llama-3-8b")
        result = collector.finalize(clock, success=True, steps=2, goal_progress=1.0)
        assert result.deployment_tokens == {
            "gpt-4": (150, 30),
            "llama-3-8b": (40, 5),
        }

    def test_untagged_calls_carry_no_deployment(self):
        result = build_result()
        assert result.deployment_tokens == {}
        assert result.cost_usd == 0.0

    def test_episode_cost_prices_each_deployment(self):
        collector = MetricsCollector(workload="probe", horizon=10)
        collector.record_llm_call(1, "a0", "plan", 1_000_000, 100_000, model="gpt-4")
        result = collector.finalize(
            SimClock(), success=True, steps=1, goal_progress=1.0
        )
        assert result.cost_usd == pytest.approx(36.0)

    def test_aggregate_sums_deployments_across_trials(self):
        def tagged(prompt, output, model):
            collector = MetricsCollector(workload="probe", horizon=10)
            collector.record_llm_call(1, "a0", "plan", prompt, output, model=model)
            return collector.finalize(
                SimClock(), success=True, steps=1, goal_progress=1.0
            )

        agg = aggregate(
            [
                tagged(100, 10, "gpt-4"),
                tagged(200, 20, "gpt-4"),
                tagged(50, 5, "llama-3-8b"),
            ]
        )
        assert agg.deployment_tokens == {
            "gpt-4": (300, 30),
            "llama-3-8b": (50, 5),
        }
        assert agg.cost_usd == pytest.approx(
            (300 * 30.0 + 30 * 60.0 + 50 * 0.10 + 5 * 0.10) / 1e6
        )
        breakdown = agg.cost_breakdown()
        assert list(breakdown) == ["gpt-4", "llama-3-8b"]
        assert sum(breakdown.values()) == pytest.approx(agg.cost_usd)


class TestAggregate:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_success_rate(self):
        results = [build_result(success=True), build_result(success=False)]
        assert aggregate(results).success_rate == pytest.approx(0.5)

    def test_mean_steps(self):
        results = [build_result(steps=10), build_result(steps=20)]
        assert aggregate(results).mean_steps == pytest.approx(15.0)

    def test_message_usefulness_pools_counts(self):
        results = [build_result(messages=(9, 1)), build_result(messages=(0, 10))]
        assert aggregate(results).message_usefulness == pytest.approx(11 / 20)

    def test_mean_messages_sent(self):
        results = [build_result(messages=(3, 1)), build_result(messages=(5, 1))]
        assert aggregate(results).mean_messages_sent == pytest.approx(5.0)

    @settings(max_examples=20)
    @given(
        flags=st.lists(st.booleans(), min_size=1, max_size=10),
    )
    def test_success_rate_bounded(self, flags):
        results = [build_result(success=flag) for flag in flags]
        assert 0.0 <= aggregate(results).success_rate <= 1.0

    def test_module_breakdown_normalized(self):
        results = [build_result(), build_result(planning=10.0, execution=80.0)]
        breakdown = aggregate(results).module_breakdown()
        assert sum(breakdown.values()) == pytest.approx(1.0)
