"""Golden equivalence: the optimized hot path reproduces the seed bytes.

The contract of :mod:`repro.core.hotpath` is that every optimization is
*observationally invisible*: aggregates, episode results, retrievals, and
prompts are byte-identical between the optimized path and the reference
(seed) implementation, across paradigms, capacities, and executors.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pytest

from conftest import record_charges

from repro.core import hotpath
from repro.core.clock import SimClock
from repro.core.config import MemoryConfig
from repro.core.executor import ParallelExecutor
from repro.core.metrics import MetricsCollector
from repro.core.modules.base import ModuleContext
from repro.core.modules.memory import MemoryModule
from repro.core.types import Fact, Message, Subgoal
from repro.experiments.common import ExperimentSettings, GridCell, measure_grid
from repro.llm.prompt import PromptBuilder
from repro.workloads.registry import get_workload


def _capped(config, capacity_steps: int, dual: bool | None = None):
    base_dual = config.memory.dual if config.memory is not None else False
    return replace(
        config,
        memory=MemoryConfig(
            capacity_steps=capacity_steps, dual=base_dual if dual is None else dual
        ),
    )


#: Config x paradigm x capacity grid: modular single-agent (small and
#: large windows, dual), centralized, decentralized with dialogue, the
#: combined-optimizations system, and a hierarchy workload.  The final
#: cell is the delivery-bus stressor: a decentralized team large enough
#: for multi-round dialogue, so every step staged many (message,
#: receiver) deliveries with multiple receivers per message.
GRID = [
    GridCell(config=_capped(get_workload("jarvis-1").config, 2)),
    GridCell(config=_capped(get_workload("jarvis-1").config, 90), difficulty="hard"),
    GridCell(config=_capped(get_workload("jarvis-1").config, 30, dual=True)),
    GridCell(config=get_workload("mindagent").config, n_agents=4),
    GridCell(config=get_workload("coela").config, n_agents=4),
    GridCell(config=get_workload("combo").config, n_agents=4),
    GridCell(config=get_workload("hmas").config, n_agents=4, difficulty="easy"),
    GridCell(config=get_workload("coela").config, n_agents=6),
]

SETTINGS = ExperimentSettings(n_trials=2, executor="serial", max_workers=1)


class TestGridEquivalence:
    def test_serial_aggregates_byte_identical(self):
        with hotpath.override(False):
            reference = measure_grid(GRID, SETTINGS)
        with hotpath.override(True):
            optimized = measure_grid(GRID, SETTINGS)
        assert optimized == reference

    def test_coarse_clock_aggregates_byte_identical(self, monkeypatch):
        """Running-sums clock + full optimized path == reference bytes.

        The clock keeps only per-module and per-phase sums (what the old
        ``REPRO_CLOCK=coarse`` mode did); with the candidate cache and the
        behaviour scoreboard active too, the seed aggregates must still be
        reproduced exactly, and a ``REPRO_CLOCK`` value left in the
        environment by an older setup must select nothing.
        """
        monkeypatch.delenv("REPRO_CLOCK", raising=False)
        with hotpath.override(False):
            reference = measure_grid(GRID, SETTINGS)
        monkeypatch.setenv("REPRO_CLOCK", "span")
        with hotpath.override(True):
            coarse = measure_grid(GRID, SETTINGS)
        assert coarse == reference

    def test_candidate_cache_actually_engages(self):
        """Guard against the cache silently disabling itself.

        A trivially-passing equivalence test (because the optimized path
        quietly fell back to full enumeration) would hide a regression;
        assert the cache serves a meaningful share of slot lookups on a
        representative cell.
        """
        from repro.core.runner import build_loop, build_task

        cell = GRID[4]  # coela: transport env, dialogue-heavy
        task = build_task(cell.config, n_agents=cell.n_agents, seed=0)
        with hotpath.override(True):
            loop = build_loop(cell.config, task, seed=0)
            loop.run()
            cache = loop.env._candidate_cache
        assert cache is not None
        assert cache.reused_slots > cache.rebuilt_slots

    def test_delivery_bus_novelty_and_usefulness_identical(self):
        """The batched delivery path reproduces the message metrics exactly.

        The dialogue-heavy cell (decentralized, 6 agents, 2 rounds/step,
        5 receivers/message) is where per-message novelty counting is
        order-sensitive: a later message's facts are only novel if an
        earlier delivery did not already merge them.  Usefulness ratios
        (the paper's ~20 % CoELA analysis) must agree to the last bit.
        """
        cell = GRID[-1:]
        with hotpath.override(False):
            reference = measure_grid(cell, SETTINGS)[0]
        with hotpath.override(True):
            batched = measure_grid(cell, SETTINGS)[0]
        # Guard the cell's shape: genuinely many messages, several useful.
        assert reference.mean_messages_sent >= 50
        assert 0.0 < reference.message_usefulness < 1.0
        assert batched.message_usefulness == reference.message_usefulness
        assert batched.mean_messages_sent == reference.mean_messages_sent
        assert batched == reference

    def test_delivery_bus_actually_engages(self):
        """Guard against the bus silently not staging anything."""
        from repro.core.runner import build_loop, build_task

        cell = GRID[-1]
        task = build_task(cell.config, n_agents=cell.n_agents, seed=0)
        with hotpath.override(True):
            loop = build_loop(cell.config, task, seed=0)
            loop.run()
        assert loop.bus is not None
        assert loop.bus.pending == 0  # every stage was flushed
        # Multi-receiver staging: strictly more deliveries than messages.
        assert loop.bus.staged_deliveries > loop.metrics.messages_sent > 0

    def test_inference_scheduler_actually_engages(self):
        """Guard against call sites silently bypassing the serving layer.

        Every LLM call must route through the loop's scheduler: the
        engagement counter equals the episode's recorded call count
        (nothing records a token sample without a submit), on both the
        hot path and the reference path.
        """
        from repro.core.runner import build_loop, build_task

        cell = GRID[4]  # coela: plans + composes + reflections + selections
        task = build_task(cell.config, n_agents=cell.n_agents, seed=0)
        for fast in (True, False):
            with hotpath.override(fast):
                loop = build_loop(cell.config, task, seed=0)
                result = loop.run()
            assert loop.scheduler.mode == "percall"
            assert loop.scheduler.pending == 0
            assert loop.scheduler.dispatched == result.llm_calls > 0

    def test_batched_serving_changes_latency_never_outcomes(self):
        """``REPRO_SERVE=batched`` across the golden grid: task outcomes,
        token counts, and message metrics are invariant; modeled latency
        drops wherever a paradigm exposes phase concurrency."""
        import os

        with hotpath.override(True):
            percall = measure_grid(GRID, SETTINGS)
        previous = os.environ.get("REPRO_SERVE")
        os.environ["REPRO_SERVE"] = "batched"
        try:
            with hotpath.override(True):
                batched = measure_grid(GRID, SETTINGS)
        finally:
            if previous is None:
                os.environ.pop("REPRO_SERVE", None)
            else:
                os.environ["REPRO_SERVE"] = previous
        saw_speedup = False
        for reference, served in zip(percall, batched):
            assert served.success_rate == reference.success_rate
            assert served.mean_steps == reference.mean_steps
            assert served.mean_llm_calls == reference.mean_llm_calls
            assert served.mean_prompt_tokens == reference.mean_prompt_tokens
            assert served.mean_messages_sent == reference.mean_messages_sent
            assert served.message_usefulness == reference.message_usefulness
            assert served.mean_goal_progress == reference.mean_goal_progress
            # Latency may only move down; all-singleton cells agree to
            # rounding (deferred charges accumulate in flush order, so
            # the float summation order differs in the last ulp).
            assert (
                served.mean_sim_minutes < reference.mean_sim_minutes
                or served.mean_sim_minutes
                == pytest.approx(reference.mean_sim_minutes, rel=1e-9)
            )
            assert served.mean_batch_occupancy >= 1.0
            if served.mean_sim_minutes < reference.mean_sim_minutes * (1 - 1e-9):
                saw_speedup = True
                assert served.mean_batch_occupancy > 1.0
        # The grid's dialogue-heavy decentralized cells must benefit.
        assert saw_speedup

    def test_parallel_workers_match_optimized_serial(self):
        """REPRO_WORKERS=2 on the reference path == optimized serial.

        Workers read ``REPRO_HOTPATH`` from the environment at fork, so a
        dedicated pool is created inside the env override window.
        """
        small = GRID[:4]
        with hotpath.override(True):
            optimized_serial = measure_grid(small, SETTINGS)
        # Forked workers inherit the in-process flag; spawned workers
        # re-read the environment variable.  Set both, restoring after.
        previous_env = os.environ.get("REPRO_HOTPATH")
        previous_flag = hotpath.enabled()
        os.environ["REPRO_HOTPATH"] = "0"
        hotpath.set_enabled(False)
        try:
            executor = ParallelExecutor(max_workers=2)
            try:
                jobs_settings = replace(SETTINGS, executor="parallel", max_workers=2)
                # measure_grid resolves its executor through the settings;
                # build the jobs against the dedicated pool instead.
                from repro.core.metrics import aggregate
                from repro.experiments.common import _cell_jobs

                jobs, spans = [], []
                for cell in small:
                    cell_jobs = _cell_jobs(cell, jobs_settings)
                    spans.append(len(cell_jobs))
                    jobs.extend(cell_jobs)
                results = executor.run_jobs(jobs)
                aggregates, cursor = [], 0
                for span in spans:
                    aggregates.append(aggregate(results[cursor : cursor + span]))
                    cursor += span
            finally:
                executor.close()
        finally:
            if previous_env is None:
                os.environ.pop("REPRO_HOTPATH", None)
            else:
                os.environ["REPRO_HOTPATH"] = previous_env
            hotpath.set_enabled(previous_flag)
        assert aggregates == optimized_serial


def _facts(step: int, n: int, salt: str = "") -> tuple[Fact, ...]:
    return tuple(
        Fact(f"obj_{salt}{i}", "located_in", f"room_{(step + i) % 5}", step=step)
        for i in range(n)
    )


def _drive(module: MemoryModule, steps: int) -> list:
    """Feed a deterministic store/retrieve/forget schedule; return retrievals."""
    out = []
    for step in range(1, steps + 1):
        module.context.set_step(step)
        module.store_observation(_facts(step, 4))
        if step % 3 == 0:
            # Message facts carry older provenance: out-of-order steps.
            message = Message(
                sender="peer",
                recipients=("agent_0",),
                step=step,
                facts=_facts(max(0, step - 7), 2, salt="m"),
            )
            module.store_message(message)
        module.store_action(step, Subgoal("fetch", target=f"obj_{step % 6}"), step % 2 == 0)
        if step % 11 == 0:
            module.forget(f"obj_{step % 4}", "located_in")
        retrieved = module.retrieve(step)
        out.append(
            (
                retrieved.facts,
                retrieved.action_records,
                retrieved.dialogue,
                retrieved.scanned_entries,
                retrieved.confused,
            )
        )
    return out


def _module(capacity: int, dual: bool, seed: int) -> MemoryModule:
    context = ModuleContext(
        agent="agent_0",
        clock=SimClock(),
        metrics=MetricsCollector(workload="test", horizon=200),
        rng=np.random.default_rng(seed),
    )
    context.set_step(1)
    static = [Fact(f"wall_{i}", "located_in", "hall", step=0) for i in range(3)]
    return MemoryModule(context, capacity_steps=capacity, static_facts=static, dual=dual)


class TestMemoryRetrievalEquivalence:
    @pytest.mark.parametrize("capacity", [3, 10, 60])
    @pytest.mark.parametrize("dual", [False, True])
    def test_indexed_matches_linear(self, capacity, dual):
        """Same stores, same rng -> identical retrievals, step by step.

        capacity=60 over 70 steps crosses the confusion onset (window
        > 40 steps), exercising the confused-retrieval fallback with the
        shared rng draw order.
        """
        with hotpath.override(False):
            linear = _module(capacity, dual, seed=7)
            linear_charges = record_charges(linear.context.clock)
            reference = _drive(linear, steps=70)
        with hotpath.override(True):
            indexed = _module(capacity, dual, seed=7)
            indexed_charges = record_charges(indexed.context.clock)
            optimized = _drive(indexed, steps=70)
        assert optimized == reference
        # Modeled retrieval latency (Fig. 5) must be untouched too.
        assert indexed.context.clock.now == linear.context.clock.now
        assert indexed_charges == linear_charges

    def test_confusion_draws_occurred(self):
        """The capacity=60 schedule actually hits confused retrievals."""
        with hotpath.override(True):
            module = _module(60, dual=False, seed=7)
            retrievals = _drive(module, steps=70)
        assert any(confused for *_rest, confused in retrievals)

    def test_beliefs_equivalent(self):
        with hotpath.override(False):
            linear = _module(10, False, seed=3)
            _drive(linear, steps=30)
            reference = linear.beliefs(30, _facts(30, 4), "room_0")
        with hotpath.override(True):
            indexed = _module(10, False, seed=3)
            _drive(indexed, steps=30)
            optimized = indexed.beliefs(30, _facts(30, 4), "room_0")
        assert optimized.facts() == reference.facts()

    def test_dialogue_window_equivalent(self):
        with hotpath.override(False):
            linear = _module(5, False, seed=5)
            _drive(linear, steps=25)
        with hotpath.override(True):
            indexed = _module(5, False, seed=5)
            _drive(indexed, steps=25)
        assert indexed.dialogue_window(25) == linear.dialogue_window(25)


class TestPromptEquivalence:
    def test_builder_sections_identical(self):
        """Fast additive accounting == reference re-tokenization."""
        from repro.core.types import Candidate, Observation

        observation = Observation(
            agent="a0",
            step=4,
            position="kitchen",
            facts=_facts(4, 3),
        )
        memory_facts = list(_facts(2, 5))
        messages = [
            Message(sender=f"a{i}", recipients=("a0",), step=i, facts=_facts(i, 2))
            for i in range(6)
        ]
        candidates = [
            Candidate(subgoal=Subgoal("fetch", target=f"obj_{i}"), utility=1.0)
            for i in range(12)
        ]

        def build():
            return (
                PromptBuilder(system_text="be a planner", task_text="tidy the house")
                .observation(observation)
                .memory(memory_facts)
                .dialogue(messages)
                .candidates(candidates)
                .build()
            )

        with hotpath.override(False):
            reference = build()
        with hotpath.override(True):
            optimized = build()
        assert optimized.sections == reference.sections
        assert optimized.tokens == reference.tokens
        assert optimized.tokens_by_section() == reference.tokens_by_section()
        assert optimized.render() == reference.render()
