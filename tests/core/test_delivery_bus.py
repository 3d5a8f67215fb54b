"""Unit coverage for the step-batched delivery pipeline (hot-path phase 3).

The episode-level byte-identity of the bus is asserted by the golden
equivalence suite; these tests pin the component contracts it rests on:
batched belief merges count novelty exactly like sequential updates,
staged memory writes commit to the same state as inline stores (also as
a property over random delivery streams, against the per-message and
reference paths), read paths refuse to serve uncommitted staging, the
detector fast lanes leave
the rng stream bit-identical, and the sensing/position staging caches
invalidate when the world moves.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import clock as clock_mod
from repro.core import hotpath
from repro.core.agent import EmbodiedAgent, PerceptionBundle
from repro.core.beliefs import Beliefs
from repro.core.bus import DeliveryBus
from repro.core.clock import SimClock
from repro.core.metrics import MetricsCollector
from repro.core.modules.base import ModuleContext
from repro.core.modules.memory import MemoryModule
from repro.core.types import Fact, Message, Subgoal, TaskSpec
from repro.envs.tasks import make_task
from repro.envs.transport import TransportEnv
from repro.perception.detector import detect
from repro.perception.models import get_perception


def _facts(step: int, n: int, salt: str = "") -> tuple[Fact, ...]:
    return tuple(
        Fact(f"obj_{salt}{i}", "located_in", f"room_{(step + i) % 4}", step=step)
        for i in range(n)
    )


class TestUpdateBatch:
    def test_matches_sequential_updates(self):
        """Chunked merging counts novelty exactly like per-chunk update()."""
        chunks = [
            _facts(3, 4),
            _facts(2, 3, salt="x"),
            _facts(3, 4),  # repeat: nothing novel the second time
            _facts(5, 2),  # fresher provenance over the same slots
            (),
        ]
        sequential = Beliefs()
        expected = [sequential.update(chunk) for chunk in chunks]
        batched = Beliefs()
        counts = batched.update_batch(chunks)
        assert counts == expected
        assert batched.facts() == sequential.facts()

    def test_stale_chunk_never_overwrites(self):
        beliefs = Beliefs()
        beliefs.update(_facts(9, 2))
        counts = beliefs.update_batch([_facts(1, 2)])
        assert counts == [0]
        assert all(fact.step == 9 for fact in beliefs.facts())


def _memory(capacity: int = 20) -> MemoryModule:
    context = ModuleContext(
        agent="agent_0",
        clock=SimClock(),
        metrics=MetricsCollector(workload="test", horizon=50),
        rng=np.random.default_rng(11),
    )
    context.set_step(1)
    return MemoryModule(context, capacity_steps=capacity, static_facts=[], dual=False)


class TestStagedMemoryWrites:
    def test_stage_commit_equals_inline_stores(self):
        messages = [
            Message(sender="a1", recipients=("agent_0",), step=2, facts=_facts(2, 3)),
            Message(sender="a2", recipients=("agent_0",), step=2, facts=_facts(1, 2, "m")),
        ]
        with hotpath.override(True):
            inline = _memory()
            for message in messages:
                inline.store_message(message)
            staged = _memory()
            for message in messages:
                staged.stage_message(message)
            staged.commit_staged_messages()
            assert staged.context.clock.spans == inline.context.clock.spans
            inline.context.set_step(3)
            staged.context.set_step(3)
            assert staged.retrieve(3) == inline.retrieve(3)
            assert staged.dialogue_window(3) == inline.dialogue_window(3)

    def test_reads_refuse_uncommitted_staging(self):
        with hotpath.override(True):
            memory = _memory()
            memory.stage_message(
                Message(sender="a1", recipients=("agent_0",), step=1, facts=_facts(1, 1))
            )
            with pytest.raises(RuntimeError, match="staged"):
                memory.retrieve(1)
            with pytest.raises(RuntimeError, match="staged"):
                memory.dialogue_window(1)
            memory.commit_staged_messages()
            assert memory.retrieve(1).dialogue  # served again after commit


class _NoveltyLog(MemoryModule):
    """Memory that records what every per-message store reports as novel."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.novelty: list[int] = []

    def store_message(self, message: Message) -> int:
        novel = super().store_message(message)
        self.novelty.append(novel)
        return novel


class _UsefulnessLog:
    """Metrics stand-in that keeps the bus's per-message usefulness flags."""

    def __init__(self) -> None:
        self.flags: list[bool] = []

    def record_message(self, useful: bool) -> None:
        self.flags.append(useful)


#: agent_2 has no memory module, covering the bus's memoryless branch.
_RECEIVERS = ("agent_0", "agent_1", "agent_2")
_MEMORYLESS = "agent_2"
_SUBJECTS = ("mug", "box_1", "box_2")
_RELATIONS = ("located_in", "at_cell")
_VALUES = ("kitchen", "hall", "room_0")
#: (subject, relation, value, age): a fact ``age`` steps older than now.
_FACT = st.tuples(
    st.sampled_from(_SUBJECTS),
    st.sampled_from(_RELATIONS),
    st.sampled_from(_VALUES),
    st.integers(0, 6),
)
_MESSAGE = st.tuples(
    st.lists(_FACT, max_size=4),  # payload, with out-of-order provenance
    st.lists(st.sampled_from(_RECEIVERS), min_size=1, max_size=3, unique=True),
    st.sampled_from((None, "mug", "box_1")),  # intent target
    st.integers(0, 2),  # message step lag: > 0 can unsort the dialogue store
)
_STEP = st.tuples(
    st.lists(_FACT, max_size=4),  # the step's first-hand frame
    st.lists(_MESSAGE, max_size=5),
    st.none() | st.tuples(st.sampled_from(_SUBJECTS), st.sampled_from(_RELATIONS)),
)


def _stack(fast: bool, capacity: int):
    """Receivers (agent stand-ins), their bundles, under one hot-path mode."""
    agents, bundles = {}, {}
    with hotpath.override(fast):
        for name in _RECEIVERS:
            memory = None
            if name != _MEMORYLESS:
                context = ModuleContext(
                    agent=name,
                    clock=SimClock(),
                    metrics=MetricsCollector(workload="test", horizon=50),
                    rng=np.random.default_rng(5),
                )
                memory = _NoveltyLog(
                    context, capacity_steps=capacity, static_facts=[], dual=False
                )
            agents[name] = SimpleNamespace(
                name=name, memory=memory, state=SimpleNamespace(step_dialogue=[])
            )
            bundles[name] = PerceptionBundle(
                observation=None,
                current_facts=(),
                beliefs=Beliefs(),
                memory_facts=[],
                action_records=[],
                dialogue=[],
            )
    return agents, bundles


def _deliver_inline(agents, bundles, message: Message, flags: list[bool]) -> None:
    """The seed's per-delivery fan-out: one receive_message per receiver."""
    novel_total = 0
    for name in message.recipients:
        novel_total += EmbodiedAgent.receive_message(
            agents[name], message, bundles[name]
        )
    flags.append(novel_total > 0)


class TestDeliveryPathsAgree:
    """Bus staging, per-message stores and the reference path agree."""

    @settings(max_examples=150, deadline=None)
    @given(capacity=st.integers(1, 4), steps=st.lists(_STEP, min_size=1, max_size=10))
    def test_staged_inline_and_reference_paths_agree(self, capacity, steps):
        bus_agents, bus_bundles = _stack(True, capacity)
        inline_agents, inline_bundles = _stack(True, capacity)
        ref_agents, ref_bundles = _stack(False, capacity)
        bus_metrics = _UsefulnessLog()
        bus = DeliveryBus(list(bus_agents.values()), bus_metrics)
        inline_flags: list[bool] = []
        ref_flags: list[bool] = []
        paths = (
            (bus_agents, bus_bundles),
            (inline_agents, inline_bundles),
            (ref_agents, ref_bundles),
        )
        for step, (frame, messages, forget) in enumerate(steps, start=1):
            observed = tuple(
                Fact(subject, relation, value, step=step)
                for subject, relation, value, _age in frame
            )
            for agents, _ in paths:
                for agent in agents.values():
                    if agent.memory is not None:
                        agent.memory.context.set_step(step)
                        agent.memory.store_observation(observed)
            for payload, recipients, target, lag in messages:
                message = Message(
                    sender="peer",
                    recipients=tuple(sorted(recipients)),
                    step=step - lag,
                    facts=tuple(
                        Fact(subject, relation, value, step=max(0, step - age))
                        for subject, relation, value, age in payload
                    ),
                    intent=Subgoal("fetch", target=target) if target else None,
                )
                bus.stage(message, bus_bundles)
                _deliver_inline(inline_agents, inline_bundles, message, inline_flags)
                _deliver_inline(ref_agents, ref_bundles, message, ref_flags)
            bus.flush(bus_bundles)
            if forget is not None:
                for agents, _ in paths:
                    for agent in agents.values():
                        if agent.memory is not None:
                            agent.memory.forget(*forget)

            assert bus_metrics.flags == inline_flags == ref_flags
            for name in _RECEIVERS:
                staged, inline, ref = (agents[name] for agents, _ in paths)
                assert (
                    bus_bundles[name].beliefs
                    == inline_bundles[name].beliefs
                    == ref_bundles[name].beliefs
                )
                assert (
                    bus_bundles[name].dialogue
                    == inline_bundles[name].dialogue
                    == ref_bundles[name].dialogue
                )
                if staged.memory is None:
                    assert (
                        staged.state.step_dialogue
                        == inline.state.step_dialogue
                        == ref.state.step_dialogue
                    )
                    continue
                assert inline.memory.novelty == ref.memory.novelty
                assert (
                    staged.memory._slot_index
                    == inline.memory._slot_index
                    == ref.memory._slot_index
                )
                got = [agent.memory.retrieve(step) for agent in (staged, inline, ref)]
                for field in ("facts", "scanned_entries", "dialogue", "action_records"):
                    assert (
                        getattr(got[0], field)
                        == getattr(got[1], field)
                        == getattr(got[2], field)
                    ), field
                assert (
                    staged.memory.dialogue_window(step)
                    == inline.memory.dialogue_window(step)
                    == ref.memory.dialogue_window(step)
                )
                assert (
                    staged.memory.context.clock.spans
                    == inline.memory.context.clock.spans
                    == ref.memory.context.clock.spans
                )


class TestDetectorStreamIdentity:
    @pytest.mark.parametrize("profile_name", ["symbolic", "vit", "diffusion-world-model"])
    @pytest.mark.parametrize("distractors", [None, ["room_0", "room_1", "hall"]])
    def test_fast_lane_matches_reference(self, profile_name, distractors):
        """Same facts, same result, and — critically — same rng state after."""
        profile = get_perception(profile_name)
        ground = list(_facts(4, 12))
        with hotpath.override(False):
            rng_ref = np.random.default_rng(123)
            reference = detect(ground, profile, rng_ref, distractor_values=distractors)
        with hotpath.override(True):
            rng_fast = np.random.default_rng(123)
            fast = detect(ground, profile, rng_fast, distractor_values=distractors)
        assert fast == reference
        # The next draw of the episode's shared stream must be unaffected.
        assert rng_fast.random() == rng_ref.random()

    def test_perfect_detector_reports_frame_unchanged(self):
        profile = get_perception("symbolic")
        ground = list(_facts(7, 5))
        with hotpath.override(True):
            result = detect(ground, profile, np.random.default_rng(0), ["hall"])
        assert result.facts == tuple(ground)
        assert result.missed == 0 and result.mislabeled == 0


def _transport_env(n_agents: int = 3) -> TransportEnv:
    task: TaskSpec = make_task("transport", difficulty="easy", n_agents=n_agents, seed=4)
    return TransportEnv(task, np.random.default_rng(4))


class TestPositionStaging:
    def test_cached_positions_match_reference(self):
        with hotpath.override(True):
            fast_env = _transport_env()
        with hotpath.override(False):
            ref_env = _transport_env()
        fast_env.tick()
        ref_env.tick()
        for agent in fast_env.agents:
            assert fast_env.position_of(agent) == ref_env.position_of(agent)
            # second read is served from the stage cache, same value
            assert fast_env.position_of(agent) == ref_env.agent_position(agent)

    def test_tick_and_execute_invalidate(self):
        with hotpath.override(True):
            env = _transport_env()
        env.tick()
        agent = env.agents[0]
        before = env.position_of(agent)
        assert env._position_cache  # staged
        env.tick()
        assert not env._position_cache  # cleared per step
        env.position_of(agent)
        env.invalidate_positions()
        assert not env._position_cache
        # a manual world mutation after invalidation is observed
        env._agents[agent].cell = (0, 0)
        assert env.position_of(agent) == env.agent_position(agent)
        del before

    def test_observation_uses_staged_positions(self):
        with hotpath.override(True):
            fast_env = _transport_env()
        with hotpath.override(False):
            ref_env = _transport_env()
        fast_env.tick()
        ref_env.tick()
        for agent in fast_env.agents:
            fast_obs = fast_env.observation(agent, _facts(1, 2))
            ref_obs = ref_env.observation(agent, _facts(1, 2))
            assert fast_obs.position == ref_obs.position
            assert fast_obs.visible_agents == ref_obs.visible_agents


class TestCoarseSweepDefault:
    def _restore(self, previous_env: str | None, previous_flag: bool):
        if previous_env is None:
            os.environ.pop("REPRO_CLOCK", None)
        else:
            os.environ["REPRO_CLOCK"] = previous_env
        clock_mod.set_coarse(previous_flag)

    def test_defaults_to_coarse_when_unset(self):
        previous_env = os.environ.pop("REPRO_CLOCK", None)
        previous_flag = clock_mod.coarse_enabled()
        try:
            clock_mod.set_coarse(False)
            assert clock_mod.default_to_coarse_for_sweeps() is True
            assert os.environ["REPRO_CLOCK"] == "coarse"  # workers inherit
            assert clock_mod.coarse_enabled()
        finally:
            self._restore(previous_env, previous_flag)

    def test_explicit_span_mode_wins(self):
        previous_env = os.environ.get("REPRO_CLOCK")
        previous_flag = clock_mod.coarse_enabled()
        try:
            os.environ["REPRO_CLOCK"] = "span"
            clock_mod.set_coarse(False)
            assert clock_mod.default_to_coarse_for_sweeps() is False
            assert os.environ["REPRO_CLOCK"] == "span"
            assert not clock_mod.coarse_enabled()
        finally:
            self._restore(previous_env, previous_flag)


class TestComposePayloadStaging:
    def test_payload_staged_once_per_step(self):
        """Multi-round composes of one step reuse one sorted payload."""
        from repro.core.modules.communication import CommunicationModule
        from repro.core.seeding import rng_for
        from repro.llm.simulated import SimulatedLLM

        with hotpath.override(True):
            context = ModuleContext(
                agent="a0",
                clock=SimClock(),
                metrics=MetricsCollector(workload="test", horizon=10),
                rng=np.random.default_rng(3),
            )
            context.set_step(1)
            comm = CommunicationModule(
                context, SimulatedLLM("gpt-4", rng=rng_for(0, "a0", "comm"))
            )
            known = list(_facts(1, 6))
            first = comm.compose(1, ("a1",), known, intent=None, dialogue=[])
            second = comm.compose(1, ("a1",), known, intent=None, dialogue=[])
            assert first is not None and second is not None
            assert first.facts is second.facts  # the staged tuple, reused
            context.set_step(2)
            third = comm.compose(2, ("a1",), known, intent=None, dialogue=[])
            assert third is not None
            assert third.facts == first.facts  # same values, fresh step
