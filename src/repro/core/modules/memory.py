"""Memory module: observation, action, and dialogue stores.

Implements the paper's three memory categories (Sec. II-A) with a
step-count retention window — the capacity axis of Fig. 5:

- retrieval latency grows linearly with the number of scanned entries,
- beliefs are reconstructed newest-wins from retained observations,
- very large stores suffer *confused recall*: occasionally an older value
  wins a slot, reproducing the memory-inconsistency decline at high
  capacity,
- the ``dual`` option (Recommendation 5) keeps static facts in a long-term
  store exempt from scanning and confusion, shrinking both latency and
  inconsistency.

The module also applies *negative evidence*: if the agent is at a location
where memory says an object should be, but the current observation does
not show it, the stale belief is dropped — the perception-level correction
that keeps no-reflection agents from looping forever.

Hot-path retrieval (:mod:`repro.core.hotpath`): the *modeled* retrieval
latency is unchanged — it is still ``base + per_entry × scanned`` over the
same scanned-entry count, so Fig. 5's curves are byte-identical — but the
*host* cost of producing a retrieval no longer re-scans the whole episode
history every step.  Observations keep one slot table (the newest fact
per ``(subject, relation)``: highest step, ties to the later insert — the
same newest-wins rule :class:`~repro.core.beliefs.Beliefs` applies, which
is also what makes the table's merge count message novelty) plus a sorted
mirror of its keys and a per-step count table, so newest-wins resolution
is O(#slots) and the scanned-entry count is O(1) amortized; action and
dialogue stores append in non-decreasing step order, so their retention
windows are bisected, not filtered.  Confused retrievals (and any
out-of-order access the guards detect) fall back to the seed's linear
scan, which stays byte-identical by construction.

Step-batched deliveries (:mod:`repro.core.bus`): on the bus path a
message's modeled store latency is charged by the bus when it stages the
message (the seed's clock position) while its dialogue/observation
writes wait for one :meth:`commit_staged_messages` per step — entry for
entry the state :meth:`store_message` would have produced.  The commit
is one fused pass that merges each fact the bus kept into the
receiver's step beliefs and the slot table together.  Read paths refuse to serve
while deliveries are staged.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Sequence

from repro.core import hotpath
from repro.core.beliefs import Beliefs
from repro.core.clock import ModuleName
from repro.core.modules.base import ModuleContext
from repro.core.types import Fact, Message, Subgoal, _memo_describe

#: Retrieval latency model: fixed overhead + per-scanned-entry cost.
RETRIEVE_BASE_SECONDS = 0.02
RETRIEVE_PER_ENTRY_SECONDS = 0.0012
STORE_SECONDS = 0.006

_FACTS = attrgetter("facts")
_STEP = attrgetter("step")

#: Confused-recall model: when the retention window stretches past this
#: many steps of history, a retrieval may resolve one belief slot to an
#: outdated value (the paper's memory inconsistency at large capacities).
CONFUSION_ONSET_STEPS = 40
CONFUSION_PROB_PER_STEP = 0.035
CONFUSION_PROB_CAP = 0.5


@dataclass(frozen=True)
class ActionRecord:
    """One entry of action memory."""

    step: int
    subgoal: Subgoal
    success: bool

    def describe(self) -> str:
        cached = self.__dict__.get("_described")
        if cached is not None:
            return cached
        outcome = "succeeded" if self.success else "failed"
        text = f"at step {self.step} you chose to {self.subgoal.describe()} and it {outcome}"
        return _memo_describe(self, text)


@dataclass(frozen=True)
class RetrievedMemory:
    """What one retrieval pass hands to the planner."""

    facts: list[Fact]
    action_records: list[ActionRecord]
    dialogue: list[Message]
    scanned_entries: int
    confused: bool


class MemoryModule:
    """Windowed observation/action/dialogue memory with retrieval costs."""

    def __init__(
        self,
        context: ModuleContext,
        capacity_steps: int,
        static_facts: list[Fact],
        dual: bool = False,
    ) -> None:
        if capacity_steps < 1:
            raise ValueError(f"capacity_steps must be >= 1: {capacity_steps}")
        self.context = context
        self.capacity_steps = capacity_steps
        self.dual = dual
        self._static = list(static_facts)
        self._observations: list[Fact] = []
        self._actions: list[ActionRecord] = []
        self._dialogue: list[Message] = []
        #: Newest-wins slot table over _observations: counts message
        #: novelty on ingestion and, on the fast path, serves resolution.
        self._slot_index = Beliefs()
        # --- hot-path indices (maintained only when the fast path is on) ---
        self._fast = hotpath.enabled()
        #: The slot table's keys kept in sorted order (maintained by insort
        #: on first sight, removal on :meth:`forget`), so newest-wins
        #: resolution emits its sorted output without a per-retrieve sort.
        self._sorted_slot_keys: list[tuple[str, str]] = []
        #: #observations per fact step, for O(1) window-size accounting.
        self._obs_step_counts: Counter[int] = Counter()
        #: Window-eviction accumulator: #observations with step below
        #: ``_evict_start`` (the window start already accounted for).
        self._evict_start = 0
        self._evicted_obs = 0
        #: Append-order step columns of the action/dialogue stores plus a
        #: monotonicity guard; bisecting them is only valid while sorted.
        self._action_steps: list[int] = []
        self._dialogue_steps: list[int] = []
        self._steps_sorted = True
        #: Static facts pre-assembled as a belief base, copied per step.
        self._static_beliefs = Beliefs.from_facts(self._static)
        #: Step-batched delivery bus staging (hot path only): messages
        #: whose store latency is already charged but whose writes are
        #: deferred to one batched :meth:`commit_staged_messages`.
        self._staged_messages: list[Message] = []

    # ------------------------------------------------------------------ #
    # Stores
    # ------------------------------------------------------------------ #

    def store_observation(self, facts: tuple[Fact, ...]) -> None:
        self._observations.extend(facts)
        if self._fast:
            self._index_facts(facts)
        else:
            self._slot_index.update(facts)
        self._charge(STORE_SECONDS, "store_observation")

    def store_action(self, step: int, subgoal: Subgoal, success: bool) -> None:
        self._actions.append(ActionRecord(step=step, subgoal=subgoal, success=success))
        if self._fast:
            if self._action_steps and step < self._action_steps[-1]:
                self._steps_sorted = False
            self._action_steps.append(step)
        self._charge(STORE_SECONDS, "store_action")

    def store_message(self, message: Message) -> int:
        """Log a message into dialogue memory; returns #novel payload facts."""
        self._dialogue.append(message)
        self._observations.extend(message.facts)
        if self._fast:
            if self._dialogue_steps and message.step < self._dialogue_steps[-1]:
                self._steps_sorted = False
            self._dialogue_steps.append(message.step)
            novel = self._index_facts(message.facts)
        else:
            novel = self._slot_index.update(message.facts)
        self._charge(STORE_SECONDS, "store_dialogue")
        return novel

    # ------------------------------------------------------------------ #
    # Step-batched delivery staging (repro.core.bus)
    # ------------------------------------------------------------------ #

    def stage_message(self, message: Message) -> None:
        """Queue one delivered message for the step's batched commit.

        The bus path of the delivery pipeline: the dialogue/observation
        index writes wait until the whole step's deliveries are known.
        The modeled ``store_dialogue`` latency is not charged here — the
        bus charges every receiver's store of a message in one clock call
        at this point of the virtual timeline.  Every stage must be
        followed by :meth:`commit_staged_messages` before the next
        retrieval — the read paths guard against forgotten commits.
        """
        self._staged_messages.append(message)

    def commit_staged_messages(
        self,
        beliefs: Beliefs,
        deliveries: list[tuple[Sequence[Fact], Sequence[Fact]]],
    ) -> list[int]:
        """Apply all staged deliveries in one pass; per-message novelty.

        ``deliveries`` holds, in delivery order, the payload facts and
        intent facts of the staged messages that still need merging: the
        bus drops a verbatim re-send's facts wherever re-merging them
        cannot change a slot.  Each payload fact is merged into
        ``beliefs`` (the receiver's step beliefs, counting novelty as
        :meth:`Beliefs.update` does) and into the slot table, with its
        key built once; intent facts go into ``beliefs`` only.  The
        dialogue log, the observation store and its per-step window
        counts get every staged message, re-sends included, entry for
        entry as per-message :meth:`store_message` calls would have
        left them.  The bus runs only on the hot
        path, so the fast-path indices are kept unconditionally.
        Returns each delivery's novel payload facts, as
        ``receive_message`` would have counted them.
        """
        staged = self._staged_messages
        if not staged:
            return []
        self._staged_messages = []
        self._dialogue.extend(staged)
        facts = list(chain.from_iterable(map(_FACTS, staged)))
        self._observations.extend(facts)
        dialogue_steps = self._dialogue_steps
        steps = list(map(_STEP, staged))
        # A step descent anywhere (at the commit boundary or inside it)
        # turns off the bisected retention windows.
        if (dialogue_steps and steps[0] < dialogue_steps[-1]) or any(
            map(int.__gt__, steps, steps[1:])
        ):
            self._steps_sorted = False
        dialogue_steps.extend(steps)
        # Window accounting counts every delivered fact, re-sends included.
        totals = self._obs_step_counts
        evict_start = self._evict_start
        for step, count in Counter(map(_STEP, facts)).items():
            totals[step] += count
            if step < evict_start:
                self._evicted_obs += count

        held = beliefs._slots
        held_get = held.get
        slots = self._slot_index._slots
        get = slots.get
        sorted_keys = self._sorted_slot_keys
        novelty = []
        for payload, intents in deliveries:
            novel = 0
            for fact in payload:
                key = (fact.subject, fact.relation)
                step = fact.step
                existing = held_get(key)
                if existing is None:
                    novel += 1
                    held[key] = fact
                elif step >= existing.step:
                    if existing.value != fact.value:
                        novel += 1
                    held[key] = fact
                existing = get(key)
                if existing is None:
                    slots[key] = fact
                    insort(sorted_keys, key)
                elif step >= existing.step:
                    slots[key] = fact
            novelty.append(novel)
            for fact in intents:
                key = (fact.subject, fact.relation)
                existing = held_get(key)
                if existing is None or fact.step >= existing.step:
                    held[key] = fact
        return novelty

    def _index_facts(self, facts) -> int:
        """Merge a batch of facts into the fast-path indices; returns novelty.

        One loop maintains the newest-wins slot table (the rule and the
        novelty count of :meth:`Beliefs.update`), the sorted key mirror,
        and the per-step counts, with every table lookup bound once per
        batch — a frame or a message payload.
        """
        step_counts = self._obs_step_counts
        evict_start = self._evict_start
        slots = self._slot_index._slots
        get = slots.get
        sorted_keys = self._sorted_slot_keys
        evicted = 0
        novel = 0
        for fact in facts:
            step = fact.step
            step_counts[step] += 1
            if step < evict_start:
                evicted += 1
            key = (fact.subject, fact.relation)
            existing = get(key)
            if existing is None:
                novel += 1
                slots[key] = fact
                insort(sorted_keys, key)
            elif step >= existing.step:
                # Message facts can carry older provenance; only an
                # at-least-as-recent fact takes the slot (ties go to the
                # later insert, as in the reference's stable sort).
                if existing.value != fact.value:
                    novel += 1
                slots[key] = fact
        if evicted:
            self._evicted_obs += evicted
        return novel

    # ------------------------------------------------------------------ #
    # Retrieval
    # ------------------------------------------------------------------ #

    def _window_start(self, step: int) -> int:
        return max(0, step - self.capacity_steps)

    def retrieve(self, step: int) -> RetrievedMemory:
        """Fetch everything within the retention window, with latency."""
        if self._staged_messages:
            raise RuntimeError(
                "staged message deliveries must be committed before retrieval "
                "(DeliveryBus.flush was not called)"
            )
        start = self._window_start(step)
        if self._fast and self._steps_sorted:
            return self._retrieve_indexed(step, start)
        return self._retrieve_linear(step, start)

    def _retrieve_linear(self, step: int, start: int) -> RetrievedMemory:
        """The seed implementation: full scans of every store."""
        observations = [fact for fact in self._observations if fact.step >= start]
        actions = [record for record in self._actions if record.step >= start]
        dialogue = [message for message in self._dialogue if message.step >= start]
        scanned = len(observations) + len(actions) + len(dialogue)
        if not self.dual:
            scanned += len(self._static)
        latency = RETRIEVE_BASE_SECONDS + RETRIEVE_PER_ENTRY_SECONDS * scanned
        self._charge(latency, "retrieve")

        confused = self._draw_confusion(step)
        facts = self._resolve_slots(observations, confused)
        return RetrievedMemory(
            facts=facts,
            action_records=actions,
            dialogue=dialogue,
            scanned_entries=scanned,
            confused=confused,
        )

    def _retrieve_indexed(self, step: int, start: int) -> RetrievedMemory:
        """Index-served retrieval: same scanned count, same modeled latency."""
        scanned = self._observations_in_window(start)
        actions = self._actions[bisect_left(self._action_steps, start) :]
        dialogue = self._dialogue[bisect_left(self._dialogue_steps, start) :]
        scanned += len(actions) + len(dialogue)
        if not self.dual:
            scanned += len(self._static)
        latency = RETRIEVE_BASE_SECONDS + RETRIEVE_PER_ENTRY_SECONDS * scanned
        self._charge(latency, "retrieve")

        confused = self._draw_confusion(step)
        if confused:
            # Confusion needs the full in-window history (which slots are
            # contested, in first-occurrence order); take the exact seed
            # path so the extra rng draw sees identical inputs.
            window = [fact for fact in self._observations if fact.step >= start]
            facts = self._resolve_slots(window, confused=True)
        else:
            facts = self._resolve_from_index(start)
        return RetrievedMemory(
            facts=facts,
            action_records=actions,
            dialogue=dialogue,
            scanned_entries=scanned,
            confused=confused,
        )

    def _draw_confusion(self, step: int) -> bool:
        """One rng draw shared by both retrieval paths (same draw order)."""
        window_steps = min(step, self.capacity_steps)
        overflow = window_steps - CONFUSION_ONSET_STEPS
        if overflow > 0 and not self.dual:
            probability = min(CONFUSION_PROB_CAP, overflow * CONFUSION_PROB_PER_STEP)
            return bool(self.context.rng.random() < probability)
        return False

    def _observations_in_window(self, start: int) -> int:
        """#stored observation facts with ``step >= start`` in O(1) amortized.

        The retention window's start is non-decreasing over an episode, so
        evicted counts accumulate; a backwards query (tests may probe one)
        recounts from the per-step table instead of corrupting the
        accumulator.
        """
        if start >= self._evict_start:
            for evicted_step in range(self._evict_start, start):
                self._evicted_obs += self._obs_step_counts.get(evicted_step, 0)
            self._evict_start = start
            below = self._evicted_obs
        else:
            below = sum(
                count for s, count in self._obs_step_counts.items() if s < start
            )
        return len(self._observations) - below

    def _resolve_from_index(self, start: int) -> list[Fact]:
        """Newest-wins resolution straight from the slot table.

        A slot's newest fact overall is also its newest *in-window* fact
        whenever it is in the window at all (the window is a suffix of the
        step axis), so resolution never needs older entries.  Walking
        the sorted key mirror emits the facts already in the reference
        path's ``(subject, relation)`` output order (slot keys are
        unique, so sortedness alone pins the order).
        """
        slots = self._slot_index._slots
        resolved = []
        append = resolved.append
        for key in self._sorted_slot_keys:
            fact = slots[key]
            if fact.step >= start:
                append(fact)
        return resolved

    def _resolve_slots(self, observations: list[Fact], confused: bool) -> list[Fact]:
        """Newest-wins slot resolution; confusion lets one old value win.

        "Newest" means highest fact step, not append order: facts learned
        via messages carry the sender's (possibly older) provenance and
        must not shadow fresher first-hand observations.
        """
        history: dict[tuple[str, str], list[Fact]] = {}
        for fact in observations:
            history.setdefault(fact.key(), []).append(fact)
        for entries in history.values():
            entries.sort(key=lambda fact: fact.step)
        resolved = {key: entries[-1] for key, entries in history.items()}
        if confused:
            contested = [
                key
                for key, entries in history.items()
                if len({entry.value for entry in entries}) > 1
            ]
            if contested:
                key = contested[int(self.context.rng.integers(len(contested)))]
                resolved[key] = history[key][0]  # stale value wins
        return sorted(resolved.values(), key=lambda fact: (fact.subject, fact.relation))

    # ------------------------------------------------------------------ #
    # Beliefs
    # ------------------------------------------------------------------ #

    def beliefs(
        self,
        step: int,
        current_facts: tuple[Fact, ...],
        position: str,
        retrieved: RetrievedMemory | None = None,
    ) -> Beliefs:
        """Static + retrieved + current facts, with negative evidence."""
        if retrieved is None:
            retrieved = self.retrieve(step)
        if self._fast:
            # Resolved facts hold one entry per slot with step >= 0, so
            # they always win against the static base (step 0); current
            # facts carry this step's provenance, so they win against
            # anything retrieved.  Plain dict merges equal Beliefs.update
            # for both.
            beliefs = self._static_beliefs.copy()
            beliefs.overwrite(retrieved.facts)
            beliefs.overwrite(current_facts)
        else:
            beliefs = Beliefs.from_facts(self._static)
            beliefs.update(retrieved.facts)
            beliefs.update(current_facts)
        visible_subjects = {fact.subject for fact in current_facts}
        for fact in list(beliefs):
            if (
                fact.relation == "located_in"
                and fact.value == position
                and fact.subject not in visible_subjects
            ):
                beliefs.forget(fact.subject, fact.relation)
        return beliefs

    def forget(self, subject: str, relation: str) -> None:
        """Belief repair (reflection): drop all stored facts for a slot."""
        key = (subject, relation)
        if self._fast:
            for fact in self._observations:
                if fact.key() == key:
                    self._obs_step_counts[fact.step] -= 1
                    if fact.step < self._evict_start:
                        self._evicted_obs -= 1
        if self._slot_index.forget(subject, relation) and self._fast:
            del self._sorted_slot_keys[bisect_left(self._sorted_slot_keys, key)]
        self._observations = [
            fact for fact in self._observations if fact.key() != key
        ]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def total_entries(self) -> int:
        return len(self._observations) + len(self._actions) + len(self._dialogue)

    def dialogue_window(self, step: int) -> list[Message]:
        if self._staged_messages:
            raise RuntimeError(
                "staged message deliveries must be committed before reading "
                "the dialogue window (DeliveryBus.flush was not called)"
            )
        start = self._window_start(step)
        if self._fast and self._steps_sorted:
            return self._dialogue[bisect_left(self._dialogue_steps, start) :]
        return [message for message in self._dialogue if message.step >= start]

    def _charge(self, seconds: float, phase: str) -> None:
        self.context.clock.advance(seconds, ModuleName.MEMORY, phase=phase)
