"""Step-batched delivery bus: staged message delivery for the hot path.

The seed delivers every :class:`~repro.core.types.Message` to every
receiver *inline*: one ``Agent.receive_message`` per (message, receiver)
pair, each performing its own belief merge and its own dialogue-memory
write while the dialogue phase is still composing later messages.  The bus
restructures that fan-out without changing a byte of what is observed:

- **stage** (at compose time) appends the message to each receiver's
  step dialogue — later composes must still see it in their prompts —
  queues it with each receiver's memory
  (:meth:`repro.core.modules.memory.MemoryModule.stage_message`), and
  charges the receivers' modeled ``store_dialogue`` latencies with one
  :meth:`repro.core.clock.SimClock.advance_repeated` call, at exactly
  the point on the virtual clock, and with exactly the float additions,
  of the per-delivery path.  It also memoizes the message's prompt token
  count once, for every dialogue window that will render it.  No belief
  or memory-index work happens yet.
- **flush** (once per phase, before anything reads beliefs again) first
  does, once, the work that is the same for every receiver.  A message
  that repeats an earlier message of the same flush — same sender,
  recipients, step, payload tuple (by identity) and intent, as the
  multi-round dialogue phase re-sends it — is a *re-send*.  Every
  receiver of a re-send already merged the same facts earlier in the
  flush, and since then its slots only moved to equal-or-newer steps, so
  re-merging a fact can change a slot (or count as novel) only if some
  fact of the flush carries a different value for that key at the same
  step.  The bus collects those conflicting keys, and a re-send keeps
  only its facts on them — usually none.  The flush then builds every
  receiver's inbox in delivery order and gives each receiver *one* fused pass
  (:meth:`repro.core.modules.memory.MemoryModule.commit_staged_messages`)
  that merges each kept fact into the receiver's step beliefs (counting
  novelty — the paper's usefulness metric — exactly as the per-delivery
  path does) and into its memory slot table together.  Message
  usefulness is then recorded per staged message, in send order.

Per (message, receiver) pair that leaves a dialogue append and a
staging append, plus an inbox entry and the merge of the message's kept
facts — which most re-sends skip; the clock is called once per message.

Safe deferral rests on a property of the step pipeline: between a
delivery and the end of its phase, the only delivery-derived state anyone
reads is the receiver's step dialogue (compose prompts).  Beliefs are
next read by planning, memory by the next retrieval — both after the
flush points the paradigm loops install.  The memory module's read paths
guard against a forgotten flush.

The bus exists only on the optimized path (``REPRO_HOTPATH``); the seed
per-delivery fan-out remains the reference implementation in
:meth:`repro.core.paradigms.base.ParadigmLoop.deliver_message`.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING

from repro.core.clock import ModuleName, SimClock
from repro.core.modules.communication import CommunicationModule
from repro.core.modules.memory import STORE_SECONDS
from repro.core.types import Fact, Message
from repro.llm.prompt import piece_tokens

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.agent import EmbodiedAgent, PerceptionBundle
    from repro.core.metrics import MetricsCollector

#: One message's facts still to merge: (payload facts, intent facts).
Delivery = tuple[tuple[Fact, ...], list[Fact]]


class DeliveryBus:
    """Collects one step's message deliveries and applies them in batch."""

    def __init__(
        self,
        agents: "list[EmbodiedAgent]",
        metrics: "MetricsCollector",
        clock: SimClock,
    ) -> None:
        self._agents = {agent.name: agent for agent in agents}
        self._metrics = metrics
        #: The loop's clock, which every receiver's memory charges.
        self._clock = clock
        self._staged: list[Message] = []
        #: Lifetime (message, receiver) pairs staged — an engagement
        #: counter for tests and diagnostics, never read by the pipeline.
        self.staged_deliveries = 0

    @property
    def pending(self) -> int:
        """Messages staged and not yet flushed."""
        return len(self._staged)

    def stage(
        self, message: Message, bundles: "dict[str, PerceptionBundle]"
    ) -> None:
        """Record one message for every recipient, deferring the merges.

        Recipient order is the order the per-delivery path iterated
        receivers in (the loops build ``message.recipients`` that way).
        Nothing else touches the clock between those receivers' stores,
        so charging every memory-owning receiver's ``store_dialogue`` in
        one batched call after the loop lands the seed's exact charges.
        The message's prompt token count is memoized here, once, for
        every dialogue window that will render it.
        """
        piece_tokens(message)
        agents = self._agents
        stores = 0
        for name in message.recipients:
            bundles[name].dialogue.append(message)
            agent = agents[name]
            if agent.memory is not None:
                agent.memory.stage_message(message)
                stores += 1
            else:
                agent.state.step_dialogue.append(message)
        self._clock.advance_repeated(
            STORE_SECONDS, stores, ModuleName.MEMORY, "store_dialogue"
        )
        self._staged.append(message)
        self.staged_deliveries += len(message.recipients)

    def flush(self, bundles: "dict[str, PerceptionBundle]") -> None:
        """Apply every staged delivery: one fused merge per receiver.

        Each receiver's inbox lists, in delivery order, the messages that
        still have facts to merge — payload facts then intent facts per
        message, exactly as ``receive_message`` interleaved them — so
        each payload sees the same prior belief state as on the
        per-delivery path and novelty counts agree exactly.  Usefulness
        is then recorded per message (summed over its receivers) in send
        order.
        """
        staged = self._staged
        if not staged:
            return
        self._staged = []
        deliveries = _kept_facts(staged)
        # receiver -> (staged indices, deliveries) of the messages that
        # still have facts to merge, in delivery order
        inboxes: dict[str, tuple[list[int], list[Delivery]]] = {}
        for index, message in enumerate(staged):
            delivery = deliveries[index]
            for name in message.recipients:
                inbox = inboxes.get(name)
                if inbox is None:
                    inbox = inboxes[name] = ([], [])
                if delivery is not None:
                    inbox[0].append(index)
                    inbox[1].append(delivery)
        novel_totals = [0] * len(staged)
        agents = self._agents
        for name, (indices, inbox) in inboxes.items():
            beliefs = bundles[name].beliefs
            memory = agents[name].memory
            if memory is not None:
                counts = memory.commit_staged_messages(beliefs, inbox)
            else:
                # Even positions are payload chunks; intent merges (odd
                # positions) never count toward novelty, as in the seed.
                counts = beliefs.update_batch(chain.from_iterable(inbox))[::2]
            for index, novel in zip(indices, counts):
                novel_totals[index] += novel
        for novel_total in novel_totals:
            self._metrics.record_message(useful=novel_total > 0)


def _kept_facts(staged: list[Message]) -> list[Delivery | None]:
    """Per staged message, the payload and intent facts worth merging.

    An original message keeps all of its facts.  A re-send — same
    sender, recipients, step, payload tuple and intent as an earlier
    message of the flush — keeps only its facts on keys that carry two
    different values at one step somewhere in the flush: re-merging any
    other fact its receivers already merged is not novel and leaves the
    slot's value and step as they are.  ``None`` marks a message with
    nothing left to merge.
    """
    deliveries: list[Delivery | None] = []
    resends: list[tuple[int, int]] = []
    originals: dict[tuple, int] = {}
    values: dict[tuple[str, str, int], str] = {}
    conflicts: set[tuple[str, str]] = set()
    for index, message in enumerate(staged):
        signature = (
            message.sender,
            message.recipients,
            message.step,
            id(message.facts),
            message.intent,
        )
        first = originals.setdefault(signature, index)
        if first != index:
            resends.append((index, first))
            deliveries.append(None)
            continue
        intents = CommunicationModule.intent_facts(message)
        for fact in chain(message.facts, intents):
            value = values.setdefault(
                (fact.subject, fact.relation, fact.step), fact.value
            )
            if value != fact.value:
                conflicts.add((fact.subject, fact.relation))
        has_facts = message.facts or intents
        deliveries.append((message.facts, intents) if has_facts else None)
    if not conflicts:
        return deliveries
    for index, first in resends:
        original = deliveries[first]
        if original is None:
            continue
        payload = tuple(
            fact for fact in original[0] if (fact.subject, fact.relation) in conflicts
        )
        intents = [
            fact for fact in original[1] if (fact.subject, fact.relation) in conflicts
        ]
        if payload or intents:
            deliveries[index] = (payload, intents)
    return deliveries
