"""Step-batched delivery bus: staged message delivery for the hot path.

The seed delivers every :class:`~repro.core.types.Message` to every
receiver *inline*: one ``Agent.receive_message`` per (message, receiver)
pair, each performing its own belief merge and its own dialogue-memory
write while the dialogue phase is still composing later messages.  The bus
restructures that fan-out without changing a byte of what is observed:

- **stage** (at compose time) appends the message to each receiver's
  step dialogue — later composes must still see it in their prompts — and
  charges the modeled ``store_dialogue`` latency through
  :meth:`repro.core.modules.memory.MemoryModule.stage_message` at exactly
  the point on the virtual clock the per-delivery path charged it.  It
  also memoizes the message's prompt token count once, for every
  dialogue window that will render it.  No belief or memory-index work
  happens yet.
- **flush** (once per phase, before anything reads beliefs again) builds
  every receiver's inbox in one pass over the staged messages' recipient
  tuples, then gives each receiver *one* batched belief merge over its
  concatenated delivery stream
  (:meth:`repro.core.beliefs.Beliefs.update_batch`, in delivery order, so
  per-message novelty — the paper's usefulness metric — is counted
  identically) and *one* batched dialogue-memory commit
  (:meth:`repro.core.modules.memory.MemoryModule.commit_staged_messages`,
  a single merge into the receiver's slot table).  Message-usefulness
  counters are then recorded per staged message, in send order.

Per (message, receiver) pair that leaves what the model needs: one clock
charge, one belief merge, one memory-index merge.

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

from typing import TYPE_CHECKING

from repro.core.modules.communication import CommunicationModule
from repro.core.types import Message
from repro.llm.prompt import piece_tokens

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.agent import EmbodiedAgent, PerceptionBundle
    from repro.core.metrics import MetricsCollector


class DeliveryBus:
    """Collects one step's message deliveries and applies them in batch."""

    def __init__(
        self, agents: "list[EmbodiedAgent]", metrics: "MetricsCollector"
    ) -> None:
        self._agents = {agent.name: agent for agent in agents}
        self._metrics = metrics
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
        receivers in (the loops build ``message.recipients`` that way), so
        the per-receiver ``store_dialogue`` charges land on the virtual
        clock in the seed's exact sequence.  The message's prompt token
        count is memoized here, once, for every dialogue window that will
        render it.
        """
        piece_tokens(message)
        agents = self._agents
        for name in message.recipients:
            bundles[name].dialogue.append(message)
            agent = agents[name]
            if agent.memory is not None:
                agent.memory.stage_message(message)
            else:
                agent.state.step_dialogue.append(message)
        self._staged.append(message)
        self.staged_deliveries += len(message.recipients)

    def flush(self, bundles: "dict[str, PerceptionBundle]") -> None:
        """Apply every staged delivery: one batched merge per receiver.

        One pass over the staged messages' recipient tuples builds each
        receiver's inbox in delivery order — payload facts then intent
        facts per message, exactly as ``receive_message`` interleaved
        them — so each payload sees the same prior belief state as on the
        per-delivery path and novelty counts agree exactly.  Usefulness is
        then recorded per message (summed over its receivers) in send
        order.
        """
        staged = self._staged
        if not staged:
            return
        self._staged = []
        # receiver -> (staged message indices, interleaved fact chunks)
        inboxes: dict[str, tuple[list[int], list]] = {}
        for index, message in enumerate(staged):
            payload = message.facts
            intent = CommunicationModule.intent_facts(message)
            for name in message.recipients:
                inbox = inboxes.get(name)
                if inbox is None:
                    inbox = inboxes[name] = ([], [])
                inbox[0].append(index)
                inbox[1].extend((payload, intent))
        novel_totals = [0] * len(staged)
        agents = self._agents
        for name, (indices, chunks) in inboxes.items():
            counts = bundles[name].beliefs.update_batch(chunks)
            # Even positions are payload chunks; intent merges (odd
            # positions) never count toward novelty, as in the seed.
            for index, novel in zip(indices, counts[::2]):
                novel_totals[index] += novel
            memory = agents[name].memory
            if memory is not None:
                memory.commit_staged_messages()
        for novel_total in novel_totals:
            self._metrics.record_message(useful=novel_total > 0)
