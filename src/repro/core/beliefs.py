"""The agent's belief state: what it currently thinks is true.

Beliefs are the read-side contract between the memory module (which owns
retention and retrieval) and the environment adapters (which enumerate
feasible subgoals against what the agent *knows*, not against ground
truth).  A belief slot is a ``(subject, relation)`` pair holding the most
recently learned value; contradicting facts overwrite older ones, and
stale beliefs — slots whose value no longer matches the world — are the
mechanism behind the paper's memory-inconsistency observations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.core.types import Fact


@dataclass
class Beliefs:
    """A mutable view of the agent's current knowledge."""

    _slots: dict[tuple[str, str], Fact] = field(default_factory=dict)

    @classmethod
    def from_facts(cls, facts: Iterable[Fact]) -> "Beliefs":
        beliefs = cls()
        beliefs.update(facts)
        return beliefs

    def update(self, facts: Iterable[Fact]) -> int:
        """Merge facts; *newer* facts win their slot.  Returns #novel facts.

        A fact is novel if its slot was absent, or it carries a different
        value with at-least-as-recent provenance — the counter implements
        the paper's message-usefulness metric.  Older conflicting facts
        (stale gossip from a teammate's outdated view) never overwrite
        fresher knowledge.
        """
        novel = 0
        slots = self._slots
        get = slots.get
        for fact in facts:
            key = (fact.subject, fact.relation)
            existing = get(key)
            if existing is None:
                novel += 1
                slots[key] = fact
            elif fact.step >= existing.step:
                if existing.value != fact.value:
                    novel += 1
                slots[key] = fact
        return novel

    def update_batch(self, chunks: Iterable[Iterable[Fact]]) -> list[int]:
        """Merge several fact chunks in order; returns per-chunk novelty.

        The delivery bus (:mod:`repro.core.bus`) merges one step's staged
        message payloads for a receiver without a memory module in one
        call, in delivery order.  Each chunk is counted exactly as a
        separate :meth:`update` call would have counted it — a chunk's
        facts see every earlier chunk already merged — so batched and
        per-delivery novelty (the paper's message-usefulness metric) agree
        fact for fact.  The win is purely host-side: one call and one
        bound slot table instead of one dict walk per delivery.
        """
        slots = self._slots
        get = slots.get
        counts: list[int] = []
        for chunk in chunks:
            novel = 0
            for fact in chunk:
                key = (fact.subject, fact.relation)
                existing = get(key)
                if existing is None:
                    novel += 1
                    slots[key] = fact
                elif fact.step >= existing.step:
                    if existing.value != fact.value:
                        novel += 1
                    slots[key] = fact
            counts.append(novel)
        return counts

    def overwrite(self, facts: Iterable[Fact]) -> None:
        """Bulk-merge facts that are guaranteed to win their slots.

        Equivalent to :meth:`update` when every incoming fact has a unique
        slot within ``facts`` and provenance at least as recent as the
        slot's current value — the contract of a newest-wins retrieval
        merged over a static belief base.  Skips the per-fact novelty
        bookkeeping (bulk callers don't read it), letting the merge run as
        one C-level dict update on the hot path.
        """
        self._slots.update(
            [((fact.subject, fact.relation), fact) for fact in facts]
        )

    def value(self, subject: str, relation: str) -> str | None:
        fact = self._slots.get((subject, relation))
        return fact.value if fact is not None else None

    def values_at(self, keys: Iterable[tuple[str, str]]) -> tuple[str | None, ...]:
        """Current values of several slots as one tuple (``None`` = unknown).

        The read-side fingerprint primitive of the incremental candidate
        cache (:mod:`repro.envs.candidates`): an environment lists the
        belief slots a candidate group depends on and compares the
        returned tuple across steps — one method call and one tuple
        compare instead of re-enumerating the group.  Provenance steps
        are deliberately excluded: affordances depend on what is believed,
        not on when it was learned.
        """
        slots = self._slots
        out = []
        for key in keys:
            fact = slots.get(key)
            out.append(fact.value if fact is not None else None)
        return tuple(out)

    def fact(self, subject: str, relation: str) -> Fact | None:
        return self._slots.get((subject, relation))

    def forget(self, subject: str, relation: str) -> bool:
        """Drop a slot (reflection's belief repair).  True if it existed."""
        return self._slots.pop((subject, relation), None) is not None

    def facts(self) -> list[Fact]:
        return list(self._slots.values())

    def subjects(self) -> set[str]:
        return {subject for subject, _relation in self._slots}

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._slots.values())

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._slots

    def copy(self) -> "Beliefs":
        return Beliefs(dict(self._slots))
