"""Structured prompt assembly with per-section token accounting.

A :class:`Prompt` is an ordered list of named sections (system preamble,
task description, current observation, retrieved memory, dialogue history,
candidate actions).  Sections keep their own token counts so experiments
can report *where* prompt growth comes from — the paper's Fig. 6 attributes
growth to repeated memory retrieval and concatenated multi-agent dialogue.

Hot-path accounting (:mod:`repro.core.hotpath`): a section's token count is
computed once at construction and a prompt's total is maintained
incrementally on ``add``, so reading ``Prompt.tokens`` on every simulated
LLM call never re-tokenizes the (growing) prompt text.  The builder goes
further on the optimized path: stable sections (system preambles, task
descriptions, fixed instructions) are interned and reused across steps and
episodes, and sections assembled from many rendered pieces (memory facts,
action histories, dialogue, candidates) are counted *additively* from
per-piece cached counts — valid because the estimator never merges tokens
across the space separator (see :mod:`repro.llm.tokenizer`) — instead of
re-tokenizing the joined text each step.  Memory, action-history and
dialogue sections count eagerly (one C-level sum over the pieces'
``_ptokens`` memos) but join their text lazily, on first read; so does
the observation section, whose text is the observation's rendering.  The
simulated LLM reads only token counts, so rendering is paid only by
callers that read the text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import Sequence

from repro.core import hotpath
from repro.core.types import Candidate, Fact, Message, Observation
from repro.envs.candidates import IdentityMemo, candidate_features
from repro.llm.tokenizer import count_tokens


@dataclass(frozen=True)
class PromptSection:
    """One named block of prompt text.

    ``tokens`` is part of the value and fixed at construction: pass a
    precomputed count when the caller already knows it (the incremental
    builder's additive accounting), or let ``__post_init__`` derive it
    from ``text``.  Either way the count equals ``count_tokens(text)``.

    A section built by :func:`_joined_section` holds its pieces instead of
    its text and joins them on the first read of ``text`` (``==``,
    ``repr``, ``hash`` and :meth:`Prompt.render` all read it), so it is
    indistinguishable from the eagerly joined section.
    """

    name: str
    text: str
    tokens: int = -1  # sentinel: derive from ``text``

    def __post_init__(self) -> None:
        if self.tokens < 0:
            object.__setattr__(self, "tokens", count_tokens(self.text))

    def __getattr__(self, name: str) -> str:
        # Reached only when normal lookup fails: a joined section's
        # ``text`` before its first read.
        pieces = self.__dict__.get("_pieces")
        if name != "text" or pieces is None:
            raise AttributeError(name)
        items, dotted = pieces
        described = [item.describe() for item in items]
        text = ". ".join(described) + "." if dotted else " ".join(described)
        self.__dict__["text"] = text
        return text


def _joined_section(
    name: str, items: Sequence, tokens: int, dotted: bool
) -> PromptSection:
    """A section whose text joins ``items``' renderings on first read.

    The text is the ``describe()`` renderings space-joined, each
    period-terminated when ``dotted``; ``tokens`` must be its count.
    ``items`` must not be mutated afterwards.
    """
    section = object.__new__(PromptSection)
    section.__dict__.update(name=name, tokens=tokens, _pieces=(items, dotted))
    return section


@lru_cache(maxsize=1024)
def intern_section(name: str, text: str) -> PromptSection:
    """Shared :class:`PromptSection` for stable (name, text) pairs.

    System preambles, task descriptions, and fixed instructions recur on
    every step of every episode; interning renders and tokenizes each
    exactly once per process.  The cache is bounded (distinct stable
    sections number in the dozens; 1024 leaves room for many custom
    workloads) and its entries are immutable, so sharing is safe.
    """
    return PromptSection(name=name, text=text)


@dataclass
class Prompt:
    """An ordered collection of prompt sections.

    The token total is maintained incrementally by :meth:`add` /
    :meth:`append_section`, which are the mutation API.  Out-of-band
    *growth or shrinkage* of ``sections`` (direct append/remove) is
    additionally detected by a length check and triggers a full recount;
    an in-place same-length *replacement* bypasses the guard — replace
    sections by rebuilding the prompt, not by item assignment.
    """

    sections: list[PromptSection] = field(default_factory=list)
    _total: int = field(default=0, init=False, repr=False, compare=False)
    _counted: int = field(default=0, init=False, repr=False, compare=False)

    def add(self, name: str, text: str) -> "Prompt":
        """Append a section (empty text is skipped) and return self."""
        if text:
            self.append_section(PromptSection(name=name, text=text))
        return self

    def append_section(self, section: PromptSection) -> "Prompt":
        """Append a prebuilt section, keeping the running total current."""
        self._sync()
        self.sections.append(section)
        self._total += section.tokens
        self._counted += 1
        return self

    def _sync(self) -> None:
        """Recount if ``sections`` grew or shrank behind the cache's back."""
        if self._counted != len(self.sections):
            self._total = sum(section.tokens for section in self.sections)
            self._counted = len(self.sections)

    @property
    def tokens(self) -> int:
        self._sync()
        return self._total

    def tokens_by_section(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for section in self.sections:
            totals[section.name] = totals.get(section.name, 0) + section.tokens
        return totals

    def render(self) -> str:
        return "\n\n".join(
            f"[{section.name}]\n{section.text}" for section in self.sections
        )


#: Most recent dialogue messages rendered into a prompt (context-limit
#: truncation, as the benchmarked systems do).
MAX_DIALOGUE_MESSAGES = 40

#: Candidate-line scaffolding, grown in place on demand: ``"(i) "``
#: prefixes, their token costs — "(" and ")" are one token each plus one
#: per index digit — and the running cumulative cost (``cumulative[n]``
#: is the total index overhead of enumerating ``n`` candidates), so
#: enumeration never re-formats, re-counts, or even re-sums per step.
_INDEX_PREFIXES: list[str] = []
_INDEX_TOKENS: list[int] = []
_INDEX_CUMULATIVE: list[int] = [0]


def _index_scaffold(upto: int) -> tuple[list[str], list[int], list[int]]:
    """Prefix/token/cumulative tables covering ``upto`` candidate indices."""
    for index in range(len(_INDEX_PREFIXES), upto):
        _INDEX_PREFIXES.append(f"({index}) ")
        _INDEX_TOKENS.append(2 + len(str(index)))
        _INDEX_CUMULATIVE.append(_INDEX_CUMULATIVE[-1] + _INDEX_TOKENS[-1])
    return _INDEX_PREFIXES, _INDEX_TOKENS, _INDEX_CUMULATIVE


#: Candidate tuple -> rendered candidates section, by identity: the
#: section — the per-step render and token count of every enumerated
#: subgoal — is reused while the env cache returns the same tuple.
_CANDIDATE_SECTIONS = IdentityMemo()

_PTOKENS = attrgetter("_ptokens")


def piece_tokens(item: object) -> int:
    """Token count of ``item.describe()``, cached on the instance.

    Mirrors ``_memo_describe`` (:mod:`repro.core.types`): the value types
    are frozen dataclasses whose rendering — and therefore its token
    count — is a pure function of their fields, so the count can live on
    the instance as ``_ptokens`` and be reused every step the object
    re-enters a prompt (memory windows and dialogue histories re-render
    the same instances for many steps).  Only used on the fast path.
    """
    tokens = item.__dict__.get("_ptokens")
    if tokens is None:
        tokens = count_tokens(item.describe())
        object.__setattr__(item, "_ptokens", tokens)
    return tokens


def _pieces_tokens(items: Sequence) -> int:
    """Summed ``_ptokens`` memos of ``items``, filling any that are missing."""
    try:
        return sum(map(_PTOKENS, items))
    except AttributeError:
        return sum(map(piece_tokens, items))


class PromptBuilder:
    """Fluent builder producing :class:`Prompt` objects from sim objects.

    The builder mirrors how the benchmarked systems assemble prompts:
    a fixed system preamble, the task, the current observation, retrieved
    memory rendered as natural-language facts, the (growing) dialogue
    history, and finally the enumerated action candidates — the paper's
    "formalizing the action list" (Sec. II-A).

    On the optimized hot path (captured at construction) stable sections
    are interned and piecewise sections are token-counted additively from
    cached per-piece counts; on the reference path every section is built
    and tokenized exactly as the seed code did.  Both paths produce
    sections with identical text and token counts.
    """

    def __init__(self, system_text: str = "", task_text: str = "") -> None:
        self._prompt = Prompt()
        self._fast = hotpath.enabled()
        if system_text:
            self._static("system", system_text)
        if task_text:
            self._static("task", task_text)

    def _static(self, name: str, text: str) -> None:
        if self._fast:
            self._prompt.append_section(intern_section(name, text))
        else:
            self._prompt.add(name, text)

    def observation(self, observation: Observation | None) -> "PromptBuilder":
        if observation is not None:
            if self._fast:
                # The rendering is " "-joined period-terminated clauses
                # (position line + one per fact), so the token count is
                # additive over the clauses: the position line via the
                # (tiny-vocabulary) tokenizer cache, each fact via its
                # instance memo plus one token for the period.  This
                # skips re-tokenizing the joined text — the single
                # largest distinct-string source on the reference path —
                # while producing the exact same count.  The text itself
                # is rendered only if someone reads it.
                tokens = observation.__dict__.get("_ptokens")
                if tokens is None:
                    head = f"{observation.agent} is at {observation.position}."
                    tokens = count_tokens(head)
                    for fact in observation.facts:
                        tokens += piece_tokens(fact) + 1
                    object.__setattr__(observation, "_ptokens", tokens)
                self._prompt.append_section(
                    _joined_section("observation", (observation,), tokens, False)
                )
            else:
                self._prompt.add("observation", observation.describe())
        return self

    def memory(self, facts: "Sequence[Fact]") -> "PromptBuilder":
        return self.described_list("memory", facts)

    def described_list(self, name: str, items) -> "PromptBuilder":
        """Add a section of period-terminated ``describe()`` renderings.

        Renders ``item.describe() + "."`` for each item, space-joined —
        the shape shared by memory facts and action histories.  The fast
        path counts tokens additively (each rendered piece plus one token
        for its period) and joins the text lazily.
        """
        if not items:
            return self
        if self._fast:
            items = tuple(items)
            tokens = _pieces_tokens(items) + len(items)
            self._prompt.append_section(_joined_section(name, items, tokens, True))
        else:
            parts = [item.describe() for item in items]
            text = " ".join(part + "." for part in parts)
            self._prompt.add(name, text)
        return self

    def dialogue(self, messages: list[Message]) -> "PromptBuilder":
        """Append dialogue history, truncated to the most recent window.

        Real systems cannot concatenate unbounded dialogue — they truncate
        at the context limit.  The cap keeps the paper's token-growth
        dynamics (Fig. 6) while bounding prompt size for large teams.
        """
        if messages:
            recent = messages[-MAX_DIALOGUE_MESSAGES:]
            if self._fast:
                section = _joined_section(
                    "dialogue", recent, _pieces_tokens(recent), False
                )
                self._prompt.append_section(section)
            else:
                parts = [message.describe() for message in recent]
                self._prompt.add("dialogue", " ".join(parts))
        return self

    def candidates(self, candidates: "Sequence[Candidate]") -> "PromptBuilder":
        if not candidates:
            return self
        if self._fast:
            # Candidate tuples from the env cache keep their identity
            # while beliefs are unchanged; reuse their rendered section.
            stable = isinstance(candidates, tuple)
            if stable:
                section = _CANDIDATE_SECTIONS.get(candidates)
                if section is not None:
                    self._prompt.append_section(section)
                    return self
                # Cache-stable tuples share their columnar features with
                # the behaviour kernel (:mod:`repro.envs.candidates`):
                # descriptions are prerendered and token counts pretotaled,
                # so a miss here is a join plus two adds rather than a
                # describe + count per candidate.
                features = candidate_features(candidates)
                prefixes, _, cumulative = _index_scaffold(len(candidates))
                text = " ".join(
                    prefix + described
                    for prefix, described in zip(prefixes, features.described)
                )
                tokens = cumulative[len(candidates)] + features.desc_tokens_total
                section = PromptSection("candidates", text, tokens)
                _CANDIDATE_SECTIONS.put(candidates, section)
                self._prompt.append_section(section)
                return self
            prefixes, index_tokens, _ = _index_scaffold(len(candidates))
            lines = []
            tokens = 0
            for index, candidate in enumerate(candidates):
                described = candidate.subgoal.describe()
                lines.append(prefixes[index] + described)
                tokens += index_tokens[index] + count_tokens(described)
            section = PromptSection("candidates", " ".join(lines), tokens)
            self._prompt.append_section(section)
        else:
            lines = [
                f"({index}) {candidate.subgoal.describe()}"
                for index, candidate in enumerate(candidates)
            ]
            self._prompt.add("candidates", " ".join(lines))
        return self

    def extra(self, name: str, text: str) -> "PromptBuilder":
        self._prompt.add(name, text)
        return self

    def static_extra(self, name: str, text: str) -> "PromptBuilder":
        """Add a stable section (fixed instruction), interned on the fast path."""
        if text:
            self._static(name, text)
        return self

    def build(self) -> Prompt:
        return self._prompt


#: Default system preambles, sized to match typical few-shot scaffolding.
PLANNER_SYSTEM_TEXT = (
    "You are the high level planner of an embodied agent. Decompose the "
    "long horizon task into sub objectives, reason about the current world "
    "state, and choose exactly one of the enumerated candidate actions. "
    "Respond with the candidate index only. Prior demonstrations follow."
)

COMMUNICATOR_SYSTEM_TEXT = (
    "You are the communication module of an embodied agent. Read the "
    "current plan and world knowledge and compose a concise message to "
    "your teammates sharing only information useful for coordination."
)

REFLECTOR_SYSTEM_TEXT = (
    "You are the reflection module of an embodied agent. Compare the state "
    "before and after the last executed action and judge whether the plan "
    "step succeeded, failed, or had no effect. Respond with the verdict."
)
