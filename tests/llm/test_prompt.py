"""Tests for structured prompt assembly."""

import copy
import pickle

import pytest

from repro.core import hotpath
from repro.core.modules.memory import ActionRecord
from repro.core.types import Candidate, Fact, Message, Observation, Subgoal
from repro.llm.prompt import Prompt, PromptBuilder, PromptSection, intern_section
from repro.llm.tokenizer import count_tokens


class TestPrompt:
    def test_empty_prompt(self):
        prompt = Prompt()
        assert prompt.tokens == 0
        assert prompt.render() == ""

    def test_add_skips_empty_text(self):
        prompt = Prompt().add("a", "").add("b", "hello")
        assert [section.name for section in prompt.sections] == ["b"]

    def test_tokens_sum_sections(self):
        prompt = Prompt().add("a", "one two").add("b", "three")
        assert prompt.tokens == sum(section.tokens for section in prompt.sections)

    def test_tokens_by_section_merges_same_name(self):
        prompt = Prompt().add("x", "one").add("x", "two three")
        by_section = prompt.tokens_by_section()
        assert set(by_section) == {"x"}
        assert by_section["x"] == prompt.tokens

    def test_render_contains_headers(self):
        text = Prompt().add("system", "be good").render()
        assert "[system]" in text and "be good" in text

    def test_add_after_tokens_read_never_stale(self):
        """Reading ``tokens`` then mutating must reflect the mutation."""
        prompt = Prompt().add("a", "one two")
        assert prompt.tokens == 2
        prompt.add("b", "three")
        assert prompt.tokens == 3
        prompt.add("c", "four five")
        assert prompt.tokens == 5
        assert prompt.tokens_by_section() == {"a": 2, "b": 1, "c": 2}

    def test_out_of_band_sections_growth_recounted(self):
        """Direct ``sections`` appends (outside add) are detected and recounted.

        Same-length in-place replacement is outside the mutation API and
        not guarded; growth/shrinkage — the realistic bypass — is.
        """
        prompt = Prompt().add("a", "one two")
        assert prompt.tokens == 2
        prompt.sections.append(PromptSection("b", "three four five"))
        assert prompt.tokens == 5
        prompt.add("c", "six")  # add() after the bypass stays consistent
        assert prompt.tokens == 6


class TestPromptSection:
    def test_tokens_computed_at_construction(self):
        section = PromptSection("memory", "the red mug")
        assert section.tokens == count_tokens("the red mug")

    def test_precomputed_tokens_respected(self):
        section = PromptSection("memory", "the red mug", tokens=3)
        assert section.tokens == 3

    def test_interned_sections_shared(self):
        first = intern_section("system", "be a careful planner")
        second = intern_section("system", "be a careful planner")
        assert first is second
        assert first.tokens == count_tokens("be a careful planner")


class TestPromptBuilder:
    def test_full_pipeline(self):
        observation = Observation(
            agent="a0",
            step=1,
            position="kitchen",
            facts=(Fact("mug", "located_in", "kitchen"),),
        )
        message = Message(sender="a1", recipients=("a0",), step=1, text="hi there")
        candidates = [Candidate(subgoal=Subgoal("fetch", target="mug"), utility=1.0)]
        prompt = (
            PromptBuilder(system_text="sys", task_text="task")
            .observation(observation)
            .memory([Fact("book", "located_in", "study")])
            .dialogue([message])
            .candidates(candidates)
            .build()
        )
        names = [section.name for section in prompt.sections]
        assert names == ["system", "task", "observation", "memory", "dialogue", "candidates"]

    def test_empty_inputs_skip_sections(self):
        prompt = (
            PromptBuilder()
            .observation(None)
            .memory([])
            .dialogue([])
            .candidates([])
            .build()
        )
        assert prompt.sections == []

    def test_candidates_enumerated(self):
        candidates = [
            Candidate(subgoal=Subgoal("fetch", target="mug"), utility=1.0),
            Candidate(subgoal=Subgoal("explore", target="hall"), utility=0.4),
        ]
        prompt = PromptBuilder().candidates(candidates).build()
        text = prompt.render()
        assert "(0)" in text and "(1)" in text

    def test_dialogue_grows_tokens(self):
        messages = [
            Message(sender="a1", recipients=(), step=i, text=f"message number {i} with content")
            for i in range(5)
        ]
        short = PromptBuilder().dialogue(messages[:1]).build().tokens
        long = PromptBuilder().dialogue(messages).build().tokens
        assert long > short


class TestJoinedSections:
    """Fast-path sections that count eagerly and join their text lazily."""

    @staticmethod
    def _build():
        messages = [
            Message(sender="a1", recipients=("a0",), step=1, text="hi there"),
            Message(
                sender="a2",
                recipients=("a0",),
                step=2,
                facts=(Fact("mug", "located_in", "hall", step=2),),
                intent=Subgoal("fetch", target="mug"),
            ),
        ]
        records = [
            ActionRecord(step, Subgoal("explore", target=f"room_{step}"), step % 2 == 0)
            for step in range(3)
        ]
        return (
            PromptBuilder()
            .memory([Fact("book", "located_in", "study", step=1)])
            .described_list("action_history", records)
            .dialogue(messages)
            .build()
        )

    def test_text_joined_on_first_read(self):
        with hotpath.override(True):
            section = self._build().sections[0]
        assert "text" not in section.__dict__
        assert section.text == "book located in study."
        assert section.__dict__["text"] is section.text

    def test_identical_to_eager_sections(self):
        with hotpath.override(False):
            reference = self._build()
        with hotpath.override(True):
            # One fresh prompt per probe, so each reads unjoined sections.
            for_repr, for_hash, for_render = (self._build() for _ in range(3))
        assert [repr(s) for s in for_repr.sections] == [
            repr(s) for s in reference.sections
        ]
        assert [hash(s) for s in for_hash.sections] == [
            hash(s) for s in reference.sections
        ]
        assert for_render.render() == reference.render()
        assert for_render.sections == reference.sections
        for section in for_render.sections:
            assert section.tokens == count_tokens(section.text)

    @staticmethod
    def _observed():
        """A prompt holding only a fresh observation section."""
        observation = Observation(
            agent="a0",
            step=3,
            position="kitchen",
            facts=(
                Fact("mug", "located_in", "kitchen", step=3),
                Fact("stove_1", "state", "on", step=3),
            ),
        )
        return observation, PromptBuilder().observation(observation).build()

    def test_observation_rendered_only_when_read(self):
        with hotpath.override(False):
            _, reference = self._observed()
        with hotpath.override(True):
            observation, prompt = self._observed()
            _, for_render = self._observed()
        section = prompt.sections[0]
        assert "text" not in section.__dict__
        assert "_described" not in observation.__dict__  # never rendered
        assert section.tokens == reference.sections[0].tokens
        assert section == reference.sections[0]
        assert section.text == observation.describe()
        assert for_render.render() == reference.render()
        assert section.tokens == count_tokens(section.text)

    def test_copy_and_pickle_round_trip(self):
        with hotpath.override(True):
            eager = self._build().sections[2]
            unjoined = self._build().sections[2]
        assert eager.text  # joined before the round trip
        assert copy.copy(unjoined) == eager
        assert pickle.loads(pickle.dumps(unjoined)) == eager

    def test_other_attributes_still_raise(self):
        with hotpath.override(True):
            section = self._build().sections[0]
        with pytest.raises(AttributeError):
            section.missing_attribute
