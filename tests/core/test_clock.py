"""Tests for the virtual clock and latency attribution."""

import os
from contextlib import nullcontext

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import record_charges

from repro.core.clock import LLM_MODULES, MODULE_ORDER, ModuleName, SimClock


class TestAdvance:
    def test_advance_moves_time(self, clock):
        clock.advance(2.5, ModuleName.PLANNING)
        assert clock.now == pytest.approx(2.5)

    def test_advance_attributes_module_and_phase(self, clock):
        assert clock.advance(1.0, ModuleName.SENSING, phase="vit") is None
        assert clock.now == pytest.approx(1.0)
        assert clock.elapsed_by_module() == {ModuleName.SENSING: 1.0}
        assert clock.elapsed_by_phase() == {(ModuleName.SENSING, "vit"): 1.0}

    def test_negative_duration_rejected(self, clock):
        with pytest.raises(ValueError):
            clock.advance(-0.1, ModuleName.MEMORY)
        assert clock.now == 0.0
        assert clock.elapsed_by_module() == {}
        assert clock.elapsed_by_phase() == {}

    def test_zero_duration_allowed(self, clock):
        clock.advance(0.0, ModuleName.MEMORY)
        assert clock.now == 0.0
        assert clock.elapsed_by_module() == {ModuleName.MEMORY: 0.0}


class TestSettle:
    def test_future_completion_moves_the_clock(self, clock):
        clock.advance(1.0, ModuleName.PLANNING)
        assert clock.settle(5.0, 3.0, ModuleName.PLANNING, phase="plan") is None
        assert clock.now == pytest.approx(5.0)
        assert clock.elapsed_by_phase()[(ModuleName.PLANNING, "plan")] == pytest.approx(3.0)

    def test_past_completion_leaves_now_alone(self, clock):
        """A request that finished before `now` overlapped already-charged
        work: zero wall-clock impact, full module attribution."""
        clock.advance(10.0, ModuleName.EXECUTION)
        clock.settle(4.0, 3.0, ModuleName.PLANNING)
        assert clock.now == pytest.approx(10.0)
        assert clock.elapsed_by_module()[ModuleName.PLANNING] == pytest.approx(3.0)

    def test_negative_duration_rejected(self, clock):
        with pytest.raises(ValueError):
            clock.settle(1.0, -0.1, ModuleName.PLANNING)

    def test_coarse_mode_sums_identically(self):
        """The running-sums clock (formerly the coarse mode, now the only
        one) charges a settle to both sums exactly as an advance would."""
        settled, advanced = SimClock(), SimClock()
        assert settled.settle(5.0, 3.0, ModuleName.PLANNING, phase="p") is None
        advanced.advance(2.0, ModuleName.EXECUTION)
        advanced.advance(3.0, ModuleName.PLANNING, phase="p")
        assert settled.now == pytest.approx(5.0) == advanced.now
        assert settled.elapsed_by_module()[ModuleName.PLANNING] == pytest.approx(3.0)
        assert settled.elapsed_by_phase()[(ModuleName.PLANNING, "p")] == pytest.approx(3.0)
        assert (
            settled.elapsed_by_phase()[(ModuleName.PLANNING, "p")]
            == advanced.elapsed_by_phase()[(ModuleName.PLANNING, "p")]
        )

    def test_inside_parallel_scope_extends_the_front(self, clock):
        clock.advance(2.0, ModuleName.EXECUTION)
        with clock.parallel():
            clock.settle(6.0, 1.0, ModuleName.PLANNING)
            clock.settle(4.0, 1.0, ModuleName.PLANNING)
        assert clock.now == pytest.approx(6.0)


class TestOverlapped:
    def test_backdates_to_anchor(self, clock):
        """Work fitting inside the tail since the anchor is free."""
        clock.advance(10.0, ModuleName.PLANNING)
        with clock.overlapped(4.0):
            clock.advance(3.0, ModuleName.SENSING)  # 4.0 -> 7.0 < 10.0
        assert clock.now == pytest.approx(10.0)
        assert clock.elapsed_by_module()[ModuleName.SENSING] == pytest.approx(3.0)

    def test_long_overlap_extends_past_resume(self, clock):
        clock.advance(10.0, ModuleName.PLANNING)
        with clock.overlapped(4.0):
            clock.advance(9.0, ModuleName.SENSING)  # 4.0 -> 13.0 > 10.0
        assert clock.now == pytest.approx(13.0)

    def test_branches_take_max_like_parallel(self, clock):
        clock.advance(10.0, ModuleName.PLANNING)
        with clock.overlapped(8.0):
            clock.advance(1.0, ModuleName.SENSING)
            clock.advance(5.0, ModuleName.SENSING)
        assert clock.now == pytest.approx(13.0)

    def test_stale_anchor_clamps_to_now(self, clock):
        clock.advance(2.0, ModuleName.PLANNING)
        with clock.overlapped(50.0):
            clock.advance(1.0, ModuleName.SENSING)
        assert clock.now == pytest.approx(3.0)

    def test_rejects_nesting_inside_parallel(self, clock):
        with clock.parallel():
            with pytest.raises(ValueError):
                clock.overlapped(0.0)


class TestAttribution:
    def test_elapsed_by_module_sums(self, clock):
        clock.advance(1.0, ModuleName.PLANNING)
        clock.advance(2.0, ModuleName.PLANNING)
        clock.advance(0.5, ModuleName.EXECUTION)
        totals = clock.elapsed_by_module()
        assert totals[ModuleName.PLANNING] == pytest.approx(3.0)
        assert totals[ModuleName.EXECUTION] == pytest.approx(0.5)

    def test_first_arrival_insertion_order(self, clock):
        """Sums keep the order each key was first charged — reports that
        iterate the dicts depend on it."""
        clock.advance(1.0, ModuleName.PLANNING, phase="plan")
        clock.advance(0.5, ModuleName.PLANNING, phase="plan")
        clock.advance(2.0, ModuleName.MEMORY, phase="retrieve")
        clock.settle(9.0, 1.0, ModuleName.SENSING, phase="vit")
        clock.advance(0.25, ModuleName.PLANNING, phase="replan")
        assert list(clock.elapsed_by_module()) == [
            ModuleName.PLANNING,
            ModuleName.MEMORY,
            ModuleName.SENSING,
        ]
        assert list(clock.elapsed_by_phase()) == [
            (ModuleName.PLANNING, "plan"),
            (ModuleName.MEMORY, "retrieve"),
            (ModuleName.SENSING, "vit"),
            (ModuleName.PLANNING, "replan"),
        ]

    def test_sums_accumulate_in_arrival_order(self, clock):
        """Float sums are order-sensitive; the clock adds in call order."""
        durations = (0.1, 0.2, 0.3, 1e-17, 0.7)
        for duration in durations:
            clock.advance(duration, ModuleName.PLANNING, phase="plan")
        expected = 0.0
        for duration in durations:
            expected += duration
        assert clock.elapsed_by_module()[ModuleName.PLANNING] == expected
        assert clock.elapsed_by_phase()[(ModuleName.PLANNING, "plan")] == expected

    def test_elapsed_by_phase(self, clock):
        clock.advance(1.0, ModuleName.PLANNING, phase="llm")
        clock.advance(2.0, ModuleName.PLANNING, phase="retry")
        totals = clock.elapsed_by_phase()
        assert totals[(ModuleName.PLANNING, "llm")] == pytest.approx(1.0)
        assert totals[(ModuleName.PLANNING, "retry")] == pytest.approx(2.0)

    @given(durations=st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=30))
    def test_total_attribution_equals_now_when_sequential(self, durations):
        clock = SimClock()
        for index, duration in enumerate(durations):
            module = MODULE_ORDER[index % len(MODULE_ORDER)]
            clock.advance(duration, module)
        assert sum(clock.elapsed_by_module().values()) == pytest.approx(clock.now)


def _clock_state(clock: SimClock) -> tuple:
    """Bit-exact state: ``float.hex`` of now and of every sum, in key order."""
    return (
        clock.now.hex(),
        [(key, float(total).hex()) for key, total in clock.elapsed_by_module().items()],
        [(key, float(total).hex()) for key, total in clock.elapsed_by_phase().items()],
    )


#: Prior charges: (duration, module index, phase).
_CHARGES = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0),
        st.integers(0, len(MODULE_ORDER) - 1),
        st.sampled_from(("", "store_dialogue", "plan")),
    ),
    max_size=8,
)


class TestAdvanceRepeated:
    """``advance_repeated`` is ``times`` successive advances, bit for bit."""

    @staticmethod
    def _run(scope: str, prior, duration, times, module, phase, batched: bool):
        clock = SimClock()
        clock.advance(3.0, ModuleName.EXECUTION)

        def charge():
            for prior_duration, index, prior_phase in prior:
                clock.advance(prior_duration, MODULE_ORDER[index], prior_phase)
            if batched:
                assert clock.advance_repeated(duration, times, module, phase) is None
            else:
                for _ in range(times):
                    clock.advance(duration, module, phase)
            clock.advance(0.125, ModuleName.PLANNING, "after")

        if scope == "parallel":
            with clock.parallel():
                charge()
        elif scope == "overlapped":
            with clock.overlapped(1.5):
                charge()
        else:
            charge()
        return _clock_state(clock)

    @pytest.mark.parametrize("scope", ["sequential", "parallel", "overlapped"])
    @given(
        prior=_CHARGES,
        duration=st.floats(min_value=0.0, max_value=10.0),
        times=st.integers(0, 13),
        module_index=st.integers(0, len(MODULE_ORDER) - 1),
        phase=st.sampled_from(("", "store_dialogue", "plan")),
    )
    def test_equals_successive_advances(
        self, scope, prior, duration, times, module_index, phase
    ):
        module = MODULE_ORDER[module_index]
        args = (scope, prior, duration, times, module, phase)
        assert self._run(*args, batched=True) == self._run(*args, batched=False)

    def test_store_latencies_bit_identical(self):
        """The bus's case: 11 receivers' 6 ms stores after odd-sized sums."""
        batched, separate = SimClock(), SimClock()
        for clock in (batched, separate):
            clock.advance(0.1, ModuleName.MEMORY, "store_dialogue")
            clock.advance(1 / 3, ModuleName.COMMUNICATION, "compose")
        batched.advance_repeated(0.006, 11, ModuleName.MEMORY, "store_dialogue")
        for _ in range(11):
            separate.advance(0.006, ModuleName.MEMORY, "store_dialogue")
        assert _clock_state(batched) == _clock_state(separate)
        # ... and differs from a single multiplied charge, which rounds
        # differently: the batched charge really repeats the additions.
        multiplied = SimClock()
        multiplied.advance(0.1, ModuleName.MEMORY, "store_dialogue")
        multiplied.advance(1 / 3, ModuleName.COMMUNICATION, "compose")
        multiplied.advance(0.006 * 11, ModuleName.MEMORY, "store_dialogue")
        assert _clock_state(multiplied) != _clock_state(batched)

    def test_first_arrival_key_order(self, clock):
        clock.advance(1.0, ModuleName.PLANNING, phase="plan")
        clock.advance_repeated(0.5, 3, ModuleName.MEMORY, phase="store")
        clock.advance(0.5, ModuleName.PLANNING, phase="replan")
        assert list(clock.elapsed_by_module()) == [
            ModuleName.PLANNING,
            ModuleName.MEMORY,
        ]
        assert list(clock.elapsed_by_phase()) == [
            (ModuleName.PLANNING, "plan"),
            (ModuleName.MEMORY, "store"),
            (ModuleName.PLANNING, "replan"),
        ]

    @pytest.mark.parametrize("scope", ["sequential", "parallel"])
    def test_zero_times_is_a_no_op(self, clock, scope):
        clock.advance(1.0, ModuleName.PLANNING)
        before = _clock_state(clock)
        if scope == "parallel":
            with clock.parallel():
                clock.advance_repeated(2.0, 0, ModuleName.MEMORY, "store")
        else:
            clock.advance_repeated(2.0, 0, ModuleName.MEMORY, "store")
        assert _clock_state(clock) == before
        assert ModuleName.MEMORY not in clock.elapsed_by_module()

    def test_negative_duration_rejected(self, clock):
        with pytest.raises(ValueError, match="duration"):
            clock.advance_repeated(-0.1, 3, ModuleName.MEMORY)
        with pytest.raises(ValueError, match="duration"):
            clock.advance_repeated(-0.1, 0, ModuleName.MEMORY)
        assert _clock_state(clock) == _clock_state(SimClock())

    def test_negative_times_rejected(self, clock):
        with pytest.raises(ValueError, match="times"):
            clock.advance_repeated(0.1, -1, ModuleName.MEMORY)
        assert _clock_state(clock) == _clock_state(SimClock())

    @pytest.mark.parametrize("scope", ["sequential", "parallel"])
    def test_record_charges_logs_each_repeat(self, scope):
        """The test helper logs a batched charge as ``times`` entries, with
        the starts that separate advances would have logged."""
        logs = []
        for batched in (True, False):
            clock = SimClock()
            log = record_charges(clock)
            clock.advance(0.25, ModuleName.SENSING)
            with clock.parallel() if scope == "parallel" else nullcontext():
                if batched:
                    clock.advance_repeated(0.006, 4, ModuleName.MEMORY, "store")
                else:
                    for _ in range(4):
                        clock.advance(0.006, ModuleName.MEMORY, "store")
            logs.append(log)
        assert logs[0] == logs[1]
        assert len(logs[0]) == 5


class TestParallel:
    def test_parallel_takes_max(self, clock):
        with clock.parallel():
            clock.advance(2.0, ModuleName.SENSING)
            clock.advance(5.0, ModuleName.SENSING)
            clock.advance(1.0, ModuleName.SENSING)
        assert clock.now == pytest.approx(5.0)
        assert clock.elapsed_by_module() == {ModuleName.SENSING: 8.0}

    def test_parallel_preserves_full_attribution(self, clock):
        with clock.parallel():
            clock.advance(2.0, ModuleName.EXECUTION)
            clock.advance(3.0, ModuleName.EXECUTION)
        assert clock.elapsed_by_module()[ModuleName.EXECUTION] == pytest.approx(5.0)

    def test_parallel_after_sequential(self, clock):
        clock.advance(1.0, ModuleName.PLANNING)
        with clock.parallel():
            clock.advance(4.0, ModuleName.EXECUTION)
            clock.advance(2.0, ModuleName.EXECUTION)
        assert clock.now == pytest.approx(5.0)

    def test_empty_parallel_scope_is_noop(self, clock):
        clock.advance(1.0, ModuleName.PLANNING)
        with clock.parallel():
            pass
        assert clock.now == pytest.approx(1.0)

    def test_nested_parallel(self, clock):
        with clock.parallel():
            clock.advance(2.0, ModuleName.EXECUTION)
            with clock.parallel():
                clock.advance(3.0, ModuleName.EXECUTION)
        assert clock.now == pytest.approx(3.0)


class TestReset:
    def test_reset_clears_everything(self, clock):
        clock.advance(1.0, ModuleName.PLANNING, phase="plan")
        clock.advance(2.0, ModuleName.MEMORY, phase="retrieve")
        clock.reset()
        assert clock.now == 0.0
        assert clock.elapsed_by_module() == {}
        assert clock.elapsed_by_phase() == {}


class TestSweepShim:
    def test_is_a_no_op(self):
        """Sweeps no longer pick a clock mode, nor export one to workers."""
        from repro.core.clock import default_to_coarse_for_sweeps

        before = dict(os.environ)
        assert default_to_coarse_for_sweeps() is None
        assert dict(os.environ) == before


class TestConstants:
    def test_module_order_covers_all_modules(self):
        assert set(MODULE_ORDER) == set(ModuleName)

    def test_llm_modules_subset(self):
        assert LLM_MODULES <= set(ModuleName)
        assert ModuleName.PLANNING in LLM_MODULES
        assert ModuleName.EXECUTION not in LLM_MODULES
