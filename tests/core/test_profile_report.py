"""Report-facing contract of the running-sums clock.

Reports iterate :meth:`SimClock.elapsed_by_module` and
:meth:`SimClock.elapsed_by_phase`; the clock keeps only those sums (what
the old coarse mode did).  These tests pin down the sums under parallel
scopes, after a reset, and on both hot paths.
"""

from __future__ import annotations

from repro.core import hotpath
from repro.core.clock import ModuleName, SimClock


def _drive(clock: SimClock) -> None:
    clock.advance(1.0, ModuleName.PLANNING, phase="plan")
    clock.advance(0.5, ModuleName.PLANNING, phase="plan")
    clock.advance(2.0, ModuleName.MEMORY, phase="retrieve")


class TestCoarseClock:
    def test_parallel_scope_unaffected(self):
        clock = SimClock()
        with clock.parallel():
            clock.advance(2.0, ModuleName.SENSING)
            clock.advance(5.0, ModuleName.SENSING)
        assert clock.now == 5.0
        assert clock.elapsed_by_module() == {ModuleName.SENSING: 7.0}

    def test_reset_clears_sums(self):
        clock = SimClock()
        _drive(clock)
        clock.reset()
        assert clock.now == 0.0
        assert clock.elapsed_by_module() == {}
        assert clock.elapsed_by_phase() == {}

    def test_hotpath_independent(self):
        """The clock sums the same on both hot paths (knobs are orthogonal)."""
        for fast in (False, True):
            with hotpath.override(fast):
                clock = SimClock()
                _drive(clock)
                assert clock.now == 3.5
                assert clock.elapsed_by_module() == {
                    ModuleName.PLANNING: 1.5,
                    ModuleName.MEMORY: 2.0,
                }
                assert clock.elapsed_by_phase() == {
                    (ModuleName.PLANNING, "plan"): 1.5,
                    (ModuleName.MEMORY, "retrieve"): 2.0,
                }
