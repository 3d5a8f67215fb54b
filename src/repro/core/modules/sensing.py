"""Sensing module: perception-model-filtered observation of the world.

Wraps a :class:`~repro.perception.models.PerceptionProfile`: ground-truth
visible facts pass through detection noise (finite recall, occasional
mislabels) and the perception latency is charged to the SENSING budget.
Systems without a sensing module (Table II's ✗ entries, e.g. MindAgent)
receive the simulator's symbolic state directly at negligible cost.

Hot-path staging (:mod:`repro.core.hotpath`): the mislabel distractor
vocabulary (``env.location_vocabulary()``) is episode-static for every
shipped environment — room layouts never change mid-episode — so the
module fetches it once per episode instead of once per step per agent;
the detector itself consumes the identical rng stream either way (see
:mod:`repro.perception.detector`).  Environments with a dynamic location
vocabulary must not rely on the hot path, which is the documented
contract of the staging.

Detector mode: the module resolves its detector implementation at
construction — an explicit ``detector_mode`` from the system config wins
over the ``REPRO_DETECTOR`` knob (``loop`` default / ``vector`` batched
draws; see :mod:`repro.perception.detector` for the draw-count contract
and byte-identity waiver).  These are the only two selectors, and the
ledger fingerprint covers both.
"""

from __future__ import annotations

from repro.core import hotpath
from repro.core.clock import ModuleName
from repro.core.envknobs import choice_knob
from repro.core.modules.base import ModuleContext
from repro.core.types import Fact, Observation
from repro.envs.base import Environment
from repro.perception.detector import DETECTOR_MODES, detect
from repro.perception.models import PerceptionProfile, get_perception

#: Cost of reading simulator-provided symbolic state (no model inference).
SYMBOLIC_FEED_SECONDS = 0.002


class SensingModule:
    """Perceive the environment through a (possibly absent) vision model."""

    def __init__(
        self,
        context: ModuleContext,
        model: str | None,
        detector_mode: str = "",
    ) -> None:
        self.context = context
        self.profile: PerceptionProfile | None = (
            get_perception(model) if model is not None else None
        )
        self._fast = hotpath.enabled()
        self._distractors: list[str] | None = None
        # Detector mode is episode-static, like the hotpath flag: an
        # explicit config value wins, else the REPRO_DETECTOR knob read
        # at construction (toggling mid-episode is inert).
        self.detector_mode = detector_mode or choice_knob(
            "REPRO_DETECTOR", default="loop", choices=DETECTOR_MODES
        )

    def _distractor_values(self, env: Environment) -> list[str]:
        """Mislabel vocabulary, fetched once per episode on the hot path."""
        if not self._fast:
            return env.location_vocabulary()
        distractors = self._distractors
        if distractors is None:
            distractors = env.location_vocabulary()
            self._distractors = distractors
        return distractors

    def sense(self, env: Environment) -> tuple[Fact, ...]:
        """One perception pass from the agent's current viewpoint."""
        ground_facts = env.visible_facts(self.context.agent)
        if self.profile is None:
            self.context.clock.advance(
                SYMBOLIC_FEED_SECONDS, ModuleName.SENSING, phase="symbolic"
            )
            return tuple(ground_facts)
        result = detect(
            ground_facts,
            self.profile,
            self.context.rng,
            distractor_values=self._distractor_values(env),
            mode=self.detector_mode,
        )
        self.context.clock.advance(
            result.latency, ModuleName.SENSING, phase=self.profile.name
        )
        return result.facts

    def observation(self, env: Environment, facts: tuple[Fact, ...]) -> Observation:
        return env.observation(self.context.agent, facts)
