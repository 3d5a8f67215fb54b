"""The three benchmark workloads and how a run slices them into rounds.

A workload is a closed batch: a fixed grid of cells (system config,
difficulty, team size), each expanded with ``runner.trial_jobs`` into
``trials`` seeded episodes and submitted together as one wave through
``experiments.common.dispatch_jobs``.  One such wave is a *round*.  A run
repeats rounds on fresh trial seeds until its time is up (or
``max_rounds`` is reached) and reports medians over rounds, so one slow
stretch of a shared host moves one round, not the run.

Round 0 of a run uses the workload seed itself as ``trial_jobs``'
``base_seed`` (2025 by default, the suite's own), round ``r`` uses
``derive_seed(seed, "round", r)``; the same seed always yields the same
rounds.

This module itself imports nothing from ``repro``: :func:`import_repro`
must make the ``REPRO_*`` environment hermetic first, and the helpers
below import lazily.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path

#: Root of the checkout the benchmark runs from, and its sources.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Cell:
    system: str
    difficulty: str
    n_agents: int | None = None
    continuous_serving: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[Cell, ...]
    #: Episodes per cell in one round.
    trials: int
    #: Hard cap on rounds per run (digests are recorded this far).
    max_rounds: int
    #: 0 = serial in-process executor; otherwise ParallelExecutor workers.
    workers: int = 0
    #: Route each round through a fresh fleet ledger pre-seeded with
    #: every other job of the round.
    ledger: bool = False
    #: Per-layer metrics that must be non-zero in a traced run.
    busy: tuple[str, ...] = ()
    #: Per-layer metrics that must be exactly zero in a traced run.
    idle: tuple[str, ...] = ()
    #: Further traced-run predictions: ``fanout-grows`` (bus fan-out
    #: rises with team size), ``stage-within-steps`` (at most one
    #: broadcast staged per episode step).
    checks: tuple[str, ...] = ()


#: Layers every episode passes through, whatever the paradigm.
_ALWAYS_BUSY = (
    "envs.candidates.calls",
    "envs.execute.calls",
    "prompt.build.calls",
    "behavior.decide.calls",
    "scheduler.submit.calls",
    "scheduler.flush.calls",
    "clock.advance.calls",
    "paradigms.run.calls",
    "metrics.finalize.self_s",
    "metrics.aggregate.self_s",
    "agent.perceive.self_s",
    "agent.plan.self_s",
    "agent.act.self_s",
)
_FLEET_AND_EXECUTOR = (
    "executor.jobs",
    "executor.wait_s",
    "executor.ipc_bytes",
    "fleet.load.calls",
    "fleet.flush.calls",
    "fleet.bytes_read",
    "fleet.bytes_appended",
    "fleet.restored_frac",
)

DIALOGUE_SCALE = Workload(
    name="dialogue-scale",
    cells=tuple(
        Cell(system, difficulty, n_agents)
        for system in ("coela", "combo")
        for difficulty in ("easy", "medium", "hard")
        for n_agents in (2, 4, 6, 8, 10, 12)
    ),
    trials=1,
    max_rounds=6,
    busy=_ALWAYS_BUSY
    + (
        "perception.detect.calls",
        "memory.retrieve.calls",
        "memory.commit.calls",
        "memory.stage.calls",
        "beliefs.update.calls",
        "bus.flush.calls",
        "bus.stage.calls",
        "communication.compose.calls",
        "prompt.dialogue.self_s",
    ),
    idle=_FLEET_AND_EXECUTOR,
    checks=("fanout-grows",),
)

PIPELINE_MIX = Workload(
    name="pipeline-mix",
    cells=tuple(
        Cell(system, difficulty)
        for system in (
            "embodiedgpt",
            "jarvis-1",
            "dadu-e",
            "mp5",
            "deps",
            "mindagent",
            "ola",
            "coherent",
            "cmas",
        )
        for difficulty in ("easy", "medium", "hard")
    ),
    trials=2,
    max_rounds=40,
    busy=_ALWAYS_BUSY
    + (
        "planners.calls",
        "perception.detect.calls",
        "memory.retrieve.calls",
        "prompt.candidates.self_s",
    ),
    idle=_FLEET_AND_EXECUTOR,
    checks=("stage-within-steps",),
)

FLEET_RESUME = Workload(
    name="fleet-resume",
    cells=tuple(
        Cell(system, "easy", n_agents, continuous_serving=True)
        for system in ("mindagent", "coela", "hmas")
        for n_agents in (2, 3, 4)
    ),
    trials=32,
    max_rounds=16,
    workers=2,
    ledger=True,
    busy=_ALWAYS_BUSY + _FLEET_AND_EXECUTOR,
)

WORKLOADS = {w.name: w for w in (DIALOGUE_SCALE, PIPELINE_MIX, FLEET_RESUME)}


def import_repro() -> None:
    """Import ``repro`` from this checkout with a hermetic knob set.

    Every ambient ``REPRO_*`` variable is cleared *before* the import,
    because several modules capture their knob at import time; then the
    process takes the coarse clock, as the suite CLI does.  A workload
    sets anything else it needs (its ledger) itself.
    """
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")
    from repro.core.clock import default_to_coarse_for_sweeps

    default_to_coarse_for_sweeps()


def round_seed(seed: int, round_index: int) -> int:
    """``trial_jobs`` base seed of one round of a run."""
    if round_index == 0:
        return seed
    from repro.core.seeding import derive_seed

    return derive_seed(seed, "round", round_index)


def round_jobs(workload: Workload, seed: int, round_index: int) -> list[list]:
    """Per-cell ``TrialJob`` lists of one round, in cell order."""
    from repro.core.runner import trial_jobs
    from repro.optim import with_continuous_serving
    from repro.workloads.registry import get_workload

    base_seed = round_seed(seed, round_index)
    jobs = []
    for cell in workload.cells:
        config = get_workload(cell.system).config
        if cell.continuous_serving:
            config = with_continuous_serving(config)
        jobs.append(
            trial_jobs(
                config,
                workload.trials,
                difficulty=cell.difficulty,
                n_agents=cell.n_agents,
                base_seed=base_seed,
            )
        )
    return jobs
