"""Communication pipeline: batched vs per-delivery message path.

``bench_hotpath`` tracks the whole episode loop on a paradigm-mixed grid;
this benchmark isolates the axis hot-path phase 3 restructured — the
communication → belief → memory write pipeline.  Its grid is all
dialogue: decentralized teams at sizes that trigger multi-round
negotiation (CoELA's structure with the extra action-selection call, and
a DMAS variant), the hybrid feedback round, and COMBO's filter-on
configuration, each producing hundreds of messages per episode at the
paper's ~20 % usefulness ratios.

The optimized path runs the step-batched delivery bus
(:mod:`repro.core.bus`: one batched belief merge and one batched dialogue
commit per receiver per step, staged compose payloads, reused dialogue
prompt sections); the reference path runs the seed per-delivery fan-out.
The same two contracts as ``bench_hotpath`` are enforced:

- **equivalence** — aggregates, including the novelty-derived
  message-usefulness ratios, must be byte-identical across paths;
- **speed** — the batched path must hold a >= 1.5x speedup and stay
  within 20 % of the committed baseline ratio in
  ``benchmarks/baselines/BENCH_comm.json``.

Emits ``BENCH_comm.json`` for CI artifacts.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

from conftest import emit

from repro.core import hotpath
from repro.experiments.common import GridCell, measure_grid
from repro.llm.tokenizer import count_tokens
from repro.workloads.registry import get_workload

ROUNDS = 3

SPEEDUP_FLOOR = 1.5
BASELINE_TOLERANCE = 0.8

BASELINE_PATH = Path(__file__).parent / "baselines" / "BENCH_comm.json"
OUTPUT_PATH = Path("BENCH_comm.json")


def _grid() -> list[GridCell]:
    """All-dialogue grid: every cell is dominated by the message path."""
    return [
        # CoELA structure at 8 agents: two dialogue rounds per step plus
        # the action-selection call — the Fig. 7e-f blowup regime.
        GridCell(config=get_workload("coela").config, n_agents=8),
        # Plain decentralized dialogue on the household env.
        GridCell(config=get_workload("dmas").config, n_agents=8),
        # Hybrid: per-worker feedback messages into the central planner.
        GridCell(config=get_workload("hmas").config, n_agents=6),
        # Filter-on decentralized system: exercises the redundancy gate
        # and the staged-payload reuse across rounds.
        GridCell(config=get_workload("combo").config, n_agents=6),
    ]


def _timed(grid, settings, fast: bool) -> tuple[list, float]:
    """Time one grid pass with a cold token cache (see bench_hotpath)."""
    count_tokens.cache_clear()
    with hotpath.override(fast):
        started = time.perf_counter()
        results = measure_grid(grid, settings)
        return results, time.perf_counter() - started


def test_bench_comm_speedup(benchmark, settings):
    grid = _grid()
    serial = replace(settings, executor="serial", max_workers=1)

    reference, _ = _timed(grid, serial, fast=False)
    optimized, _ = _timed(grid, serial, fast=True)
    assert optimized == reference  # byte-identity, incl. usefulness ratios

    # The grid must actually be dialogue-heavy, or the gate gates nothing.
    assert all(aggregate.mean_messages_sent >= 20 for aggregate in reference)

    reference_seconds = []
    optimized_seconds = []
    for _round in range(ROUNDS):
        ref_results, ref_elapsed = _timed(grid, serial, fast=False)
        opt_results, opt_elapsed = _timed(grid, serial, fast=True)
        assert ref_results == reference and opt_results == reference
        reference_seconds.append(ref_elapsed)
        optimized_seconds.append(opt_elapsed)

    with hotpath.override(True):
        benchmark.pedantic(measure_grid, args=(grid, serial), rounds=1, iterations=1)

    ref_best = min(reference_seconds)
    opt_best = min(optimized_seconds)
    speedup = ref_best / max(1e-9, opt_best)

    baseline_speedup = None
    if BASELINE_PATH.exists():
        baseline_speedup = json.loads(BASELINE_PATH.read_text())["speedup"]

    messages_per_episode = sum(a.mean_messages_sent for a in reference)
    payload = {
        "grid_cells": len(grid),
        "trials_per_cell": serial.n_trials,
        "rounds": ROUNDS,
        "messages_per_grid_pass": round(messages_per_episode * serial.n_trials, 1),
        "reference_seconds": ref_best,
        "optimized_seconds": opt_best,
        "speedup": round(speedup, 3),
        "baseline_speedup": baseline_speedup,
        "byte_identical": True,
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    body = (
        f"grid: {len(grid)} dialogue-heavy cells x {serial.n_trials} trials, "
        f"min of {ROUNDS} rounds\n"
        f"reference: {ref_best:6.2f}s   (per-delivery fan-out: one merge+write "
        f"per (message, receiver))\n"
        f"optimized: {opt_best:6.2f}s   (step-batched delivery bus, staged "
        f"payloads, window reuse)\n"
        f"speedup:   {speedup:5.2f}x   (aggregates and usefulness ratios "
        f"byte-identical)\n"
        f"baseline:  {baseline_speedup}x committed, "
        f"gate at {BASELINE_TOLERANCE:.0%} of it"
    )
    emit("Communication pipeline (per-delivery vs step-batched bus)", body)

    assert speedup >= SPEEDUP_FLOOR, (
        f"comm-path speedup {speedup:.2f}x below the {SPEEDUP_FLOOR}x floor"
    )
    if baseline_speedup is not None:
        floor = BASELINE_TOLERANCE * baseline_speedup
        assert speedup >= floor, (
            f"comm-path speedup {speedup:.2f}x regressed >20% against the "
            f"committed baseline {baseline_speedup}x (gate: {floor:.2f}x)"
        )
