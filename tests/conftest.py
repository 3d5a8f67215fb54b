"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.clock import ModuleName, SimClock
from repro.core.metrics import MetricsCollector
from repro.core.modules.base import ModuleContext
from repro.envs import make_env, make_task


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def metrics() -> MetricsCollector:
    return MetricsCollector(workload="test", horizon=50)


@pytest.fixture
def context(clock, metrics, rng) -> ModuleContext:
    ctx = ModuleContext(agent="agent_0", clock=clock, metrics=metrics, rng=rng)
    ctx.set_step(1)
    return ctx


def record_charges(clock: SimClock) -> list[tuple[ModuleName, str, float, float]]:
    """Log every charge on ``clock`` as ``(module, phase, start, duration)``.

    The clock keeps only running sums; tests that compare two code paths
    charge by charge wrap this one instance's ``advance``/``settle`` and
    compare the logs.  ``start`` is ``now`` before an advance and
    ``completion - duration`` for a settle.
    """
    log: list[tuple[ModuleName, str, float, float]] = []
    advance, settle = clock.advance, clock.settle

    def logged_advance(duration: float, module: ModuleName, phase: str = "") -> None:
        start = clock.now
        advance(duration, module, phase)
        log.append((module, phase, start, duration))

    def logged_settle(
        completion: float, duration: float, module: ModuleName, phase: str = ""
    ) -> None:
        settle(completion, duration, module, phase)
        log.append((module, phase, completion - duration, duration))

    clock.advance = logged_advance
    clock.settle = logged_settle
    return log


def small_env(name: str, difficulty: str = "easy", n_agents: int = 1, seed: int = 0, **params):
    """Convenience environment factory for tests."""
    task = make_task(name, difficulty=difficulty, n_agents=n_agents, seed=seed, **params)
    return make_env(task)


@pytest.fixture
def household_env():
    return small_env("household")


@pytest.fixture
def transport_env():
    return small_env("transport", n_agents=2)


@pytest.fixture
def boxworld_env():
    return small_env("boxworld", n_agents=3)
