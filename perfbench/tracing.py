"""Per-layer tracing from outside the program.

:meth:`Tracer.install` wraps the public entry points of each layer
(:data:`SPANS`, :data:`COUNTS`) at the attribute their callers look up:
the defining class and every subclass that overrides the method, and
for a free function every ``repro.*`` module attribute bound to it — so
``sensing.py``'s ``from repro.perception.detector import detect`` is
wrapped too.  :meth:`Tracer.uninstall` puts every original back.

A span records name, start, end, parent span and episode id; spans stay
in memory until :func:`write_spans` dumps them at the end of the run.  A
layer's ``self_s`` is the summed duration of its spans minus the time
their child spans cover.  Calls that cost less than a timer (the clock,
bus and memory staging, ledger decodes) are counted, not timed.
:class:`ExecutorProbe` times the parent side of the worker pool in
untraced rounds.
"""

from __future__ import annotations

import gzip
import importlib
import json
import pickle
import sys
import time
from collections import Counter, defaultdict
from collections.abc import Callable
from pathlib import Path

#: Span name -> dotted targets: ``module:Class.method`` (also every
#: subclass overriding it) or ``module:function``.
SPANS: dict[str, tuple[str, ...]] = {
    "envs.candidates": ("repro.envs.base:Environment.candidates",),
    "envs.execute": ("repro.envs.base:Environment.execute",),
    "planners": (
        "repro.planners.astar:astar",
        "repro.planners.rrt:rrt_plan",
        "repro.planners.grasp:plan_grasp",
        "repro.planners.actionlist:expand_action_list",
    ),
    "perception.detect": ("repro.perception.detector:detect",),
    "memory.retrieve": ("repro.core.modules.memory:MemoryModule.retrieve",),
    "memory.commit": (
        "repro.core.modules.memory:MemoryModule.commit_staged_messages",
    ),
    "beliefs.update": (
        "repro.core.beliefs:Beliefs.update",
        "repro.core.beliefs:Beliefs.update_batch",
    ),
    "bus.flush": ("repro.core.bus:DeliveryBus.flush",),
    "communication.compose": (
        "repro.core.modules.communication:CommunicationModule.compose",
    ),
    "prompt.build": ("repro.llm.prompt:PromptBuilder.build",),
    "prompt.dialogue": ("repro.llm.prompt:PromptBuilder.dialogue",),
    "prompt.candidates": ("repro.llm.prompt:PromptBuilder.candidates",),
    "behavior.decide": ("repro.llm.behavior:BehaviorKernel.decide",),
    "scheduler.submit": ("repro.llm.scheduler:InferenceScheduler.submit",),
    "scheduler.flush": ("repro.llm.scheduler:InferenceScheduler.flush",),
    "agent.perceive": ("repro.core.agent:EmbodiedAgent.perceive",),
    "agent.plan": ("repro.core.agent:EmbodiedAgent.plan",),
    "agent.act": ("repro.core.agent:EmbodiedAgent.act",),
    "agent.reflect": ("repro.core.agent:EmbodiedAgent.reflect",),
    "paradigms.run": ("repro.core.paradigms.base:ParadigmLoop.run",),
    "metrics.finalize": ("repro.core.metrics:MetricsCollector.finalize",),
    "metrics.aggregate": ("repro.core.metrics:aggregate",),
    "fleet.load": ("repro.core.fleet:JobLedger.load",),
    "fleet.flush": ("repro.core.fleet:JobLedger.flush",),
}

#: Count-only name -> targets.
COUNTS: dict[str, tuple[str, ...]] = {
    "clock.advance": ("repro.core.clock:SimClock.advance",),
    "bus.stage": ("repro.core.bus:DeliveryBus.stage",),
    "memory.stage": ("repro.core.modules.memory:MemoryModule.stage_message",),
    "fleet.decode": ("repro.core.fleet:decode_result",),
}

#: Counts also kept per team size, for the fan-out curve.
_PER_TEAM = frozenset({"bus.stage", "memory.stage"})


def _resolve(target: str) -> tuple[object, str]:
    """``module:Class.attr`` -> (Class, attr); ``module:fn`` -> (module, fn)."""
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    owner, _, attr = path.rpartition(".")
    return (getattr(module, owner) if owner else module), attr


def _bindings(fn: Callable) -> list[tuple[object, str]]:
    """Every ``(module, attr)`` in the loaded ``repro`` package bound to ``fn``."""
    return [
        (module, attr)
        for module_name, module in list(sys.modules.items())
        if module_name == "repro" or module_name.startswith("repro.")
        for attr, value in list(vars(module).items())
        if value is fn
    ]


def _subclasses(cls: type) -> list[type]:
    found, stack = [], [cls]
    while stack:
        current = stack.pop()
        found.append(current)
        stack.extend(current.__subclasses__())
    return found


class Tracer:
    """Spans and counters of one traced round, plus the installed patches."""

    def __init__(self) -> None:
        #: (name, start, end, parent index, episode) — parent -1 = root.
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.team_counts: dict[str, Counter] = defaultdict(Counter)
        self.episode = -1
        self.team = 0
        self.messages_sent = 0
        self.ledgers: list = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------ #

    def _span(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self
        is_run = name == "paradigms.run"
        is_compose = name == "communication.compose"
        is_ledger = name.startswith("fleet.")

        def wrapper(*args, **kwargs):
            if is_run:
                tracer.episode += 1
                tracer.team = len(args[0].agents)
            elif is_ledger and args[0] not in tracer.ledgers:
                tracer.ledgers.append(args[0])
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.episode)
            if is_compose and result is not None:
                tracer.messages_sent += 1
            return result

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        per_team = self.team_counts[name] if name in _PER_TEAM else None
        tracer = self

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if per_team is not None:
                per_team[tracer.team] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------- #

    def _patch(
        self, owner: object, attr: str, original: object, wrapped: object
    ) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for name, targets in table.items():
                for target in targets:
                    owner, attr = _resolve(target)
                    if isinstance(owner, type):
                        for cls in _subclasses(owner):
                            if attr in vars(cls):
                                original = vars(cls)[attr]
                                self._patch(cls, attr, original, make(name, original))
                    else:
                        fn = getattr(owner, attr)
                        wrapped = make(name, fn)
                        for module, binding in _bindings(fn):
                            self._patch(module, binding, fn, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------- #

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Per-name summed self time and span count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[index]
            calls[name] += 1
        return totals, calls


def write_spans(tracers: list[Tracer], path: Path) -> None:
    """Dump every traced round's spans as gzipped JSON lines:
    ``[traced round, name, start, end, parent index, episode]``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as handle:
        for round_index, tracer in enumerate(tracers):
            for name, start, end, parent, episode in tracer.spans:
                handle.write(
                    json.dumps([round_index, name, start, end, parent, episode])
                    + "\n"
                )


class ExecutorProbe:
    """Parent-side view of ``ParallelExecutor.run_stream`` in untraced rounds.

    Times how long the parent is blocked pulling completions and keeps
    the jobs sent and results received, so their pickled size can be
    counted after the timed region.
    """

    def __init__(self) -> None:
        self.wait_s = 0.0
        self.jobs: list = []
        self.results: list = []
        self._patch: tuple[type, object] | None = None

    def install(self) -> None:
        from repro.core.executor import ParallelExecutor

        original = vars(ParallelExecutor)["run_stream"]
        probe = self

        def sent(jobs):
            for job in jobs:
                probe.jobs.append(job)
                yield job

        def run_stream(executor, jobs, window=None):
            stream = original(executor, sent(jobs), window)
            while True:
                start = time.perf_counter()
                try:
                    item = next(stream)
                except StopIteration:
                    probe.wait_s += time.perf_counter() - start
                    return
                probe.wait_s += time.perf_counter() - start
                probe.results.append(item[1])
                yield item

        self._patch = (ParallelExecutor, original)
        ParallelExecutor.run_stream = run_stream

    def uninstall(self) -> None:
        if self._patch is not None:
            cls, original = self._patch
            cls.run_stream = original
            self._patch = None

    def ipc_bytes(self) -> int:
        return sum(len(pickle.dumps(item)) for item in self.jobs + self.results)
