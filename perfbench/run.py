"""Repo benchmark: host time to regenerate figure-shaped sweeps.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dialogue-scale [--seed 2025]
        [--seconds 20] [--trace 0|1]

Workloads (``spec.py``): ``dialogue-scale`` (decentralized Fig. 7 cells,
serial), ``pipeline-mix`` (modular and centralized systems, serial) and
``fleet-resume`` (two workers against a half-seeded fleet ledger).

The command runs the workload in child processes of this one.  Each
child clears every ``REPRO_*`` variable, imports ``repro`` from the
checkout's ``src/``, builds the round's jobs and (on ``fleet-resume``)
starts the pool and seeds the ledger, then prints ``READY``; the time to
that line is one ``setup_s`` sample.  The first children stop there; the
last one goes on to the timed rounds.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics (medians over rounds; ``setup_s`` is the median over
children).  With ``--trace 1`` untraced and traced rounds alternate and
the line carries the per-layer metrics (medians over traced rounds) and
``trace.overhead``; the spans go to ``.perfbench/`` in the checkout.
The line before it holds the host context (``nproc``, Python version,
``host.calib_s``) and, in traced runs, the delivery fan-out per team
size.  A run whose outputs fail the correctness gate (``check.py``)
reports ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import host
import spec
import tracing

#: Children launched per untraced run; each contributes a setup sample.
SETUP_SAMPLES = 3
#: Wall-clock limit for the whole command, children included.
DEADLINE_S = 170.0
WORK = spec.ROOT / ".perfbench"


@dataclass
class Round:
    index: int
    cells: list[list]
    flat: list
    #: fleet-resume: fresh results of the even-indexed (seeded) jobs.
    fresh: list | None = None
    ledger_dir: Path | None = None


class Bench:
    """One workload at one seed inside a hermetic child process."""

    def __init__(self, workload: spec.Workload, seed: int) -> None:
        from repro.experiments.common import ExperimentSettings

        self.workload = workload
        self.seed = seed
        self.settings = ExperimentSettings(
            n_trials=workload.trials,
            base_seed=seed,
            executor="parallel" if workload.workers else "serial",
            max_workers=max(1, workload.workers),
        )
        self.serial = ExperimentSettings(
            n_trials=workload.trials, base_seed=seed, executor="serial"
        )
        self.recorded = check.load_recorded().get(workload.name, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.unrecorded_rounds = 0
        self.problems: list[str] = []

    # -- rounds -------------------------------------------------------- #

    def prepare(self, index: int) -> Round:
        cells = spec.round_jobs(self.workload, self.seed, index)
        rnd = Round(index, cells, [job for cell in cells for job in cell])
        if self.workload.ledger:
            self._seed_ledger(rnd)
        return rnd

    def _seed_ledger(self, rnd: Round) -> None:
        """Execute every other job fresh and checkpoint it to a new ledger."""
        from repro.core.fleet import JobLedger, job_fingerprint

        seeded = rnd.flat[::2]
        rnd.fresh = self.settings.make_executor().run_jobs(seeded)
        rnd.ledger_dir = WORK / f"{self.workload.name}-{os.getpid()}-r{rnd.index}"
        ledger = JobLedger(rnd.ledger_dir / "ledger.jsonl", flush_seconds=3600.0)
        for job, result in zip(seeded, rnd.fresh):
            ledger.append_done(job_fingerprint(job), job, result, shard=0)
        ledger.flush()

    def run_round(self, rnd: Round, settings) -> tuple[float, float, list | None]:
        """Dispatch one round as one wave and aggregate it per cell.

        Returns wall seconds, CPU seconds (this process plus its
        workers) and the episode results (None if the wave raised).
        """
        from repro.core import metrics
        from repro.core.errors import TrialExecutionError
        from repro.experiments.common import dispatch_jobs

        if rnd.ledger_dir is not None:
            os.environ["REPRO_LEDGER"] = str(rnd.ledger_dir / "ledger.jsonl")
        workers = host.child_pids()
        cpu_start = host.self_cpu_s() + host.workers_cpu_s(workers)
        start = time.perf_counter()
        try:
            results = dispatch_jobs(rnd.flat, settings)
            aggregates, cursor = [], 0
            for cell in rnd.cells:
                cell_results = results[cursor : cursor + len(cell)]
                aggregates.append(metrics.aggregate(cell_results))
                cursor += len(cell)
        except TrialExecutionError as exc:
            results, aggregates = None, []
            self.problems.append(f"round {rnd.index}: {exc}")
        finally:
            wall = time.perf_counter() - start
            cpu = host.self_cpu_s() + host.workers_cpu_s(workers) - cpu_start
            os.environ.pop("REPRO_LEDGER", None)
            if rnd.ledger_dir is not None:
                shutil.rmtree(rnd.ledger_dir, ignore_errors=True)
        self._check(rnd, results, aggregates)
        return wall, cpu, results

    def _check(self, rnd: Round, results: list | None, aggregates: list) -> None:
        """Count the round's failed episodes (see ``check.py``)."""
        self.attempted += len(rnd.flat)
        if results is None or len(results) != len(rnd.flat):
            self.failed += len(rnd.flat)
            return
        bad = set()
        for index, (job, result) in enumerate(zip(rnd.flat, results)):
            problems = check.episode_problems(job, result)
            if problems:
                bad.add(index)
                self.problems.append(f"{job.describe()}: {'; '.join(problems)}")
        for position, fresh in enumerate(rnd.fresh or ()):
            if results[2 * position] != fresh:
                bad.add(2 * position)
                job = rnd.flat[2 * position]
                self.problems.append(f"{job.describe()}: restored != fresh")
        if self.recorded is not None and rnd.index < len(self.recorded):
            got, want = check.round_digest(aggregates), self.recorded[rnd.index]
            if got != want:
                bad.update(range(len(rnd.flat)))
                self.problems.append(f"round {rnd.index}: digest {got} != {want}")
        else:
            self.unrecorded_rounds += 1
        self.failed += len(bad)

    # -- runs ---------------------------------------------------------- #

    def measure(self, first: Round, seconds: float) -> tuple[dict, dict]:
        """Untraced rounds until ``seconds`` pass; end-to-end medians.

        Peak memory is read after the first round — one wave in a fresh
        process, like one figure regeneration — so it does not depend on
        how many rounds a host fits into ``seconds``.
        """
        rates, cpus = [], []
        start = time.perf_counter()
        rnd = first
        while True:
            wall, cpu, _ = self.run_round(rnd, self.settings)
            rates.append(len(rnd.flat) / wall)
            cpus.append(cpu)
            if rnd.index == 0:
                peak_rss = host.peak_rss_mb(host.child_pids())
            if self._done(rnd.index + 1, start, seconds):
                break
            rnd = self.prepare(rnd.index + 1)
        metrics = {
            "episodes_per_s": {"value": statistics.median(rates), "unit": "episodes/s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MiB"},
        }
        return metrics, {"rounds": {"episodes_per_s": rates, "cpu_s": cpus}}

    def _done(self, rounds: int, start: float, seconds: float) -> bool:
        return (
            rounds >= self.workload.max_rounds
            or time.perf_counter() - start >= seconds
        )

    def trace(self, first: Round, seconds: float) -> tuple[dict, dict]:
        """Alternate untraced and traced rounds; per-layer medians."""
        untraced_s, traced_s = [], []
        layers: list[dict] = []
        executor: list[dict] = []
        tracers: list[tracing.Tracer] = []
        start = time.perf_counter()
        rnd = first
        while True:
            if rnd.index % 2 == 0:
                probe = tracing.ExecutorProbe()
                probe.install()
                try:
                    wall, _, _ = self.run_round(rnd, self.settings)
                finally:
                    probe.uninstall()
                untraced_s.append(wall / len(rnd.flat))
                executor.append(
                    {
                        "executor.wait_s": probe.wait_s,
                        "executor.ipc_bytes": probe.ipc_bytes(),
                        "executor.jobs": len(probe.jobs),
                    }
                )
            else:
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    wall, _, results = self.run_round(rnd, self.serial)
                finally:
                    tracer.uninstall()
                traced_s.append(wall / len(rnd.flat))
                layers.append(_layer_metrics(tracer, results or [], len(rnd.flat)))
                tracers.append(tracer)
            if traced_s and self._done(rnd.index + 1, start, seconds):
                break
            rnd = self.prepare(rnd.index + 1)

        metrics = {
            name: statistics.median(values[name] for values in layers)
            for name in layers[0]
        }
        for name in executor[0]:
            metrics[name] = statistics.median(values[name] for values in executor)
        metrics["trace.overhead"] = statistics.median(traced_s) / statistics.median(untraced_s)
        fanout = _fanout_by_team(tracers)
        self._self_check(metrics, fanout)
        path = WORK / f"trace-{self.workload.name}-seed{self.seed}.jsonl.gz"
        tracing.write_spans(tracers, path)
        return metrics, {
            "fanout_by_team": fanout,
            "spans": str(path.relative_to(spec.ROOT)),
        }

    def _self_check(self, metrics: dict, fanout: dict) -> None:
        """Fail the traced run when a layer's predicted activity is wrong."""
        for name in self.workload.busy:
            if not metrics[name] > 0:
                self.problems.append(f"{name} is zero; the layer is predicted busy")
        for name in self.workload.idle:
            if metrics[name] != 0:
                self.problems.append(f"{name} is {metrics[name]}; predicted idle")
        if "stage-within-steps" in self.workload.checks and (
            metrics["bus.stage.calls"] > metrics["paradigms.steps"]
        ):
            self.problems.append("bus.stage.calls exceeds the episodes' steps")
        if "fanout-grows" in self.workload.checks:
            curve = [fanout[team] for team in sorted(fanout)]
            if len(curve) < 2 or any(b <= a for a, b in zip(curve, curve[1:])):
                self.problems.append(f"bus fan-out does not grow with team: {fanout}")


def _layer_metrics(tracer: tracing.Tracer, results: list, episodes: int) -> dict:
    """Per-layer metrics of one traced round (see BENCHMARK.json)."""
    self_s, calls = tracer.self_times()
    counts = tracer.counts
    out: dict[str, float] = {}
    for name in (
        "envs.candidates",
        "envs.execute",
        "planners",
        "perception.detect",
        "memory.retrieve",
        "memory.commit",
        "beliefs.update",
        "bus.flush",
        "communication.compose",
        "prompt.build",
        "behavior.decide",
        "scheduler.submit",
        "scheduler.flush",
        "paradigms.run",
        "fleet.load",
        "fleet.flush",
    ):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in (
        "prompt.dialogue",
        "prompt.candidates",
        "agent.perceive",
        "agent.plan",
        "agent.act",
        "agent.reflect",
        "metrics.finalize",
        "metrics.aggregate",
    ):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("memory.stage", "bus.stage", "clock.advance"):
        out[f"{name}.calls"] = counts[name]
    out["bus.fanout"] = counts["memory.stage"] / max(1, counts["bus.stage"])
    out["communication.sent_frac"] = tracer.messages_sent / max(
        1, calls.get("communication.compose", 0)
    )
    out["paradigms.steps"] = sum(result.steps for result in results)
    out["fleet.bytes_read"] = sum(ledger.bytes_read for ledger in tracer.ledgers)
    out["fleet.bytes_appended"] = sum(
        ledger.bytes_appended for ledger in tracer.ledgers
    )
    out["fleet.restored_frac"] = counts["fleet.decode"] / episodes
    return out


def _fanout_by_team(tracers: list[tracing.Tracer]) -> dict[int, float]:
    """memory.stage / bus.stage per team size, over every traced round."""
    staged: dict[int, int] = {}
    delivered: dict[int, int] = {}
    for tracer in tracers:
        for team, count in tracer.team_counts["bus.stage"].items():
            staged[team] = staged.get(team, 0) + count
        for team, count in tracer.team_counts["memory.stage"].items():
            delivered[team] = delivered.get(team, 0) + count
    return {
        team: delivered.get(team, 0) / count
        for team, count in sorted(staged.items())
        if count
    }


# ---------------------------------------------------------------------- #
# Processes
# ---------------------------------------------------------------------- #


def child(args: argparse.Namespace) -> int:
    """Set up (and, as the measuring child, run) one workload."""
    spec.import_repro()
    from repro.core.executor import shutdown_shared_executors

    workload = spec.WORKLOADS[args.workload]
    bench = Bench(workload, args.seed)
    try:
        first = bench.prepare(0)
        print("READY", flush=True)
        if args.role == "setup":
            return 0
        # Calibrated on both sides of the timed rounds.
        calibration = host.calibrate()
        if args.trace:
            metrics, extra = bench.trace(first, args.seconds)
        else:
            metrics, extra = bench.measure(first, args.seconds)
        calibration += host.calibrate()
        context = {
            "workload": workload.name,
            "seed": args.seed,
            **host.context(calibration),
            "unrecorded_rounds": bench.unrecorded_rounds,
            **extra,
        }
        if args.trace:
            metrics["host.calib_s"] = context["host.calib_s"]
            metrics = {
                name: {"value": value, "unit": _unit(name)}
                for name, value in metrics.items()
            }
        print(json.dumps({"context": context}))
        for problem in bench.problems[:50]:
            print(f"perfbench: {problem}", file=sys.stderr)
        if bench.unrecorded_rounds:
            print(
                f"perfbench: {bench.unrecorded_rounds} round(s) have no recorded "
                "digest for this seed; checked by invariants only",
                file=sys.stderr,
            )
        result = {
            "correct": bench.failed == 0 and not bench.problems,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": metrics,
        }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutdown_shared_executors()
        host.wait_children_gone()
        for leftover in WORK.glob(f"{workload.name}-{os.getpid()}-*"):
            shutil.rmtree(leftover, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("calls") or name.endswith("jobs") or name.endswith("steps"):
        return "count"
    if name.endswith("bytes") or "bytes_" in name:
        return "bytes"
    return "ratio"


def coordinate(args: argparse.Namespace) -> int:
    """Launch the children, time their set-up, print the result line."""
    if not (spec.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no sources at {spec.SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    samples = 1 if args.trace else SETUP_SAMPLES
    setup_s: list[float] = []
    output: list[str] = []
    for sample in range(samples):
        role = "measure" if sample == samples - 1 else "setup"
        command = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--role", role,
        ]
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        # A hung child is killed at the deadline, which also unblocks
        # the reads below.
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline()
            setup_s.append(time.perf_counter() - start)
            output = proc.stdout.read().splitlines()
            proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if ready.strip() != "READY" or proc.returncode != 0:
            print(f"perfbench: {role} child failed ({proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
    if not output:
        print("perfbench: measuring child printed no result", file=sys.stderr)
        return 1
    result = json.loads(output[-1])
    if not args.trace:
        setup = statistics.median(setup_s)
        result["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
    for line in output[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the coordinator re-invokes this file as its children.
    parser.add_argument(
        "--role",
        choices=("coordinate", "setup", "measure"),
        default="coordinate",
        help=argparse.SUPPRESS,
    )
    args = parser.parse_args(argv)
    if args.role == "coordinate":
        return coordinate(args)
    return child(args)


if __name__ == "__main__":
    sys.exit(main())
