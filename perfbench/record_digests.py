"""Record the per-cell aggregate digests the benchmark checks against.

Run from the root of a checkout, once per workload (seeds may be split
across concurrent invocations; updates to ``digests.json`` are locked)::

    python3 perfbench/record_digests.py --workload pipeline-mix --seeds 0-9,2025

Every round up to the workload's ``max_rounds`` is run on the plain
serial path — no ledger, no worker pool — so a measured run through the
fleet layer or the pool is checked against a different dispatch path.
Re-record only when a change is meant to alter results.
"""

from __future__ import annotations

import argparse
import fcntl
import json

import check
import spec


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def record(workload: spec.Workload, seed: int) -> list[str]:
    from repro.core.executor import SerialExecutor
    from repro.core.metrics import aggregate

    return [
        check.round_digest(
            [
                aggregate(SerialExecutor().run_jobs(cell))
                for cell in spec.round_jobs(workload, seed, index)
            ]
        )
        for index in range(workload.max_rounds)
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seeds", required=True, help="e.g. 0-9,2025")
    args = parser.parse_args()
    spec.import_repro()
    workload = spec.WORKLOADS[args.workload]
    for seed in _seeds(args.seeds):
        rounds = record(workload, seed)
        with open(check.DIGESTS_PATH, "a+") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            handle.seek(0)
            recorded = json.loads(handle.read() or "{}")
            recorded.setdefault(workload.name, {})[str(seed)] = rounds
            handle.seek(0)
            handle.truncate()
            json.dump(recorded, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"{workload.name} seed {seed}: {len(rounds)} rounds", flush=True)


if __name__ == "__main__":
    main()
