"""Correctness gate: per-cell aggregate digests and episode invariants.

Every round's per-cell ``AggregateResult``\\ s are hashed and compared
with the digest recorded in ``digests.json`` for that workload, seed
and round (``record_digests.py`` writes them).  A round whose digest
differs counts all of its episodes as failed.  Seeds without a recorded
digest still get the invariant checks below and, on ``fleet-resume``,
the restored-equals-fresh check, and the run says so on stderr.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def _canonical(value):
    """JSON-ready form that distinguishes every float bit and enum member."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, dict):
        items = [[_canonical(k), _canonical(v)] for k, v in value.items()]
        return sorted(items, key=lambda item: json.dumps(item[0]))
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, float):
        return repr(value)
    return value


def digest(value) -> str:
    """64-bit hex digest of a result object's canonical JSON."""
    blob = json.dumps(_canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def round_digest(aggregates: list) -> str:
    """Digest of one round: a hash over its per-cell aggregate digests."""
    cells = " ".join(digest(aggregate) for aggregate in aggregates)
    return hashlib.sha256(cells.encode("utf-8")).hexdigest()[:16]


def load_recorded() -> dict:
    """``{workload: {seed: [round digest, ...]}}``."""
    if not DIGESTS_PATH.exists():
        return {}
    return json.loads(DIGESTS_PATH.read_text())


def episode_problems(job, result) -> list[str]:
    """Invariants every episode result must satisfy, whatever its seed."""
    problems = []
    if result.workload != job.config.name:
        problems.append(f"workload {result.workload!r} != {job.config.name!r}")
    if not 1 <= result.steps <= result.horizon:
        problems.append(f"steps {result.steps} outside [1, {result.horizon}]")
    if result.horizon != job.task.horizon:
        problems.append(f"horizon {result.horizon} != task {job.task.horizon}")
    if not (math.isfinite(result.sim_seconds) and result.sim_seconds > 0):
        problems.append(f"sim_seconds {result.sim_seconds!r}")
    if not 0.0 <= result.goal_progress <= 1.0:
        problems.append(f"goal_progress {result.goal_progress!r}")
    if not 0 <= result.messages_useful <= result.messages_sent:
        problems.append(
            f"messages useful/sent {result.messages_useful}/{result.messages_sent}"
        )
    if min(result.llm_calls, result.prompt_tokens, result.output_tokens) < 0:
        problems.append("negative llm call or token count")
    split = result.deployment_tokens.values()
    if sum(p for p, _ in split) != result.prompt_tokens or sum(
        o for _, o in split
    ) != result.output_tokens:
        problems.append("deployment token split does not sum to the totals")
    return problems
