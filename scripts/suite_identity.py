"""Suite identity check: every way the suite runs prints the same report.

Runs ``python -m repro.experiments.suite`` at ``REPRO_TRIALS=1`` five
ways and compares each report, section by section, with the committed
golden ``tests/experiments/goldens/GOLDEN_suite_trials1.json``:

1. ``serial`` — one process, no ledger;
2. ``workers2`` — ``REPRO_WORKERS=2``;
3. ``ledger`` — under a fresh ``REPRO_LEDGER``;
4. ``resumed`` — again against that ledger, which must restore every
   episode (the ledger file may not grow);
5. ``partitioned`` — serial, ``REPRO_BUDGET_PARTITION=1
   REPRO_BUDGET_TOKENS=2000000`` under a fresh ledger, so several
   sections trip their share of the budget and the suite exits 2.

Runs 1–4 must match the golden's ``plain`` report and exit 0; run 5
must match its ``partitioned`` report and exit 2.  Before hashing, the
``(generated in X.Xs wall)`` timing suffix is dropped from each section
title and the ledger path is replaced by ``<ledger>``; the rest of the
text is compared as sha256 per section.  Every inherited ``REPRO_*``
variable is cleared first, so only the knobs above shape a run.

Usage::

    PYTHONPATH=src python scripts/suite_identity.py        # check
    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python scripts/suite_identity.py

The second form rewrites the golden from the ``serial`` and
``partitioned`` runs (and still checks the other three against it);
commit the diff alongside the change that caused it.  Exits non-zero
with the differing sections on any mismatch.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO / "tests" / "experiments" / "goldens" / "GOLDEN_suite_trials1.json"
TRIALS = 1

RULE = "=" * 72
TIMING = re.compile(r"  \(generated in [0-9.]+s wall\)$")
#: Lines ``suite.main`` prints after the report on a budget trip.
TRAILER = re.compile(r"^suite (over budget in|stopped):")


def sections(text: str, ledger: str | None) -> dict[str, str]:
    """Split a report into ``{title: sha256}``, timing and path removed.

    Lines printed after the last section on a budget trip hash under
    the key ``(trailer)``.
    """
    if ledger:
        text = text.replace(ledger, "<ledger>")
    lines = text.rstrip("\n").split("\n")
    trailer: list[str] = []
    while lines and TRAILER.match(lines[-1]):
        trailer.insert(0, lines.pop())
    bodies: dict[str, list[str]] = {}
    current: list[str] | None = None
    index = 0
    while index < len(lines):
        if (
            lines[index] == RULE
            and index + 2 < len(lines)
            and lines[index + 2] == RULE
        ):
            title = TIMING.sub("", lines[index + 1])
            current = bodies.setdefault(title, [])
            index += 3
            continue
        if current is None:
            raise ValueError(f"text before the first section: {lines[index]!r}")
        current.append(lines[index])
        index += 1
    if trailer:
        bodies["(trailer)"] = trailer
    return {
        title: hashlib.sha256("\n".join(body).strip("\n").encode()).hexdigest()
        for title, body in bodies.items()
    }


def run_suite(knobs: dict[str, str]) -> tuple[int, str, float]:
    env = {
        key: value for key, value in os.environ.items() if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_TRIALS"] = str(TRIALS)
    env.update(knobs)
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments.suite"],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode not in (0, 2):
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout, time.perf_counter() - started


def compare(name: str, got: dict[str, str], want: dict[str, str]) -> list[str]:
    return [
        f"{name}: section {title!r} differs from the golden"
        for title in sorted(set(got) | set(want))
        if got.get(title) != want.get(title)
    ]


def main() -> int:
    regen = os.environ.get("REPRO_REGEN_GOLDENS", "").strip() == "1"
    with tempfile.TemporaryDirectory(prefix="suite-identity-") as scratch:
        ledger = str(Path(scratch) / "ledger.jsonl")
        partition_ledger = str(Path(scratch) / "partition.jsonl")
        modes = [
            ("serial", "plain", 0, {}, None),
            ("workers2", "plain", 0, {"REPRO_WORKERS": "2"}, None),
            ("ledger", "plain", 0, {"REPRO_LEDGER": ledger}, ledger),
            ("resumed", "plain", 0, {"REPRO_LEDGER": ledger}, ledger),
            (
                "partitioned",
                "partitioned",
                2,
                {
                    "REPRO_LEDGER": partition_ledger,
                    "REPRO_BUDGET_PARTITION": "1",
                    "REPRO_BUDGET_TOKENS": "2000000",
                },
                partition_ledger,
            ),
        ]
        golden = {} if regen else json.loads(GOLDEN_PATH.read_text())["reports"]
        problems: list[str] = []
        for name, report, want_code, knobs, path in modes:
            if name == "resumed":
                ledger_size = Path(ledger).stat().st_size
            code, text, seconds = run_suite(knobs)
            print(f"suite-identity: {name}: exit {code} in {seconds:.1f}s")
            if code != want_code:
                problems.append(f"{name}: exit {code}, expected {want_code}")
                continue
            if name == "resumed" and Path(ledger).stat().st_size != ledger_size:
                problems.append("resumed: the ledger grew, so episodes re-ran")
            got = sections(text, path)
            if regen:
                golden.setdefault(report, got)
            problems.extend(compare(name, got, golden[report]))
    if regen:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps({"trials": TRIALS, "reports": golden}, indent=2) + "\n"
        )
        print(f"suite-identity: wrote {GOLDEN_PATH.relative_to(REPO)}")
    if problems:
        print("suite-identity: FAIL")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"suite-identity: ok — 5 run modes match {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
