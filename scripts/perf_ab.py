"""A/B one perfbench metric between a base revision and this checkout.

Exports the committed tree of ``--base`` (``git archive``) into a
temporary directory, then runs ``perfbench/run.py`` alternately in that
tree and in this checkout's working tree, ``--pairs`` times.  Pair ``i``
runs the base first when ``i`` is even and the change first when it is
odd, so drift in host speed falls on both sides alike.  Both sides run
with the same workload, seed and ``--seconds``.

It prints, per pair, both values and their ratio (change / base); then
each side's median and quartiles, the change's win count (ties count for
neither side) and whether the gain rule holds: the change wins at least
nine tenths of the pairs and the medians differ by more than the
distance between the base's quartiles.  The metric's direction
(``higher`` or ``lower`` is better) comes from ``BENCHMARK.json``.  A
last table gives both sides' medians of every end-to-end metric and how
much worse the change reads than the base, next to the metric's bound.

Usage::

    python scripts/perf_ab.py --base HEAD~1 [--workload dialogue-scale]
        [--pairs 10] [--seconds 20] [--seed N] [--metric episodes_per_s]

or ``make perf-ab BASE=<rev> WORKLOAD=<name> PAIRS=10``.  Ten 20 s pairs
take about ten minutes.  Exits 1 if any run reports ``"correct": false``
or prints no result line, and 2 on bad arguments; a gain that does not
hold is reported, not an error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def export_tree(rev: str, dest: Path) -> None:
    """Write the committed files of ``rev`` into ``dest / "tree"``.

    An archive, not a worktree: nothing is registered in the repository,
    so an interrupted run leaves nothing behind to prune.  ``tar``
    unpacks it, since ``tarfile``'s safe ``filter`` argument is missing
    from early Python 3.11 releases.
    """
    tree = dest / "tree"
    tree.mkdir()
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", rev],
        stdout=subprocess.PIPE,
        check=True,
    )
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)


def run_once(root: Path, args: argparse.Namespace) -> dict:
    """One perfbench run in ``root``; its result line, parsed.

    A run that is not correct, or prints no result line, passes its
    stderr (perfbench's list of problems) through.
    """
    command = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        args.workload,
        "--seconds",
        str(args.seconds),
    ]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    if not result.get("correct", False):
        sys.stderr.write(proc.stderr[-2000:])
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, mid, high


def benchmark_spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def direction(metric: str) -> str:
    spec = benchmark_spec()
    for entry in spec["end_to_end"] + spec["per_layer"]:
        if entry["name"] == metric:
            return entry["better"]
    raise SystemExit(f"perf_ab: metric {metric!r} is not in BENCHMARK.json")


def bounds_table(results: dict[str, list[dict]]) -> None:
    """Every end-to-end metric: both medians and the change's worsening
    against its ``BENCHMARK.json`` bound."""
    print(f"{'metric':>15} {'base':>10} {'change':>10} {'worse by':>9} {'bound':>6}")
    for entry in benchmark_spec()["end_to_end"]:
        name = entry["name"]
        medians = {}
        for side, runs in results.items():
            got = [
                run["metrics"][name]["value"]
                for run in runs
                if name in run.get("metrics", {})
            ]
            medians[side] = statistics.median(got) if got else float("nan")
        base, change = medians["base"], medians["change"]
        worse = (base - change) / base if entry["better"] == "higher" else (change - base) / base
        verdict = "over bound" if worse > entry["bound"] else "ok"
        print(f"{name:>15} {base:>10.4g} {change:>10.4g} {worse:>+9.1%} "
              f"{entry['bound']:>6.0%} {verdict}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", default="dialogue-scale")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--metric", default="episodes_per_s")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    better = direction(args.metric)

    values: dict[str, list[float]] = {"base": [], "change": []}
    results: dict[str, list[dict]] = {"base": [], "change": []}
    correct = True
    with tempfile.TemporaryDirectory(prefix="perf-ab-") as tmp:
        export_tree(args.base, Path(tmp))
        roots = {"base": Path(tmp) / "tree", "change": REPO}
        print(f"{args.metric} ({better} is better), workload {args.workload}, "
              f"{args.seconds:g} s runs, base {args.base}")
        print(f"{'pair':>4} {'first':>6} {'base':>12} {'change':>12} {'ratio':>7}",
              flush=True)
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            got = {}
            for side in order:
                result = run_once(roots[side], args)
                results[side].append(result)
                if not result.get("correct", False):
                    correct = False
                    print(f"{side} run of pair {pair} is not correct "
                          f"({result.get('failed', 'no result')} failed)")
                metric = result.get("metrics", {}).get(args.metric)
                got[side] = metric["value"] if metric else float("nan")
                values[side].append(got[side])
            ratio = got["change"] / got["base"] if got["base"] else float("nan")
            print(f"{pair:>4} {order[0]:>6} {got['base']:>12.4g} "
                  f"{got['change']:>12.4g} {ratio:>7.3f}", flush=True)

    wins = sum(
        (change > base) if better == "higher" else (change < base)
        for base, change in zip(values["base"], values["change"])
    )
    summary = {side: quartiles(vals) for side, vals in values.items()}
    for side, (low, mid, high) in summary.items():
        print(f"{side:>6}: median {mid:.4g}  quartiles {low:.4g}-{high:.4g}")
    base_spread = summary["base"][2] - summary["base"][0]
    gap = summary["change"][1] - summary["base"][1]
    if better == "lower":
        gap = -gap
    # A gain over runs whose outputs are wrong counts for nothing.
    holds = correct and wins >= 0.9 * args.pairs and gap > base_spread
    print(f"change wins {wins} of {args.pairs} pairs; median ratio "
          f"{summary['change'][1] / summary['base'][1]:.3f}; base quartile "
          f"spread {base_spread:.4g}; gain {'holds' if holds else 'not shown'}")
    bounds_table(results)
    if not correct:
        print("perf_ab: at least one run reported \"correct\": false")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
