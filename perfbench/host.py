"""Host-side measurements: CPU seconds, peak memory, worker processes.

Linux only (``/proc``): worker CPU is summed from every thread's
``schedstat`` (nanosecond run time) so a round of a second or two is
measured without the 10 ms tick of ``/proc/<pid>/stat``.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from pathlib import Path


def self_cpu_s() -> float:
    """User + system CPU of this process, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def child_pids() -> list[int]:
    """Live (non-zombie) direct children of this process."""
    me = os.getpid()
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command name: state, ppid, ...
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == me and state != "Z":
            pids.append(int(entry.name))
    return sorted(pids)


def process_cpu_s(pid: int) -> float:
    """Run time of every thread of ``pid``, in seconds (0 once gone)."""
    total = 0
    try:
        for task in Path(f"/proc/{pid}/task").iterdir():
            try:
                total += int((task / "schedstat").read_text().split()[0])
            except (OSError, ValueError, IndexError):
                continue
    except OSError:
        return 0.0
    return total / 1e9


def workers_cpu_s(pids: list[int]) -> float:
    return sum(process_cpu_s(pid) for pid in pids)


def peak_rss_mb(pids: list[int]) -> float:
    """Peak RSS of this process plus that of its largest worker, in MiB."""
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kib = 0
    for pid in pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    worker_kib = max(worker_kib, int(line.split()[1]))
        except OSError:
            continue
    return (own_kib + worker_kib) / 1024.0


def wait_children_gone(timeout_s: float = 60.0) -> bool:
    """Block until no live child is left; False on timeout."""
    deadline = time.monotonic() + timeout_s
    while child_pids():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


def _calibration_kernel() -> int:
    total = 0
    for i in range(300_000):
        total += (i * i) % 7
    return total


def calibrate(repeats: int = 5) -> list[float]:
    """Seconds per run of a fixed pure-Python kernel.

    Recorded with every run and never used to rescale a metric: a slowed
    shared host shows up here instead of as a phantom regression.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _calibration_kernel()
        times.append(time.perf_counter() - start)
    return times


def context(calibration: list[float]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "host.calib_s": statistics.median(calibration),
    }
