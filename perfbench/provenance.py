"""Where a result was measured: CPUs, Python, commit and a speed probe.

The calibration time of a fixed pure-Python loop lets numbers taken on
different hosts be compared: a host that runs the loop twice as fast
should run the interpreter-bound engine about twice as fast too.
"""

from __future__ import annotations

import os
import platform
import statistics
from pathlib import Path
from time import perf_counter

__all__ = ["calibration_s", "git_sha", "host"]

_CALIBRATION_ITERATIONS = 1_000_000


def calibration_s(repeats: int = 3) -> float:
    """Median seconds of a fixed integer loop (dict and arithmetic work)."""
    times = []
    for _ in range(repeats):
        started = perf_counter()
        table: dict[int, int] = {}
        accumulator = 0
        for index in range(_CALIBRATION_ITERATIONS):
            accumulator = (accumulator * 31 + index) % 1_000_003
            table[accumulator & 1023] = index
        times.append(perf_counter() - started)
    return statistics.median(times)


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` (``None`` outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        return None
    return None


def host(root: Path) -> dict:
    """The provenance record printed with every result."""
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(root),
        "calibration_s": calibration_s(),
    }
