"""Percentiles, provenance and the one-table view of benchmark results."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: a tail percentile must leave at least this many samples beyond it
TAIL_SAMPLES = 10
#: in-process rounds: tail percentiles are the median over this many
#: windows (a round is one sample, standing for all its auths)
TAIL_WINDOWS = 32


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q * n)``-th smallest value."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q``."""
    return n - max(1, math.ceil(q * n)) if n else 0


def tail_supported(n: int, q: float = 0.99) -> bool:
    """Whether ``n`` samples leave :data:`TAIL_SAMPLES` beyond ``q``."""
    return samples_beyond(n, q) >= TAIL_SAMPLES


def supported_windows(n: int, q: float = 0.99) -> int:
    """How many equal-count windows ``n`` samples fill when each holds
    the fewest samples that leave :data:`TAIL_SAMPLES` beyond ``q``."""
    fewest = TAIL_SAMPLES
    while not tail_supported(fewest, q):
        fewest += 1
    return max(1, n // fewest)


def count_windows(times: Sequence[float], windows: int
                  ) -> Tuple[List[int], List[float]]:
    """Split samples, in time order, into ``windows`` of equal count.

    Returns each sample's window and the windows' time edges: the first
    time of each window, then the last time.  With equal counts no
    window runs short of samples however unevenly they arrive.
    """
    n = len(times)
    order = sorted(range(n), key=times.__getitem__)
    index = [0] * n
    for rank, sample in enumerate(order):
        index[sample] = rank * windows // n
    firsts = [min(-(-window * n // windows), n - 1)
              for window in range(windows)]
    return index, [times[order[rank]] for rank in firsts] \
        + [times[order[-1]]]


def windowed_percentile(samples: Sequence[Tuple[float, float]], q: float,
                        windows: int = TAIL_WINDOWS) -> Tuple[float, int]:
    """Median, over windows, of each window's ``q`` percentile.

    ``samples`` are ``(time, value)``, split by :func:`count_windows`.
    A burst of slowness on a shared host moves the percentile of the
    windows it falls in, not the figure.  Returns the figure and the
    smallest window's sample count, which the tail rule applies to.
    """
    index, __ = count_windows([at for at, __ in samples], windows)
    groups: Dict[int, List[float]] = {}
    for window, (__, value) in zip(index, samples):
        groups.setdefault(window, []).append(value)
    return (statistics.median([percentile(group, q)
                               for group in groups.values()]),
            min(len(group) for group in groups.values()))


def peak_rss_mb() -> float:
    """This process's peak resident set since its last exec, in MiB.

    ``VmHWM`` rather than ``ru_maxrss``: the latter survives ``exec`` on
    Linux, so a child would report its parent's peak.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- provenance -------------------------------------------------------------

def git_sha(root: str) -> Optional[str]:
    """HEAD's commit id read from ``root/.git``, without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except (FileNotFoundError, NotADirectoryError):
        pass
    return None


def source_sha256(root: str) -> str:
    """Digest of every ``src/**/*.py`` file: the code that was measured."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def machine() -> Dict[str, object]:
    """CPU model, core count and interpreter/numpy versions."""
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def append_record(path: str, record: dict) -> None:
    """Append one JSON record; earlier records are never rewritten."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def provenance(root: str, workload: str, seed: int, trace: bool) -> dict:
    return {"utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "git_sha": git_sha(root), "source_sha256": source_sha256(root),
            "machine": machine(), "workload": workload, "seed": seed,
            "trace": trace}


# -- the table --------------------------------------------------------------

def table(rows: List[dict]) -> str:
    """One line per metric: workload, name, value, unit, sample count."""
    header = ("workload", "metric", "value", "unit", "samples")
    body = [(row["workload"], row["name"], f"{row['value']:.6g}",
             row["unit"], str(row["samples"])) for row in rows]
    widths = [max(len(line[i]) for line in [header, *body])
              for i in range(len(header))]
    lines = ["  ".join(cell.ljust(width) for cell, width
                       in zip(line, widths)).rstrip()
             for line in [header, *body]]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)
