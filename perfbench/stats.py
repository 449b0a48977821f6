"""Summary statistics and the run environment record."""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

#: Percentiles tried, highest first, when reporting a latency tail.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% at or
    below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def hd_quantile(values: Sequence[float], prob: float) -> float:
    """Harrell-Davis estimate of the ``prob`` quantile.

    A Beta-weighted mean of all order statistics: it varies less from
    run to run than a single order statistic, most of all where the
    samples are sparse (the gap of a bimodal latency mix).
    """
    import numpy as np
    from scipy.special import betainc

    ordered = np.sort(np.asarray(values, dtype=float))
    count = len(ordered)
    if count == 0:
        raise ValueError("quantile of no samples")
    a, b = prob * (count + 1), (1.0 - prob) * (count + 1)
    weights = np.diff(betainc(a, b, np.arange(count + 1) / count))
    return float(weights @ ordered)


def beyond(count: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` percentile."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def tail(values: Sequence[float], min_beyond: int = 10
         ) -> Optional[Tuple[float, float, int]]:
    """``(pct, value, samples beyond)`` for the highest percentile of
    :data:`TAIL_PERCENTILES` that has at least ``min_beyond`` samples
    beyond it, or ``None`` when even the lowest has fewer."""
    for pct in TAIL_PERCENTILES:
        above = beyond(len(values), pct)
        if above >= min_beyond:
            return pct, percentile(values, pct), above
    return None


def describe(values: Sequence[float]) -> str:
    """``median (n=..)`` plus the qualifying tail, for the report."""
    text = f"median {statistics.median(values):.4f} (n={len(values)})"
    found = tail(values)
    if found is None:
        return text + ", no percentile has >=10 samples beyond it"
    pct, value, above = found
    return text + f", p{pct:g} {value:.4f} ({above} beyond)"


def git_sha(root: Path) -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              env=env, capture_output=True, text=True,
                              timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown"


def environment(root: Path, seed: int) -> Dict[str, object]:
    """What a result needs to be compared with another one."""
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(root),
        "seed": seed,
    }
