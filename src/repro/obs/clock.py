"""The single sanctioned wall-clock reader (the REP006 exception).

Every timing the observability layer records — span durations, a
placement's ``runtime_seconds`` — flows through this module, so
the repro-analyze REP006 rule (no wall-clock reads in kernel and
cost-model code) stays enforceable everywhere else: kernel code may
call :func:`perf_seconds` (which is not a ``time.*`` read at the call
site), and the two suppressed reads below are the only clock reads in
``src/``.  ``tests/test_analyze.py`` proves that invariant against the
analyzer's effect summaries, so a stray ``time.perf_counter()`` added
by future instrumentation fails CI instead of silently eroding the
determinism contract.

Timings read here are observability-only by construction: nothing in
this module (or in :mod:`repro.obs` at large) feeds a metric value, a
placement coordinate or an RNG stream.
"""

from __future__ import annotations

import time


def perf_seconds() -> float:
    """Monotonic high-resolution seconds (durations, span timings)."""
    return time.perf_counter()  # repro: noqa[REP006] obs clock: sole monotonic reader


def wall_seconds() -> float:
    """Epoch seconds; anchors per-process monotonic spans on one
    timeline so cross-process traces align in Perfetto."""
    return time.time()  # repro: noqa[REP006] obs clock: epoch anchor for traces
