#!/usr/bin/env python
"""Placement-service smoke: warm store, 2-worker pool, submit/result.

End-to-end check of the service layer that ``make check`` runs on
every build:

1. a cold, traced 2-worker ``run_suite`` against a fresh
   compiled-design store — asserting each design was compiled and
   saved exactly once, in a compile process of its own, and that the
   main process then loaded every entry as a hit;
2. a second, traced 2-worker run against the now-warm store —
   asserting rows equal to the cold run's, **zero** worker-side
   ``prepare.*`` compile spans (workers map the store's entry files
   instead) and only store hits in the main process;
3. corruption recovery through the pool: truncate the warm c1 entry
   file, rerun the 2-worker suite and assert exactly one
   ``RuntimeWarning`` naming the entry's key and rows equal to the
   cold run's, then repeat step 2's warm-run checks;
4. a ``PlacementService`` submit/result round-trip over the same
   store, asserting the rows are bit-identical to the suite's.

Exits non-zero with a named assertion on any violation.
"""

from __future__ import annotations

import sys
import tempfile
import warnings

from repro.api import (
    PlacementService,
    RunOptions,
    normalize_to_handfp,
    run_suite,
)
from repro.core.config import Effort
from repro.gen.designs import suite_specs
from repro.obs import iter_spans
from repro.service import CompiledDesignStore
from repro.service.store import ENTRY_FILE

DESIGNS = ("c1", "c2")
FLOWS = ("indeda", "handfp-strip")


def _key_rows(rows):
    return [(r.design, r.flow, r.wl_meters, r.grc_percent,
             r.wns_percent, r.tns, r.wl_norm) for r in rows]


def _designs_with(payloads, name):
    """Sorted design attributes of every ``name`` span in ``payloads``."""
    return sorted(span["attrs"]["design"] for payload in payloads
                  for _depth, span in iter_spans(payload)
                  if span["name"] == name)


def _cold_run(store_dir):
    """A traced cold 2-worker suite: each design compiled once."""
    trace_opts = RunOptions(seed=1, effort=Effort.FAST, trace=True)
    cold = run_suite(scale="tiny", designs=list(DESIGNS), flows=FLOWS,
                     options=trace_opts, workers=2, store=store_dir)
    compiles = [payload for payload in cold.trace[1:]
                if payload["label"].startswith("compile-")]
    for name in ("store.compile", "store.save"):
        assert _designs_with(cold.trace, name) == sorted(DESIGNS), (
            f"a cold run must record one {name} per design, saw "
            f"{_designs_with(cold.trace, name)}")
        assert _designs_with(compiles, name) == sorted(DESIGNS), (
            f"a cold 2-worker run must record {name} in its compile "
            "processes")
    assert _designs_with(cold.trace[:1], "store.hit") \
        == sorted(DESIGNS), \
        "the main process must load every compiled entry as a hit"
    print(f"  {len(compiles)} compile processes compiled each design "
          f"once; the main process loaded every entry as a hit")
    return cold


def _warm_run(store_dir, cold) -> None:
    """A traced warm 2-worker suite: cold rows, zero worker compiles."""
    trace_opts = RunOptions(seed=1, effort=Effort.FAST, trace=True)
    warm = run_suite(scale="tiny", designs=list(DESIGNS), flows=FLOWS,
                     options=trace_opts, workers=2, store=store_dir)
    assert _key_rows(warm.rows) == _key_rows(cold.rows), \
        "warm-store rows differ from cold-store rows"

    worker_names = {span["name"]
                    for payload in warm.trace[1:]
                    for _depth, span in iter_spans(payload)}
    compile_spans = sorted(n for n in worker_names
                           if n.startswith("prepare."))
    assert not compile_spans, (
        f"warm-store workers must compile nothing, saw "
        f"{compile_spans}")
    assert "store.attach" in worker_names, \
        "warm-store workers must map the store entry files"
    main_names = {span["name"]
                  for _depth, span in iter_spans(warm.trace[0])}
    assert "store.hit" in main_names, "warm run must hit the store"
    assert "store.miss" not in main_names, \
        "warm run must not miss the store"
    print(f"  workers mapped store entries; zero prepare.* spans "
          f"({len(worker_names)} distinct worker span names)")


def main() -> int:
    opts = RunOptions(seed=1, effort=Effort.FAST)
    with tempfile.TemporaryDirectory(prefix="hidap-smoke-store-") \
            as store_dir:
        print(f"cold 2-worker suite (traced, populating store "
              f"{store_dir})")
        cold = _cold_run(store_dir)

        print("warm 2-worker suite (traced)")
        _warm_run(store_dir, cold)

        store = CompiledDesignStore(store_dir)
        key = store.key_for_spec(
            next(s for s in suite_specs("tiny") if s.name == "c1"))
        victim = store.load(key).path / ENTRY_FILE
        print(f"truncated c1 entry {victim.name}: 2-worker suite")
        victim.write_bytes(victim.read_bytes()[:victim.stat().st_size // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            repaired = run_suite(scale="tiny", designs=list(DESIGNS),
                                 flows=FLOWS, options=opts, workers=2,
                                 store=store_dir)
        store_warnings = [str(w.message) for w in caught
                          if issubclass(w.category, RuntimeWarning)]
        assert len(store_warnings) == 1 and key in store_warnings[0], (
            f"a truncated entry must warn once naming {key}, saw "
            f"{store_warnings}")
        assert _key_rows(repaired.rows) == _key_rows(cold.rows), \
            "repaired-store rows differ from cold-store rows"
        print("  recompiled with one warning; rows match the cold run")

        print("warm 2-worker suite after the repair (traced)")
        _warm_run(store_dir, cold)

        print("submit/result round-trip via PlacementService")
        with PlacementService(scale="tiny", designs=DESIGNS,
                              store=store_dir, workers=2,
                              options=opts) as service:
            handles = [service.submit(design, flow)
                       for design in DESIGNS for flow in FLOWS]
            rows = [handle.result() for handle in handles]
        normalize_to_handfp(rows)
        assert _key_rows(rows) == _key_rows(cold.rows), \
            "PlacementService rows differ from run_suite rows"

    print(f"PASS: {len(cold.rows)} rows bit-identical across "
          f"cold store, warm store, a repaired store, and "
          f"submit/result; warm workers compiled nothing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
