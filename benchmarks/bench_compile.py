#!/usr/bin/env python
"""Cold-compile record: perfbench results, a set-up profile, entry digests.

Writes ``benchmarks/artifacts/BENCH_compile.json`` for two or more
checkouts ("sides") of the program.  Per side it gathers:

* perfbench's own result files for ``service-baselines`` (copies of
  ``.perfbench/results/service-baselines-seed<N>-trace<T>.json``, one
  per run, given in run order): the ``setup_s`` sample of every
  untraced run, the medians of the other end-to-end metrics, and from
  ``--trace 1`` runs the busy time and calls of the compile layers;
* a profile of one cold 8-design bench ``PlacementService`` set-up (the
  workload's set-up) under the program's own tracer: span seconds
  summed over the main process and, where the program compiles in
  processes of its own, the payloads those return
  (``PlacementService.compile_payloads``), with the main process's
  cyclic collector passes timed through ``gc.callbacks`` (once per
  ``src``);
* per compiled store entry of c1-c8 at tiny and bench scale, the
  sha256 of the pickle blob and every out-of-band buffer, the sha256 of
  the buffers alone, and the blob's size.  Where the program has
  ``CompiledDesignStore.ensure_specs``, each scale is compiled through
  it with 2 workers, so those entries come from compile processes.

Both probes run in a fresh interpreter on the side's ``src/``.  Each
``--compare A B`` pairs the untraced runs of sides A and B by position
(run them alternately), counts the pairs B wins on ``setup_s``
(``setup_s_gain_holds``: at least nine pairs in ten and a median drop
above A's interquartile range) and lists each entry's blob bytes on
both sides.

Not collected by pytest (the file is not ``test_*``); run from the
repository root, after running perfbench in each checkout:

    python benchmarks/bench_compile.py \\
        --side before PARENT/src PARENT_RESULT.json ... \\
        --side after src RESULT.json ... --compare before after
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

OUT = Path(__file__).resolve().parent / "artifacts" / "BENCH_compile.json"

#: perfbench layers that a cold compile exercises.
LAYERS = ("store.ensure", "gen", "netlist.flatten", "hiergraph",
          "metrics.compile")

#: End-to-end metrics reported next to ``setup_s``.
END_TO_END = ("setup_s", "wall_s", "jobs_per_s", "job_p90_s",
              "peak_rss_mb", "hpwl_m", "delay_pct")

#: Spans of a cold set-up that the profile reports.
SPANS = ("store.compile", "prepare.design", "prepare.generate",
         "prepare.flat", "prepare.gnet", "prepare.gseq", "prepare.tree",
         "prepare.net_arrays", "store.save")

_PROFILE = r"""
import gc, json, sys, tempfile, time
sys.path.insert(0, sys.argv[1])
from repro.api import PlacementService
from repro.obs import Tracer, iter_spans, use_tracer

passes = {0: [0, 0.0], 1: [0, 0.0], 2: [0, 0.0]}
began = [0.0]
def timed(phase, info):
    if phase == "start":
        began[0] = time.perf_counter()
    else:
        row = passes[info["generation"]]
        row[0] += 1
        row[1] += time.perf_counter() - began[0]
tracer = Tracer("main")
with tempfile.TemporaryDirectory() as tmp:
    gc.callbacks.append(timed)
    start = time.perf_counter()
    with use_tracer(tracer):
        service = PlacementService(
            scale="bench", designs=[f"c{i}" for i in range(1, 9)],
            store=tmp, workers=2)
    setup = time.perf_counter() - start
    gc.callbacks.remove(timed)
    service.close()
payloads = [tracer.payload()] + getattr(service, "compile_payloads", [])
spans = {}
for payload in payloads:
    for _depth, span in iter_spans(payload):
        spans[span["name"]] = spans.get(span["name"], 0.0) \
            + span["t1"] - span["t0"]
print(json.dumps({
    "setup_s": setup, "spans_s": spans,
    "compile_processes": len(payloads) - 1,
    "gc_s": sum(row[1] for row in passes.values()),
    "gc_passes": {str(gen): row[0] for gen, row in passes.items()},
    "gc_gen2_s": passes[2][1]}))
"""

_DIGESTS = r"""
import hashlib, json, sys, tempfile
sys.path.insert(0, sys.argv[1])
from repro.gen.designs import suite_specs
from repro.service.store import CompiledDesignStore

out = {}
with tempfile.TemporaryDirectory() as tmp:
    store = CompiledDesignStore(tmp)
    for scale in ("tiny", "bench"):
        specs = suite_specs(scale)
        if hasattr(store, "ensure_specs"):
            entries = store.ensure_specs(specs, 2)[0]
        else:
            entries = {spec.name: store.ensure_spec(spec) for spec in specs}
        for spec in specs:
            entry = entries[spec.name]
            digest = hashlib.sha256(entry.blob())
            buffers = hashlib.sha256()
            for offset, size in entry.spans:
                digest.update(entry.image[offset:offset + size])
                buffers.update(entry.image[offset:offset + size])
            out[f"{scale}/{spec.name}"] = {
                "entry": digest.hexdigest(),
                "buffers": buffers.hexdigest(),
                "blob_bytes": len(entry.blob())}
print(json.dumps(out))
"""


def _probe(code: str, src: str) -> Dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code, src], env=env,
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def _quartiles(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def side_record(src: str, files: List[str], probes: Dict) -> Dict:
    results = [json.loads(Path(f).read_text()) for f in files]
    untraced = [r for r in results if "samples" in r]
    traced = [r for r in results if "spans" in r]
    if not untraced:
        raise SystemExit(f"{src}: no untraced perfbench result given")
    env = untraced[0]["environment"]
    record = {
        "cpu_count": env["cpu_count"],
        "platform": env["platform"],
        "python": env["python"],
        "runs": len(untraced),
        "failed_ops": sum(r["failed"] for r in untraced),
        "setup_s_samples": [s for r in untraced
                            for s in r["samples"]["setup_s"]],
        "end_to_end_median": {
            name: statistics.median(r["metrics"][name]["value"]
                                    for r in untraced)
            for name in END_TO_END},
    }
    record["setup_s"] = _quartiles(record["setup_s_samples"])
    if traced:
        metrics = traced[-1]["metrics"]
        record["trace"] = {
            layer: {"busy_s": metrics[f"{prefix}busy_s"]["value"],
                    "calls": metrics[f"{prefix}calls"]["value"]}
            for layer in LAYERS
            for prefix in [layer + ("_" if "." in layer else ".")]}
    if src not in probes:
        profile = _probe(_PROFILE, src)
        profile["spans_s"] = {name: profile["spans_s"].get(name, 0.0)
                              for name in SPANS}
        probes[src] = (profile, _probe(_DIGESTS, src))
    record["setup_profile"], record["entry_digests"] = probes[src]
    return record


def _digests(side: Dict, kind: str) -> Dict[str, str]:
    return {name: digest[kind]
            for name, digest in side["entry_digests"].items()}


def compare(before: Dict, after: Dict) -> Dict:
    pairs = list(zip(before["setup_s_samples"], after["setup_s_samples"]))
    spread = before["setup_s"]["q3"] - before["setup_s"]["q1"]
    drop = before["setup_s"]["median"] - after["setup_s"]["median"]
    return {
        "setup_s_pairs": len(pairs),
        "setup_s_pairs_won": sum(b > a for b, a in pairs),
        "setup_s_median_drop": drop,
        "setup_s_median_drop_pct": 100.0 * drop
        / before["setup_s"]["median"],
        "before_iqr_s": spread,
        "setup_s_gain_holds": (sum(b > a for b, a in pairs) * 10
                               >= 9 * len(pairs) and drop > spread),
        "entry_digests_equal": _digests(before, "entry")
        == _digests(after, "entry"),
        "buffer_digests_equal": _digests(before, "buffers")
        == _digests(after, "buffers"),
        "blob_bytes_saved": sum(before["entry_digests"][name]["blob_bytes"]
                                - after["entry_digests"][name]["blob_bytes"]
                                for name in after["entry_digests"]),
        "blob_bytes": {
            name: [before["entry_digests"][name]["blob_bytes"],
                   after["entry_digests"][name]["blob_bytes"]]
            for name in after["entry_digests"]},
        "entries_compared": len(after["entry_digests"]),
        "setup_profile_spans_s": {
            name: [before["setup_profile"]["spans_s"][name],
                   after["setup_profile"]["spans_s"][name]]
            for name in SPANS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--side", nargs="+", action="append",
                        required=True,
                        metavar="LABEL SRC RESULT",
                        help="a label, the checkout's src/ and its "
                             "perfbench result files in run order")
    parser.add_argument("--compare", nargs=2, action="append",
                        required=True, metavar=("BEFORE", "AFTER"))
    parser.add_argument("--out", type=Path, default=OUT)
    args = parser.parse_args(argv)
    sides, probes = {}, {}
    for label, src, *files in args.side:
        print(f"{label}: {len(files)} result files, probing {src}")
        sides[label] = side_record(src, files, probes)
    report = {
        "workload": "service-baselines",
        "sides": sides,
        "comparisons": {f"{a} -> {b}": compare(sides[a], sides[b])
                        for a, b in args.compare},
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True)
                        + "\n")
    for name, result in report["comparisons"].items():
        print(f"{name}: {json.dumps(result, sort_keys=True)}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
