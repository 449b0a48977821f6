"""Run one perfbench workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload {suite-tiny,service-baselines}
        --seed N --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it are a human report.  The full result (environment, every sample and,
for a traced run, every span) is also written under ``.perfbench/``.
Exit status: 0 when every check passed, 1 when one failed, 2 when the
program under ``src/`` cannot be imported.  See ``perfbench/__init__.py``
for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(ROOT), str(ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

#: Whatever ``--seconds`` says, start no round that would, at the last
#: round's pace, end past this many seconds into the run.
ROUND_BUDGET_S = 100.0


def import_program() -> None:
    """Import the program from this checkout's ``src/``, or raise
    ``ImportError``."""
    import repro

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise ImportError(f"repro imported from {source}, not from "
                          f"{ROOT / 'src'}")
    import repro.api  # noqa: F401 - fail here, not inside a round


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def run_rounds(workload, handle, seconds: float):
    """Repeat rounds while the next one, at the last round's pace,
    ends within ``seconds`` (at least one round)."""
    rounds = []
    began = time.perf_counter()
    while True:
        rounds.append(workload.round(handle))
        elapsed = time.perf_counter() - began
        if elapsed + rounds[-1].wall > min(seconds, ROUND_BUDGET_S):
            return rounds


def measure(workload, seconds: float):
    """Untraced run: set up ``setup_repeats`` times, then on the last
    set-up run ``warmup_rounds`` untimed rounds and time the rest.

    Returns ``(setups, warm-up rounds, timed rounds)``.
    """
    setups = []
    handle = None
    try:
        for _ in range(workload.setup_repeats):
            if handle is not None:
                workload.close(handle)
                handle = None
            start = time.perf_counter()
            handle = workload.open()
            setups.append(time.perf_counter() - start)
        warmup = [workload.round(handle)
                  for _ in range(workload.warmup_rounds)]
        rounds = run_rounds(workload, handle, seconds)
    finally:
        if handle is not None:
            workload.close(handle)
    return setups, warmup, rounds


def measure_traced(workload):
    """One traced round: the wrappers go in before the set-up, so pool
    workers fork with them installed."""
    from perfbench.tracing import Recorder, installed

    recorder = Recorder()
    with installed(recorder):
        handle = workload.open()
        try:
            traced = workload.round(handle, recorder)
        finally:
            workload.close(handle)
    return traced, recorder


def contract_metrics(kind: str) -> list:
    """Names of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` lists, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [entry["name"] for entry in spec[kind]]


def end_to_end(rounds, setups):
    """Every end-to-end metric: ``name -> (value, unit, samples)``.

    Latency percentiles are Harrell-Davis estimates over the run's
    operation latencies.
    """
    from perfbench.stats import hd_quantile

    latencies = [op.latency for rnd in rounds for op in rnd.ops]
    rows = [[op.row for op in rnd.ops if op.row is not None]
            for rnd in rounds]
    rows = [rs for rs in rows if rs] or [[]]
    walls = [r.wall for r in rounds]
    rates = [len(r.ops) / r.wall for r in rounds]
    hpwl = [sum(r.wl_meters for r in rs) for rs in rows]
    delay = [statistics.fmean([100.0 - r.wns_percent for r in rs] or [0])
             for rs in rows]
    rss = peak_rss_mb()
    return {
        "wall_s": (statistics.median(walls), "s", walls),
        "jobs_per_s": (statistics.median(rates), "jobs/s", rates),
        "job_p50_s": (hd_quantile(latencies, 0.5), "s", latencies),
        "job_p90_s": (hd_quantile(latencies, 0.9), "s", latencies),
        "setup_s": (statistics.median(setups), "s", setups),
        "peak_rss_mb": (rss, "MiB", [rss]),
        "hpwl_m": (statistics.median(hpwl), "m", hpwl),
        "delay_pct": (statistics.median(delay), "%", delay),
    }


def program_digest() -> str:
    """Digest of the program's and the benchmark's sources: results of
    runs of the same code, workload and seed must agree."""
    digest = hashlib.sha256()
    paths = [*(ROOT / "src").rglob("*.py"),
             *(ROOT / "perfbench").glob("*.py"), ROOT / "BENCHMARK.json"]
    for path in sorted(paths):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def result_path(results: Path, workload: str, seed: int,
                trace: int) -> Path:
    return results / f"{workload}-seed{seed}-trace{trace}.json"


def earlier_results(results: Path, workload: str, seed: int,
                    program: str) -> dict:
    """Earlier results of this program, workload and seed, by trace
    flag."""
    found = {}
    for trace in (0, 1):
        path = result_path(results, workload, seed, trace)
        if path.is_file():
            record = json.loads(path.read_text())
            if record.get("program") == program:
                found[trace] = record
    return found


def stop_helpers() -> None:
    """Stop the helper processes started on the program's behalf and
    wait for each to end.

    Pool workers are joined by ``PlacementService.close``; what is left
    is the resource tracker that ``SharedMemory(create=True)`` starts.
    It would exit only after noticing that this process has gone, so a
    run would outlive its own exit.  Closing its pipe stops it.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite-tiny", "service-baselines"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS/OpenMP thread per process, set before numpy loads:
    # ``suite-tiny`` stays single-threaded, and two pool workers do not
    # run four BLAS threads on two cores.  Children inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        return run(args)
    finally:
        stop_helpers()


def run(args) -> int:
    """One run of ``args.workload``: measure, check, report."""
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}",
              file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: BENCHMARK.json is missing", file=sys.stderr)
        return 2
    from perfbench.stats import describe, environment
    from perfbench.workloads import (
        WORK_DIR,
        WORKLOADS,
        check_rounds,
        row_digest,
    )

    gated = contract_metrics("per_layer" if args.trace else "end_to_end")
    workload = WORKLOADS[args.workload](args.seed)
    env = environment(ROOT, args.seed)
    program = program_digest()
    print(f"perfbench {workload.name} seed={args.seed} "
          f"trace={args.trace}: {workload.why}")
    print("environment: " + json.dumps(env, sort_keys=True))

    if args.trace:
        from perfbench.tracing import layer_metrics

        traced, recorder = measure_traced(workload)
        rounds = [traced]
        sink = recorder.sink
        metrics = layer_metrics(sink.spans, sink.counts, sink.pid,
                                (traced.start, traced.start + traced.wall))
        record = {"spans": sink.spans, "counts": sink.counts}
        report = {name: f"{value:.6g} {unit}"
                  for name, (value, unit) in metrics.items()}
    else:
        setups, warmup, timed = measure(workload, args.seconds)
        # Warm-up rounds are checked like the others but not timed.
        rounds = warmup + timed
        samples = end_to_end(timed, setups)
        metrics = {name: (value, unit)
                   for name, (value, unit, _s) in samples.items()}
        record = {"samples": {name: s for name, (_v, _u, s)
                              in samples.items()},
                  "first_round_wall_s": rounds[0].wall}
        report = {name: f"{value:.6g} {unit}; samples: {describe(s)}"
                  for name, (value, unit, s) in samples.items()}

    missing = [name for name in gated if name not in metrics]
    if missing:
        raise KeyError(f"BENCHMARK.json lists unmeasured metrics {missing}")
    attempted, failed, problems = check_rounds(rounds)
    rows = [row_digest(op.row) for op in rounds[0].ops
            if op.row is not None]
    results = WORK_DIR / "results"
    earlier = earlier_results(results, workload.name, args.seed, program)
    for trace, record_before in sorted(earlier.items()):
        if record_before["rows"] != rows:
            problems.append(f"rows differ from the earlier --trace {trace} "
                            "run with this seed")
    if args.trace and 0 in earlier:
        # The traced round is the first after set-up: compare it with
        # the untraced first round, warm-up or not.
        untraced = earlier[0]["first_round_wall_s"]
        report["tracing overhead"] = (
            f"{traced.wall - untraced:.6g} s (traced {traced.wall:.6g} s "
            f"- untraced first round {untraced:.6g} s, same seed)")
    elif args.trace:
        report["tracing overhead"] = ("run --trace 0 with this seed first "
                                      "to measure it")
    correct = failed == 0 and not problems
    for name, text in report.items():
        print(f"  {name:32s} {text}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    result = {"correct": correct, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name][0],
                                 "unit": metrics[name][1]}
                          for name in gated}}
    path = result_path(results, workload.name, args.seed, args.trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(
        dict(result, environment=env, program=program, rows=rows,
             problems=problems, **record), indent=1) + "\n")
    print(f"  result written to {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
