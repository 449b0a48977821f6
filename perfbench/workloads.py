"""The two workloads: inputs from a seed, set-up, one timed round.

See the package docstring for what each workload does and why.  A
round returns one :class:`Op` per operation; the checks that need more
than one row at a time live in :func:`check_rounds`.
"""

from __future__ import annotations

import hashlib
import math
import random
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from perfbench.tracing import PAYLOAD_ATTR, Recorder

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space (temporary stores, result files) inside the checkout.
WORK_DIR = ROOT / ".perfbench"

SUITE_DESIGNS = ("c1", "c2")
SERVICE_DESIGNS = tuple(f"c{i}" for i in range(1, 9))
SERVICE_FLOWS = ("indeda", "handfp-strip")
SERVICE_REPEATS = 2
SERVICE_WORKERS = 2
SERVICE_CLIENTS = 2
#: Longest a client waits for one job before counting it failed.
JOB_TIMEOUT_S = 120.0
#: Longest the set-up's import probe may run before it is killed.
PROBE_TIMEOUT_S = 120.0


@dataclass
class Op:
    """One operation: a suite row or a job."""

    key: str
    latency: float
    row: object = None
    error: Optional[str] = None


@dataclass
class Round:
    """The outcome of one timed round."""

    wall: float
    ops: List[Op]
    start: float = 0.0
    expected: int = 0
    problems: List[str] = field(default_factory=list)


def row_digest(row) -> str:
    """Digest of a row's deterministic fields (no timings)."""
    fields = (row.design, row.flow, row.wl_meters, row.grc_percent,
              row.wns_percent, row.tns, row.wl_norm, row.macro_overlap,
              row.lam)
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


def row_problem(row) -> Optional[str]:
    """Why a single row is wrong, or ``None``."""
    if not (math.isfinite(row.wl_meters) and row.wl_meters > 0):
        return f"{row.design}/{row.flow}: wirelength {row.wl_meters!r}"
    if not math.isfinite(row.wns_percent):
        return f"{row.design}/{row.flow}: WNS {row.wns_percent!r}"
    if row.flow == "hidap" and row.macro_overlap != 0:
        return (f"{row.design}/{row.flow}: illegal, macro overlap "
                f"{row.macro_overlap!r}")
    return None


def _import_probe(flows: Sequence[str], seed: int) -> None:
    """Run a fresh interpreter that imports the API and resolves
    ``flows``: what every ``hidap place`` process pays first."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from repro.api import get_flow; "
            "[get_flow(f, seed=int(sys.argv[2])) for f in sys.argv[3:]]")
    argv = [sys.executable, "-c", code, str(ROOT / "src"), str(seed),
            *flows]
    # A blocking wait, bounded by a timer: ``wait(timeout=...)`` polls
    # in steps of up to 50 ms, which would quantise the set-up time.
    with subprocess.Popen(argv, cwd=ROOT,
                          stdout=subprocess.DEVNULL) as child:
        timer = threading.Timer(PROBE_TIMEOUT_S, child.kill)
        timer.start()
        try:
            status = child.wait()
        finally:
            timer.cancel()
            timer.join()
    if status != 0:
        raise subprocess.CalledProcessError(status, argv)


@contextmanager
def _operation(recorder: Optional[Recorder], key: str) -> Iterator[None]:
    if recorder is None:
        yield
    else:
        with recorder.operation(key):
            yield


class _RowClock:
    """A stdout stand-in that timestamps every printed line."""

    def __init__(self):
        self.stamps: List[float] = []

    def write(self, text: str) -> int:
        now = time.perf_counter()
        self.stamps.extend(now for _ in range(text.count("\n")))
        return len(text)

    def flush(self) -> None:
        pass


class Workload:
    """Base: ``open`` is the timed set-up, ``round`` the timed phase."""

    name = ""
    why = ""
    setup_repeats = 3
    #: Untimed rounds between the set-up and the timed rounds.
    warmup_rounds = 0

    def __init__(self, seed: int):
        self.seed = seed

    def open(self):
        return None

    def close(self, handle) -> None:
        pass

    def round(self, handle, recorder: Optional[Recorder] = None
              ) -> Round:
        raise NotImplementedError


class SuiteTiny(Workload):
    name = "suite-tiny"
    why = ("the paper's Table III protocol, serial: placer-bound, and "
           "best-of-3 shares work across lambda values")

    def open(self):
        from repro.api import DEFAULT_FLOWS
        _import_probe(DEFAULT_FLOWS, self.seed)

    def round(self, handle, recorder=None) -> Round:
        from repro.api import DEFAULT_FLOWS, RunOptions, run_suite

        keys = [f"{d}/{f}" for d in SUITE_DESIGNS for f in DEFAULT_FLOWS]
        clock = _RowClock()
        start = time.perf_counter()
        try:
            with redirect_stdout(clock):
                result = run_suite(
                    scale="tiny", designs=SUITE_DESIGNS,
                    flows=DEFAULT_FLOWS, verbose=True,
                    options=RunOptions(seed=self.seed, effort="fast"))
        except Exception as exc:  # noqa: BLE001 - a failed operation
            wall = time.perf_counter() - start
            ops = [Op(key, wall, error=repr(exc)) for key in keys]
            return Round(wall, ops, start, len(keys))
        wall = time.perf_counter() - start
        stamps = [start] + clock.stamps[:len(result.rows)]
        ops = [Op(f"{row.design}/{row.flow}", stamps[i + 1] - stamps[i],
                  row)
               for i, row in enumerate(result.rows)]
        return Round(wall, ops, start, len(keys))


def service_jobs(seed: int) -> List[Tuple[str, str, int]]:
    """The closed loop's job list: ``(design, flow, job seed)``.

    Every (design, flow) pair appears :data:`SERVICE_REPEATS` times;
    the order and the per-job seeds come from ``seed``.
    """
    rng = random.Random(seed)
    pairs = [(d, f) for d in SERVICE_DESIGNS for f in SERVICE_FLOWS]
    jobs = pairs * SERVICE_REPEATS
    rng.shuffle(jobs)
    return [(d, f, rng.randrange(1 << 31)) for d, f in jobs]


class ServiceHandle:
    """A placement service over a fresh store directory.

    Owns both: :meth:`close` shuts the service down and removes the
    directory.
    """

    def __init__(self):
        from repro.api import PlacementService

        WORK_DIR.mkdir(exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(prefix="store-",
                                               dir=WORK_DIR)
        try:
            self.service = PlacementService(
                scale="bench", designs=SERVICE_DESIGNS,
                store=self.tmp.name, workers=SERVICE_WORKERS)
        except BaseException:
            self.tmp.cleanup()
            raise

    def close(self) -> None:
        try:
            self.service.close()
        finally:
            self.tmp.cleanup()


class ServiceBaselines(Workload):
    name = "service-baselines"
    why = ("pooled service, baselines only: store, shm handoff, pool "
           "queueing and referee; the HiDaP placer never runs")
    #: One cold compile costs ~12 s on 2 cores; repeating it would not
    #: fit the benchmark's time budget, and its median over runs is
    #: steady.
    setup_repeats = 1
    #: The first round after set-up pays each worker's first attach of
    #: each design, once per service lifetime: measure the warm service.
    warmup_rounds = 1

    def open(self) -> ServiceHandle:
        return ServiceHandle()

    def close(self, handle: ServiceHandle) -> None:
        handle.close()

    def round(self, handle: ServiceHandle, recorder=None) -> Round:
        jobs = service_jobs(self.seed)
        pending = iter(enumerate(jobs))
        lock = threading.Lock()
        done: List[Optional[Op]] = [None] * len(jobs)

        def client() -> None:
            while True:
                with lock:
                    job = next(pending, None)
                if job is None:
                    return
                done[job[0]] = _run_job(handle.service, job, recorder)

        threads = [threading.Thread(target=client, name=f"client-{i}")
                   for i in range(SERVICE_CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        ops = [op for op in done if op is not None]
        problems = []
        by_pair: Dict[str, set] = {}
        for op in ops:
            if op.row is not None:
                by_pair.setdefault(f"{op.row.design}/{op.row.flow}",
                                   set()).add(row_digest(op.row))
        for pair, digests in sorted(by_pair.items()):
            if len(digests) != 1:
                problems.append(f"{pair}: {len(digests)} distinct rows "
                                "across repeats")
        return Round(wall, ops, start, len(jobs), problems)


def _run_job(service, job, recorder: Optional[Recorder]) -> Op:
    """Submit one job, wait for its row, account its trace."""
    from repro.api import RunOptions

    index, (design, flow, seed) = job
    key = f"job-{index}"
    began = time.perf_counter()
    try:
        with _operation(recorder, key):
            handle = service.submit(design, flow,
                                    options=RunOptions(seed=seed))
            row = handle.result(timeout=JOB_TIMEOUT_S)
    except Exception as exc:  # noqa: BLE001 - a failed operation
        return Op(key, time.perf_counter() - began, error=repr(exc))
    latency = time.perf_counter() - began
    payload = vars(row).pop(PAYLOAD_ATTR, None)
    if recorder is not None and payload is not None:
        spans, counts = payload
        run = sum(s[2] - s[1] for s in spans if s[0] == "jobs.run")
        recorder.absorb((spans, dict(counts, **{
            "jobs.wait_s": latency - run})), key)
    return Op(key, latency, row)


WORKLOADS = {cls.name: cls for cls in (SuiteTiny, ServiceBaselines)}


def check_rounds(rounds: Sequence[Round]) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` over a run's rounds.

    A failed operation raised or produced a wrong row.  Beyond single
    rows, rounds with the same seed must produce identical digests.
    """
    attempted = failed = 0
    problems: List[str] = []
    for rnd in rounds:
        attempted += rnd.expected
        failed += rnd.expected - len(rnd.ops)
        problems.extend(rnd.problems)
        for op in rnd.ops:
            problem = op.error or (row_problem(op.row)
                                   if op.row is not None else "no row")
            if problem is not None:
                failed += 1
                problems.append(f"{op.key}: {problem}")
    digests = [[row_digest(op.row) for op in rnd.ops
                if op.row is not None] for rnd in rounds]
    if any(d != digests[0] for d in digests[1:]):
        problems.append("rounds with the same seed produced different "
                        "rows")
    return attempted, failed, problems

