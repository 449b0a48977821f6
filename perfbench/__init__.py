"""perfbench: the repository's one placement benchmark.

Run it from the repository root::

    python3 perfbench/run.py --workload suite-tiny --seed 1 --seconds 45 --trace 0

The command builds nothing: it imports the program from ``src/``,
drives it only through ``repro.api`` / ``repro.service``, checks the
outputs, prints a human report and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` prints the per-layer
metrics of a traced run.  It exits 1 when a correctness check fails
and 2 when the program cannot be imported.

Workloads
=========
Each takes the workload seed; the program only sees the inputs the
seed generates.  All load comes from one process, and every process
runs one BLAS/OpenMP thread.  ``suite-tiny`` is single-threaded;
``service-baselines`` uses two pool workers and two client threads
(sized for a 2-core machine).

``suite-tiny``
    One round is ``run_suite(scale="tiny", designs=("c1", "c2"),
    flows=DEFAULT_FLOWS, options=RunOptions(seed, effort="fast"))``,
    serial.  Six operations (suite rows).  The paper's Table III
    protocol; placer-bound (floorplan, shape curves and flip dominate).
    ``hidap-best3`` builds shape curves three times per design on the
    same tree and config, so work shared across lambda values shows
    here; annealing runs one restart per level.
``service-baselines``
    Set-up constructs ``PlacementService(scale="bench", designs=c1..c8,
    store=<fresh directory>, workers=2)``: a cold store compile, the
    shared-memory export and the pool start.  One round is a closed
    loop of two client threads, each submitting its next job only after
    ``result()`` returned: ``indeda`` and ``handfp-strip`` on all eight
    designs, twice each (32 jobs), in an order and with per-job
    seeds drawn from the workload seed.  It never runs the HiDaP placer,
    so a placer optimisation should predict no change here; it
    exercises the store, the shm handoff, pool dispatch and queueing,
    the baselines and the referee.  One untimed warm-up round follows
    the set-up: it pays each worker's first attach of each design, once
    per service lifetime, and is checked like the timed rounds.

A third workload, one user's bench-scale ``hidap place`` on c2 and c5,
was dropped: with two operations per run its timings spread over runs
by more than any bound, and a third workload left no time for longer
runs.  Its layers are all measured here: the placer layers on
``suite-tiny``, the bench-scale prepare layers in the set-up of
``service-baselines``.

End-to-end metrics (``--trace 0``)
==================================
An operation is one suite row or one job.  A round is the timed phase
above; after any warm-up, a run repeats rounds (same seed, same
inputs) while the next one, at the last one's pace, ends within
``--seconds``, at least once.  At 45 seconds that is one ``suite-tiny``
round and about four ``service-baselines`` rounds.  Timings are
reported as the median; the report also gives the sample count and the
highest percentile with at least ten samples beyond it.

=============== ======= ======= ==============================================
name            unit    better  definition
=============== ======= ======= ==============================================
``wall_s``      s       lower   wall time of one round, median over the run
``jobs_per_s``  jobs/s  higher  operations of a round / its wall time, median
``job_p50_s``   s       lower   median operation latency: suite rows from the
                                time the previous row was printed, jobs from
                                submit to ``result()``
``job_p90_s``   s       lower   90th percentile of the same latencies
``setup_s``     s       lower   median of the run's set-ups: for
                                ``suite-tiny`` three fresh interpreters
                                importing ``repro.api`` and resolving the
                                flows (what every ``hidap`` process pays); for
                                ``service-baselines`` one service constructor
                                (cold store compile, shm export, pool start)
``peak_rss_mb`` MiB     lower   peak resident set of the benchmark process or
                                of its largest child (the pool workers)
``hpwl_m``      m       lower   sum of the referee's ``wl_meters`` over the
                                round's rows
``delay_pct``   %       lower   mean over rows of ``100 - wns_percent``: the
                                critical path as a percentage of the clock
                                period (100 when timing is met)
=============== ======= ======= ==============================================

Per-layer metrics (``--trace 1``)
=================================
A traced run installs wrappers around each layer's public functions
(patched where their callers look them up, restored in a ``finally``)
and runs one round, set-up included.  Spans (name, start, end, pid,
parent, operation id) stay in memory and are written to ``.perfbench/``
at the end; pool workers, forked after the wrappers are installed, ship
their spans back on each job's row.  ``<layer>.busy_s`` is self time (span time minus
the time its child spans cover), ``<layer>.calls`` the span count; a
layer spelled ``group.part`` reports ``group.part_busy_s`` and
``group.part_calls``.  Counts and ratios repeat exactly between traced
runs with the same seed.

Which end-to-end metric each layer should move, and where:

* ``gen`` (``build_design``), ``netlist.flatten`` (``flatten``),
  ``hiergraph`` (``build_gnet`` / ``build_gseq`` / ``build_hierarchy``)
  and ``metrics.compile`` (``net_arrays_for`` / ``stdcell_arrays_for`` /
  ``timing_arrays_for``): ``setup_s`` on ``service-baselines``; they
  should stay at or under 3% of ``suite-tiny``.
  ``netlist.flatten_calls`` reads 3 per prepared
  design (``build_design``, ``die_for`` and ``PreparedDesign.flat``
  each flatten).
* ``store.ensure`` (``CompiledDesignStore.ensure_spec``),
  ``store.materialize`` (``StoreEntry.materialize``), ``shm.export``
  (``export_entry``), ``shm.attach`` (``ShmHandoff.materialize``),
  ``jobs.submit`` (``PlacementService.submit``), ``jobs.run_s`` (worker
  time in ``engine.run_cell``) and ``jobs.wait_s`` (job latency minus
  worker run time): ``job_p90_s``, ``jobs_per_s`` and ``peak_rss_mb``
  on ``service-baselines`` only.  ``jobs.run_coverage`` is the share of
  worker run time that child spans cover.
* ``hidap.place`` (``HiDaP.place``), ``shapecurve``
  (``generate_shape_curves``), ``floorplan``
  (``RecursiveFloorplanner.run``), ``layout`` (``generate_layout``),
  ``anneal`` (``Annealer.run``), ``flip`` (``flip_macros``) and
  ``legalize`` (``legalize_macros``), with the counts ``anneal.moves``
  and ``anneal.accept_ratio`` (from ``AnnealResult``),
  ``legalize.moves`` (the return value of ``legalize_macros``) and
  ``anneal.cost_cache_hit_ratio``, ``layout.expand_ratio``,
  ``subtree.hit_ratio`` and ``compose.hit_ratio`` (from
  ``RunArtifacts.eval_counters`` after ``place`` returns).  Shape-curve
  time, like floorplan, layout, anneal and flip time, should move
  ``wall_s`` on ``suite-tiny``; ``service-baselines`` should see no
  change.
* ``baselines.indeda`` (``place_indeda``) and ``baselines.handfp``
  (``place_handfp``): ``jobs_per_s`` and ``job_p90_s`` on
  ``service-baselines``.
* ``referee`` (``evaluate_placement``) with ``referee.stdcell``
  (``place_cells``), ``referee.timing`` (``analyze_timing``),
  ``referee.hpwl`` and ``referee.congestion`` (the numpy backend
  kernels): ``jobs_per_s`` on ``service-baselines``.

Run-level trace metrics: ``trace.wall_s`` (the traced round's wall
time) and ``trace.top_coverage`` (the share of the traced round that
top-level spans of the benchmark process cover).  The report also
prints the tracing overhead, ``trace.wall_s`` minus the first round's
wall time in an earlier ``--trace 0`` run of the same program and
seed (the traced round is also the first after its set-up)::

    python3 perfbench/run.py --workload suite-tiny --seed 3 --trace 0
    python3 perfbench/run.py --workload suite-tiny --seed 3 --trace 1

Correctness
===========
An exception is a failed operation, and so is a row that fails a
check: every ``hidap`` row must be legal (``macro_overlap == 0``;
baseline rows only report their overlap), every row needs a finite,
positive wirelength, and in ``service-baselines`` every repeat of one
(design, flow) must return an identical row.  Runs with the same seed
must produce identical row digests: rounds within a run are compared,
and each run compares its rows with the results an earlier run of the
same workload, seed and code (a digest of ``src/`` and of the
benchmark) left in ``.perfbench/results/``, traced or not.
"""
