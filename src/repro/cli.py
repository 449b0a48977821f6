"""Command-line interface: ``hidap <subcommand>``.

Subcommands
-----------
``gen``    generate a suite design to JSON (and optionally Verilog);
``place``  place a design's macros with a chosen flow, emit JSON/SVG;
``suite``  run the paper's three-flow comparison and print the tables;
``serve``  run a placement service: JSON job requests on stdin, JSON
           results on stdout, compiled designs cached in ``--store``;
``flows``  list every registered flow (the registry drives dispatch);
``info``   print design statistics and graph sizes.

Flow dispatch goes through :mod:`repro.api`: any name printed by
``hidap flows`` — including parameterized specs such as
``hidap:lam=0.8`` and flows registered by third-party code — is valid
wherever a flow is expected.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.api import (
    FlowError,
    PreparedDesign,
    UnknownFlowError,
    available_flows,
    flow_descriptions,
    get_flow,
    run_suite,
    split_flow_specs,
)
from repro.core.config import Effort
from repro.eval.tables import format_table2, format_table3
from repro.gen.designs import build_design, die_for, suite_specs
from repro.netlist.jsonio import load_design, save_design
from repro.netlist.stats import design_stats
from repro.netlist.verilog import design_to_verilog
from repro.viz.svg import svg_floorplan


class _BadDesign(Exception):
    """A design argument naming no suite design of the scale, or a
    ``.json`` file that cannot be loaded (reported by main)."""


def _spec_by_name(name: str, scale: str):
    specs = suite_specs(scale)
    for spec in specs:
        if spec.name == name:
            return spec
    known = ", ".join(spec.name for spec in specs)
    raise _BadDesign(f"unknown suite design {name!r} for scale "
                     f"{scale!r} (known: {known})")


def _load_design(args: argparse.Namespace):
    """``(design, truth)`` for ``args.design``: a suite name or a
    ``.json`` design file (which carries no ground truth)."""
    if args.design.endswith(".json"):
        try:
            return load_design(args.design), None
        except (OSError, ValueError) as exc:
            # ValueError covers DesignFormatError and JSONDecodeError.
            raise _BadDesign(f"cannot load {args.design}: {exc}") from None
    return build_design(_spec_by_name(args.design, args.scale))


def _fail(message: str) -> int:
    """Report a user error without a bare SystemExit traceback."""
    print(f"hidap: error: {message}", file=sys.stderr)
    return 2


def cmd_gen(args: argparse.Namespace) -> int:
    spec = _spec_by_name(args.design, args.scale)
    design, _truth = build_design(spec)
    save_design(design, args.out)
    print(f"wrote {args.out}: {design_stats(design).summary()}")
    if args.verilog:
        with open(args.verilog, "w") as handle:
            handle.write(design_to_verilog(design))
        print(f"wrote {args.verilog}")
    return 0


def cmd_place(args: argparse.Namespace) -> int:
    from repro.obs import (
        Tracer,
        render_summary,
        use_tracer,
        write_chrome_trace,
    )

    design, truth = _load_design(args)
    die_w, die_h = die_for(design) if args.die is None else args.die

    defaults = {"seed": args.seed, "effort": Effort(args.effort)}
    if args.lam is not None:
        # Offered to the flow factory; silently dropped for flows
        # whose signature has no lam (e.g. indeda).
        defaults["lam"] = args.lam
    tracing = bool(args.trace or args.verbose)
    tracer = Tracer("main") if tracing else None
    try:
        placer = get_flow(args.flow, **defaults)
        prepared = PreparedDesign(design=design, die_w=die_w,
                                  die_h=die_h, truth=truth)
        if tracing:
            with use_tracer(tracer):
                placement = placer.place(prepared)
        else:
            placement = placer.place(prepared)
    except UnknownFlowError as exc:
        return _fail(f"{exc} (see `hidap flows`)")
    except FlowError as exc:
        return _fail(str(exc))

    if args.trace:
        write_chrome_trace(args.trace, [tracer.payload()])
        print(f"wrote {args.trace} (open in https://ui.perfetto.dev)")
    if args.verbose:
        print(render_summary([tracer.payload()]))

    print(placement.summary())
    out = {
        "design": placement.design_name,
        "flow": placement.flow_name,
        "die": [die_w, die_h],
        "macros": {
            placed.path: {
                "x": placed.rect.x, "y": placed.rect.y,
                "w": placed.rect.w, "h": placed.rect.h,
                "orientation": placed.orientation.value}
            for placed in placement.macros.values()},
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(out, handle, indent=1)
        print(f"wrote {args.out}")
    if args.svg:
        rects = [(p.path, p.rect) for p in placement.macros.values()]
        with open(args.svg, "w") as handle:
            handle.write(svg_floorplan(placement.die, rects))
        print(f"wrote {args.svg}")
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    from repro.api import RunOptions

    designs = args.designs.split(",") if args.designs else None
    kwargs = {}
    options = RunOptions(seed=args.seed, effort=Effort(args.effort),
                         trace=args.trace or bool(args.verbose))
    try:
        if args.flows:
            kwargs["flows"] = tuple(split_flow_specs(args.flows))
        result = run_suite(scale=args.scale, designs=designs,
                           verbose=True, workers=args.workers,
                           options=options, store=args.store,
                           **kwargs)
    except FlowError as exc:
        return _fail(f"{exc} (see `hidap flows`)")
    except (ValueError, OSError) as exc:
        # OSError: an unusable --store path (e.g. a file).
        return _fail(str(exc))
    print()
    print(format_table3(result.rows, result.design_info))
    print()
    print(format_table2(result.rows))
    print(f"\nsuite wall-clock: {result.total_seconds:.1f}s")
    if args.trace:
        print(f"wrote {args.trace} (open in https://ui.perfetto.dev)")
    if args.verbose and result.trace:
        from repro.obs import render_summary
        print()
        print(render_summary(result.trace))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """JSON-lines placement service over stdin/stdout.

    Each input line is a job request
    ``{"design": "c1", "flow": "hidap", "seed": 1}`` (``flow`` and
    ``seed`` optional; ``seed`` must be a JSON integer); each output
    line is an event object — ``ready``, ``queued`` per accepted job,
    then ``done``/``failed`` per job in submission order.  Malformed
    requests produce an ``error`` event instead of killing the
    service.
    """
    from repro.api import RunOptions
    from repro.service import PlacementService

    designs = args.designs.split(",") if args.designs else None
    options = RunOptions(seed=args.seed, effort=Effort(args.effort))

    def emit(payload):
        print(json.dumps(payload), flush=True)

    try:
        service = PlacementService(scale=args.scale, designs=designs,
                                   store=args.store,
                                   workers=args.workers,
                                   options=options)
    except (ValueError, OSError) as exc:
        # OSError: an unusable --store path (e.g. a file).
        return _fail(str(exc))
    with service:
        emit({"event": "ready", "scale": args.scale,
              "designs": list(service.designs),
              "workers": args.workers or 0,
              "store": args.store})
        handles = []
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
                design, seed = request["design"], request.get("seed")
                if seed is not None and type(seed) is not int:
                    raise TypeError(f"seed must be an integer, "
                                    f"got {seed!r}")
                handle = service.submit(design,
                                        request.get("flow", "hidap"),
                                        seed=seed)
            except (ValueError, KeyError, TypeError) as exc:
                emit({"event": "error", "error": str(exc)})
                continue
            handles.append(handle)
            emit({"event": "queued", "job": handle.job_id,
                  "design": handle.design, "flow": handle.flow})
        for handle in handles:
            try:
                row = handle.result()
                emit({"event": "done", "job": handle.job_id,
                      "design": row.design, "flow": row.flow,
                      "wl_meters": row.wl_meters,
                      "grc_percent": row.grc_percent,
                      "wns_percent": row.wns_percent,
                      "tns": row.tns,
                      "placer_seconds": row.placer_seconds})
            except Exception as exc:
                emit({"event": "failed", "job": handle.job_id,
                      "design": handle.design, "flow": handle.flow,
                      "error": str(exc)})
    return 0


def cmd_flows(args: argparse.Namespace) -> int:
    del args
    print("registered flows:")
    for name, description in flow_descriptions():
        print(f"  {name:14s} {description}")
    print("\nparameterized specs: <name>:key=value,...  "
          "e.g. hidap:lam=0.8")
    print("register your own with repro.api.register_flow(...)")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    design, _truth = _load_design(args)
    stats = design_stats(design)
    print(stats.summary())
    prepared = PreparedDesign(design=design, die_w=0.0, die_h=0.0)
    print(f"flat: {prepared.flat}")
    print(f"gnet: {prepared.gnet}")
    print(f"gseq: {prepared.gseq}")
    print(f"die (55% util): {die_for(design)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hidap",
        description="RTL-aware dataflow-driven macro placement "
                    "(DATE 2019 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a suite design")
    p.add_argument("design", help="suite name (c1..c8)")
    p.add_argument("--scale", default="bench",
                   choices=("tiny", "bench", "full"))
    p.add_argument("--out", default="design.json")
    p.add_argument("--verilog", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("place", help="place macros")
    p.add_argument("design", help="suite name or design .json")
    p.add_argument("--flow", default="hidap",
                   help="flow name or spec (see `hidap flows`); "
                        f"registered: {', '.join(available_flows())}")
    p.add_argument("--scale", default="bench",
                   choices=("tiny", "bench", "full"))
    p.add_argument("--lam", type=float, default=None,
                   help="λ for hidap flows (default 0.5; "
                        "hidap-best3 sweeps {0.2,0.5,0.8} unless set)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--effort", default="normal",
                   choices=("fast", "normal", "high"))
    p.add_argument("--die", type=float, nargs=2, default=None,
                   metavar=("W", "H"))
    p.add_argument("--out", default=None, help="placement JSON path")
    p.add_argument("--svg", default=None, help="floorplan SVG path")
    p.add_argument("--trace", default=None, metavar="OUT.json",
                   help="record spans to a Chrome trace-event file "
                        "(view in Perfetto / chrome://tracing)")
    p.add_argument("--verbose", action="store_true",
                   help="print a per-stage timing footer")
    p.set_defaults(func=cmd_place)

    p = sub.add_parser("suite", help="run the three-flow comparison")
    p.add_argument("--scale", default="tiny",
                   choices=("tiny", "bench", "full"))
    p.add_argument("--designs", default=None,
                   help="comma-separated subset, e.g. c1,c3")
    p.add_argument("--flows", default=None,
                   help="comma-separated flows "
                        "(default: indeda,hidap-best3,handfp; "
                        "see `hidap flows`)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--effort", default="fast",
                   choices=("fast", "normal", "high"))
    p.add_argument("--workers", type=int, default=None,
                   help="fan (design, flow) pairs over N processes")
    p.add_argument("--trace", default=None, metavar="OUT.json",
                   help="record spans (incl. per-worker ones) to a "
                        "Chrome trace-event file")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="persistent compiled-design store: designs "
                        "compile at most once, ever; warm runs skip "
                        "every prepare/compile step")
    p.add_argument("--verbose", action="store_true",
                   help="print a per-task timing footer")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser(
        "serve",
        help="placement service: JSON jobs stdin -> results stdout")
    p.add_argument("--scale", default="tiny",
                   choices=("tiny", "bench", "full"))
    p.add_argument("--designs", default=None,
                   help="comma-separated designs to serve "
                        "(default: all for the scale)")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="persistent compiled-design store directory")
    p.add_argument("--workers", type=int, default=None,
                   help="worker pool size (default: in-process)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--effort", default="fast",
                   choices=("fast", "normal", "high"))
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("flows", help="list registered flows")
    p.set_defaults(func=cmd_flows)

    p = sub.add_parser("info", help="print design statistics")
    p.add_argument("design", help="suite name or design .json")
    p.add_argument("--scale", default="bench",
                   choices=("tiny", "bench", "full"))
    p.set_defaults(func=cmd_info)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _BadDesign as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
