"""Command line interface: pipeline runs, certificate checks, scans.

Exit codes: 0 success/verified, 1 verification failure, 2 no frame or
witness found, 3 input error, a usage error included.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .amiable import amiable_coloring_for_frame
from .cdc import CdcCertificate, construct_6cdc, verify_cdc
from .corpus import cubic_corpus
from .errors import (
    ConstructionInvariantError,
    FrameError,
    GraphFormatError,
    HypothesisError,
    NotCubicError,
    OracleLimitError,
)
from .frame import frame_to_json, find_well_connected_frame_coloring, search_frames
from .io import graph_to_json, load_graphs
from .multigraph import Multigraph
from .rowgraph import (
    brute_force_amiable,
    check_orbit_columns,
    enumerate_row_graphs,
    row_graph_to_json,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NO_FRAME = 2
EXIT_INPUT = 3

JOBS_ENV = "KOTZIGCDC_JOBS"
# what reading a bad graph, frame or certificate file raises (RecursionError: JSON nested too deep)
UNREADABLE = (GraphFormatError, OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError)


@dataclass
class RunReport:
    """Per-instance pipeline outcome; the embedded certificate always
    re-verifies when the outcome says so."""

    name: str
    # verified | no_frame | no_witness | invariant_error | input_error | crashed
    outcome: str = "pending"
    frames_tried: int = 0
    frame: dict | None = None
    certificate: dict | None = None
    trace: dict | None = None
    error: str | None = None
    seconds: float = 0.0
    stages: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "outcome": self.outcome,
            "frames_tried": self.frames_tried,
            "stages": self.stages,
            "frame": self.frame,
            "certificate": self.certificate,
            "trace": self.trace,
            "error": self.error,
            "seconds": round(self.seconds, 4),
        }


def run_pipeline(
    g: Multigraph,
    name: str = "graph",
    strategy: str = "two_factor",
    frame_edges=None,
    collect_trace: bool = False,
) -> RunReport:
    """Frame search, witness search, amiable construction, cover assembly
    and verification, reporting the stage reached."""
    report = RunReport(name=name)
    start = time.perf_counter()
    try:
        for frame in search_frames(g, strategy, frame_edges=frame_edges):
            report.frames_tried += 1
            found = find_well_connected_frame_coloring(frame)
            if found is None:
                continue
            report.stages.append("well_connected")
            coloring, witness = found
            frame2, coloring2, rows, amiable, trace = amiable_coloring_for_frame(
                g, frame, coloring, witness
            )
            report.stages.append("amiable")
            certificate = construct_6cdc(g, frame2, coloring2, rows, amiable, trace)
            check = verify_cdc(g, certificate)
            if not check.valid:
                report.outcome = "invariant_error"
                report.error = "; ".join(check.violations)
                break
            report.stages.append("cdc_verified")
            report.outcome = "verified"
            report.frame = frame_to_json(frame2)
            # a K-component whose every base edge is one frame edge has no
            # 2-valent vertex: a degenerate subdivision, worth surfacing
            degenerate = [
                c.label
                for c in frame2.components
                if c.kind == "K" and len(c.edge_ids) == len(c.classification.path_map)
            ]
            if degenerate:
                report.frame["degenerate_k_components"] = degenerate
            report.certificate = certificate.to_json()
            if collect_trace:
                report.trace = trace.to_json()
            break
        else:
            report.outcome = "no_frame" if report.frames_tried == 0 else "no_witness"
    except (ConstructionInvariantError, HypothesisError) as exc:
        report.outcome = "invariant_error"
        report.error = str(exc)
    report.seconds = time.perf_counter() - start
    return report


def _load_single_graph(path: str, fmt: str | None) -> Multigraph:
    graphs = load_graphs(path, fmt)
    if len(graphs) != 1:
        raise GraphFormatError(f"{path} holds {len(graphs)} graphs, expected one")
    return graphs[0]


def _strategy_from_args(args) -> tuple[str, list | None]:
    if args.frame_strategy == "file":
        if not args.frame_file:
            raise GraphFormatError("--frame-strategy file needs --frame-file")
        obj = json.loads(Path(args.frame_file).read_text())
        if not isinstance(obj, dict) or "frame_edges" not in obj:
            raise GraphFormatError(f"{args.frame_file} has no frame_edges")
        if not isinstance(obj["frame_edges"], list):
            raise GraphFormatError(f"{args.frame_file}: frame_edges is not a list")
        if any(isinstance(e, (list, dict)) for e in obj["frame_edges"]):
            raise GraphFormatError(f"{args.frame_file}: frame_edges holds a non-scalar edge id")
        return "user_supplied", obj["frame_edges"]
    return args.frame_strategy.replace("-", "_"), None


def cmd_pipeline(args) -> int:
    try:
        g = _load_single_graph(args.graph, args.format)
        strategy, frame_edges = _strategy_from_args(args)
    except (*UNREADABLE, NotCubicError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        report = run_pipeline(
            g,
            name=args.graph,
            strategy=strategy,
            frame_edges=frame_edges,
            collect_trace=bool(args.trace),
        )
    except (FrameError, GraphFormatError, NotCubicError, OracleLimitError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.trace and report.trace is not None:
        Path(args.trace).write_text(json.dumps(report.trace, indent=2, default=repr) + "\n")
    if args.certificate and report.certificate is not None:
        Path(args.certificate).write_text(json.dumps(report.certificate, indent=2) + "\n")
    if args.report:
        Path(args.report).write_text(json.dumps(report.to_json(), indent=2, default=repr) + "\n")
    print(json.dumps(report.to_json() if args.verbose else {
        "name": report.name,
        "outcome": report.outcome,
        "frames_tried": report.frames_tried,
        "seconds": round(report.seconds, 3),
    }, indent=2, default=repr))
    if report.outcome == "verified":
        return EXIT_OK
    if report.outcome in ("no_frame", "no_witness"):
        return EXIT_NO_FRAME
    return EXIT_INVALID


def cmd_verify(args) -> int:
    try:
        g = _load_single_graph(args.graph, args.format)
        cert = CdcCertificate.from_json(json.loads(Path(args.certificate).read_text()))
    except UNREADABLE as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = verify_cdc(g, cert)
    if report.valid:
        print("certificate valid: every edge covered exactly twice")
        return EXIT_OK
    print("certificate INVALID:")
    for v in report.violations:
        print(f"  - {v}")
    return EXIT_INVALID


def cmd_scan_rows(args) -> int:
    """Scan synthetic row graphs with eulerian column contraction, one per
    rearrangement orbit, for amiable-coloring counterexamples; archive any
    hit verbatim."""
    archive_dir = Path(args.archive) if args.archive else None
    scanned = 0
    counterexamples = 0
    try:
        check_orbit_columns(args.columns)
        if archive_dir:
            archive_dir.mkdir(parents=True, exist_ok=True)
        for s in range(1, args.columns + 1):
            for r in enumerate_row_graphs(
                s, args.max_edges, eulerian_only=True, up_to_rearrangement=True
            ):
                scanned += 1
                try:
                    found = brute_force_amiable(r, max_edges=args.oracle_limit)
                except OracleLimitError as exc:
                    raise OracleLimitError(f"{exc}; raise --oracle-limit to scan it") from None
                if found is None:
                    counterexamples += 1
                    payload = row_graph_to_json(r)
                    if archive_dir:
                        out = archive_dir / f"counterexample_{counterexamples:04d}.json"
                        out.write_text(json.dumps(payload, indent=2) + "\n")
                        print(f"counterexample archived: {out}")
                    else:
                        print(f"counterexample: {json.dumps(payload)}")
    except OracleLimitError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(f"scanned {scanned} row graphs (s <= {args.columns}, edges <= {args.max_edges}); "
          f"{counterexamples} counterexamples")
    return EXIT_OK


def _corpus_worker(payload):
    """Run one corpus graph; a two_factor miss is retried with exhaustive.
    The returned report's seconds cover both attempts.  A graph the
    pipeline rejects as input, or whose first search runs past its size
    guard, ends ``input_error`` with the message; any other exception ends
    ``crashed`` with its type and message.  So one bad instance never ends
    the run."""
    name, graph_json, strategy = payload
    from .io import graph_from_json

    start = time.perf_counter()
    try:
        g = graph_from_json(graph_json)
        report = run_pipeline(g, name=name, strategy=strategy)
        if report.outcome in ("no_frame", "no_witness") and strategy == "two_factor":
            try:
                retry = run_pipeline(g, name=name, strategy="exhaustive")
            except OracleLimitError:
                return report
            kept = retry if retry.outcome == "verified" else report
            kept.seconds = report.seconds + retry.seconds
            return kept
        return report
    except (FrameError, GraphFormatError, NotCubicError, OracleLimitError) as exc:
        return RunReport(
            name=name,
            outcome="input_error",
            error=str(exc),
            seconds=time.perf_counter() - start,
        )
    except Exception as exc:  # the corpus run goes on; the report keeps the fault
        return RunReport(
            name=name,
            outcome="crashed",
            error=f"{type(exc).__name__}: {exc}",
            seconds=time.perf_counter() - start,
        )


def _seconds_by_outcome(reports) -> dict:
    """Per outcome: instance count, and the sum, median and 95th percentile
    (nearest rank) of the instances' seconds."""
    times: dict = {}
    for rep in reports:
        times.setdefault(rep.outcome, []).append(rep.seconds)
    out = {}
    for outcome, values in sorted(times.items()):
        values.sort()
        p50, p95 = (values[max(0, math.ceil(q * len(values)) - 1)] for q in (0.5, 0.95))
        out[outcome] = {
            "count": len(values),
            "seconds_sum": round(sum(values), 4),
            "seconds_p50": round(p50, 4),
            "seconds_p95": round(p95, 4),
        }
    return out


def cmd_corpus(args) -> int:
    raw_jobs = args.jobs if args.jobs is not None else os.environ.get(JOBS_ENV, "1")
    try:
        jobs = int(raw_jobs)
    except ValueError:
        jobs = 0
    if jobs < 1:
        print(f"input error: worker count {raw_jobs!r} is not a positive integer", file=sys.stderr)
        return EXIT_INPUT
    strategy = args.frame_strategy.replace("-", "_")
    tasks = []
    unreadable = []  # a file that does not load is one input_error instance
    if args.directory:
        if not Path(args.directory).is_dir():
            print(f"input error: {args.directory} is not a directory", file=sys.stderr)
            return EXIT_INPUT
        for path in sorted(Path(args.directory).glob("*")):
            if path.suffix not in (".json", ".g6", ".s6", ".graph6", ".txt"):
                continue
            try:
                graphs = load_graphs(path)
            except UNREADABLE as exc:
                unreadable.append(RunReport(name=path.name, outcome="input_error", error=str(exc)))
                continue
            for idx, g in enumerate(graphs):
                tasks.append((f"{path.name}[{idx}]", graph_to_json(g), strategy))
    else:
        try:
            graphs = cubic_corpus(args.max_vertices)
        except OracleLimitError as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        for idx, g in enumerate(graphs):
            tasks.append((f"cubic_{g.num_vertices()}v_{idx}", graph_to_json(g), strategy))
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            reports = unreadable + pool.map(_corpus_worker, tasks)
    else:
        reports = unreadable + [_corpus_worker(t) for t in tasks]
    by_outcome = _seconds_by_outcome(reports)
    aggregate = {
        "instances": len(reports),
        "outcomes": {outcome: row["count"] for outcome, row in by_outcome.items()},
        "seconds_by_outcome": by_outcome,
        "reports": [r.to_json() for r in reports],
    }
    if args.report:
        Path(args.report).write_text(json.dumps(aggregate, indent=2, default=repr) + "\n")
    print(json.dumps({"instances": len(reports), "outcomes": aggregate["outcomes"]}, indent=2))
    if "invariant_error" in by_outcome or "crashed" in by_outcome:
        return EXIT_INVALID
    if "input_error" in by_outcome:
        return EXIT_INPUT
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main prints it: exit 3, as exit 2 means no frame
        raise argparse.ArgumentError(None, message)


def _count(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kotzigcdc",
        description="Constructive 6-class cycle double covers of cubic graphs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pipeline", help="find a frame and build a verified cover")
    p.add_argument("graph", help="graph file (graph6/sparse6 line or JSON)")
    p.add_argument("--frame-strategy", choices=["two-factor", "exhaustive", "file"],
                   default="two-factor")
    p.add_argument("--frame-file", help="frame JSON for --frame-strategy file")
    p.add_argument("--format", choices=["graph6", "json"], default=None)
    p.add_argument("--certificate", help="write the certificate JSON here")
    p.add_argument("--trace", help="write the construction trace JSON here")
    p.add_argument("--report", help="write the full report JSON here")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("verify", help="re-check a certificate against its graph")
    p.add_argument("graph")
    p.add_argument("certificate")
    p.add_argument("--format", choices=["graph6", "json"], default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan-rows", help="scan row graphs for amiable-coloring counterexamples")
    p.add_argument("--columns", type=_count, default=2, help="max number of columns")
    p.add_argument("--max-edges", type=_count, default=6)
    p.add_argument("--oracle-limit", type=int, default=24)
    p.add_argument("--archive", help="directory for counterexample files")
    p.set_defaults(func=cmd_scan_rows)

    p = sub.add_parser("corpus", help="run the pipeline over a directory or generated corpus")
    p.add_argument("directory", nargs="?", help="directory of graph files")
    p.add_argument("--max-vertices", type=_count, default=10,
                   help="generate all connected cubic multigraphs up to this order")
    p.add_argument("--frame-strategy", choices=["two-factor", "exhaustive"],
                   default="two-factor")
    p.add_argument("--jobs", default=None, help=f"workers (default ${JOBS_ENV} or 1)")
    p.add_argument("--report", help="write the aggregate report JSON here")
    p.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
