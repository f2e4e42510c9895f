"""The five workloads.  Each is a closed loop: one caller takes one item
after another and times it from outside the program.

A workload has ``prepare()``, which imports the program; ``inputs(seed,
k)``, which builds round k's inputs from the seed without the program; and
``run_round(data, k, tracer, clock)``, which runs one round on those inputs,
checks every output and returns a Round.  A round is a fixed list of items
with the same make-up every time.  ``traced(tracer)`` puts the span
wrappers in place for a traced run, which then makes the same calls.
``scaled`` says whether the run scales its item and round times by the
calibration task (pace.py).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import time
from dataclasses import dataclass, field

import checks
import inputs
from pace import Pace
from tracing import Tracer, patched, pipeline_spans


@dataclass
class Round:
    """Times are wall seconds.  The clock times its calibration task
    between items, and a ``scaled`` workload's run scales its times by it
    (pace.py)."""

    clock: Pace
    item_seconds: list = field(default_factory=list)
    generate_seconds: float = 0.0
    failed: int = 0
    failures: list = field(default_factory=list)
    wrong: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.generate_seconds + sum(self.item_seconds)


class Item:
    """Times one item and records a program exception as a failure; one
    bad item never ends the run.  Spans opened inside carry the item's name."""

    def __init__(self, rnd: Round, name: str, tracer: Tracer | None):
        self.rnd = rnd
        self.name = name
        self.tracer = tracer
        self.ok = False

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.instance = self.name
        self.rnd.clock.sample()
        self.start = time.perf_counter()
        return self

    def __exit__(self, kind, exc, tb):
        self.rnd.item_seconds.append(time.perf_counter() - self.start)
        if kind is None:
            self.ok = True
            return False
        if not issubclass(kind, Exception):
            return False
        self.rnd.failed += 1
        self.rnd.failures.append(f"{self.name}: {kind.__name__}: {exc}")
        return True


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _check_graph(rnd: Round, name, vertices, edges, outcome, cert) -> None:
    failures, wrong = checks.graph_outcome_violations(
        vertices, edges, outcome, (cert or {}).get("classes")
    )
    rnd.failed += bool(failures)
    rnd.failures += [f"{name}: {w}" for w in failures]
    rnd.wrong += [f"{name}: {w}" for w in wrong]


def _graph_item(rnd: Round, tracer, name, parse, strategy, n, edges):
    """One graph: parse() gives (graph, frame edges or None), run_pipeline
    runs on it, and its outcome is checked against the generated edges.
    Returns the parsed graph, or None if the program raised."""
    from kotzigcdc.cli import run_pipeline

    with Item(rnd, name, tracer) as item:
        with _span(tracer, "io.parse"):
            g, frame = parse()
        with _span(tracer, "pipeline"):
            report = run_pipeline(g, name=name, strategy=strategy, frame_edges=frame)
    if not item.ok:
        return None
    _check_graph(rnd, name, list(range(n)), edges, report.outcome, report.certificate)
    return g


class Corpus10:
    """All connected cubic multigraphs on at most 10 vertices, generated
    from a cold cache every round, then each taken to its outcome under the
    corpus command's policy (two_factor, then exhaustive if that does not
    verify).  The seed sets the order the graphs run in."""

    scaled = True

    max_vertices = 10

    def prepare(self):
        import kotzigcdc.cli  # noqa: F401

    def inputs(self, seed, k):
        rng = inputs.rng_for(seed, "corpus10", k)
        return [rng.random() for _ in range(256)]

    def run_round(self, keys, k, tracer, clock):
        from kotzigcdc import cli, corpus
        from kotzigcdc.io import graph_to_json

        rnd = Round(clock)
        corpus.connected_cubic_multigraphs.cache_clear()
        gc.collect()
        clock.sample()
        start = time.perf_counter()
        if tracer is None:
            graphs = corpus.cubic_corpus(self.max_vertices)
        else:
            graphs = self._traced_generate(tracer, corpus)
        rnd.generate_seconds = time.perf_counter() - start
        plain = [(list(g.vertices), g.edges()) for g in graphs]
        rnd.wrong += checks.corpus_violations(plain, self.max_vertices)
        tasks = [(f"cubic_{k}_{i}", graph_to_json(g), "two_factor") for i, g in enumerate(graphs)]
        gc.collect()
        for i in sorted(range(len(tasks)), key=lambda i: keys[i % len(keys)]):
            with Item(rnd, tasks[i][0], tracer) as item:
                report = cli._corpus_worker(tasks[i])
            if item.ok:
                _check_graph(rnd, tasks[i][0], *plain[i], report.outcome, report.certificate)
        return rnd

    def _traced_generate(self, tracer, corpus):
        """The levels called in order from a cold cache, each in its span."""
        tracer.instance = "generate"
        for n in range(2, self.max_vertices + 1, 2):
            with tracer.span(f"corpus.level{n}"):
                corpus.connected_cubic_multigraphs(n)
        graphs = corpus.cubic_corpus(self.max_vertices)
        tracer.count("corpus.graphs", len(graphs))
        return graphs

    @contextlib.contextmanager
    def traced(self, tracer):
        """Candidates counted at insert_edge_pair; each run_pipeline call of
        _corpus_worker in a span, where a second call on the same item is a
        retry; graph_from_json in the io.parse span."""
        from kotzigcdc import cli, corpus
        from kotzigcdc import io as kio

        real_insert = corpus.insert_edge_pair
        real_pipeline = cli.run_pipeline
        real_parse = kio.graph_from_json
        last = [None]

        def insert(*args, **kwargs):
            tracer.count("corpus.candidates")
            return real_insert(*args, **kwargs)

        def attempt(*args, **kwargs):
            retry = tracer.instance == last[0]
            last[0] = tracer.instance
            if retry:
                tracer.count("cli.retries")
            with tracer.span("cli.retry" if retry else "pipeline"):
                return real_pipeline(*args, **kwargs)

        def parse(*args, **kwargs):
            with tracer.span("io.parse"):
                return real_parse(*args, **kwargs)

        with patched(corpus, "insert_edge_pair", insert), patched(
            cli, "run_pipeline", attempt
        ), patched(kio, "graph_from_json", parse), pipeline_spans(tracer):
            yield


class RandomCubic:
    """Seeded random connected simple cubic graphs, one per order in
    inputs.CUBIC_ORDERS, and the fixed inputs.NOT_COLOURABLE_GRAPH6, in
    every round; handed over as graph6 lines and run with the two_factor
    frame search."""

    scaled = True

    def prepare(self):
        import kotzigcdc.cli  # noqa: F401

    def inputs(self, seed, k):
        lines = []
        for n in inputs.CUBIC_ORDERS:
            pairs = inputs.random_cubic_pairs(n, inputs.rng_for(seed, "random_cubic", k, n))
            lines.append((f"cubic_{n}_{k}", inputs.graph6_line(n, pairs)))
        lines.append((f"not_colourable_{k}", inputs.NOT_COLOURABLE_GRAPH6))
        return [(name, line, *inputs.graph6_pairs(line)) for name, line in lines]

    def run_round(self, data, k, tracer, clock):
        from kotzigcdc.io import parse_graph6

        rnd = Round(clock)
        for name, line, n, pairs in data:
            edges = inputs.graph6_edges(n, pairs)
            g = _graph_item(rnd, tracer, name, lambda: (parse_graph6(line), None),
                            "two_factor", n, edges)
            if g is not None and sorted(g.edges()) != edges:
                rnd.wrong.append(f"{name}: parsed graph differs from the graph6 input")
        return rnd

    def traced(self, tracer):
        return pipeline_spans(tracer)


class PlantedFrames:
    """Seeded cubic graphs of a few hundred vertices built around a known
    frame (even cycles plus one even subdivision of K4), handed over as
    graph and frame JSON and run on the user_supplied frame path, which is
    `pipeline --frame-strategy file`."""

    # Over twenty runs its wall-clock throughput moved by 0.42 of the
    # calibration task's speed (correlation 0.56), where the other workloads
    # moved by 0.85 to 1.32 (correlation 0.78 to 0.94).  Its large graphs
    # probably lean on memory more than the small task does.  Scaling would add
    # the task's swings: in one run the task read 2.5 ms against 3.8 ms
    # while the items took their usual time.  Its times stay wall times.
    scaled = False

    def prepare(self):
        import kotzigcdc.cli  # noqa: F401

    def inputs(self, seed, k):
        data = []
        for n in inputs.PLANTED_ORDERS:
            edges, frame = inputs.planted_graph(n, inputs.rng_for(seed, "planted", k, n))
            graph_text = json.dumps({"vertices": list(range(n)), "edges": [list(e) for e in edges]})
            data.append((n, graph_text, json.dumps({"frame_edges": frame}), edges))
        return data

    def run_round(self, data, k, tracer, clock):
        from kotzigcdc.io import graph_from_json

        rnd = Round(clock)
        for n, graph_text, frame_text, edges in data:
            def parse():
                return graph_from_json(json.loads(graph_text)), json.loads(frame_text)["frame_edges"]

            _graph_item(rnd, tracer, f"planted_{n}_{k}", parse, "user_supplied", n, edges)
        return rnd

    def traced(self, tracer):
        return pipeline_spans(tracer)


class ScanRows:
    """The scan-rows command over one fixed space of eulerian row graphs
    (inputs.SCAN_ARGS), once per round.  The seed does not enter."""

    scaled = True

    space = None

    def prepare(self):
        import kotzigcdc.cli  # noqa: F401

    def inputs(self, seed, k):
        return list(inputs.SCAN_ARGS)

    def run_round(self, args, k, tracer, clock):
        from kotzigcdc import cli

        rnd = Round(clock)
        out = io.StringIO()
        with Item(rnd, "scan-rows", tracer) as item, contextlib.redirect_stdout(out):
            code = cli.main(["scan-rows", *args])
        if item.ok:
            self.check(rnd, args, code, out.getvalue())
        return rnd

    def check(self, rnd, args, code, text):
        lines = text.strip().splitlines()
        if code != 0 or not lines or not lines[-1].startswith("scanned "):
            rnd.failed += 1
            rnd.failures.append(f"scan-rows exited {code}: {lines[-1:]}")
            return
        words = lines[-1].split()
        scanned, found = int(words[1]), int(words[-2])
        if self.space is None:
            self.space = checks.row_space(
                int(args[args.index("--columns") + 1]), int(args[args.index("--max-edges") + 1])
            )
        raw, reps = self.space
        rnd.wrong += checks.scan_violations(scanned, found, raw, reps)
        for line in lines[:-1]:
            if line.startswith("counterexample: "):
                obj = json.loads(line.split(": ", 1)[1])
                edges = [(k, (e[0], e[1]), (e[2], e[3])) for k, e in enumerate(obj["edges"])]
                rnd.wrong += checks.oracle_violations(obj["s"], edges, None)

    @contextlib.contextmanager
    def traced(self, tracer):
        """Each next() on enumerate_row_graphs in a span, with the RowGraphs
        built inside it counted as raw and the ones yielded as kept; each
        brute_force_amiable call in a span."""
        from kotzigcdc import cli, rowgraph

        real_enumerate = cli.enumerate_row_graphs
        real_oracle = cli.brute_force_amiable

        def enumerate_rows(*args, **kwargs):
            it = real_enumerate(*args, **kwargs)
            while True:
                with tracer.span("rowgraph.enumerate"):
                    r = next(it, None)
                if r is None:
                    return
                tracer.count("rowgraph.kept")
                yield r

        def oracle(*args, **kwargs):
            tracer.count("rowgraph.oracle_calls")
            with tracer.span("rowgraph.oracle"):
                return real_oracle(*args, **kwargs)

        class CountedRowGraph(rowgraph.RowGraph):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                if tracer.inside("rowgraph.enumerate"):
                    tracer.count("rowgraph.raw")
                super().__init__(*args, **kwargs)

        with patched(cli, "enumerate_row_graphs", enumerate_rows), patched(
            cli, "brute_force_amiable", oracle
        ), patched(rowgraph, "RowGraph", CountedRowGraph):
            yield


class RowOracles:
    """Seeded random eulerian row graphs with 3 to 6 columns, within the
    oracle's 24-edge guard.  Each one goes through brute_force_amiable,
    extend_to_amiable at the identity f and find_parity_coloring in both
    modes.  An item is a batch of graphs; inputs.ROW_BATCHES gives a
    round's batches."""

    scaled = True

    def prepare(self):
        import kotzigcdc.amiable  # noqa: F401

    def inputs(self, seed, k):
        rng = inputs.rng_for(seed, "row_oracles", k)
        return [
            [(s, inputs.random_row_edges(s, rng)) for s, count in batch.items() for _ in range(count)]
            for batch in inputs.ROW_BATCHES
        ]

    def run_round(self, batches, k, tracer, clock):
        from kotzigcdc.amiable import SYMMETRIC, STANDARD, find_parity_coloring, identity_f
        from kotzigcdc.rowgraph import RowGraph, brute_force_amiable, extend_to_amiable

        rnd = Round(clock)
        for b, batch in enumerate(batches):
            name = f"rows_{k}_{b}"
            answers = []
            with Item(rnd, name, tracer) as item:
                for s, edges in batch:
                    r = RowGraph(s, edges)
                    with _span(tracer, "rowgraph.oracle"):
                        found = brute_force_amiable(r)
                    with _span(tracer, "rowgraph.extend"):
                        extension = extend_to_amiable(r, identity_f(r))
                    with _span(tracer, "amiable.parity"):
                        standard = find_parity_coloring(r, STANDARD)
                        symmetric = find_parity_coloring(r, SYMMETRIC)
                    answers.append((found, extension, standard, symmetric))
            if not item.ok:
                continue
            if tracer is not None:
                tracer.count("rowgraph.oracle_calls", len(batch))
            failures = []
            for idx, ((s, edges), (found, extension, standard, symmetric)) in enumerate(zip(batch, answers)):
                rnd.wrong += [
                    f"{name}[{idx}]: {w}"
                    for w in checks.oracle_violations(s, edges, found and (found.f, found.g))
                ]
                bad, wrong = checks.three_way_violations(s, edges, extension, standard, symmetric)
                failures += [f"{name}[{idx}]: {w}" for w in bad]
                rnd.wrong += [f"{name}[{idx}]: {w}" for w in wrong]
            rnd.failed += bool(failures)
            rnd.failures += failures
        return rnd

    def traced(self, tracer):
        return contextlib.nullcontext()


WORKLOADS = {
    "corpus10": Corpus10,
    "random_cubic": RandomCubic,
    "planted_frames": PlantedFrames,
    "scan_rows": ScanRows,
    "row_oracles": RowOracles,
}
