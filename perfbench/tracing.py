"""Spans recorded around calls into the program's public functions.

Spans live in memory (name, start, end, parent, instance) and are written
out when the run ends.  The program itself is not instrumented: a traced
run swaps the module attributes through which the program calls its own
public functions for wrappers that open a span around each call, and then
makes the same calls as an untraced run.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.instance = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "instance": self.instance,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def inside(self, name: str) -> bool:
        return bool(self._open) and self.spans[self._open[-1]]["name"] == name

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def write(self, path: Path, summary: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"summary": summary, "spans": self.spans}) + "\n")


@contextlib.contextmanager
def patched(module, name: str, replacement):
    """Swap a module attribute for the length of the block."""
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield original
    finally:
        setattr(module, name, original)


@contextlib.contextmanager
def pipeline_spans(tracer: Tracer):
    """Spans and counts around the public calls ``run_pipeline`` makes, for
    the length of the block.  The outcome stays run_pipeline's own."""
    from kotzigcdc import amiable, cli, frame

    def around(name, real, after=None):
        def call(*args, **kwargs):
            with tracer.span(name):
                result = real(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return call

    def search_frames(*args, **kwargs):
        frames = real_search(*args, **kwargs)
        while True:
            with tracer.span("frame.search"):
                found = next(frames, None)
            if found is None:
                return
            tracer.count("frame.frames_yielded")
            yield found

    def witness(*args, **kwargs):
        if tracer.inside("frame.coloring"):
            tracer.count("frame.colorings_tried")
        return real_witness(*args, **kwargs)

    def row_graph_size(args, result):
        tracer.count("rowgraph.columns", args[0].s)
        tracer.count("rowgraph.edges", len(args[0].edges))

    def cycles(args, certificate):
        tracer.count("cdc.cycles", len(certificate.all_cycles()))

    real_search = cli.search_frames
    real_witness = frame.well_connected_witness
    with contextlib.ExitStack() as stack:
        for module, name, wrapper in [
            (cli, "search_frames", search_frames),
            (frame, "well_connected_witness", witness),
            (cli, "find_well_connected_frame_coloring",
             around("frame.coloring", cli.find_well_connected_frame_coloring)),
            (amiable, "normalize_frame_coloring",
             around("amiable.normalize", amiable.normalize_frame_coloring)),
            (amiable, "build_row_graph", around("rowgraph.build", amiable.build_row_graph)),
            (amiable, "construct_amiable_main",
             around("amiable.construct", amiable.construct_amiable_main, row_graph_size)),
            (cli, "construct_6cdc", around("cdc.assemble", cli.construct_6cdc, cycles)),
            (cli, "verify_cdc", around("cdc.verify", cli.verify_cdc)),
        ]:
            stack.enter_context(patched(module, name, wrapper))
        yield
