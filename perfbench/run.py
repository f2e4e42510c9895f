"""Benchmark of the kotzigcdc cover pipeline, corpus and row-graph layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ./src.  With
--trace 0 the run prints the end-to-end metrics, their times scaled to a
reference speed on most workloads (pace.py); with --trace 1 it makes the same calls with
spans around the program's public functions, prints the per-layer metrics
and writes its spans to perfbench/out/.  The last line of standard output
is one JSON object.  --digest only builds the first round's inputs and
prints their digest.  Metric names and units are read from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from pace import REFERENCE_S, Pace
from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 9
# The program's set and dict orders follow the hash seed, and so does some
# of its work: cubic_corpus(10) took from 9.3 s to 10.9 s over four hash
# seeds.  Every run uses the same one, so that --seed alone sets the work.
HASH_SEED = "0"

# Per-layer metrics, reported per round, come from the tracer by name: a
# metric ending in _s is the time inside the span of that name without the
# suffix, one of RATIOS divides two counts, and any other is a count.
RATIOS = {
    "corpus.graphs_per_candidate": ("corpus.graphs", "corpus.candidates"),
    "rowgraph.kept_per_raw": ("rowgraph.kept", "rowgraph.raw"),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--digest", action="store_true", help="build the inputs, print their digest, exit")
    return p.parse_args(argv)


def child_setup_seconds(args, digest: str) -> list[float]:
    """Scaled set-up time of fresh processes: from spawning the interpreter
    until it reports its inputs ready.  Each must build the same inputs.
    The parent waits idle meanwhile, which slows the calibration task
    after it, so set-up has a Pace of its own."""
    clock = Pace()
    samples = []
    for _ in range(SETUP_SAMPLES):
        clock.sample()
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--digest"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            child.stdout.read()
        if child.returncode != 0 or line.split()[-1:] != [digest]:
            raise SystemExit(f"set-up in a fresh process gave {line.strip()!r}, expected {digest}")
    print(f"set-up: wall clock {statistics.median(samples):.4f} s")
    factor = clock.factor()
    return [t * factor for t in samples]


def layer_value(tracer, name: str, rounds: int) -> float:
    if name in RATIOS:
        num, den = (tracer.counts[c] for c in RATIOS[name])
        return num / den if den else 0.0
    if name.endswith("_s"):
        return tracer.seconds(name[:-2]) / rounds
    return tracer.counts[name] / rounds


def wall_clock_summary(rounds, clock) -> str:
    """The unscaled figures, printed for reference."""
    items = [t for r in rounds for t in r.item_seconds]
    calibration = statistics.median(clock.samples)
    return (f"wall clock: median item {1000 * statistics.median(items):.3f} ms, "
            f"items per s {len(items) / sum(items):.4f}; calibration {1000 * calibration:.3f} ms "
            f"against a reference of {1000 * REFERENCE_S:.3f} ms")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kotzigcdc" / "__init__.py").is_file():
        print(f"kotzigcdc sources not found under {SRC}", file=sys.stderr)
        return 2
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()
    workload.prepare()
    data = workload.inputs(args.seed, 0)
    digest = inputs.digest(data)
    print(f"inputs {args.workload} seed {args.seed} round 0 sha256 {digest}", flush=True)
    if args.digest:
        return 0
    setup_seconds = None if args.trace else child_setup_seconds(args, digest)

    tracer = Tracer() if args.trace else None
    clock = Pace()
    gc.freeze()  # keep the set-up's objects out of every later collection
    rounds = []
    elapsed = 0.0
    with workload.traced(tracer) if tracer else contextlib.nullcontext():
        while not rounds or elapsed < args.seconds:
            if rounds:
                data = workload.inputs(args.seed, len(rounds))
            gc.collect()
            start = time.perf_counter()
            rounds.append(workload.run_round(data, len(rounds), tracer, clock))
            elapsed += time.perf_counter() - start

    factor = clock.factor() if workload.scaled else 1.0  # to the reference speed (pace.py)
    items = [t * factor for r in rounds for t in r.item_seconds]
    failed = sum(r.failed for r in rounds)
    wrong = [w for r in rounds for w in r.wrong]
    for note in [n for r in rounds for n in r.failures][:5] + wrong[:5]:
        print(f"  {note}", file=sys.stderr)
    round_s = factor * statistics.median(r.seconds for r in rounds)
    print(f"rounds {len(rounds)}, items {len(items)}, failed {failed}, wrong outputs {len(wrong)}, "
          f"median round {round_s:.4f} s")
    print(wall_clock_summary(rounds, clock))
    if tracer:
        metrics = {m["name"]: {"value": layer_value(tracer, m["name"], len(rounds)), "unit": m["unit"]}
                   for m in listed["per_layer"]}
        summary = {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
                   "round_s": round_s, "metrics": metrics}
        path = OUT / f"spans_{args.workload}_{args.seed}.json"
        tracer.write(path, summary)
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        values = {
            "setup_s": statistics.median(setup_seconds),
            "items_per_s": len(items) / sum(items),
            "item_p50_ms": 1000 * statistics.median(items),
            "round_s": round_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in listed["end_to_end"]}
    print(json.dumps({"correct": not wrong, "attempted": len(items), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
