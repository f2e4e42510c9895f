"""Paired benchmark runs of two checkouts, summed up in BENCH_<pr>.json.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload NAME \\
        --seeds 9901-9910 --pr N [--seconds 15]

Each directory is a checkout with perfbench/ and src/.  For every seed the
script runs ``perfbench/run.py --trace 0`` once in each, parent first on
even pairs and change first on odd ones, and reads the JSON object on the
last line of each run's output.  It then writes BENCH_<pr>.json at the
root of this repository: per workload, the runs and, for every end-to-end
metric that BENCHMARK.json lists, each side's median and quartiles and the
number of pairs in which the change was better.  Other workloads already
in the file are kept, so one file gathers several invocations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """'9901-9910' or '9901,9905' or a mix of both."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout: the JSON object it prints last, with
    the unscaled set-up time it prints as "set-up: wall clock ... s"."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    setup = next(line for line in lines if line.startswith("set-up: wall clock"))
    result["setup_wall_s"] = float(setup.split()[3])
    return result


def quartiles(values: list[float]) -> dict:
    """Median and quartiles, the quartiles taken inclusive of the ends."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: both sides' median and quartiles, the number of pairs,
    the number in which the change was better (ties count for neither)
    and the change's median relative to the parent's.

    runs holds one {"seed", "parent", "change"} per pair, each side the
    JSON object of one run; end_to_end is BENCHMARK.json's list."""
    out = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [run["parent"]["metrics"][name]["value"] for run in runs]
        change = [run["change"]["metrics"][name]["value"] for run in runs]
        better = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
        sides = {"parent": quartiles(parent), "change": quartiles(change)}
        base = sides["parent"]["median"]
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            **sides,
            "pairs": len(runs),
            "change_better": better,
            "median_change": (sides["change"]["median"] - base) / base if base else None,
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=parse_seeds)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--pr", required=True, type=int)
    args = p.parse_args(argv)

    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = []
    for k, seed in enumerate(args.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        run = {"seed": seed, "first": order[0]}
        for side in order:
            run[side] = run_once(getattr(args, side), args.workload, seed, args.seconds)
        runs.append(run)
        print(f"{args.workload} seed {seed}: " + ", ".join(
            f"{m['name']} {run['parent']['metrics'][m['name']]['value']:.4g} -> "
            f"{run['change']['metrics'][m['name']]['value']:.4g}" for m in end_to_end)
            + f", set-up wall clock {run['parent']['setup_wall_s']:.4g} -> {run['change']['setup_wall_s']:.4g}",
            flush=True)

    path = ROOT / f"BENCH_{args.pr}.json"
    record = json.loads(path.read_text()) if path.exists() else {"pr": args.pr, "workloads": {}}
    record["workloads"][args.workload] = {
        "seconds": args.seconds,
        "summary": summarize(runs, end_to_end),
        "runs": [
            {"seed": run["seed"], "first": run["first"],
             **{side: {"correct": run[side]["correct"], "attempted": run[side]["attempted"],
                       "failed": run[side]["failed"], "setup_wall_s": run[side]["setup_wall_s"],
                       **{name: m["value"] for name, m in run[side]["metrics"].items()}}
                for side in ("parent", "change")}}
            for run in runs
        ],
    }
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
