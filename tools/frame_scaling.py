"""Time the bridge pass and the first even 2-factor on large cubic graphs.

    python3 tools/frame_scaling.py 1000,5000,10000 [--seed S]

For each order n the script draws ``networkx.random_regular_graph(3, n,
seed=S)``, names each edge by its sorted pair of ends, and prints one line:
the wall time of ``multigraph.bridges`` (the first call on the graph, so
any per-graph set-up it does is included) and of the first factor that
``frame.even_two_factors`` yields, with the branches the search tried
before it ended and how it ended: ``factor``, ``none`` (the search ran out
of branches) or ``gave up`` (it passed TAIT_SEARCH_BUDGET branches and
raised OracleLimitError).

The branches are counted by standing a counting int in for
``frame.TAIT_SEARCH_BUDGET``, which the search compares against once per
branch; the budget's value is unchanged.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import networkx as nx  # noqa: E402

from kotzigcdc import frame  # noqa: E402
from kotzigcdc.errors import OracleLimitError  # noqa: E402
from kotzigcdc.multigraph import Multigraph, bridges  # noqa: E402


class CountingBudget(int):
    """An int that counts how often a larger-than test reads it."""

    reads = 0

    def __lt__(self, other):  # ``branches > budget`` lands here
        self.reads += 1
        return int(self) < other


def parse_orders(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


def measure(n: int, seed: int) -> str:
    h = nx.random_regular_graph(3, n, seed=seed)
    pairs = sorted(tuple(sorted(e)) for e in h.edges())
    g = Multigraph(range(n), [(pair, *pair) for pair in pairs])
    start = time.perf_counter()
    found = bridges(g)
    bridge_s = time.perf_counter() - start

    budget = CountingBudget(frame.TAIT_SEARCH_BUDGET)
    saved, frame.TAIT_SEARCH_BUDGET = frame.TAIT_SEARCH_BUDGET, budget
    start = time.perf_counter()
    try:
        ended = "factor" if next(frame.even_two_factors(g), None) is not None else "none"
    except OracleLimitError:
        ended = "gave up"
    finally:
        frame.TAIT_SEARCH_BUDGET = saved
    factor_s = time.perf_counter() - start
    return (f"n={n} seed={seed} bridges={len(found)} bridges_s={bridge_s:.4f} "
            f"first_factor_s={factor_s:.3f} branches={budget.reads} ended={ended}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("orders", type=parse_orders, help="comma-separated even orders")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    for n in args.orders:
        print(measure(n, args.seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
