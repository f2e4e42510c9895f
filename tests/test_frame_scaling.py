import importlib.util
import re
from pathlib import Path

import networkx as nx
import pytest

from kotzigcdc import frame
from kotzigcdc.errors import OracleLimitError
from kotzigcdc.multigraph import Multigraph

spec = importlib.util.spec_from_file_location(
    "frame_scaling", Path(__file__).resolve().parents[1] / "tools" / "frame_scaling.py"
)
frame_scaling = importlib.util.module_from_spec(spec)
spec.loader.exec_module(frame_scaling)


def fields(line: str) -> dict:
    return dict(re.findall(r"(\w+)=(\S+(?: up)?)", line))


@pytest.mark.parametrize("n, seed", [(20, 1), (60, 2), (200, 3)])
def test_branch_count_is_the_least_budget_that_finds_a_factor(monkeypatch, n, seed):
    """The printed branch count is exact: with one branch less in the
    budget the search gives up, with that many it finds the factor."""
    out = fields(frame_scaling.measure(n, seed))
    assert out["ended"] == "factor" and out["bridges"] == "0"
    branches = int(out["branches"])
    assert frame.TAIT_SEARCH_BUDGET == 100_000 and type(frame.TAIT_SEARCH_BUDGET) is int
    h = nx.random_regular_graph(3, n, seed=seed)
    g = Multigraph(range(n), [(pair, *pair) for pair in sorted(tuple(sorted(e)) for e in h.edges())])
    monkeypatch.setattr(frame, "TAIT_SEARCH_BUDGET", branches)
    assert next(frame.even_two_factors(g)) is not None
    monkeypatch.setattr(frame, "TAIT_SEARCH_BUDGET", branches - 1)
    with pytest.raises(OracleLimitError):
        next(frame.even_two_factors(g))


def test_a_search_that_passes_the_budget_is_reported_and_the_budget_restored(monkeypatch):
    monkeypatch.setattr(frame, "TAIT_SEARCH_BUDGET", 0)
    out = fields(frame_scaling.measure(200, 3))
    assert (out["ended"], out["branches"]) == ("gave up", "1")
    assert frame.TAIT_SEARCH_BUDGET == 0
