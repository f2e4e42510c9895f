import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "item_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def run(item_p50_ms: float, items_per_s: float) -> dict:
    return {"metrics": {"item_p50_ms": {"value": item_p50_ms}, "items_per_s": {"value": items_per_s}}}


def test_summary_of_fixed_pairs():
    runs = [
        {"seed": 1, "parent": run(4.0, 100.0), "change": run(3.0, 130.0)},
        {"seed": 2, "parent": run(3.0, 110.0), "change": run(3.0, 100.0)},
        {"seed": 3, "parent": run(5.0, 90.0), "change": run(2.0, 150.0)},
        {"seed": 4, "parent": run(6.0, 120.0), "change": run(7.0, 140.0)},
        {"seed": 5, "parent": run(2.0, 80.0), "change": run(1.0, 120.0)},
    ]
    summary = bench_pairs.summarize(runs, END_TO_END)
    p50 = summary["item_p50_ms"]
    assert p50["parent"] == {"median": 4.0, "q1": 3.0, "q3": 5.0}
    assert p50["change"] == {"median": 3.0, "q1": 2.0, "q3": 3.0}
    # lower is better; the tie at seed 2 counts for neither side
    assert (p50["pairs"], p50["change_better"]) == (5, 3)
    assert p50["median_change"] == pytest.approx(-0.25)
    rate = summary["items_per_s"]
    assert rate["parent"] == {"median": 100.0, "q1": 90.0, "q3": 110.0}
    assert rate["change"] == {"median": 130.0, "q1": 120.0, "q3": 140.0}
    assert rate["change_better"] == 4
    assert (rate["unit"], rate["better"], rate["bound"]) == ("1/s", "higher", 0.25)


def test_summary_of_one_pair_and_the_seed_ranges():
    runs = [{"seed": 7, "parent": run(2.0, 50.0), "change": run(2.0, 50.0)}]
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert summary["item_p50_ms"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert summary["item_p50_ms"]["change_better"] == 0
    assert bench_pairs.parse_seeds("9901-9903,9910") == [9901, 9902, 9903, 9910]
