"""The committed bench trajectory: one `BENCH_<workload>.json` at the root
of the repository per workload of `BENCHMARK.json`, each a list of entries
that summarise ten runs of `bench/run.py` the way `bench/stats.py` does."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_bench_file_holds_the_end_to_end_metrics(workload):
    data = json.loads((ROOT / ("BENCH_%s.json" % workload)).read_text())
    assert data["workload"] == workload
    assert data["entries"]
    for entry in data["entries"]:
        assert entry["seeds"] and entry["cpu"] and entry["python"]
        assert {name: m["unit"] for name, m in entry["metrics"].items()} == UNITS
        for m in entry["metrics"].values():
            assert m["q1"] <= m["median"] <= m["q3"]
            assert m["spread"] == pytest.approx((m["q3"] - m["q1"]) / m["median"])
