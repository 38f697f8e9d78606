"""The committed benchmark records against the benchmark and their own runs.

Each `BENCH_*.json` at the repository root records paired runs of the
unchanged `benchmarks/run.py`, parent and change, and a claim on one
end-to-end metric of one workload. A record is only evidence if that
metric and workload are the benchmark's, and if its `met` flag follows
from the rule it states: the change wins at least nine tenths of the
pairs, and the medians differ, in the metric's better direction, by more
than the parent's quartile spread. The pairs won, the gap and the spread
are worked out again here from the runs the record holds, for the final
change and for each variant and earlier version that the record keeps.
"""

import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _claims(record):
    """(where, claim, workloads) for the record and each variant and earlier version it keeps."""
    yield "final", record["claim"], record["workloads"]
    for kind in ("variants", "earlier_versions"):
        for i, version in enumerate(record.get(kind, [])):
            yield f"{kind}[{i}]", version["claim"], version["workloads"]


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_the_benchmarks_metrics_and_workloads(path):
    record = json.loads(path.read_text())
    for where, claim, workloads in _claims(record):
        assert claim["metric"] in METRICS, where
        assert claim["workload"] in WORKLOADS and claim["workload"] in workloads, where
        assert set(workloads) <= WORKLOADS, where
        for name, w in workloads.items():
            assert set(w["metrics"]) <= set(METRICS), (where, name)


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_claim_follows_from_its_runs(path):
    record = json.loads(path.read_text())
    for where, claim, workloads in _claims(record):
        m = workloads[claim["workload"]]["metrics"][claim["metric"]]
        parent, change = np.array(m["parent"]["runs"]), np.array(m["change"]["runs"])
        assert len(parent) == len(change) == claim["pairs"] >= 10, where
        sign = 1.0 if METRICS[claim["metric"]]["better"] == "higher" else -1.0
        won = int(np.count_nonzero(sign * (change - parent) > 0))
        gap = sign * (np.median(change) - np.median(parent))
        q1, q3 = np.percentile(parent, [25, 75])
        assert claim["pairs_won"] == won, where
        assert claim["median_gap"] == pytest.approx(gap, rel=1e-9), where
        assert claim["parent_quartile_spread"] == pytest.approx(q3 - q1, rel=1e-9), where
        assert claim["met"] == (10 * won >= 9 * claim["pairs"] and gap > q3 - q1), where
