"""Fast checks of the benchmark's own logic (collected by the tier-1 suite)."""

from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from auditbench.compare import OK, REGRESSION, UNRESOLVED, compare, judge
from auditbench.harness import run_leg
from auditbench.metrics import END_TO_END_UNITS, PER_LAYER_UNITS, supported_percentile
from auditbench.workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.mark.parametrize(
    "samples, expected",
    [(9, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_supported_percentile_keeps_ten_samples_beyond(samples, expected):
    assert supported_percentile(samples) == expected


@pytest.mark.parametrize(
    "base, head, better, expected",
    [
        ([1.00, 1.01, 0.99, 1.00, 1.02], [1.03, 1.04, 1.02, 1.03, 1.05], "lower", OK),
        ([1.00, 1.01, 0.99, 1.00, 1.02], [1.20, 1.21, 1.19, 1.20, 1.22], "lower", REGRESSION),
        ([10.0, 10.1, 9.9, 10.0, 10.2], [8.0, 8.1, 7.9, 8.0, 8.2], "higher", REGRESSION),
        ([1.0, 1.5, 0.7, 1.2, 0.9], [1.1, 1.6, 0.8, 1.3, 1.0], "lower", UNRESOLVED),
        ([1.0, 1.5, 0.7, 1.2, 0.9], [0.5, 0.55, 0.45, 0.5, 0.52], "lower", OK),
    ],
)
def test_comparator_outcomes(base, head, better, expected):
    outcome, _change, _spread, _bound = judge(base, head, bound=0.1, better=better)
    assert outcome == expected


def test_comparator_absolute_floor_widens_the_bound_for_small_values():
    base, head = [0.040, 0.041, 0.039, 0.040, 0.042], [0.050, 0.051, 0.049, 0.050, 0.052]
    assert judge(base, head, bound=0.1, better="lower")[0] == REGRESSION
    outcome, _change, _spread, bound = judge(base, head, bound=0.1, better="lower", floor=0.05)
    assert outcome == OK and bound == pytest.approx(0.05 / 0.040)


def _results(failed):
    runs = [
        {"seed": seed, "digest": "d", "attempted": 100, "failed": f, "metrics": {"setup_s": 1.0}}
        for seed, f in enumerate(failed)
    ]
    return {"workloads": {"cold-mlp": {"runs": runs}}}


def test_comparator_flags_a_rise_in_failed_audits():
    bounds = {"setup_s": (0.1, "lower")}
    assert compare(_results([0, 0, 0]), _results([0, 0, 0]), bounds)[1] == []
    assert compare(_results([1, 0, 0]), _results([0, 0, 1]), bounds)[1] == []
    (finding,) = compare(_results([0, 0, 0]), _results([0, 1, 0]), bounds)[1]
    assert "failures-rose" in finding


def test_benchmark_json_matches_the_names_the_harness_emits():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for section, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in BENCHMARK[section]} == units
    names = list(WORKLOADS) + list(END_TO_END_UNITS) + list(PER_LAYER_UNITS)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_micro_cold_mlp_counts_a_failed_audit_and_keeps_going(tmp_path):
    workload = replace(WORKLOADS["cold-mlp"], setups=1, min_verdicts=12)
    result = run_leg(
        workload, seed=0, seconds=0.0, traced=False, work_dir=tmp_path, fail_index=5, reinspect=2
    )
    assert result["errors"] == []
    assert result["attempted"] == 12
    assert result["failed"] / result["attempted"] == 1 / 12
    assert result["verdicts"] == 11
    assert result["failures"][0].startswith("mlp-00005: InjectedFailure")
    assert result["metrics"]["queries_per_verdict"] > 0
