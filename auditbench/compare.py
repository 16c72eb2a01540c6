"""Compare two results files under the bounds in ``BENCHMARK.json``.

For every workload and end-to-end metric present in both files, the second
file's median is judged against the first's.  The bound is the metric's
share from ``BENCHMARK.json``, widened where ``ABSOLUTE_FLOORS`` gives an
absolute floor: a change smaller than the floor is never a regression.

* ``unresolved`` — either side's run-to-run spread (interquartile distance
  over median) exceeds the bound, and not every run of the second file reads
  better than every run of the first;
* ``regression`` — the median got worse by more than the bound;
* ``ok`` — otherwise.

Two more findings fail the comparison whatever the timings say:

* ``digest-mismatch`` — a verdict digest differs for the same workload and
  seed: the two commits no longer produce the same verdicts;
* ``failures-rose`` — a workload's failed audits, as a share of those
  attempted, rose.  Failures are not a metric (a metric must never read 0),
  so this is where they gate.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence, Tuple

from auditbench.metrics import quartiles

OK, REGRESSION, UNRESOLVED = "ok", "regression", "unresolved"

#: metric -> change, in the metric's unit, that never counts as a regression
ABSOLUTE_FLOORS: Dict[str, float] = {"setup_s": 0.05}


def load_bounds(benchmark: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    """``{metric: (bound, better)}`` for every end-to-end metric."""
    return {m["name"]: (float(m["bound"]), m["better"]) for m in benchmark["end_to_end"]}


def judge(
    base: Sequence[float], head: Sequence[float], bound: float, better: str, floor: float = 0.0
) -> Tuple[str, float, float, float]:
    """Outcome for one metric, with the median change, the larger spread and
    the bound applied: ``max(bound, floor / base median)``."""
    base_q1, base_median, base_q3 = quartiles(base)
    head_q1, head_median, head_q3 = quartiles(head)
    bound = max(bound, floor / base_median)
    spread = max((base_q3 - base_q1) / base_median, (head_q3 - head_q1) / head_median)
    change = (head_median - base_median) / base_median
    worse = change if better == "lower" else -change
    if spread > bound:
        if better == "lower":
            all_better = max(head) < min(base)
        else:
            all_better = min(head) > max(base)
        return (OK if all_better else UNRESOLVED), change, spread, bound
    return (REGRESSION if worse > bound else OK), change, spread, bound


def _failed_share(runs: Sequence[Dict[str, Any]]) -> float:
    return sum(run["failed"] for run in runs) / sum(run["attempted"] for run in runs)


def compare(
    base: Dict[str, Any], head: Dict[str, Any], bounds: Dict[str, Tuple[float, str]]
) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Per (workload, metric) rows, and the findings that fail the comparison."""
    rows: List[Dict[str, Any]] = []
    findings: List[str] = []
    for workload in sorted(set(base["workloads"]) & set(head["workloads"])):
        base_runs = base["workloads"][workload]["runs"]
        head_runs = head["workloads"][workload]["runs"]
        for metric, (bound, better) in bounds.items():
            a = [run["metrics"][metric] for run in base_runs]
            b = [run["metrics"][metric] for run in head_runs]
            outcome, change, spread, applied = judge(a, b, bound, better, ABSOLUTE_FLOORS.get(metric, 0.0))
            rows.append(
                {
                    "workload": workload,
                    "metric": metric,
                    "outcome": outcome,
                    "base": quartiles(a),
                    "head": quartiles(b),
                    "change": change,
                    "spread": spread,
                    "bound": applied,
                }
            )
        base_digests = {run["seed"]: run["digest"] for run in base_runs}
        for run in head_runs:
            expected = base_digests.get(run["seed"])
            if expected is not None and expected != run["digest"]:
                findings.append(f"{workload} seed {run['seed']}: digest-mismatch")
        base_failed, head_failed = _failed_share(base_runs), _failed_share(head_runs)
        if head_failed > base_failed:
            findings.append(f"{workload}: failures-rose {base_failed:.4%} -> {head_failed:.4%} of attempted")
    return rows, findings


def main(base_path: str, head_path: str, benchmark: Dict[str, Any]) -> int:
    """Print the comparison; exit status 1 on a regression or a finding."""
    with open(base_path, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(head_path, encoding="utf-8") as handle:
        head = json.load(handle)
    rows, findings = compare(base, head, load_bounds(benchmark))
    print(
        f"{'workload':<11} {'metric':<20} {'outcome':<10} {'base q1/med/q3':>30} "
        f"{'head q1/med/q3':>30} {'change':>8} {'spread':>7} {'bound':>6}"
    )
    for row in rows:
        base_q = "/".join(f"{v:.4g}" for v in row["base"])
        head_q = "/".join(f"{v:.4g}" for v in row["head"])
        print(
            f"{row['workload']:<11} {row['metric']:<20} {row['outcome']:<10} {base_q:>30} "
            f"{head_q:>30} {row['change']:>+8.1%} {row['spread']:>7.1%} {row['bound']:>6.0%}"
        )
    for line in findings:
        print(line)
    failed = findings or any(row["outcome"] == REGRESSION for row in rows)
    return 1 if failed else 0
