"""Gate CI on the versioned benchmark baselines.

Each JSON file in ``benchmarks/baselines/`` names one benchmark-results file
(the ``BENCH_*.json`` a smoke run writes into the working directory) and the
metrics in it that must not regress.  Only *ratio* metrics are versioned —
float32-vs-float64 speedup, process-vs-thread speedup, and the like — so
the gate is meaningful across machines; absolute models/s depend on the
runner and would flap.

A metric fails when it regresses more than ``--tolerance`` (default 20%)
past its baseline in the bad direction::

    direction "higher":  current < baseline * (1 - tolerance)   -> regression
    direction "lower":   current > baseline * (1 + tolerance)   -> regression

A metric may carry a ``requires`` clause naming minimum values of *other*
fields in the results file, e.g. ``{"cpu_count": 2}`` for a process-pool
speedup that only a multi-core runner can demonstrate.  When the results
don't meet the requirement the metric is reported as skipped rather than
compared — the gate stays meaningful on 1-core smoke runners without going
soft on real CI hardware.

Run after the smoke benchmarks::

    PYTHONPATH=src python benchmarks/compare_baselines.py \
        [--baselines benchmarks/baselines] [--results-dir .] \
        [--tolerance 0.2] [--update]

``--update`` rewrites the baseline values from the current results (commit
the diff deliberately — the new numbers become the floor future runs are
held to).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def compare_one(baseline_path: Path, results_dir: Path, tolerance: float, update: bool):
    """Compare one baseline file; returns (failures, lines, updated_payload)."""
    baseline = json.loads(baseline_path.read_text())
    results_path = results_dir / baseline_path.name
    if not results_path.exists():
        return [f"{baseline_path.name}: results file {results_path} not found"], [], None

    results = json.loads(results_path.read_text())
    failures, lines = [], []
    if baseline.get("telemetry"):
        # a bench that once emitted flight-recorder data must keep doing so —
        # a silently dropped telemetry section is an observability regression
        telemetry = results.get("telemetry")
        if not isinstance(telemetry, dict) or not telemetry:
            failures.append(
                f"{baseline_path.name}: telemetry section missing or empty "
                "(the bench stopped emitting its flight-recorder data)"
            )
        else:
            lines.append(
                f"  telemetry: present ({telemetry.get('spans', 0)} spans, "
                f"{len(telemetry.get('stages') or {})} stages) ... ok"
            )
    for metric, spec in baseline["metrics"].items():
        requires = spec.get("requires") or {}
        unmet = [
            f"{field} >= {minimum}"
            for field, minimum in sorted(requires.items())
            if float(results.get(field) or 0) < float(minimum)
        ]
        if unmet:
            lines.append(f"  {metric}: skipped (requires {', '.join(unmet)})")
            continue
        if metric not in results:
            failures.append(f"{baseline_path.name}: metric {metric!r} missing from results")
            continue
        current = float(results[metric])
        reference = float(spec["value"])
        direction = spec.get("direction", "higher")
        if direction == "higher":
            floor = reference * (1.0 - tolerance)
            regressed = current < floor
            bound = f">= {floor:.3f}"
        elif direction == "lower":
            ceiling = reference * (1.0 + tolerance)
            regressed = current > ceiling
            bound = f"<= {ceiling:.3f}"
        else:
            failures.append(f"{baseline_path.name}: unknown direction {direction!r} for {metric}")
            continue
        status = "REGRESSION" if regressed else "ok"
        lines.append(
            f"  {metric}: current {current:.3f} vs baseline {reference:.3f} "
            f"(must be {bound}) ... {status}"
        )
        if regressed:
            failures.append(
                f"{baseline_path.name}: {metric} regressed to {current:.3f} "
                f"(baseline {reference:.3f}, bound {bound})"
            )
        if update:
            spec["value"] = current
    return failures, lines, (baseline if update else None)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baselines", default="benchmarks/baselines", help="directory of baseline JSON files"
    )
    parser.add_argument(
        "--results-dir", default=".", help="directory the smoke runs wrote BENCH_*.json into"
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.20, help="allowed fractional regression (0.2 = 20%%)"
    )
    parser.add_argument(
        "--update", action="store_true", help="rewrite baseline values from the current results"
    )
    args = parser.parse_args()

    baselines_dir = Path(args.baselines)
    results_dir = Path(args.results_dir)
    baseline_files = sorted(baselines_dir.glob("*.json"))
    if not baseline_files:
        print(f"no baseline files under {baselines_dir}", file=sys.stderr)
        return 2

    all_failures = []
    for baseline_path in baseline_files:
        failures, lines, updated = compare_one(
            baseline_path, results_dir, args.tolerance, args.update
        )
        print(baseline_path.name)
        for line in lines:
            print(line)
        all_failures.extend(failures)
        if updated is not None:
            baseline_path.write_text(json.dumps(updated, indent=2, sort_keys=True) + "\n")
            print(f"  baseline updated from {results_dir / baseline_path.name}")

    if all_failures:
        print(f"\n{len(all_failures)} baseline check(s) failed:", file=sys.stderr)
        for failure in all_failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nall baseline checks passed (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
