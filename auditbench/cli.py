"""End-to-end audit benchmark: command-line entry point.

One run of one workload (the last stdout line is a JSON result)::

    python3 auditbench/run.py --workload cold-mlp --seed 0 --seconds 10 --trace 0

``--trace 1`` reports the per-layer metrics instead: an untraced and a traced
pass, each in a fresh interpreter, plus both additive breakdowns.

Several runs of several workloads, with medians, quartiles and a results
file carrying a machine fingerprint::

    python3 auditbench/run.py run [--workload W ...] [--seed N] [--runs K]
                                  [--seconds S] [--trace] [--out DIR]

Two results files judged under the bounds in BENCHMARK.json::

    python3 auditbench/run.py compare A.json B.json

``run.py`` puts ``src/`` and the repository root on the import path and calls
:func:`main`.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional

from auditbench import compare as comparator
from auditbench.fingerprint import machine_fingerprint
from auditbench.harness import run_leg
from auditbench.layers import format_breakdown
from auditbench.metrics import END_TO_END_UNITS, PER_LAYER_UNITS, metric_line, quartiles
from auditbench.workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_PY = HERE / "run.py"
DEFAULT_OUT = HERE / "results"
WORK_DIR = HERE / ".work"
#: a run must end within 180 s; the passes it starts share this budget
RUN_BUDGET_S = 170.0


def _benchmark() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# -- one pass in a fresh interpreter ------------------------------------------

def _leg_main(argv: List[str]) -> int:
    """Internal: one pass of one workload in this interpreter, JSON to stdout."""
    parser = argparse.ArgumentParser(prog="run.py leg")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setups", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setups is not None:
        workload = replace(workload, setups=args.setups)
    work = WORK_DIR / f"{args.workload}-{args.seed}-{time.monotonic_ns()}"
    try:
        result = run_leg(
            workload,
            args.seed,
            args.seconds,
            bool(args.traced),
            work,
            out_dir=Path(args.out) if args.out else None,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def _leg(
    workload: str,
    seed: int,
    seconds: float,
    traced: bool,
    deadline: float,
    setups: Optional[int] = None,
    out: Optional[Path] = None,
) -> Dict[str, Any]:
    command = [
        sys.executable,
        str(RUN_PY),
        "leg",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--traced", str(int(traced)),
    ]
    if setups is not None:
        command += ["--setups", str(setups)]
    if out is not None:
        command += ["--out", str(out)]
    _log(f"[{workload} seed={seed} {'traced' if traced else 'untraced'}] running")
    timeout = max(1.0, deadline - time.monotonic())
    completed = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout, check=False
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} pass exited with status {completed.returncode}")
    return json.loads(lines[-1])


def run_once(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    out: Optional[Path] = None,
    plain: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One benchmark run: end-to-end metrics, or per-layer metrics when traced.

    A traced run is an untraced pass and a traced pass: the untraced pass
    gives the tracing overhead and the CPU time per verdict, and the two
    verdict digests must match.  ``plain`` is an untraced pass of the same
    workload and seed already made; without it the run makes one that stands
    up once.
    """
    deadline = time.monotonic() + RUN_BUDGET_S
    if not trace:
        return _leg(workload, seed, seconds, False, deadline)
    if plain is None:
        plain = _leg(workload, seed, seconds, False, deadline, setups=1)
    traced = _leg(workload, seed, seconds, True, deadline, setups=1, out=out)
    errors = plain["errors"] + traced["errors"]
    if plain["digest"] != traced["digest"]:
        errors.append(f"traced digest {traced['digest']} != untraced {plain['digest']}")
    layers = dict(traced["layers"])
    layers["runtime.workers.cpu_s_per_verdict"] = plain["cpu_s_per_verdict"]
    layers["obs.trace_overhead_frac"] = (
        1.0 - traced["metrics"]["verdicts_per_s"] / plain["metrics"]["verdicts_per_s"]
    )
    return {
        **traced,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "errors": errors,
        "layers": layers,
    }


def _print_run(workload: str, result: Dict[str, Any], trace: bool) -> None:
    for line in result["errors"]:
        print(f"{workload} CHECK FAILED: {line}")
    if trace:
        for name, unit in PER_LAYER_UNITS.items():
            print(metric_line(workload, name, result["layers"][name], unit))
        for name, parts in result["breakdowns"].items():
            print("\n".join(format_breakdown(workload, name, parts)))
        return
    for name, unit in END_TO_END_UNITS.items():
        print(metric_line(workload, name, result["metrics"][name], unit))
    tail = result["tail"]
    if tail["q"] is not None:
        print(f"{workload} audit tail p{tail['q']:g} {tail['value']:.6g} s over {tail['samples']} verdicts")


def _driver_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    result = run_once(args.workload, args.seed, args.seconds, trace, out=DEFAULT_OUT if trace else None)
    _print_run(args.workload, result, trace)
    values, units = (result["layers"], PER_LAYER_UNITS) if trace else (result["metrics"], END_TO_END_UNITS)
    correct = not result["errors"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0 if correct else 1


# -- several runs --------------------------------------------------------------

def _suite_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py run")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="first seed; run i uses seed + i")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", action="store_true", help="add one traced per-layer run per workload")
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    seconds = args.seconds if args.seconds is not None else float(_benchmark()["run_seconds"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report: Dict[str, Any] = {
        "fingerprint": machine_fingerprint(ROOT, args.seed),
        "seconds": seconds,
        "seed": args.seed,
        "runs": args.runs,
        "workloads": {},
    }
    correct = True
    for workload in args.workload or list(WORKLOADS):
        results = [run_once(workload, args.seed + index, seconds, trace=False) for index in range(args.runs)]
        runs = [
            {
                key: result[key]
                for key in (
                    "seed", "metrics", "tail", "digest", "attempted", "failed", "errors", "inputs_rss_mb"
                )
            }
            for result in results
        ]
        correct &= not any(run["errors"] for run in runs)
        summary = {}
        for name, unit in END_TO_END_UNITS.items():
            q1, median, q3 = quartiles([run["metrics"][name] for run in runs])
            summary[name] = {"median": median, "q1": q1, "q3": q3, "unit": unit}
            print(metric_line(workload, name, median, unit, f"q1 {q1:.6g} q3 {q3:.6g} runs {len(runs)}"))
        for run in runs:
            for line in run["errors"]:
                print(f"{workload} seed {run['seed']} CHECK FAILED: {line}")
            if run["failed"]:
                print(f"{workload} seed {run['seed']} failed audits: {run['failed']}/{run['attempted']}")
        entry: Dict[str, Any] = {"runs": runs, "summary": summary}
        if args.trace:
            traced = run_once(workload, args.seed, seconds, trace=True, out=out, plain=results[0])
            correct &= not traced["errors"]
            _print_run(workload, traced, trace=True)
            entry.update(
                per_layer=traced["layers"], breakdowns=traced["breakdowns"], trace=traced["trace"]
            )
        report["workloads"][workload] = entry
    path = out / "results.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    _log(f"results -> {path}")
    return 0 if correct else 1


def main(argv: List[str]) -> int:
    if argv and argv[0] == "leg":
        return _leg_main(argv[1:])
    if argv and argv[0] == "run":
        return _suite_main(argv[1:])
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return comparator.main(argv[1], argv[2], _benchmark())
    return _driver_main(argv)
