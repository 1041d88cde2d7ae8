"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload wire_saturate --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seconds 45

``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` runs half the time untraced and half traced and reports
the per-layer metrics.  ``--workload all`` runs every workload both
ways.  The output is one table (workload, metric, value, unit, sample
count) and, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
Each run also appends a record with its provenance to
``perfbench/results/records.jsonl``.  The exit code is 1 when an output
check failed, 2 when the sources to measure are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "perfbench", "results")

END_TO_END = {
    "setup_s": "s",
    "auths_per_s": "1/s",
    "auth_p50_ms": "ms",
    "auth_p99_ms": "ms",
    "verifier_cpu_us_per_auth": "us",
    "peak_rss_mb": "MB",
}


def _workloads():
    from perfbench.inproc import InprocRounds
    from perfbench.wire import WireOpen, WireSaturate
    return {cls.name: cls for cls in (WireOpen, WireSaturate, InprocRounds)}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: the result record, checked against the metric contract."""
    from perfbench import report
    from perfbench.layers import PER_LAYER
    units = PER_LAYER if trace else END_TO_END
    spans_dir = os.path.join(RESULTS, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    try:
        outcome = _workloads()[name](seed, seconds, trace,
                                     spans_dir=spans_dir).run()
    except Exception:
        traceback.print_exc()
        outcome = {"attempted": 1, "failed": 1, "metrics": {},
                   "problems": ["the run raised; see the traceback"]}
    problems = list(outcome["problems"])
    failed = outcome["failed"]
    metrics = {}
    for metric, unit in units.items():
        if metric not in outcome["metrics"]:
            problems.append(f"{metric} was not measured")
            continue
        value, samples = outcome["metrics"][metric]
        if not math.isfinite(value):
            problems.append(f"{metric} is not finite: {value}")
            continue
        metrics[metric] = {"value": value, "unit": unit, "samples": samples}
    if not trace and "auth_p99_ms" in metrics:
        samples = metrics["auth_p99_ms"]["samples"]
        if not report.tail_supported(samples):
            problems.append(f"p99 of {samples} samples leaves fewer than "
                            f"{report.TAIL_SAMPLES} beyond it")
    failed += len(problems) - len(outcome["problems"])
    record = report.provenance(ROOT, name, seed, trace)
    record.update(correct=failed == 0, attempted=max(1, outcome["attempted"]),
                  failed=failed, problems=problems, seconds=seconds,
                  metrics=metrics, raw=outcome.get("raw", {}))
    report.append_record(os.path.join(RESULTS, "records.jsonl"), record)
    return record


def _rows(record: dict) -> list:
    rows = [{"workload": record["workload"], "name": metric,
             "value": entry["value"], "unit": entry["unit"],
             "samples": entry["samples"]}
            for metric, entry in record["metrics"].items()]
    if not record["trace"]:
        rows.append({"workload": record["workload"], "name": "error_share",
                     "value": record["failed"] / record["attempted"],
                     "unit": "share", "samples": record["attempted"]})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="NEUROPULS auth-stack benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["wire_open", "wire_saturate",
                                 "inproc_rounds", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src to measure",
              file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.report import table

    if args.workload == "all":
        names = list(_workloads())
        runs = [(name, trace) for name in names for trace in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    records = [run_workload(name, args.seed, args.seconds, trace)
               for name, trace in runs]
    rows = [row for record in records for row in _rows(record)]
    print(table(rows))
    for record in records:
        for problem in record["problems"]:
            print(f"FAILED {record['workload']}: {problem}", file=sys.stderr)
    correct = all(record["correct"] for record in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": {(metric if len(records) == 1
                     else f"{record['workload']}:{metric}"):
                    {"value": entry["value"], "unit": entry["unit"]}
                    for record in records
                    for metric, entry in record["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
