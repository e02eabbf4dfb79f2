"""The perf trajectory, ``benchmarks/trajectory.jsonl``, stays readable.

One JSON line per change, in order. Each line's ``claim`` is ``"none"``
or ``"<workload> <metric>"``, both named in ``BENCHMARK.json``, and only
the newest line may still await its ``verdict``.
"""

import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def records():
    path = ROOT / "benchmarks" / "trajectory.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines]


def test_every_line_parses_and_prs_increase():
    prs = [record["pr"] for record in records()]
    assert prs
    assert all(before < after for before, after in zip(prs, prs[1:])), prs


def test_claims_name_a_benchmark_workload_and_metric():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {workload["name"] for workload in benchmark["workloads"]}
    metrics = {
        metric["name"]
        for metric in benchmark["end_to_end"] + benchmark["per_layer"]
    }
    for record in records():
        claim = record["claim"]
        if claim == "none":
            continue
        workload, _, metric = claim.partition(" ")
        assert workload in workloads, (record["pr"], claim)
        assert metric in metrics, (record["pr"], claim)


def test_only_the_last_line_is_pending():
    verdicts = [record["verdict"] for record in records()]
    pending = [
        index for index, verdict in enumerate(verdicts) if verdict == "pending"
    ]
    assert pending in ([], [len(verdicts) - 1]), verdicts
