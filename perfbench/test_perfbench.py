"""The benchmark's own tests: negative controls and tiny smoke runs.

Run from the repository root::

    python3 -m pytest perfbench -q

Each negative control breaks one output on purpose (a dropped message,
a tampered cached metric, a duplicated commit, a constant above the
Thm 4.4 bound) and asserts that the matching check fails, after
asserting that the same check passes on the unbroken output.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _digest(done: subprocess.CompletedProcess) -> str:
    lines = [l for l in done.stdout.splitlines() if "outcome_digest" in l]
    return lines[-1].split()[-1]


# ----------------------------------------------------------------------
# Negative controls
# ----------------------------------------------------------------------


def test_constant_above_the_bound_fails_the_e3_check():
    from repro.runner import run_experiment

    report = run_experiment(
        "E3", seed=3, replications=2, engine="scalar", workers=0, quick=True
    )
    cells = checks.per_cell(
        (o.spec.case_label(), o.metrics["constant"]) for o in report.outcomes
    )
    n = len(report.outcomes)
    assert checks.check_e3(n, n, 0, cells) == (0, [])
    label = next(iter(cells))
    cells[label] = [checks.THM44_CONSTANT + 0.01] * len(cells[label])
    failed, problems = checks.check_e3(n, n, 0, cells)
    assert failed == len(cells[label])
    assert "Thm 4.4" in problems[0]


def test_dropped_message_fails_the_collection_check():
    from layers import NullTracer

    field = workloads.FieldBatch(
        5, workloads.SCALES["fault-sweep"]["tiny"]["field"]
    )
    result = workloads.PassResult(wall=0.0, tasks=0, task_ms={}, digest="")
    field.run(NullTracer(), result)
    assert result.failed == 0 and not result.problems
    sim = field.simulation
    delivered = sim.delivered_ids()
    backlog = [int(x) for x in sim.backlog.sum(axis=1)]
    assert checks.check_collected(sim.total_messages, delivered, backlog) == (
        0, []
    )
    dropped = [list(ids) for ids in delivered]
    dropped[1].pop()
    failed, problems = checks.check_collected(
        sim.total_messages, dropped, backlog
    )
    assert failed == 1 and "1 lost" in problems[0]
    duplicated = [list(ids) for ids in delivered]
    duplicated[0].append(duplicated[0][0])
    assert checks.check_collected(
        sim.total_messages, duplicated, backlog
    )[0] == 1
    undrained = [0] * len(backlog)
    undrained[0] = 1
    assert checks.check_collected(
        sim.total_messages, delivered, undrained
    )[0] == 1


def test_tampered_cached_metric_fails_the_replay_check(tmp_path):
    from repro.runner import ResultCache
    from repro.runner.cache import payload_digest
    from repro.scenario import compile_scenario, run_scenario
    from repro.scenario.spec import validate_scenario

    compiled = compile_scenario(validate_scenario(
        workloads.fault_scenario(4, workloads.SCALES["fault-sweep"]["tiny"])
    ))
    n = len(compiled.tasks)

    def replay(cache_dir):
        cache = ResultCache(cache_dir)
        warm = run_scenario(compiled, workers=0, cache=cache)
        return {o.key: dict(o.metrics) for o in warm.outcomes}, warm

    cold = run_scenario(compiled, workers=0, cache=ResultCache(tmp_path))
    cold_metrics = {o.key: dict(o.metrics) for o in cold.outcomes}
    assert checks.check_conservation(cold_metrics, n) == (0, [])
    warm_metrics, warm = replay(tmp_path)
    assert checks.check_replay(
        cold_metrics, warm_metrics, warm.executed, warm.cache_hits
    ) == (0, [])

    # Rewrite one entry with a consistent digest: the cache accepts it.
    entry = next(tmp_path.glob("*/*.json"))
    record = json.loads(entry.read_text())
    record.pop("sha256")
    record["metrics"]["delivered"] += 1
    record["sha256"] = payload_digest(record)
    entry.write_text(json.dumps(record))

    warm_metrics, warm = replay(tmp_path)
    failed, problems = checks.check_replay(
        cold_metrics, warm_metrics, warm.executed, warm.cache_hits
    )
    assert failed == 1
    assert any("differ from the cold pass" in p for p in problems)


def test_duplicated_commit_fails_the_drain_check(tmp_path):
    import repro
    from repro.runner import FleetQueue, FleetWorker, fleet_report

    drain = workloads.TransportDrain(
        6, workloads.SCALES["fault-sweep"]["tiny"]["transport"]
    )
    queue = FleetQueue(tmp_path / "fleet")
    queue.submit(drain.tasks, version=repro.__version__)
    FleetWorker(
        queue, host="test", run_fn=workloads.noop_task, poll_interval=0.01
    ).run()
    journal = queue.journal_path("test")

    def committed():
        return [
            entry["key"]
            for entry in workloads._journal_entries(journal)
            if entry.get("kind") == "outcome"
        ]

    results = {o.key: o.metrics for o in fleet_report(queue.root).outcomes}
    assert checks.check_drain("fleet", drain.expected, committed(), results) == (
        0, []
    )
    first = next(
        line for line in journal.read_text().splitlines()
        if json.loads(line).get("kind") == "outcome"
    )
    with journal.open("a", encoding="utf-8") as handle:
        handle.write(first + "\n")
    failed, problems = checks.check_drain(
        "fleet", drain.expected, committed(), results
    )
    assert failed == 1 and "exactly once" in problems[0]


def test_differing_repeats_fail_the_digest_check():
    assert checks.check_same_digest(["a", "a"]) == []
    assert checks.check_same_digest(["a", "b"])


# ----------------------------------------------------------------------
# Smoke runs of every workload, untraced and traced
# ----------------------------------------------------------------------


def _declared(kind: str) -> list:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_end_to_end(workload):
    args = ("--workload", workload, "--seed", "2", "--seconds", "0.2",
            "--trace", "0", "--scale", "tiny")
    first = _run(*args)
    result = _result(first)
    assert result["correct"], first.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("end_to_end")
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert math.isfinite(value["value"]) and value["value"] > 0
    assert _digest(_run(*args)) == _digest(first)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_traced_attribution_adds_up(workload):
    done = _run("--workload", workload, "--seed", "2", "--seconds", "0.2",
                "--trace", "1", "--scale", "tiny")
    result = _result(done)
    assert result["correct"], done.stdout
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in _declared("per_layer")}
    assert all(math.isfinite(v) for v in metrics.values())
    self_times = [v for k, v in metrics.items() if k.endswith(".self_s")]
    assert all(v >= -1e-3 for v in self_times)
    assert metrics["unattributed_s"] >= -1e-3
    assert sum(self_times) + metrics["unattributed_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-9
    )


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".work", "history.jsonl"),
    )
    done = _run("--workload", "e3-scalar", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
