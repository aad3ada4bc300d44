#!/usr/bin/env python3
"""Layered end-to-end benchmark of the radio-network reproduction.

Run one workload, as ``BENCHMARK.json``'s command does::

    python3 perfbench/run.py --workload e3-scalar --seed 1 --seconds 30 --trace 0

or every workload, each in its own process, with a summary table::

    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same passes untraced and then traced in one
process and prints the per-layer metrics, the attribution of the
traced wall clock to layers, and what tracing cost.  Every pass checks
its outputs against the paper's contract.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Each full-size run is also appended, with
a machine fingerprint, to ``history.jsonl`` in this directory.

The benchmark runs the program from ``src/`` next to this directory and
exits with status 2 when there is none.  README.md here describes the
workloads, the metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
HISTORY = BENCH_DIR / "history.jsonl"
WORK = BENCH_DIR / ".work"
#: Set-up is measured in fresh interpreters, this many times per run.
SETUP_PROBES = 5
#: The host-speed kernel's time on the reference host, and how many
#: times it runs per calibration (the median counts).
KERNEL_REFERENCE_S = 0.025
KERNEL_REPEATS = 3
#: The layers whose self times add up to the traced wall clock.
LAYERS = (
    "graphs", "runner", "core", "radio", "vector", "scenario", "kpi",
    "runner.fleet", "runner.coord",
)

from checks import check_same_digest  # noqa: E402
from layers import NullTracer, Tracer, attribution, clock  # noqa: E402
from workloads import WORKLOADS, PassResult, Workload  # noqa: E402


def load_spec() -> Dict[str, Any]:
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny: the smoke size the benchmark's tests use",
    )
    parser.add_argument(
        "--setup-probe", type=float, default=None,
        help=argparse.SUPPRESS,  # internal: time.monotonic() at spawn
    )
    return parser.parse_args(argv)


def import_program() -> float:
    """Import ``repro`` and its runner from this checkout's ``src/``;
    seconds taken."""
    start = clock()
    sys.path.insert(0, str(SRC))
    import repro
    import repro.runner  # noqa: F401  (every workload drives it)

    seconds = clock() - start
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise RuntimeError(f"imported repro from {repro.__file__}, not {SRC}")
    return seconds


# ----------------------------------------------------------------------
# Fingerprint and history
# ----------------------------------------------------------------------


def _git_sha() -> Optional[str]:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint() -> Dict[str, Any]:
    """The machine (compare numbers only within one) and the code."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
    }


def append_history(record: Dict[str, Any]) -> None:
    with HISTORY.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------


def _kernel() -> None:
    """Fixed interpreter work that uses none of the program's code."""
    table: Dict[int, int] = {}
    acc = 0
    for i in range(60_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        acc ^= hash((key, i & 7))


def host_speed() -> float:
    """Seconds the kernel takes on this host right now (median)."""
    times = []
    for _ in range(KERNEL_REPEATS):
        start = clock()
        _kernel()
        times.append(clock() - start)
    return statistics.median(times)


def run_passes(
    workload: Workload, tracer: Any, layered: bool, seconds: float
) -> Tuple[List[PassResult], List[float]]:
    """Repeat passes until ``seconds`` have elapsed (at least one).

    The host-speed kernel runs before the first pass and after each
    one; a pass's ``scale`` is the reference kernel time over the mean
    of the kernel times around it.
    """
    passes: List[PassResult] = []
    walls: List[float] = []
    deadline = clock() + seconds
    before = host_speed()
    while True:
        start = clock()
        result = workload.run_pass(tracer, layered)
        walls.append(clock() - start)
        after = host_speed()
        result.scale = KERNEL_REFERENCE_S / ((before + after) / 2)
        passes.append(result)
        before = after
        if clock() >= deadline:
            return passes, walls


def percentile(values: Sequence[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_probe_once(args: argparse.Namespace) -> float:
    """Set up the workload in a fresh interpreter; seconds from spawn."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", args.scale,
    ]
    before = host_speed()
    spawned = time.monotonic()
    done = subprocess.run(
        [*command, "--setup-probe", repr(spawned)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    setup_s = float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return setup_s * KERNEL_REFERENCE_S / ((before + host_speed()) / 2)


def end_to_end(
    passes: List[PassResult], setup: List[float], rss: float
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(the BENCHMARK.json end-to-end metrics, the workload's extras).

    Times are in reference seconds: host seconds times the pass's
    ``scale``.  Every pass repeats the same tasks, so each task's
    latency is its median over the passes; p50 and p90 are then taken
    over the distinct tasks.
    """
    latencies = [
        statistics.median(p.task_ms[task] * p.scale for p in passes)
        for task in passes[0].task_ms
    ]
    metrics = {
        "setup_s": statistics.median(setup),
        "tasks_per_s": statistics.median(
            p.tasks / (p.wall * p.scale) for p in passes
        ),
        "task_p50_ms": statistics.median(latencies),
        "task_p90_ms": percentile(latencies, 90),
        "peak_rss_mb": rss,
    }
    extras = {
        name: statistics.median(p.rates[name] / p.scale for p in passes)
        for name in passes[0].rates
    }
    extras["host_tasks_per_s"] = statistics.median(
        p.tasks / p.wall for p in passes
    )
    extras["host_scale"] = statistics.median(p.scale for p in passes)
    extras["task_samples"] = len(latencies)
    extras["passes"] = len(passes)
    return metrics, extras


def traced_layers(
    workload: Workload, seconds: float, import_s: float
) -> Tuple[List[PassResult], Dict[str, float], List[str]]:
    """Untraced then traced passes; per-layer metrics, per-pass means."""
    untraced, untraced_walls = run_passes(
        workload, NullTracer(), True, seconds / 2
    )
    tracer = Tracer()
    with tracer.active():
        traced, traced_walls = run_passes(workload, tracer, True, seconds / 2)
    k = len(traced)
    layers = tracer.layer_self_times()
    unattributed, problems = attribution(layers, sum(traced_walls))
    profile = tracer.profile
    phase = lambda name: profile.seconds.get(name, 0.0) / k  # noqa: E731
    counter = lambda name: profile.counters.get(name, 0) / k  # noqa: E731
    polled, skipped = counter("polled"), counter("skipped")
    metrics: Dict[str, float] = {
        "import.repro_s": import_s,
        "graphs.edges": tracer.counts.get("graphs.edges", 0) / k,
        "radio.intents_s": phase("scalar/intents"),
        "radio.reception_s": phase("scalar/reception"),
        "radio.slot_end_s": phase("scalar/slot_end"),
        "radio.slots": counter("scalar_slots"),
        "radio.polled": polled,
        "radio.skipped": skipped,
        "radio.poll_ratio": (
            polled / (polled + skipped) if polled + skipped else 0.0
        ),
        "vector.decay_s": phase("vector/decay"),
        "vector.reception_s": phase("vector/reception"),
        "vector.collection_s": phase("vector/collection"),
        "vector.slots": counter("vector_slots"),
        "vector.awake_pairs": counter("vector_awake_pairs"),
        "unattributed_s": unattributed / k,
        "trace.wall_s": sum(traced_walls) / k,
        "trace.overhead_frac": (
            statistics.median(w * p.scale for w, p in zip(traced_walls, traced))
            / statistics.median(
                w * p.scale for w, p in zip(untraced_walls, untraced)
            )
            - 1.0
        ),
    }
    for name, seconds_in in tracer.inclusive.items():
        metrics[name] = seconds_in / k
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layers.get(layer, 0.0) / k
    for name in traced[0].layer:
        metrics[name] = statistics.fmean(p.layer[name] for p in traced)
    unknown = set(layers) - set(LAYERS)
    if unknown:
        problems.append(f"spans charged to unknown layers {sorted(unknown)}")
    print("# attribution of the traced wall clock (seconds per pass)")
    for layer in LAYERS:
        print(f"#   {layer:<14} {layers.get(layer, 0.0) / k:12.6f}")
    print(f"#   {'unattributed':<14} {unattributed / k:12.6f}")
    print(f"#   {'= wall':<14} {sum(traced_walls) / k:12.6f}")
    return untraced + traced, metrics, problems


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def verdict(passes: List[PassResult]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, problems) over every pass of the run."""
    attempted = sum(p.tasks for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [line for p in passes for line in p.problems]
    mismatch = check_same_digest([p.digest for p in passes])
    if mismatch:
        problems.extend(mismatch)
        failed += sum(p.tasks for p in passes if p.digest != passes[0].digest)
    return attempted, min(failed, attempted), problems


def run_one(args: argparse.Namespace) -> int:
    spec = load_spec()
    import_s = import_program()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.scale, workdir)
        workload.setup()
        if args.trace:
            passes, values, problems = traced_layers(
                workload, args.seconds, import_s
            )
            extras: Dict[str, float] = {}
            declared = spec["per_layer"]
        else:
            passes, _ = run_passes(workload, NullTracer(), False, args.seconds)
            rss = peak_rss_mb()
            setup = [setup_probe_once(args) for _ in range(SETUP_PROBES)]
            values, extras = end_to_end(passes, setup, rss)
            problems = []
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, pass_problems = verdict(passes)
    problems = pass_problems + problems
    extras["failed_frac"] = failed / attempted
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in declared
    }
    print(
        f"# perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} passes={len(passes)}"
    )
    for name, metric in metrics.items():
        print(f"{name:<28} {metric['value']:>16.6f} {metric['unit']}")
    for name, value in extras.items():
        print(f"# {name:<26} {value:>16.6f}")
    print(f"# outcome_digest {passes[0].digest}")
    for line in problems:
        print(f"# FAIL {line}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if args.scale == "full":
        append_history({
            "time_unix": time.time(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "fingerprint": fingerprint(),
            "outcome_digest": passes[0].digest,
            "extras": extras,
            **result,
        })
    print(json.dumps(result))
    return 0


def run_probe(args: argparse.Namespace) -> int:
    """Set up once in this fresh interpreter and report the time."""
    import_program()
    workdir = WORK / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.scale, workdir)
        workload.setup()
        setup_s = time.monotonic() - args.setup_probe
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": setup_s}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; one summary line per metric."""
    merged: Dict[str, Dict[str, Any]] = {}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOADS:
        done = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--scale", args.scale,
            ],
            capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"# FAIL {name} exited with {done.returncode}")
            correct = False
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            merged[f"{name}.{metric}"] = value
    print(json.dumps({
        "correct": correct, "attempted": max(attempted, 1),
        "failed": failed, "metrics": merged,
    }))
    return 0 if correct else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {SRC}; run the benchmark "
            "from the root of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe is not None:
        return run_probe(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
