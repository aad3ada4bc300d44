"""Output checks: the paper's contract, asserted on every benchmark pass.

Each check takes plain data (so the negative controls in
``test_perfbench.py`` can feed it a deliberately broken input) and
returns ``(failed_tasks, problems)``: how many tasks the failure
touches, for ``failed``, and one line per problem.  An empty problem
list means the pass is correct.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

#: Theorem 4.4: k-collection finishes in at most 32.27·(k+D)·log Δ
#: expected slots, so no cell's mean measured constant may exceed this.
THM44_CONSTANT = 32.27

Problems = Tuple[int, List[str]]


def _canonical(metrics: Any) -> str:
    """Metrics as canonical JSON: equal strings = bit-identical values
    (a NaN sojourn, for instance, equals itself here)."""
    return json.dumps(metrics, sort_keys=True, separators=(",", ":"))


def outcome_digest(rows: Iterable[Tuple[str, Mapping[str, Any]]]) -> str:
    """sha256 over ``(task key, metrics)`` rows, in the order given."""
    payload = _canonical([[key, dict(metrics)] for key, metrics in rows])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def check_e3(
    expected_tasks: int,
    completed: int,
    quarantined: int,
    cells: Mapping[str, Sequence[float]],
) -> Problems:
    """Every task completes; every cell's mean constant is ≤ 32.27."""
    failed = 0
    problems: List[str] = []
    missing = expected_tasks - completed
    if missing or quarantined:
        failed += max(missing, quarantined)
        problems.append(
            f"{completed}/{expected_tasks} tasks completed, "
            f"{quarantined} quarantined"
        )
    for label, constants in cells.items():
        mean = sum(constants) / len(constants) if constants else float("inf")
        if mean > THM44_CONSTANT:
            failed += len(constants)
            problems.append(
                f"cell {label}: mean Thm 4.4 constant {mean:.3f} "
                f"> {THM44_CONSTANT}"
            )
    return failed, problems


def check_collected(
    total_messages: int,
    delivered: Sequence[Sequence[int]],
    backlog: Sequence[int],
) -> Problems:
    """Per replication: every message reaches the root exactly once and
    every buffer drains (``backlog`` is the summed buffer occupancy)."""
    failed = 0
    problems: List[str] = []
    expected = list(range(total_messages))
    for replication, ids in enumerate(delivered):
        bad = []
        if sorted(ids) != expected:
            counts = Counter(ids)
            lost = sum(1 for m in expected if counts[m] == 0)
            dup = sum(c - 1 for c in counts.values() if c > 1)
            bad.append(f"{lost} lost, {dup} duplicated")
        if backlog[replication]:
            bad.append(f"{backlog[replication]} still buffered")
        if bad:
            failed += 1
            problems.append(f"replication {replication}: " + ", ".join(bad))
    return failed, problems


def check_conservation(
    cold: Mapping[str, Mapping[str, Any]], expected_tasks: int
) -> Problems:
    """Every task of the cold pass ran, with delivered + lost ≤ submitted.

    ``cold`` maps task key -> metrics.
    """
    failed = 0
    problems: List[str] = []
    if len(cold) != expected_tasks:
        failed += abs(expected_tasks - len(cold))
        problems.append(f"cold pass: {len(cold)}/{expected_tasks} tasks")
    for key, metrics in cold.items():
        if metrics["delivered"] + metrics["lost"] > metrics["submitted"]:
            failed += 1
            problems.append(
                f"task {key[:12]}: delivered {metrics['delivered']} + lost "
                f"{metrics['lost']} > submitted {metrics['submitted']}"
            )
    return failed, problems


def check_replay(
    cold: Mapping[str, Mapping[str, Any]],
    warm: Mapping[str, Mapping[str, Any]],
    executed: int,
    hits: int,
) -> Problems:
    """A warm pass only reads: every task a cache hit, none executed,
    every metric bit-identical to the cold pass."""
    failed = 0
    problems: List[str] = []
    if executed or hits != len(cold):
        failed += max(executed, len(cold) - hits)
        problems.append(
            f"warm pass executed {executed} tasks and hit the cache "
            f"{hits}/{len(cold)} times"
        )
    differing = [
        key for key in cold if _canonical(warm.get(key)) != _canonical(cold[key])
    ]
    if differing:
        failed += len(differing)
        problems.append(
            f"warm pass metrics differ from the cold pass on "
            f"{len(differing)} task(s)"
        )
    return failed, problems


def check_drain(
    transport: str,
    expected: Mapping[str, Mapping[str, Any]],
    committed_keys: Sequence[str],
    results: Mapping[str, Mapping[str, Any]],
) -> Problems:
    """Each task committed exactly once, with the inline result.

    ``committed_keys`` lists the key of every outcome line the
    transport journaled; ``results`` is its merged report (key ->
    metrics); ``expected`` is the task function called inline.
    """
    failed = 0
    problems: List[str] = []
    counts = Counter(committed_keys)
    wrong_count = [
        key for key in expected if counts.get(key, 0) != 1
    ] + [key for key in counts if key not in expected]
    if wrong_count:
        failed += len(wrong_count)
        problems.append(
            f"{transport}: {len(wrong_count)} task(s) not committed "
            f"exactly once"
        )
    mismatched = [
        key for key, metrics in expected.items()
        if dict(results.get(key, {})) != dict(metrics)
    ]
    if mismatched:
        failed += len(mismatched)
        problems.append(
            f"{transport}: {len(mismatched)} result(s) differ from the "
            f"inline task function"
        )
    return failed, problems


def check_same_digest(digests: Sequence[str]) -> List[str]:
    """Repeats of identical inputs must give identical outcomes."""
    distinct = sorted(set(digests))
    if len(distinct) > 1:
        return [
            f"outcome digest differs across {len(digests)} repeats: "
            + ", ".join(d[:12] for d in distinct)
        ]
    return []


def per_cell(
    rows: Iterable[Tuple[str, float]]
) -> Dict[str, List[float]]:
    """Group ``(cell label, value)`` rows by cell, keeping order."""
    cells: Dict[str, List[float]] = {}
    for label, value in rows:
        cells.setdefault(label, []).append(value)
    return cells
