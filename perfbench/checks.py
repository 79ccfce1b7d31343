"""Output checks: per-run invariants, determinism and the reference digests.

A *run* is one simulation: one cell of a plain sweep, one replicate of an
adaptive cell.  A run fails when it comes back as an error result, breaks
an invariant, or its cell's output differs from the reference.  The
invariants are that ``tasks_completed`` equals the generated DAG's task
count and that makespan and throughput are finite and positive.

Adaptive cells return replicate means.  A mean over equal integers is
that integer, and the relative CI of ``tasks_completed`` is 0 only when
every replicate agrees, so the two together pin every replicate's task
count; a NaN or infinity in any replicate carries into its mean.

The reference is ``reference.json`` for the default seed.  For any other
seed it is the first round of the same run: later rounds re-execute the
same cells and must reproduce them bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from workloads import ADAPTIVE, expected_tasks

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def cell_digest(result: Dict[str, Any]) -> str:
    """Exact fingerprint of one cell's metrics (floats by repr)."""
    payload = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def output_sha(digests: Sequence[str]) -> str:
    """Fingerprint of a whole round, in cell order."""
    return hashlib.sha256("\n".join(digests).encode("utf-8")).hexdigest()


def load_reference(workload: str) -> Optional[List[str]]:
    """Per-cell digests pinned for ``workload`` at the default seed."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        entry = json.load(fh).get(workload)
    return None if entry is None else entry["cells"]


@dataclass
class RoundCheck:
    runs: int = 0
    failed: int = 0
    tasks: int = 0
    digests: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def output_sha(self) -> str:
        return output_sha(self.digests)


def _positive_finite(value: Any) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
    )


def _cell_problem(spec, result: Dict[str, Any], replicates: int) -> Optional[str]:
    """Why ``result`` breaks an invariant, or None."""
    from repro.sweep import ADAPTIVE_KEY, is_error_result

    if is_error_result(result):
        return "error result"
    if result.get("tasks_completed") != expected_tasks(spec):
        return (
            f"tasks_completed {result.get('tasks_completed')!r} != "
            f"{expected_tasks(spec)}"
        )
    for name in ("makespan", "throughput"):
        if not _positive_finite(result.get(name)):
            return f"{name} {result.get(name)!r} is not finite and > 0"
    adaptive = result.get(ADAPTIVE_KEY)
    if adaptive is not None:
        if adaptive.get("failed_replicates"):
            return f"{adaptive['failed_replicates']} replicates failed"
        if replicates > 1 and adaptive["relative_ci"].get("tasks_completed") != 0.0:
            return "replicates disagree on tasks_completed"
    return None


def check_round(
    specs: Sequence[Any],
    results: Sequence[Dict[str, Any]],
    reference: Optional[Sequence[str]],
    adaptive: bool,
) -> RoundCheck:
    """Check every run of one round; ``reference`` holds per-cell digests."""
    from repro.sweep import ADAPTIVE_KEY

    check = RoundCheck()
    if len(results) != len(specs):
        raise ValueError(f"{len(results)} results for {len(specs)} cells")
    if reference is not None and len(reference) != len(specs):
        raise ValueError(
            f"reference has {len(reference)} cells, workload has {len(specs)}"
        )
    for i, (spec, result) in enumerate(zip(specs, results)):
        bookkeeping = result.get(ADAPTIVE_KEY)
        # A cell whose every replicate failed aggregates to an error
        # result without replicate bookkeeping; it stopped at min_seeds.
        replicates = (
            bookkeeping["replicates"] if bookkeeping is not None
            else ADAPTIVE["min_seeds"] if adaptive
            else 1
        )
        digest = cell_digest(result)
        check.digests.append(digest)
        check.runs += replicates
        problem = _cell_problem(spec, result, replicates)
        if problem is None and reference is not None and digest != reference[i]:
            problem = "differs from the reference"
        if problem is not None:
            check.failed += replicates
            check.problems.append(f"cell {i}: {problem}")
            continue
        check.tasks += expected_tasks(spec) * replicates
    return check

