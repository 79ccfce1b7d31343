#!/usr/bin/env python3
"""The repository benchmark: simulation sweeps timed end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload dvfs_sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` times whole sweep rounds for ``--seconds`` seconds and
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs
a traced round between two untraced ones and reports the per-layer
metrics.
Every run checks every output (see ``checks.py``).  The last line of
standard output is the result as one JSON object; the lines before it
print each metric by name and unit, the output fingerprint and the full
record, which is also appended to ``perfbench/out/records.jsonl``.

``--write-reference`` regenerates ``reference.json`` from the default
seed; do that only when a change to the program is meant to change its
results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fewest fresh processes timed for ``setup_s`` in one run; the median
#: is reported.
SETUP_PROBES = 5


def _declared_metrics() -> Tuple[Dict[str, str], Dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
    )


def _with_units(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, Any]:
    if set(values) != set(units):
        raise RuntimeError(
            "measured metrics do not match BENCHMARK.json: "
            f"missing {sorted(set(units) - set(values))}, "
            f"undeclared {sorted(set(values) - set(units))}"
        )
    return {name: {"value": values[name], "unit": units[name]} for name in units}


# ----------------------------------------------------------------------
# host and source fingerprints
# ----------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint() -> Dict[str, Any]:
    import numpy

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def git_sha() -> str:
    """HEAD of the checkout's own ``.git``, or "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha() -> str:
    """Content hash of every program source file, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child it has waited for
    (on ``tiny_cells``, a pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------

def setup_probe(name: str, seed: int) -> None:
    """Child side of a ``setup_s`` probe: set up, print the clock, exit."""
    import repro  # noqa: F401
    from workloads import WORKLOADS, make_runner

    workload = WORKLOADS[name]
    workload.make_specs(seed)
    runner = make_runner(workload)
    print(repr(time.monotonic()), flush=True)
    runner.close()


def time_setup(name: str, seed: int) -> float:
    """Seconds from the start of a fresh process to its first sweep call."""
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout.split()[0]) - start


class SetupProber:
    """Runs :func:`time_setup` on request, from a small helper process.

    A forked child inherits its parent's resident set in its peak-RSS
    accounting, so probes forked from the benchmark process would report
    its size as theirs.  The helper starts before the sweeps allocate
    anything, and its probes only reach this process's child usage once
    the helper is reaped in :meth:`close`, after ``peak_rss_mb`` is read.
    """

    def __init__(self, name: str, seed: int) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe-server",
             "--workload", name, "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def probe(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the set-up probe helper exited")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait(timeout=120)


def probe_server(name: str, seed: int) -> None:
    """Helper side of :class:`SetupProber`: one probe per input line."""
    for _line in sys.stdin:
        print(repr(time_setup(name, seed)), flush=True)


# ----------------------------------------------------------------------
# untraced run: end-to-end metrics
# ----------------------------------------------------------------------

def timed_round(workload, runner, specs) -> Tuple[float, List[Dict]]:
    from workloads import run_round

    start = time.perf_counter()
    results = run_round(workload, runner, specs)
    return time.perf_counter() - start, results


def end_to_end(workload, seed: int, seconds: float):
    """Rounds until ``seconds`` are used, each after one set-up probe.

    Every metric is a median over the run.  Host speed on a shared
    machine drifts in phases of seconds to tens of seconds, so the set-up
    probes are spread over the same window as the rounds rather than
    bunched at its start.  A round starts only if it is expected to end
    within the window (the first always runs).
    """
    prober = SetupProber(workload.name, seed)
    try:
        from checks import check_round, load_reference
        from workloads import DEFAULT_SEED, make_runner

        specs = workload.make_specs(seed)
        reference = (
            load_reference(workload.name) if seed == DEFAULT_SEED else None
        )
        runner = make_runner(workload)
        setups, rounds = [], []
        start = time.perf_counter()
        while not rounds or (
            time.perf_counter() - start
            + statistics.median(w for w, _ in rounds) <= seconds
        ):
            setups.append(prober.probe())
            wall, results = timed_round(workload, runner, specs)
            check = check_round(specs, results, reference, workload.adaptive)
            # Every later round re-executes the same cells: the first
            # round is the reference when no pinned one applies.
            reference = reference or check.digests
            rounds.append((wall, check))
        while len(setups) < SETUP_PROBES:
            setups.append(prober.probe())
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(wall for wall, _ in rounds),
            "sim_tasks_per_s": statistics.median(c.tasks / w for w, c in rounds),
            "cells_per_s": statistics.median(c.runs / w for w, c in rounds),
            "peak_rss_mb": peak_rss_mb(),
        }
    finally:
        prober.close()
    checks = [check for _wall, check in rounds]
    return values, checks, {"round_walls": [wall for wall, _ in rounds],
                            "setup_walls": setups}


# ----------------------------------------------------------------------
# traced run: per-layer metrics
# ----------------------------------------------------------------------

def per_layer(workload, seed: int, spans_path: Path):
    from checks import check_round, load_reference
    from repro.graph.templates import template_cache_stats
    from spans import SpanRecorder, summarize
    from workloads import DEFAULT_SEED, make_runner

    specs = workload.make_specs(seed)
    pinned = load_reference(workload.name) if seed == DEFAULT_SEED else None
    runner = make_runner(workload)
    checks = []

    def checked(results):
        check = check_round(specs, results, pinned or checks[0].digests,
                            workload.adaptive)
        checks.append(check)
        return check

    wall_before, results = timed_round(workload, runner, specs)
    checks.append(check_round(specs, results, pinned, workload.adaptive))

    recorder = SpanRecorder()
    templates_before = template_cache_stats()
    recorder.install()
    try:
        wall_traced, results = timed_round(workload, runner, specs)
        checked(results)
        stats = runner.last_stats
        if workload.jobs > 1:
            # Pool workers keep their spans: run the same cells inline
            # for the layer spans and the execute time.
            _wall, results = timed_round(
                workload, make_runner(workload, jobs=1), specs
            )
            checked(results)
    finally:
        recorder.remove()
    templates_after = template_cache_stats()
    # Untraced rounds on both sides of the traced one, so a drift in host
    # speed does not read as tracing overhead.
    wall_after, results = timed_round(workload, runner, specs)
    checked(results)

    cluster_call_s = None
    if workload.jobs > 1:
        cluster_call_s, results = timed_round(
            workload, make_runner(workload, cluster="inproc"), specs
        )
        checked(results)

    spans = summarize(recorder.spans)
    counters = recorder.counters
    runs = checks[0].runs
    execute_s = spans["sweep.execute"]["total_s"]
    worker_wait_s = workload.jobs * wall_traced - execute_s
    hits = templates_after["hits"] - templates_before["hits"]
    misses = templates_after["misses"] - templates_before["misses"]
    steals = counters["runtime.steals"]
    steal_attempts = steals + counters["runtime.failed_steal_scans"]
    batches = spans["core.batch"]["calls"]
    run_s = spans["runtime.run"]["total_s"]
    values = {
        "graph.build_s": spans["graph.build"]["total_s"],
        "graph.tasks_built": counters["graph.tasks_built"],
        "graph.template_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "machine.retimes": spans["machine.retime"]["calls"],
        "machine.retime_s": spans["machine.retime"]["total_s"],
        "machine.begin_work_calls": spans["machine.begin_work"]["calls"],
        "machine.begin_work_s": spans["machine.begin_work"]["total_s"],
        "core.decisions": spans["core.decide"]["calls"],
        "core.decide_s": spans["core.decide"]["total_s"],
        "core.completions": spans["core.complete"]["calls"],
        "core.complete_s": spans["core.complete"]["total_s"],
        "core.batches": batches,
        "core.batch_width_mean": (
            counters["core.batch_members"] / batches if batches else 0.0
        ),
        "core.batch_s": spans["core.batch"]["total_s"],
        "runtime.runs": spans["runtime.run"]["calls"],
        "runtime.run_s": run_s,
        "runtime.self_s": spans["runtime.run"]["self_s"],
        "runtime.host_us_per_task": (
            1e6 * run_s / counters["runtime.tasks"]
            if counters["runtime.tasks"] else 0.0
        ),
        "runtime.steal_success_ratio": (
            steals / steal_attempts if steal_attempts else 0.0
        ),
        "metrics.extract_s": spans["metrics.extract"]["total_s"],
        "sweep.call_s": wall_traced,
        "sweep.execute_s": execute_s,
        "sweep.worker_wait_s": worker_wait_s,
        "sweep.overhead_ms_per_cell": 1e3 * worker_wait_s / runs,
        "sweep.retries": stats.retries,
        "sweep.failures": stats.failures,
        "sweep.replicate_runs": stats.executed if workload.adaptive else 0,
        "sweep.seeds_saved": stats.seeds_saved,
        "cluster.overhead_ms_per_cell": (
            1e3 * (workload.jobs * cluster_call_s - execute_s) / runs
            if cluster_call_s is not None else 0.0
        ),
        "distributed.run_s": spans["distributed.run"]["total_s"],
        "distributed.self_s": spans["distributed.run"]["self_s"],
        "distributed.fabric_sends": spans["distributed.fabric_send"]["calls"],
        "distributed.fabric_send_s": spans["distributed.fabric_send"]["total_s"],
        "trace.overhead_frac": 2 * wall_traced / (wall_before + wall_after) - 1,
    }
    OUT.mkdir(exist_ok=True)
    recorder.write(spans_path)
    return values, checks, {"spans": len(recorder.spans),
                            "spans_file": str(spans_path.relative_to(ROOT))}


# ----------------------------------------------------------------------
# reference digests
# ----------------------------------------------------------------------

def write_reference() -> None:
    from checks import REFERENCE_PATH, check_round
    from workloads import DEFAULT_SEED, WORKLOADS, make_runner

    reference = {}
    for name, workload in WORKLOADS.items():
        specs = workload.make_specs(DEFAULT_SEED)
        _wall, results = timed_round(workload, make_runner(workload), specs)
        check = check_round(specs, results, None, workload.adaptive)
        if check.failed:
            raise RuntimeError(f"{name}: {check.problems[:5]}")
        reference[name] = {
            "seed": DEFAULT_SEED,
            "output_sha": check.output_sha,
            "cells": check.digests,
        }
        print(f"{name}: output_sha {check.output_sha}")
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--probe-server", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.write_reference:
        write_reference()
        return 0

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.probe_server:
        probe_server(args.workload, args.seed)
        return 0

    workload = WORKLOADS[args.workload]
    e2e_units, layer_units = _declared_metrics()
    if args.trace:
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        values, checks, extra = per_layer(workload, args.seed, spans_path)
        metrics = _with_units(values, layer_units)
    else:
        values, checks, extra = end_to_end(workload, args.seed, args.seconds)
        metrics = _with_units(values, e2e_units)

    attempted = sum(c.runs for c in checks)
    failed = sum(c.failed for c in checks)
    shas = sorted({c.output_sha for c in checks})
    for check in checks:
        for problem in check.problems[:10]:
            print(f"perfbench: {workload.name}: {problem}", file=sys.stderr)
    record = {
        "schema": 1,
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha": source_sha(),
        "host": host_fingerprint(),
        "output_sha": checks[0].output_sha,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            **metrics,
            "failed_frac": {"value": failed / attempted, "unit": "fraction"},
        },
        **extra,
    }
    for name, entry in record["metrics"].items():
        print(f"{name:28s} {entry['value']:.6g} {entry['unit']}")
    print(f"output_sha {workload.name} {' '.join(shas)}")
    print("record " + json.dumps(record, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    with open(OUT / "records.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0 and len(shas) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
