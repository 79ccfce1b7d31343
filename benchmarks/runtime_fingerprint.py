"""Exact-output fingerprint of the simulated runtime's worker loop.

Prints one JSON object mapping each worker-loop configuration to a
sha256 of everything that configuration's runs produced:

* makespan, tasks completed, steal and failed-scan counters, every
  ``TaskRecord`` field and the per-core busy time;
* the full event stream of traced runs;
* ``steal_tries`` 1, 2 and 3, traced and untraced, for six schedulers,
  two kernels and two seeds on the TX2;
* a single-core machine;
* fault-armed runs: an empty plan, a transient and a permanent crash;
* the ``fig_faults`` table at scale 0.02 and the ``chaos`` smoke at
  scale 0.01 (both with real crashes).

The package is imported from ``PYTHONPATH``, so one copy of this script
fingerprints any checkout.  Run it against two commits and diff the
output to answer "did any result change?" without editing code::

    PYTHONPATH=src python benchmarks/runtime_fingerprint.py > after.json
    git worktree add ../parent HEAD~1
    PYTHONPATH=../parent/src python benchmarks/runtime_fingerprint.py > before.json
    diff before.json after.json   # empty = bit-identical
"""

from __future__ import annotations

import hashlib
import json
import sys

SCHEDULERS = ("rws", "fa", "fam-c", "da", "dam-c", "dam-p")
KERNELS = ("matmul", "copy")
SEEDS = (0, 1)
STEAL_TRIES = (1, 2, 3)
TASKS = 150


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _result_state(result, tracer=None) -> tuple:
    collector = result.collector
    state = (
        result.makespan,
        result.tasks_completed,
        collector.steals,
        collector.failed_steal_scans,
        [tuple(record) for record in collector.records],
        sorted(collector.core_busy.items()),
        sorted(result.extra.get("fault_stats", {}).items()),
    )
    if tracer is not None:
        state += (tracer.events(),)
    return state


def _run(scheduler, kernel, seed, tries=1, traced=False, machine=None,
         plan=None):
    from repro.faults import FaultScenario
    from repro.graph.generators import layered_synthetic_dag
    from repro.machine.presets import jetson_tx2
    from repro.runtime.config import RuntimeConfig
    from repro.session import _KERNELS, run_graph
    from repro.trace import FullTracer

    tracer = FullTracer() if traced else None
    graph = layered_synthetic_dag(_KERNELS[kernel](), 4, TASKS)
    result = run_graph(
        graph,
        machine or jetson_tx2(),
        scheduler,
        scenario=FaultScenario(plan) if plan is not None else None,
        config=RuntimeConfig(steal_tries=tries),
        seed=seed,
        tracer=tracer,
    )
    return _result_state(result, tracer)


def fingerprints() -> dict:
    """Configuration name -> sha256 of its exact outputs."""
    from repro.experiments.common import ExperimentSettings
    from repro.experiments.fig_faults import run_chaos, run_faults
    from repro.faults import CoreCrash, FaultPlan
    from repro.machine.presets import symmetric_machine

    out = {}
    for tries in STEAL_TRIES:
        for traced in (False, True):
            states = [
                _run(sched, kernel, seed, tries=tries, traced=traced)
                for sched in SCHEDULERS
                for kernel in KERNELS
                for seed in SEEDS
            ]
            label = "traced" if traced else "untraced"
            out[f"tx2/tries={tries}/{label}"] = _digest(states)

    single = symmetric_machine(1, 1)
    for traced in (False, True):
        states = [
            _run(sched, "matmul", 0, traced=traced, machine=single)
            for sched in SCHEDULERS
        ]
        out[f"single-core/{'traced' if traced else 'untraced'}"] = _digest(
            states
        )

    plans = {
        "idle": FaultPlan(),
        "transient": FaultPlan(crashes=(CoreCrash(2, 0.01, 0.02),)),
        "permanent": FaultPlan(crashes=(CoreCrash(1, 0.01),)),
    }
    for name, plan in plans.items():
        for tries in (1, 2):
            for traced in (False, True):
                states = [
                    _run(sched, "matmul", 0, tries=tries, traced=traced,
                         plan=plan)
                    for sched in SCHEDULERS
                ]
                label = "traced" if traced else "untraced"
                out[f"faults-{name}/tries={tries}/{label}"] = _digest(states)

    faults = run_faults(ExperimentSettings(scale=0.02))
    out["run_faults/scale=0.02"] = _digest(
        (sorted(faults.baseline.items()),
         sorted((k, sorted(v.items())) for k, v in faults.faulted.items()),
         sorted(faults.failed.items()))
    )
    chaos = run_chaos(ExperimentSettings(scale=0.01))
    out["run_chaos/scale=0.01"] = _digest(
        (chaos.total_tasks, chaos.makespan, sorted(chaos.fault_stats.items()))
    )
    return out


def main() -> int:
    json.dump(fingerprints(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
