"""The benchmark's four workloads: spec generation, runner wiring, one round.

Every workload is a fixed list of cells, generated from the workload seed.
A *round* hands the whole list to one :class:`repro.sweep.SweepRunner`
call (``run`` or ``run_adaptive``) and then closes the runner; a
benchmark run repeats rounds until its time is up.  The seed varies only
the cells' run seeds, never which cells there are, so every seed asks
for the same amount of simulated work and run-to-run spread comes from
the host, not from the inputs.

Fig. 4 and Fig. 7 have 105 cells each, 16-29 s of serial work, which is
too long to repeat within one run.  Their workloads take a stratified
sample instead (:func:`_sample`) that keeps the figures' mix of kernels,
schedulers and DAG widths.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

#: The seed whose outputs are pinned in ``reference.json``.
DEFAULT_SEED = 0

KERNELS = ("matmul", "copy", "stencil")

#: Fig. 4's adaptive replication settings (the CLI's ``--adaptive``
#: defaults).
ADAPTIVE = {"ci": 0.02, "min_seeds": 3, "max_seeds": 12}

#: Cells per round.  A ``dvfs_sweep`` round is kept short (~2 s) so a
#: run holds many; ``corunner_adaptive`` takes 21 cells because the
#: replicate count of a cell, and so its cost, depends on the seed: over
#: 21 cells the quartiles of the per-round work across ten seeds lie ~6%
#: apart.
DVFS_CELLS = 7
CORUNNER_CELLS = 21
TINY_CELLS = 2000

#: Nodes and iterations of the Fig. 10 heat cells.  60 iterations is
#: twice the figure's default, so a round is long enough to time.
HEAT_NODES = 4
HEAT_ITERATIONS = 60
HEAT_PARTITIONS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    adaptive: bool
    make_specs: Callable[[int], List[Any]]


def _metrics():
    from repro.sweep.spec import DEFAULT_METRICS

    return DEFAULT_METRICS


def _seed(seed: int, workload: str, index: int) -> int:
    from repro.sweep import derive_seed

    return derive_seed(seed, workload, index)


def _sample(cells: int):
    """(kernel, parallelism, scheduler) of a ``cells``-cell figure sample.

    Cell ``i`` takes the ``i``-th scheduler, kernel and P modulo their
    counts, so 7 cells cover every scheduler, and 21 every (kernel,
    scheduler) pair once, with each P four or five times.
    """
    from repro.experiments.common import PARALLELISMS, TX2_SCHEDULERS

    return [
        (KERNELS[i % len(KERNELS)], PARALLELISMS[i % len(PARALLELISMS)],
         TX2_SCHEDULERS[i % len(TX2_SCHEDULERS)])
        for i in range(cells)
    ]


def dvfs_specs(seed: int):
    """Fig. 7's cells (sampled): layered DAGs under the Denver DVFS wave."""
    from repro.experiments.common import ExperimentSettings
    from repro.sweep import RunSpec

    settings = ExperimentSettings(scale=0.02)
    wave = settings.dvfs_wave()
    scenario = {
        "name": "dvfs",
        "cores": [0, 1],
        "high_scale": wave.high_scale,
        "low_scale": wave.low_scale,
        "half_period": wave.half_period,
    }
    return [
        RunSpec(
            kind="single",
            params={
                "workload": {
                    "name": "layered",
                    "kernel": kernel,
                    "parallelism": p,
                    "total": settings.dvfs_task_count(kernel, p),
                },
                "machine": "jetson_tx2",
                "scheduler": sched,
                "scenario": scenario,
            },
            seed=_seed(seed, "dvfs_sweep", i),
            metrics=_metrics(),
            tags={"kernel": kernel, "parallelism": p, "scheduler": sched},
        )
        for i, (kernel, p, sched) in enumerate(_sample(DVFS_CELLS))
    ]


def tiny_specs(seed: int):
    """Thousands of 16-task copy DAGs at P=2 under RWS, no interference."""
    from repro.sweep import RunSpec

    return [
        RunSpec(
            kind="single",
            params={
                "workload": {
                    "name": "layered",
                    "kernel": "copy",
                    "parallelism": 2,
                    "total": 16,
                },
                "machine": "jetson_tx2",
                "scheduler": "rws",
            },
            seed=_seed(seed, "tiny_cells", i),
            metrics=_metrics(),
        )
        for i in range(TINY_CELLS)
    ]


def corunner_specs(seed: int):
    """Fig. 4's cells (sampled): the co-runner on Denver core 0."""
    from repro.experiments.common import ExperimentSettings
    from repro.experiments.fig4_corunner import fig4_spec

    settings = ExperimentSettings(scale=0.02)
    return [
        replace(
            fig4_spec(settings, kernel, p, sched),
            seed=_seed(seed, "corunner_adaptive", i),
            metrics=_metrics(),
        )
        for i, (kernel, p, sched) in enumerate(_sample(CORUNNER_CELLS))
    ]


def heat_specs(seed: int):
    """Fig. 10's cells: 2D heat over 4 Haswell nodes, co-runner on node 0."""
    from repro.experiments.common import HASWELL_SCHEDULERS
    from repro.sweep import RunSpec

    return [
        RunSpec(
            kind="heat_cluster",
            params={
                "machine": "haswell_node",
                "scheduler": sched,
                "nodes": HEAT_NODES,
                "iterations": HEAT_ITERATIONS,
                "corunner": {
                    "node": 0,
                    "cores": [0, 1, 2, 3, 4],
                    "cpu_share": 0.5,
                    "memory_demand": 2.0,
                },
            },
            seed=_seed(seed, "heat_distributed", i),
            tags={"scheduler": sched},
        )
        for i, sched in enumerate(HASWELL_SCHEDULERS)
    ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("dvfs_sweep", jobs=1, adaptive=False, make_specs=dvfs_specs),
        Workload("tiny_cells", jobs=2, adaptive=False, make_specs=tiny_specs),
        Workload("corunner_adaptive", jobs=1, adaptive=True,
                 make_specs=corunner_specs),
        Workload("heat_distributed", jobs=1, adaptive=False,
                 make_specs=heat_specs),
    )
}


def expected_tasks(spec) -> int:
    """Task count of the DAG a cell generates, derived from its spec.

    A layered DAG has ``total // parallelism`` full layers.  A heat node
    runs ``partitions`` compute tasks per iteration, and each of the
    ``nodes - 1`` links adds one exchange task on both of its ends.
    """
    p = spec.params
    if spec.kind == "heat_cluster":
        nodes = p["nodes"]
        return p["iterations"] * (nodes * HEAT_PARTITIONS + 2 * (nodes - 1))
    workload = p["workload"]
    return (workload["total"] // workload["parallelism"]) * workload["parallelism"]


def make_runner(workload: Workload, jobs: Optional[int] = None,
                cluster: Optional[str] = None):
    """The sweep runner a workload goes through: cache, progress and
    telemetry off, no timeout, so nothing but the sweep itself is timed."""
    from repro.sweep import SweepRunner

    return SweepRunner(
        jobs=workload.jobs if jobs is None else jobs,
        use_cache=False,
        progress=False,
        label=f"perfbench-{workload.name}",
        batch_runs="auto",
        cluster=cluster,
    )


def run_round(workload: Workload, runner, specs: Sequence[Any]) -> List[Dict]:
    """One sweep call over every cell, then ``close()``."""
    try:
        if workload.adaptive:
            from repro.sweep import AdaptivePolicy

            return runner.run_adaptive(specs, AdaptivePolicy(**ADAPTIVE))
        return runner.run(specs)
    finally:
        runner.close()
