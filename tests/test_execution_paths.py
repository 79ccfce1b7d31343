"""One output fingerprint across every execution path.

A small Fig. 4-style cell list runs inline, on the local process pool
(``jobs=2``) and through the in-process coordinator/worker cluster
(``cluster="inproc"``); all three must give byte-identical results.
Adaptive replication must likewise give identical results with batched
replicate execution on (``batch_runs="auto"``) and off.
"""

import hashlib
import json

from repro.experiments.common import ExperimentSettings
from repro.experiments.fig4_corunner import fig4_spec
from repro.sweep import AdaptivePolicy, SweepRunner


def _cells():
    settings = ExperimentSettings(scale=0.01)
    return [
        fig4_spec(settings, kernel, parallelism, scheduler)
        for kernel in ("matmul", "copy")
        for parallelism in (2, 4)
        for scheduler in ("rws", "dam-c", "dam-p")
    ]


def _fingerprint(rows) -> str:
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sweep(method, *args, **kwargs):
    runner = SweepRunner(use_cache=False, progress=False, **kwargs)
    try:
        return getattr(runner, method)(*args), runner.last_stats
    finally:
        runner.close()


def test_inline_pool_and_cluster_share_one_fingerprint():
    cells = _cells()
    paths = {
        "inline": dict(jobs=1),
        "pool": dict(jobs=2),
        "cluster": dict(jobs=2, cluster="inproc"),
    }
    fingerprints = {
        name: _fingerprint(_sweep("run", cells, **kwargs)[0])
        for name, kwargs in paths.items()
    }
    assert len(set(fingerprints.values())) == 1, fingerprints


def test_adaptive_batching_auto_equals_off():
    cells = _cells()
    policy = AdaptivePolicy(ci=0.02, min_seeds=3, max_seeds=5)
    auto, stats = _sweep(
        "run_adaptive", cells, policy, jobs=1, batch_runs="auto"
    )
    off, _ = _sweep("run_adaptive", cells, policy, jobs=1, batch_runs="off")
    assert stats.batches > 0
    assert _fingerprint(auto) == _fingerprint(off)
