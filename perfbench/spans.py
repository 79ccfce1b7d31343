"""Spans for the traced run, recorded from outside the program.

:class:`SpanRecorder` wraps public functions of each layer in place —
module functions wherever a ``repro`` module holds them, methods on the
class that defines them — and :meth:`SpanRecorder.remove` puts every
original back.  Nothing under ``src/`` knows about it.

A span is ``(id, parent id, name, start, end, cell id)``: the parent is
the innermost wrapped call still open when the span began, and the cell
id is the key prefix of the spec whose ``execute_spec`` call encloses it.
Spans stay in memory until :meth:`SpanRecorder.write` stores them once.
The recorder keeps one call stack, so it must only see one thread; the
benchmark installs it only around inline (single-threaded) execution
and around pool sweeps whose workers' spans never come back.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: Every span name the recorder emits.
SPAN_NAMES = (
    "graph.build",
    "machine.retime",
    "machine.begin_work",
    "core.decide",
    "core.complete",
    "core.batch",
    "runtime.run",
    "metrics.extract",
    "sweep.execute",
    "distributed.run",
    "distributed.fabric_send",
)


class SpanRecorder:
    """Install span wrappers, collect spans and counters, restore."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, float, float, str]] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = [0]
        self._next_id = 1
        self._cell = ""
        #: (owner, attribute, original) of every patched attribute.
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- wrapping --------------------------------------------------------
    def _wrap(self, fn: Callable, name: str, after=None, cell_of=None) -> Callable:
        """``fn`` recording a span; ``after`` sees its result, ``cell_of``
        its arguments, naming the cell for it and every nested span."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            outer = cell = self._cell
            if cell_of is not None:
                cell = self._cell = cell_of(*args)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._cell = outer
                spans.append((sid, parent, name, start, end, cell))
            if after is not None:
                after(out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_function(self, fn: Callable, wrapper: Callable) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that holds it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def _patch_method(self, cls: type, attr: str, name: str, after=None) -> None:
        self._patch(cls, attr, self._wrap(cls.__dict__[attr], name, after))

    def install(self) -> "SpanRecorder":
        """Wrap the layer entry points; call :meth:`remove` afterwards."""
        if self._patched:
            raise RuntimeError("span wrappers are already installed")
        import repro.core.batched as batched
        import repro.sweep.registry as registry
        from repro.core.policies import registry as _policies  # noqa: F401
        from repro.core.policies.base import SchedulerPolicy
        from repro.distributed.cluster_runtime import DistributedRuntime
        from repro.distributed.network import Fabric
        from repro.machine.speed import SpeedModel
        from repro.runtime.executor import SimulatedRuntime

        counters = self.counters

        def built(graph) -> None:
            counters["graph.tasks_built"] += graph.total_tasks

        def ran(result) -> None:
            counters["runtime.tasks"] += result.tasks_completed
            counters["runtime.steals"] += result.collector.steals
            counters["runtime.failed_steal_scans"] += (
                result.collector.failed_steal_scans
            )

        def ran_nodes(result) -> None:
            for node_result in result.node_results:
                ran(node_result)

        def batch_done(payload) -> None:
            counters["core.batch_members"] += len(payload["replicates"])

        try:
            for fn, wrapper in (
                (registry.build_workload,
                 self._wrap(registry.build_workload, "graph.build", built)),
                (registry.extract_metrics,
                 self._wrap(registry.extract_metrics, "metrics.extract")),
                (batched.run_batch_spec,
                 self._wrap(batched.run_batch_spec, "core.batch", batch_done)),
                (registry.execute_spec,
                 self._wrap(registry.execute_spec, "sweep.execute",
                            cell_of=lambda spec: spec.key()[:16])),
            ):
                self._patch_function(fn, wrapper)
            for attr in ("set_freq_scale", "set_cpu_share"):
                self._patch_method(SpeedModel, attr, "machine.retime")
            self._patch_method(SpeedModel, "begin_work", "machine.begin_work")
            for cls in _policy_classes(SchedulerPolicy):
                for attr, name in (
                    ("choose_place", "core.decide"),
                    ("place_after_steal", "core.decide"),
                    ("on_complete", "core.complete"),
                ):
                    fn = cls.__dict__.get(attr)
                    if fn is not None and not getattr(
                        fn, "__isabstractmethod__", False
                    ):
                        self._patch_method(cls, attr, name)
            self._patch_method(SimulatedRuntime, "run", "runtime.run", ran)
            self._patch_method(
                DistributedRuntime, "run", "distributed.run", ran_nodes
            )
            self._patch_method(Fabric, "send", "distributed.fabric_send")
        except BaseException:
            self.remove()
            raise
        return self

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------
    def write(self, path) -> None:
        """Store every span once, as compact JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start", "end", "cell"],
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )


def _policy_classes(base: type) -> List[type]:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def summarize(spans) -> Dict[str, Dict[str, float]]:
    """Per span name: outermost call count, total and self seconds.

    A span nested directly in a span of the same name (a policy method
    calling its base class, ``place_after_steal`` delegating to
    ``choose_place``) is part of its parent's call: it is not counted
    again, and its children count as children of the outermost call.
    Self time is a call's duration minus its children's.
    """
    by_id = {s[0]: s for s in spans}

    def outermost(span):
        while span[1] in by_id and by_id[span[1]][2] == span[2]:
            span = by_id[span[1]]
        return span

    calls = [s for s in spans if outermost(s) is s]
    child_time: Dict[int, float] = defaultdict(float)
    for sid, parent, name, start, end, _cell in calls:
        if parent in by_id:
            child_time[outermost(by_id[parent])[0]] += end - start
    out: Dict[str, Dict[str, float]] = {
        name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES
    }
    for sid, parent, name, start, end, _cell in calls:
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[sid]
    return out
