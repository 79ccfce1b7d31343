"""Delta-encoded spec transport: intern a base spec, ship compact diffs.

Overhead-dominated sweeps (many tiny cells, the fig5-replicate regime)
send nearly identical :class:`~repro.sweep.spec.RunSpec`\\ s over and
over: replicates of one cell differ only in their seed, grid neighbours
in one or two parameter values.  This module gives both dispatch paths —
the cluster wire protocol and the local process-pool pipes — a shared
fast lane:

* the **sender** (:class:`SpecInterner`) registers one *base spec* per
  structural group, keyed by the content hash of its wire form, and
  encodes every subsequent spec as a delta against it
  (:func:`encode_delta`);
* the **receiver** (:class:`SpecDecoder`) keeps a content-addressed base
  table and rebuilds full specs (:func:`apply_delta`).  Because base ids
  are content hashes, a stale table entry can never decode to the wrong
  spec — at worst a receiver is missing a base, which is a typed,
  retryable :class:`SpecDeltaError`, never silent corruption.

Encoding is *advisory*: whenever a delta would not be smaller than the
full wire form (the first cell of a group, a structurally unrelated
spec, a batch pseudo-spec) the full form ships instead, so the fast lane
can only reduce bytes, never inflate them.  Decoded specs are rebuilt
through the ordinary ``RunSpec`` constructor, so ``spec.key()`` on the
receiver necessarily equals the sender's — the exactly-once commit
invariant keys on exactly that.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import ReproError
from repro.sweep.spec import BATCH_KIND, RunSpec


class SpecDeltaError(ReproError):
    """A spec delta (or base registration) could not be decoded.

    Always raised eagerly — a malformed payload fails loudly and
    retryably at decode time, it never hangs a worker or corrupts a
    rebuilt spec.
    """


#: Delta keys the decoder accepts; anything else is stream corruption.
_DELTA_FIELDS = frozenset(
    {"kind", "seed", "metrics", "params", "params_drop", "tags", "tags_drop"}
)


def spec_to_wire(spec: RunSpec) -> Dict[str, Any]:
    """Full wire form of a spec (plain JSON data)."""
    return {
        "kind": spec.kind,
        "params": dict(spec.params),
        "seed": spec.seed,
        "metrics": list(spec.metrics),
        "tags": dict(spec.tags),
    }


def spec_from_wire(data: Mapping[str, Any]) -> RunSpec:
    """Rebuild a spec from its full wire form."""
    try:
        return RunSpec(
            kind=data["kind"],
            params=data["params"],
            seed=data["seed"],
            metrics=tuple(data["metrics"]),
            tags=data.get("tags", {}),
        )
    except (KeyError, TypeError, ReproError) as exc:
        raise SpecDeltaError(f"malformed spec wire data: {exc}") from exc


def wire_json(spec: RunSpec) -> str:
    """Canonical JSON of :func:`spec_to_wire`, memoized per spec object.

    One serialization per spec per session, reused across lease frames,
    byte accounting and base-id hashing.
    """
    cached = spec.__dict__.get("_wire_json")
    if cached is not None:
        return cached
    text = json.dumps(spec_to_wire(spec), sort_keys=True, separators=(",", ":"))
    object.__setattr__(spec, "_wire_json", text)
    return text


def wire_id(spec: RunSpec) -> str:
    """Content hash of the full wire form — the base-spec id.

    Unlike ``spec.key()`` this covers *everything* on the wire (tags
    included), so two bases are interchangeable iff their wire forms are
    byte-identical.
    """
    cached = spec.__dict__.get("_wire_id")
    if cached is not None:
        return cached
    digest = hashlib.sha256(wire_json(spec).encode("utf-8")).hexdigest()
    object.__setattr__(spec, "_wire_id", digest)
    return digest


def _differs(a: Any, b: Any) -> bool:
    """Whether two JSON values differ on the wire.

    Python equality is too loose for a wire diff: ``False == 0 == 0.0``
    and ``-0.0 == 0.0``, yet each serializes (and so hashes into
    ``spec.key()``) differently.
    """
    if a is b:
        return False
    if type(a) is not type(b):
        return True
    if isinstance(a, dict):
        return a.keys() != b.keys() or any(
            _differs(value, b[key]) for key, value in a.items()
        )
    if isinstance(a, (list, tuple)):
        return len(a) != len(b) or any(map(_differs, a, b))
    if isinstance(a, float):
        return repr(a) != repr(b)
    return a != b


def encode_delta(base: RunSpec, spec: RunSpec) -> Dict[str, Any]:
    """Minimal diff turning ``base`` into ``spec`` (shallow on params/tags).

    Only changed fields appear; an empty dict means the specs share
    their entire wire form but for nothing at all (identical specs).
    """
    delta: Dict[str, Any] = {}
    if spec.kind != base.kind:
        delta["kind"] = spec.kind
    if spec.seed != base.seed:
        delta["seed"] = spec.seed
    if tuple(spec.metrics) != tuple(base.metrics):
        delta["metrics"] = list(spec.metrics)
    changed = {
        k: v
        for k, v in spec.params.items()
        if k not in base.params or _differs(base.params[k], v)
    }
    dropped = sorted(k for k in base.params if k not in spec.params)
    if changed:
        delta["params"] = changed
    if dropped:
        delta["params_drop"] = dropped
    tag_changed = {
        k: v
        for k, v in spec.tags.items()
        if k not in base.tags or _differs(base.tags[k], v)
    }
    tag_dropped = sorted(k for k in base.tags if k not in spec.tags)
    if tag_changed:
        delta["tags"] = tag_changed
    if tag_dropped:
        delta["tags_drop"] = tag_dropped
    return delta


def apply_delta(base: RunSpec, delta: Any) -> RunSpec:
    """Rebuild the spec ``delta`` encodes against ``base``.

    Validates shape eagerly: unknown fields, wrong types or a
    non-mapping payload raise :class:`SpecDeltaError`.
    """
    if not isinstance(delta, Mapping):
        raise SpecDeltaError(
            f"spec delta must be a mapping, got {type(delta).__name__}"
        )
    unknown = set(delta) - _DELTA_FIELDS
    if unknown:
        raise SpecDeltaError(f"unknown spec delta fields {sorted(unknown)}")
    kind = delta.get("kind", base.kind)
    if not isinstance(kind, str):
        raise SpecDeltaError(f"spec delta kind must be a string, got {kind!r}")
    seed = delta.get("seed", base.seed)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SpecDeltaError(f"spec delta seed must be an int, got {seed!r}")
    metrics = delta.get("metrics")
    if metrics is None:
        metrics = tuple(base.metrics)
    elif isinstance(metrics, (list, tuple)) and all(
        isinstance(m, str) for m in metrics
    ):
        metrics = tuple(metrics)
    else:
        raise SpecDeltaError(
            f"spec delta metrics must be a list of strings, got {metrics!r}"
        )
    params = _patch(base.params, delta, "params", "params_drop")
    tags = _patch(base.tags, delta, "tags", "tags_drop")
    try:
        return RunSpec(
            kind=kind, params=params, seed=seed, metrics=metrics, tags=tags
        )
    except ReproError as exc:
        raise SpecDeltaError(f"spec delta rebuilds no valid spec: {exc}") from exc


def _patch(
    base: Mapping[str, Any], delta: Mapping[str, Any], set_field: str,
    drop_field: str,
) -> Dict[str, Any]:
    out = dict(base)
    changed = delta.get(set_field)
    if changed is not None:
        if not isinstance(changed, Mapping):
            raise SpecDeltaError(
                f"spec delta {set_field} must be a mapping, got {changed!r}"
            )
        out.update(changed)
    dropped = delta.get(drop_field)
    if dropped is not None:
        if not isinstance(dropped, (list, tuple)) or not all(
            isinstance(k, str) for k in dropped
        ):
            raise SpecDeltaError(
                f"spec delta {drop_field} must be a list of keys, "
                f"got {dropped!r}"
            )
        for key in dropped:
            out.pop(key, None)
    return out


@dataclass
class EncodedSpec:
    """One spec, ready for the wire.

    Exactly one of ``delta``/``full`` is set.  ``base_id`` names the
    interned base the delta applies to (``None`` for a full send outside
    any group).  ``wire_bytes`` is what actually ships, ``full_bytes``
    what a whole-spec send would have cost.
    """

    base_id: Optional[str]
    delta: Optional[Dict[str, Any]]
    full: Optional[Dict[str, Any]]
    wire_bytes: int
    full_bytes: int

    @property
    def saved_bytes(self) -> int:
        return max(0, self.full_bytes - self.wire_bytes)


class SpecInterner:
    """Sender-side base-spec table, one base per structural group.

    The first spec of each ``(kind, metrics)`` group becomes the group's
    base; every later member encodes as a delta against it unless the
    delta would not be smaller than the full form.  Batch pseudo-specs
    (:data:`~repro.sweep.spec.BATCH_KIND`) always ship whole — their
    params embed entire member specs, so a shallow diff cannot win and
    the batch already amortizes its frame over N replicates.
    """

    def __init__(self) -> None:
        #: group -> base spec
        self._group_base: Dict[Tuple[str, Tuple[str, ...]], RunSpec] = {}
        #: base_id -> base spec (what receivers must be shipped)
        self.bases: Dict[str, RunSpec] = {}

    @staticmethod
    def _group(spec: RunSpec) -> Tuple[str, Tuple[str, ...]]:
        return (spec.kind, tuple(sorted(spec.metrics)))

    def encode(self, spec: RunSpec) -> EncodedSpec:
        full_text = wire_json(spec)
        if spec.kind == BATCH_KIND:
            return EncodedSpec(
                base_id=None, delta=None, full=spec_to_wire(spec),
                wire_bytes=len(full_text), full_bytes=len(full_text),
            )
        group = self._group(spec)
        base = self._group_base.get(group)
        if base is None:
            self._group_base[group] = spec
            self.bases[wire_id(spec)] = spec
            return EncodedSpec(
                base_id=None, delta=None, full=spec_to_wire(spec),
                wire_bytes=len(full_text), full_bytes=len(full_text),
            )
        delta = encode_delta(base, spec)
        delta_text = json.dumps(delta, sort_keys=True, separators=(",", ":"))
        if len(delta_text) >= len(full_text):
            return EncodedSpec(
                base_id=None, delta=None, full=spec_to_wire(spec),
                wire_bytes=len(full_text), full_bytes=len(full_text),
            )
        return EncodedSpec(
            base_id=wire_id(base), delta=delta, full=None,
            wire_bytes=len(delta_text), full_bytes=len(full_text),
        )


class SpecDecoder:
    """Receiver-side base table; content-addressed, so never stale.

    One decoder per worker *process* is safe across reconnects and even
    coordinator restarts: a re-registered base with a matching id is
    byte-identical by construction (the id is the hash of the wire
    form), and registration verifies exactly that.
    """

    def __init__(self) -> None:
        self.bases: Dict[str, RunSpec] = {}

    def add_base(self, base_id: Any, data: Any) -> RunSpec:
        if not isinstance(base_id, str) or not base_id:
            raise SpecDeltaError(f"spec base id must be a string, got {base_id!r}")
        if not isinstance(data, Mapping):
            raise SpecDeltaError(
                f"spec base payload must be a mapping, got {type(data).__name__}"
            )
        spec = spec_from_wire(data)
        if wire_id(spec) != base_id:
            raise SpecDeltaError(
                f"spec base {base_id[:12]} fails its content check "
                "(stream corruption)"
            )
        self.bases[base_id] = spec
        return spec

    def decode(self, payload: Mapping[str, Any]) -> RunSpec:
        """Rebuild the spec of one lease payload.

        ``payload`` carries either ``{"spec": <full wire form>}`` or
        ``{"base": <id>, "delta": <diff>}``.
        """
        full = payload.get("spec")
        if full is not None:
            return spec_from_wire(full)
        base_id = payload.get("base")
        if base_id is None:
            raise SpecDeltaError("lease carries neither a spec nor a delta")
        base = self.bases.get(base_id)
        if base is None:
            raise SpecDeltaError(
                f"unknown spec base {str(base_id)[:12]} (not registered "
                "on this receiver)"
            )
        return apply_delta(base, payload.get("delta") or {})


__all__ = [
    "EncodedSpec",
    "SpecDecoder",
    "SpecDeltaError",
    "SpecInterner",
    "apply_delta",
    "encode_delta",
    "spec_from_wire",
    "spec_to_wire",
    "wire_id",
    "wire_json",
]
