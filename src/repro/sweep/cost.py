"""Predictive dispatch: a persistent per-spec wall-time model.

With a multiprocessing fan-out, total sweep wall-clock is bounded by
whichever worker finishes last — submitting the longest runs first
(LPT-style list scheduling) keeps the tail short.  The cost model learns
per-spec wall times from previous sweeps, keyed by the spec's structural
features (:meth:`~repro.sweep.spec.RunSpec.cost_key` — seed and trace
config excluded, so replicates of one cell share an estimate).

Estimates are an exponential moving average per exact key, with a
per-``kind`` family average as fallback for specs never seen before.
The model persists as one JSON file in the sweep cache directory and is
advisory only: dispatch order never changes *what* is computed, just
*when*, and results are keyed by content hash, so a stale or empty model
degrades throughput, never correctness.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sweep.spec import BATCH_KIND, RunSpec

#: Persisted-model location relative to the sweep cache directory.  Lives
#: in a subdirectory so the cache root stays purely ``<hash>.json`` result
#: entries (tooling globs those).
COST_MODEL_FILE = os.path.join("_meta", "cost_model.json")

#: EWMA weight of the newest observation.
DEFAULT_ALPHA = 0.3

#: Exact-table key prefix for the per-replicate *batched* marginal of a
#: cell.  Lockstep batching makes a replicate inside a batch genuinely
#: cheaper than the same replicate run scalar (shared construction,
#: vectorized decisions/folds), so the two marginals are separate
#: estimates: batch observations train only the prefixed key, scalar
#: observations only the plain one, and neither pollutes the other.
BATCH_KEY_PREFIX = "batch:"


class CostModel:
    """EWMA wall-time estimates keyed by spec structure.

    Parameters
    ----------
    path:
        JSON persistence location (``None`` = in-memory only).
    alpha:
        EWMA weight of the newest observation.
    """

    def __init__(
        self, path: Optional[os.PathLike] = None, alpha: float = DEFAULT_ALPHA
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.alpha = alpha
        #: exact estimates: cost_key -> (ewma_seconds, samples)
        self._exact: Dict[str, Tuple[float, int]] = {}
        #: family estimates: spec kind -> (ewma_seconds, samples)
        self._family: Dict[str, Tuple[float, int]] = {}
        if self.path is not None:
            self._load()

    # -- persistence ----------------------------------------------------
    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return
        if not isinstance(payload, dict):
            return
        for attr, section in (("_exact", "exact"), ("_family", "family")):
            table = payload.get(section)
            if not isinstance(table, dict):
                continue
            out = getattr(self, attr)
            for key, entry in table.items():
                try:
                    seconds, samples = float(entry[0]), int(entry[1])
                except (TypeError, ValueError, IndexError):
                    continue
                if seconds >= 0 and samples > 0:
                    out[key] = (seconds, samples)

    def save(self) -> None:
        """Atomically persist the model (no-op for in-memory models)."""
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "exact": {k: list(v) for k, v in sorted(self._exact.items())},
            "family": {k: list(v) for k, v in sorted(self._family.items())},
        }
        tmp = self.path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
        os.replace(tmp, self.path)

    # -- estimation -----------------------------------------------------
    @staticmethod
    def _batch_members(spec: RunSpec) -> Optional[list]:
        """Member specs of a batched-replicate pseudo-spec, else ``None``."""
        if spec.kind != BATCH_KIND:
            return None
        from repro.core.batched import parse_batch_spec

        return parse_batch_spec(spec)

    def predict(self, spec: RunSpec) -> Optional[float]:
        """Expected wall seconds, or ``None`` for a fully unknown spec.

        A batched-replicate pseudo-spec is priced at the cell's *batched*
        per-replicate marginal (the :data:`BATCH_KEY_PREFIX` estimate)
        times the batch width; until a batch of that cell has been
        observed, the members' scalar estimate stands in (an upper bound:
        construction sharing and lean records make the batched marginal
        cheaper).  Members share one cost key
        (features exclude the seed), so both estimates transfer across
        batch compositions.
        """
        members = self._batch_members(spec)
        if members is not None:
            width = len(members)
            member_key = members[0].cost_key()
            batched = self._exact.get(BATCH_KEY_PREFIX + member_key)
            if batched is not None:
                return batched[0] * width
            marginal = self.predict(members[0])
            return None if marginal is None else marginal * width
        exact = self._exact.get(spec.cost_key())
        if exact is not None:
            return exact[0]
        family = self._family.get(spec.kind)
        if family is not None:
            return family[0]
        return None

    def _fold(self, table: Dict[str, Tuple[float, int]],
              key: str, seconds: float) -> None:
        """The EWMA update: seed on first sight, blend at ``alpha`` after."""
        prior = table.get(key)
        if prior is None:
            table[key] = (float(seconds), 1)
        else:
            mean, samples = prior
            table[key] = (
                (1.0 - self.alpha) * mean + self.alpha * float(seconds),
                samples + 1,
            )

    def observe(self, spec: RunSpec, seconds: float) -> None:
        """Fold one measured wall time into the model.

        A batch observation is folded at its per-replicate *marginal*
        cost (``seconds / width``) under the cell's
        :data:`BATCH_KEY_PREFIX` key only — one wall-clock measurement
        stays one model observation, and the batching discount never
        leaks into the scalar estimate (which would underpredict future
        scalar runs of the same cell).  Scalar observations likewise
        never touch the batched key, and only scalar runs train the
        per-``kind`` family fallback.
        """
        if seconds < 0:
            return
        members = self._batch_members(spec)
        if members is not None:
            marginal = seconds / len(members)
            self._fold(
                self._exact,
                BATCH_KEY_PREFIX + members[0].cost_key(),
                marginal,
            )
            return
        self._fold(self._exact, spec.cost_key(), seconds)
        self._fold(self._family, spec.kind, seconds)

    # -- dispatch order -------------------------------------------------
    def order(
        self, pending: Sequence[Tuple[str, RunSpec]]
    ) -> List[Tuple[str, RunSpec]]:
        """Pool-submission order: unknown specs first, then longest-first.

        Unknown specs (no exact or family estimate) lead in their original
        order — they may be arbitrarily long, and running them early both
        bounds the tail and seeds the model.  Known specs follow by
        descending predicted time; ties (and everything else) break by
        cache key, so the order is a pure function of the inputs and the
        model state.
        """
        unknown: List[Tuple[str, RunSpec]] = []
        known: List[Tuple[float, str, RunSpec]] = []
        for key, spec in pending:
            estimate = self.predict(spec)
            if estimate is None:
                unknown.append((key, spec))
            else:
                known.append((estimate, key, spec))
        known.sort(key=lambda item: (-item[0], item[1]))
        return unknown + [(key, spec) for _, key, spec in known]


__all__ = [
    "BATCH_KEY_PREFIX",
    "COST_MODEL_FILE",
    "CostModel",
    "DEFAULT_ALPHA",
]
