"""Persistent winning-order cache (``.hsis-orders/``).

One JSON file per design digest in a
:class:`~repro.parallel.atomic.DigestStore` — the same atomic-write,
tamper-heal store as the serve result cache (:mod:`repro.serve.cache`):
a truncated, tampered or garbage entry is detected on load, counted as
corrupt, treated as a miss, and healed by the atomic rewrite after the
caller re-races.  A corrupt order cache can therefore never change a
verdict — at worst it costs one extra race.

Unlike the result cache, a loaded entry is *also* validated against the
live model: the stored order must be an exact permutation of the
design's declared variables, otherwise it is corrupt by definition
(orders are only meaningful for the design they were raced on).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.bdd.ordering import validate_permutation
from repro.parallel.atomic import DigestStore, json_digest

ORDERS_VERSION = 1

#: Default order-cache directory, relative to the working directory.
DEFAULT_ORDERS_DIR = ".hsis-orders"

#: Integrity digest stored alongside (and checked against) an order.
order_digest = json_digest


class OrderCache(DigestStore):
    """Integrity-checked map from design digest to winning order."""

    def __init__(self, root: str = DEFAULT_ORDERS_DIR) -> None:
        super().__init__(root, ORDERS_VERSION, "design_sha", "order", "order_sha")

    def load(
        self, design_sha: str, names: Iterable[str]
    ) -> Optional[Dict[str, Any]]:
        """Return the verified entry for ``design_sha``, or None.

        ``names`` are the live model's declared variables; the stored
        order must be an exact permutation of them, made of strings,
        and won by a named heuristic.  Any unverifiable entry counts as
        corrupt *and* as a miss; the caller re-races and overwrites it
        atomically.
        """

        def valid(entry: Dict[str, Any]) -> bool:
            order = entry["order"]
            return (
                isinstance(order, list)
                and all(isinstance(name, str) for name in order)
                and isinstance(entry.get("heuristic"), str)
                and validate_permutation(order, names) is None
            )

        return super().load(design_sha, valid)

    def store(
        self,
        design_sha: str,
        heuristic: str,
        order: List[str],
        margin_seconds: float = 0.0,
    ) -> str:
        """Atomically write the winner for ``design_sha``; returns path."""
        return super().store(
            design_sha, list(order),
            heuristic=heuristic, margin_seconds=margin_seconds,
        )

    def snapshot(self) -> Dict[str, int]:
        snap = super().snapshot()
        del snap["evictions"]  # the order cache is never size-capped
        return snap
