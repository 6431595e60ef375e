"""Content-addressed result cache for the job server (``.hsis-cache/``).

The serve layer's repeated-traffic win: the same verification request
hashed twice is verified once.  A cache entry is keyed by
:func:`cache_key` — a SHA-256 over the canonical JSON of (kind,
resolved design text, property text, canonical knobs) — so any change
to the design, the properties, or a result-affecting knob forks the
key, while formatting of the *request* (knob order, defaults spelled
out or not) does not.

Entries are one JSON file per key in a
:class:`~repro.parallel.atomic.DigestStore`: written atomically, so a
crashed server can never leave a truncated entry, and carrying an
integrity digest over the result payload that :meth:`ResultCache.load`
re-derives, treating any mismatch (bit rot, manual truncation, a
concurrent writer from an older version) as a miss — the server
recomputes and rewrites the entry, again atomically.

With ``max_bytes`` set the cache is size-capped: every store evicts
least-recently-used entries (mtime order — a cache hit touches its
entry) until the total fits, never evicting the entry just written.
Evictions are counted and surfaced in :meth:`ResultCache.snapshot`
(and thence ``hsis client status``).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.parallel.atomic import DigestStore, json_digest

CACHE_VERSION = 1

#: Default cache directory, relative to the server's working directory.
DEFAULT_CACHE_DIR = ".hsis-cache"

#: Integrity digest stored alongside (and checked against) a result.
result_digest = json_digest


def cache_key(
    kind: str,
    design_text: Optional[str],
    pif_text: Optional[str],
    knobs: Dict[str, Any],
) -> str:
    """The canonical content hash of one verification request."""
    return json_digest(
        {
            "v": CACHE_VERSION,
            "kind": kind,
            "design": design_text or "",
            "pif": pif_text or "",
            "knobs": knobs,
        }
    )


class ResultCache(DigestStore):
    """Persistent, integrity-checked map from cache key to job result."""

    def __init__(
        self,
        root: str = DEFAULT_CACHE_DIR,
        max_bytes: Optional[int] = None,
    ) -> None:
        super().__init__(
            root, CACHE_VERSION, "key", "result", "result_sha", max_bytes
        )

    def store(self, key: str, kind: str, result: Any, seconds: float) -> str:
        """Atomically write the entry for ``key``; returns its path."""
        return super().store(key, result, kind=kind, seconds=seconds)
