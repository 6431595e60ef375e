"""Atomic JSON file writes (temp file + ``os.replace``) and the
integrity-checked JSON store built on them.

``benchmarks/results.json`` accumulates measurement history across many
partial bench invocations; a plain ``open(path, "w")`` truncates the
file *before* the new payload is serialized, so a crash or kill
mid-write destroys the whole history.  Writing to a sibling temp file
and renaming guarantees readers (and interrupted writers) always see
either the complete old payload or the complete new one — never a
truncated hybrid.

:class:`DigestStore` adds a digest over each entry's payload on top, so
a reader can also tell a damaged entry from a good one; the job
server's result cache is a configuration of it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, Optional


def atomic_write_json(path: str, payload: Any, **json_kwargs: Any) -> None:
    """Serialize ``payload`` as JSON into ``path`` atomically.

    The temp file lives in the same directory as ``path`` so the final
    ``os.replace`` never crosses a filesystem boundary.  If
    serialization (or the writer process) dies mid-write, ``path`` is
    left untouched.
    """
    json_kwargs.setdefault("indent", 2)
    json_kwargs.setdefault("sort_keys", True)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=f".{os.path.basename(path)}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, **json_kwargs)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _canonical(payload: Any) -> str:
    """Compact, key-sorted JSON: equal payloads give equal text."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def json_digest(payload: Any) -> str:
    """SHA-256 of the canonical JSON text of ``payload``."""
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


class DigestStore:
    """A directory of integrity-checked JSON entries, one file per key.

    Each entry is written atomically by :func:`atomic_write_json` and
    carries ``version``, its key under ``key_field``, a payload under
    ``payload_field`` and :func:`json_digest` of that payload under
    ``digest_field``.  :meth:`load` trusts an entry only when the key
    and the digest re-derive; anything else (truncation, bit rot, a
    hand edit, a file renamed to another key) counts as corrupt *and* as
    a miss, and the caller's next :meth:`store` heals it.

    With ``max_bytes`` set the store is size-capped: every store evicts
    least-recently-used entries (mtime order; a hit touches its entry)
    until the total fits, never evicting the entry just written.
    """

    def __init__(
        self,
        root: str,
        version: int,
        key_field: str,
        payload_field: str,
        digest_field: str,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.root = root
        self.version = version
        self.key_field = key_field
        self.payload_field = payload_field
        self.digest_field = digest_field
        self.max_bytes = max_bytes
        os.makedirs(root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.stores = 0
        self.evictions = 0

    def path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the verified entry for ``key``, or None.

        An absent or unreadable file is a plain miss; a present entry
        that fails verification is corrupt and a miss.
        """
        path = self.path(key)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except OSError:
            self.misses += 1
            return None
        except ValueError:
            entry = None
        if (
            not isinstance(entry, dict)
            or entry.get(self.key_field) != key
            or self.payload_field not in entry
            or entry.get(self.digest_field) != json_digest(entry[self.payload_field])
        ):
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        try:
            os.utime(path)  # refresh recency for LRU eviction
        except OSError:
            pass
        return entry

    def store(self, key: str, payload: Any, **fields: Any) -> str:
        """Atomically write the entry for ``key`` (``fields`` ride
        along unchecked); returns its path."""
        path = self.path(key)
        atomic_write_json(
            path,
            {
                **fields,
                "version": self.version,
                self.key_field: key,
                self.payload_field: payload,
                self.digest_field: json_digest(payload),
            },
        )
        self.stores += 1
        if self.max_bytes is not None:
            self._evict(keep=path)
        return path

    def _evict(self, keep: str) -> None:
        """Drop least-recently-used entries until under ``max_bytes``.

        ``keep`` (the entry just written) is never evicted, so a cap
        smaller than one entry still leaves the latest entry stored.
        Concurrently removed files are skipped, never fatal.
        """
        entries = []
        total = 0
        try:
            names = os.listdir(self.root)
        except OSError:
            return
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.root, name)
            try:
                status = os.stat(path)
            except OSError:
                continue
            total += status.st_size
            entries.append((status.st_mtime, path, status.st_size))
        entries.sort()
        for _, path, size in entries:
            if total <= self.max_bytes:
                break
            if os.path.abspath(path) == os.path.abspath(keep):
                continue
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            self.evictions += 1

    def entry_count(self) -> int:
        try:
            return sum(
                1 for name in os.listdir(self.root) if name.endswith(".json")
            )
        except OSError:
            return 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "entries": self.entry_count(),
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "stores": self.stores,
            "evictions": self.evictions,
        }
