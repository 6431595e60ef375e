"""Reduced Ordered Binary Decision Diagram (ROBDD) manager.

This is the symbolic kernel of the HSIS reproduction.  HSIS (DAC 1994)
manipulated transition systems implicitly with BDDs in the style of
Coudert-Madre and SMV; this module provides the same primitives in pure
Python:

* a unique table guaranteeing canonicity of nodes,
* a computed cache shared by all operations,
* a two-operand AND core for ``and_``/``or_``/``diff``/``implies`` and
  the standardized three-operand ``ite`` for ``ite``/``xor``/``xnor``,
* the fused relational product ``and_exists`` (the workhorse of symbolic
  image computation), which also runs existential/universal
  quantification as the product with ``TRUE``,
* variable renaming (for present-state/next-state substitution),
* functional composition, generalized cofactor (``constrain``) and the
  Coudert-Madre ``restrict`` don't-care minimizer,
* satisfiability helpers (counting, cube enumeration, evaluation),
* a mark-and-sweep garbage collector driven by explicitly registered roots,
* dynamic variable reordering (sifting) at the same GC safe points.

Node storage follows the Brace-Rudell-Bryant efficient-package layout
(the one CUDD later standardized): nodes live in flat ``int64`` numpy
columns ``var``/``lo``/``hi`` with geometric growth, a single
open-addressing unique table (a linear-probe ``int64`` hash array keyed
on the ``(var, lo, hi)`` triple) guarantees canonicity, and the computed
cache is a direct-mapped array of ``(signature, value)`` rows rather
than a Python dict.  Hot scalar accesses go through ``memoryview``
wrappers over the columns (cheaper per element than ndarray indexing);
bulk passes — GC marking, sweep, unique-table rehash, batch evaluation —
operate on the numpy arrays directly and are vectorized.

Handles are *complemented edges*: a function handle is
``(node_index << 1) | complement_bit``.  There is a single terminal node
at index 0 (the constant one); ``TRUE`` is its regular handle ``0`` and
``FALSE`` its complemented handle ``1``.  Stored nodes keep their
then-edge regular (the canonical form), so every function and its
negation share one subgraph and ``not_`` is a constant-time bit flip
that allocates nothing.  Canonicity invariant: a handle is regular
exactly when its function evaluates to ``TRUE`` on the all-ones
assignment — a property independent of the variable order, which is what
makes in-place level swaps (sifting) safe under this encoding.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.trace.tracer import Tracer

#: Shared disabled tracer; replaced per-manager via the ``tracer``
#: attribute when structured tracing is on (see repro.trace).
_NULL_TRACER = Tracer(enabled=False)

TRUE = 0
FALSE = 1

_LEAF_LEVEL = 1 << 30

# Frame tags for the explicit-stack operators.
_EXPAND = 0
_REDUCE = 1
_COMBINE_OR = 2
_SHORT_CIRCUIT = 3
_REDUCE1 = 4
# The AND core and the relational product keep the pair they expand in
# locals and hand each result straight to the frame waiting for it.
_EXPAND_HI = 5  # lo child in progress, hi child still to expand
_REDUCE_LO = 6  # lo child known, hi child in progress
_REDUCE_HI = 7  # hi child known, lo child in progress
_STORE = 8  # cache the then-branch of a split whose else-branch is FALSE

# Multiplicative hash constants shared by the scalar probe loops and the
# vectorized (uint64, silently wrapping) rehash passes.  The scalar side
# masks with _M64 so both sides compute identical slots.
_H1 = 0x9E3779B1
_H2 = 0x85EBCA77
_H3 = 0xC2B2AE3D
_M64 = (1 << 64) - 1

# Opcodes folded into computed-cache signatures: a = (handle << 6) | op.
_OP_ITE = 1
_OP_ANDEX = 3
_OP_RENAME = 4
_OP_VCOMP = 5
_OP_RESTR = 6
_OP_CONSTRAIN = 7
_OP_RESTRDC = 8
_OP_AND = 9

# Every computed-cache-keyed operation, for per-op hit/miss accounting.
# "and" (and_, diff) and "or" (or_, implies) share the AND core's rows,
# "xor" (xor, xnor) shares the standardized "ite" rows and "exist"
# (exist, forall) the relational product's "andex" rows; each keeps its
# own lookup/hit attribution so callers can see which entry point pays.
CACHED_OPS = (
    "ite", "and", "or", "xor", "exist", "andex",
    "rename", "vcomp", "restr", "constrain", "restrdc",
)

_INITIAL_NODE_CAPACITY = 1 << 10
_INITIAL_UNIQUE_SIZE = 1 << 11
_INITIAL_CACHE_SIZE = 1 << 12
_MAX_CACHE_SIZE = 1 << 20


class BddError(Exception):
    """Raised for misuse of the BDD manager (unknown variables, etc.)."""


class BDD:
    """A manager owning a shared pool of ROBDD nodes.

    All functions returned by manager methods are plain ``int`` handles
    (``index << 1 | complement``); they are only meaningful together with
    the manager that produced them.  Handles stay valid across garbage
    collections and in-place reorders as long as they are reachable from
    a registered root (see :meth:`gc`).  Only the explicit
    :meth:`compact` safe-point operation moves nodes (and remaps the
    registered roots while doing so).

    The manager manages its own resources:

    * ``cache_limit`` bounds the computed cache: the cache is a
      direct-mapped array of at most ``cache_limit`` rows (rounded down
      to a power of two); a conflicting insertion overwrites the old row
      and counts as an eviction.  Correctness never depends on the
      cache.
    * ``auto_gc`` arms automatic collection: once more than ``auto_gc``
      nodes have been created since the last collection, :meth:`_mk`
      flags a pending GC which runs at the next *safe point* — a
      :meth:`maybe_gc` call from an engine loop where everything live is
      either a registered root or passed as an extra root.  The
      collection can never run in the middle of an operation because
      intermediate results held in Python locals are invisible to the
      mark phase.
    * ``auto_reorder`` arms dynamic sifting the same way: when the live
      node count grows past an adaptive watermark, :meth:`_mk` flags a
      pending reorder which also runs at the next :meth:`maybe_gc` safe
      point (in-place level swaps keep all root handles valid).  After a
      sift the watermark re-arms at twice the post-sift size, so a
      well-ordered manager is never sifted twice in a row.
    """

    def __init__(
        self,
        auto_gc: Optional[int] = None,
        cache_limit: Optional[int] = None,
        auto_reorder: Optional[int] = None,
    ) -> None:
        if auto_gc is not None and auto_gc < 1:
            raise BddError("auto_gc threshold must be positive (or None)")
        if cache_limit is not None and cache_limit < 1:
            raise BddError("cache_limit must be positive (or None)")
        if auto_reorder is not None and auto_reorder < 1:
            raise BddError("auto_reorder threshold must be positive (or None)")
        # Flat node columns.  Index 0 is the single terminal (constant
        # one); unallocated slots keep var == -1 so column scans can skip
        # them without consulting the free list.
        self._cap = _INITIAL_NODE_CAPACITY
        self._var_np = np.full(self._cap, -1, dtype=np.int64)
        self._lo_np = np.zeros(self._cap, dtype=np.int64)
        self._hi_np = np.zeros(self._cap, dtype=np.int64)
        self._n = 1  # high-water allocation mark (terminal included)
        self._free: List[int] = []
        # Single open-addressing unique table over (var, lo, hi):
        # slot values are 0 = empty, -1 = tombstone, else a node index
        # (node 0, the terminal, never enters the table).
        self._ut_size = _INITIAL_UNIQUE_SIZE
        self._ut_mask = self._ut_size - 1
        self._ut_np = np.zeros(self._ut_size, dtype=np.int64)
        self._ut_used = 0    # live entries
        self._ut_filled = 0  # live entries + tombstones
        # Direct-mapped computed cache: signature columns a/b/c and the
        # result column r.  a == -1 marks an empty row (signatures are
        # always non-negative: a = (handle << 6) | opcode).
        if cache_limit is not None:
            ck_size = 1 << (cache_limit.bit_length() - 1)
            self._ck_growable = False
        else:
            ck_size = _INITIAL_CACHE_SIZE
            self._ck_growable = True
        self._ck_cap = ck_size
        self._ck_mask = ck_size - 1
        # Row count at which the next insert grows a growable cache.
        self._ck_grow_at = ck_size * 3 // 4 - 1 if self._ck_growable else sys.maxsize
        self._ck_a_np = np.full(ck_size, -1, dtype=np.int64)
        self._ck_b_np = np.zeros(ck_size, dtype=np.int64)
        self._ck_c_np = np.zeros(ck_size, dtype=np.int64)
        self._ck_r_np = np.zeros(ck_size, dtype=np.int64)
        self._ck_used = 0
        # Interned ids for rename/compose/restrict argument maps so their
        # cache signatures fit the three int64 columns.  Entries may
        # mention node handles, but the cache is cleared whenever nodes
        # are freed, so a stale id can never produce a false hit.
        self._map_ids: Dict[Tuple, int] = {}
        self._refresh_views()
        # Variable bookkeeping.
        self._name_of_var: List[str] = []
        self._var_of_name: Dict[str, int] = {}
        self._level_of_var: List[int] = []
        self._var_at_level: List[int] = []
        # Live unique-table population per variable (sifting cost model).
        self._pop: List[int] = []
        # Externally registered GC roots (name -> handle).
        self._roots: Dict[str, int] = {}
        self.gc_count = 0
        self.compact_count = 0
        # Resource management knobs and telemetry.
        self.auto_gc = auto_gc
        self.cache_limit = cache_limit
        self.auto_reorder = auto_reorder
        self.cache_evictions = 0
        self.peak_live_nodes = 2
        self._gc_pending = False
        self._nodes_since_gc = 0
        self._reorder_pending = False
        self._in_reorder = False
        self._reorder_watermark = auto_reorder if auto_reorder is not None else 0
        self.reorder_count = 0
        self.sift_swaps = 0
        self.sift_fast_swaps = 0
        self.sift_lb_skips = 0
        # O(1) negation / ITE standardization (ite, xor, xnor) telemetry.
        self.not_calls = 0
        self.std_rewrites = 0
        # op -> [lookups, hits] for the computed cache.
        self._op_stats: Dict[str, List[int]] = {op: [0, 0] for op in CACHED_OPS}
        # Structured event sink (GC sweeps, reorders, compactions).
        self.tracer: Tracer = _NULL_TRACER

    # ------------------------------------------------------------------
    # Array plumbing
    # ------------------------------------------------------------------

    def _refresh_views(self) -> None:
        """(Re)wrap the numpy columns in memoryviews for scalar access."""
        self._var = memoryview(self._var_np)
        self._lo = memoryview(self._lo_np)
        self._hi = memoryview(self._hi_np)
        self._ut = memoryview(self._ut_np)
        self._ck_a = memoryview(self._ck_a_np)
        self._ck_b = memoryview(self._ck_b_np)
        self._ck_c = memoryview(self._ck_c_np)
        self._ck_r = memoryview(self._ck_r_np)

    def __getstate__(self):
        # memoryviews cannot be pickled; rebuild them on load.
        state = self.__dict__.copy()
        for key in ("_var", "_lo", "_hi", "_ut",
                    "_ck_a", "_ck_b", "_ck_c", "_ck_r"):
            state.pop(key, None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._refresh_views()

    def _grow_nodes(self) -> None:
        """Double the node columns, refreshing the scalar views.

        Hot loops that cache the views in locals must re-check identity
        (``self._var is not var_arr``) after any call that can allocate.
        """
        cap = self._cap * 2
        var2 = np.full(cap, -1, dtype=np.int64)
        lo2 = np.zeros(cap, dtype=np.int64)
        hi2 = np.zeros(cap, dtype=np.int64)
        n = self._n
        var2[:n] = self._var_np[:n]
        lo2[:n] = self._lo_np[:n]
        hi2[:n] = self._hi_np[:n]
        self._var_np, self._lo_np, self._hi_np = var2, lo2, hi2
        self._cap = cap
        self._var = memoryview(var2)
        self._lo = memoryview(lo2)
        self._hi = memoryview(hi2)

    # ------------------------------------------------------------------
    # Open-addressing unique table
    # ------------------------------------------------------------------

    def _ut_bulk_insert(self, idxs: "np.ndarray") -> None:
        """Vectorized batch insert of node indices into a tombstone-free
        table (used by rehash/rebuild; all keys are distinct).

        Batch linear probing: sort pending entries by slot, let the first
        entry of each slot group claim the slot if it is empty, advance
        everyone else by one and repeat.  Placements only ever fill
        slots, so every placed key remains reachable by probing from its
        home slot.
        """
        table = self._ut_np
        v = self._var_np[idxs].astype(np.uint64)
        lo = self._lo_np[idxs].astype(np.uint64)
        hi = self._hi_np[idxs].astype(np.uint64)
        h = v * _H1 + lo * _H2 + hi * _H3
        h ^= h >> np.uint64(16)
        slots = (h & np.uint64(self._ut_mask)).astype(np.int64)
        pending = idxs.astype(np.int64)
        mask = np.int64(self._ut_mask)
        one = np.int64(1)
        while pending.size:
            order = np.argsort(slots, kind="stable")
            slots = slots[order]
            pending = pending[order]
            first = np.empty(slots.size, dtype=bool)
            first[0] = True
            if slots.size > 1:
                first[1:] = slots[1:] != slots[:-1]
            place = first & (table[slots] == 0)
            table[slots[place]] = pending[place]
            keep = ~place
            slots = (slots[keep] + one) & mask
            pending = pending[keep]

    def _ut_rebuild(self, min_size: Optional[int] = None) -> None:
        """Rebuild the unique table from the live node columns.

        Drops all tombstones; grows (doubling) until the live load
        factor is below 3/4.  Called after GC sweeps, compaction and
        when the probe loops detect the table filling up.
        """
        n = self._n
        live = np.flatnonzero(self._var_np[:n] >= 0)
        size = self._ut_size if min_size is None else min_size
        while int(live.size) * 4 >= size * 3:
            size *= 2
        self._ut_np = np.zeros(size, dtype=np.int64)
        self._ut_size = size
        self._ut_mask = size - 1
        self._ut = memoryview(self._ut_np)
        self._ut_used = self._ut_filled = int(live.size)
        if live.size:
            self._ut_bulk_insert(live)

    def _ut_delete(self, idx: int) -> None:
        """Tombstone the unique-table entry of node ``idx`` (pre-relabel:
        the node's columns must still hold the stored triple)."""
        var = self._var[idx]
        lo = self._lo[idx]
        hi = self._hi[idx]
        ut = self._ut
        mask = self._ut_mask
        h = (var * _H1 + lo * _H2 + hi * _H3) & _M64
        h ^= h >> 16
        slot = h & mask
        while True:
            e = ut[slot]
            if e == idx:
                ut[slot] = -1
                self._ut_used -= 1
                return
            if e == 0:
                return
            slot = (slot + 1) & mask

    def _ut_insert_node(self, idx: int) -> None:
        """Insert an existing node index under its (relabelled) triple.

        The caller guarantees the triple is not already present (swap
        relabels preserve function distinctness, so a collision would
        mean two nodes computing the same function).
        """
        var = self._var[idx]
        lo = self._lo[idx]
        hi = self._hi[idx]
        ut = self._ut
        mask = self._ut_mask
        h = (var * _H1 + lo * _H2 + hi * _H3) & _M64
        h ^= h >> 16
        slot = h & mask
        while True:
            e = ut[slot]
            if e == 0:
                ut[slot] = idx
                self._ut_filled += 1
                break
            if e < 0:
                ut[slot] = idx
                break
            slot = (slot + 1) & mask
        self._ut_used += 1
        if self._ut_filled * 4 >= self._ut_size * 3:
            self._ut_rebuild()

    # ------------------------------------------------------------------
    # Direct-mapped computed cache
    # ------------------------------------------------------------------

    def _ck_get(self, a: int, b: int, c: int) -> int:
        """Computed-cache lookup; returns the cached handle or -1."""
        h = (a * _H1 + b * _H2 + c * _H3) & _M64
        h ^= h >> 16
        slot = h & self._ck_mask
        if (
            self._ck_a[slot] == a
            and self._ck_b[slot] == b
            and self._ck_c[slot] == c
        ):
            return self._ck_r[slot]
        return -1

    def _ck_put(self, a: int, b: int, c: int, r: int) -> None:
        """Computed-cache insert; a conflicting row is overwritten (and
        counted as an eviction).  Never frees or moves nodes, so indices
        held by in-flight operator stacks stay valid."""
        if self._ck_used >= self._ck_grow_at:
            self._ck_grow()
        h = (a * _H1 + b * _H2 + c * _H3) & _M64
        h ^= h >> 16
        slot = h & self._ck_mask
        ck_a = self._ck_a
        prev = ck_a[slot]
        if prev == -1:
            self._ck_used += 1
        elif (
            prev != a
            or self._ck_b[slot] != b
            or self._ck_c[slot] != c
        ):
            self.cache_evictions += 1
        ck_a[slot] = a
        self._ck_b[slot] = b
        self._ck_c[slot] = c
        self._ck_r[slot] = r

    def _ck_grow(self) -> None:
        """Quadruple the cache, rehashing the live rows vectorized.

        Rows that collide in the new table keep the last writer — it is
        a cache, losing entries is always safe.
        """
        cap = self._ck_cap * 4
        mask = np.uint64(cap - 1)
        old_a, old_b = self._ck_a_np, self._ck_b_np
        old_c, old_r = self._ck_c_np, self._ck_r_np
        valid = np.flatnonzero(old_a != -1)
        new_a = np.full(cap, -1, dtype=np.int64)
        new_b = np.zeros(cap, dtype=np.int64)
        new_c = np.zeros(cap, dtype=np.int64)
        new_r = np.zeros(cap, dtype=np.int64)
        if valid.size:
            a = old_a[valid].astype(np.uint64)
            b = old_b[valid].astype(np.uint64)
            c = old_c[valid].astype(np.uint64)
            h = a * _H1 + b * _H2 + c * _H3
            h ^= h >> np.uint64(16)
            slots = (h & mask).astype(np.int64)
            new_a[slots] = old_a[valid]
            new_b[slots] = old_b[valid]
            new_c[slots] = old_c[valid]
            new_r[slots] = old_r[valid]
            self._ck_used = int(np.unique(slots).size)
        else:
            self._ck_used = 0
        self._ck_a_np, self._ck_b_np = new_a, new_b
        self._ck_c_np, self._ck_r_np = new_c, new_r
        self._ck_cap = cap
        self._ck_mask = cap - 1
        self._ck_grow_at = cap * 3 // 4 - 1 if cap < _MAX_CACHE_SIZE else sys.maxsize
        self._ck_a = memoryview(new_a)
        self._ck_b = memoryview(new_b)
        self._ck_c = memoryview(new_c)
        self._ck_r = memoryview(new_r)

    def _map_id(self, key_map: Tuple) -> int:
        """Intern an argument-map tuple for cache signatures."""
        got = self._map_ids.get(key_map)
        if got is None:
            got = len(self._map_ids)
            self._map_ids[key_map] = got
        return got

    def clear_cache(self) -> None:
        """Drop the computed cache (useful to bound memory in long runs)."""
        self._ck_a_np.fill(-1)
        self._ck_used = 0

    def cache_size(self) -> int:
        """Number of live rows in the computed cache."""
        return self._ck_used

    # ------------------------------------------------------------------
    # Variables and ordering
    # ------------------------------------------------------------------

    def add_var(self, name: str, level: Optional[int] = None) -> int:
        """Declare a new variable, optionally inserted at ``level``.

        Returns the variable index.  By default the variable is appended
        at the bottom of the current order.
        """
        if name in self._var_of_name:
            raise BddError(f"variable {name!r} already declared")
        var = len(self._name_of_var)
        self._name_of_var.append(name)
        self._var_of_name[name] = var
        self._pop.append(0)
        if level is None:
            level = len(self._var_at_level)
        if not 0 <= level <= len(self._var_at_level):
            raise BddError(f"level {level} out of range")
        if level == len(self._var_at_level):
            # Appending at the bottom shifts nobody.
            self._var_at_level.append(var)
            self._level_of_var.append(level)
        else:
            self._var_at_level.insert(level, var)
            self._level_of_var.append(0)
            for lvl, v in enumerate(self._var_at_level):
                self._level_of_var[v] = lvl
        return var

    @property
    def var_count(self) -> int:
        """Number of declared variables."""
        return len(self._name_of_var)

    def var_index(self, name: str) -> int:
        """Return the variable index for ``name``."""
        try:
            return self._var_of_name[name]
        except KeyError:
            raise BddError(f"unknown variable {name!r}") from None

    def var_name(self, var: int) -> str:
        """Return the name of variable index ``var``."""
        return self._name_of_var[var]

    def level(self, var: int) -> int:
        """Return the current level (order position) of variable ``var``."""
        return self._level_of_var[var]

    def var_at(self, level: int) -> int:
        """Return the variable currently sitting at ``level``."""
        return self._var_at_level[level]

    @property
    def order(self) -> Tuple[int, ...]:
        """Variables from top level to bottom level."""
        return tuple(self._var_at_level)

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------

    def _node_level(self, f: int) -> int:
        v = self._var[f >> 1]
        return _LEAF_LEVEL if v < 0 else self._level_of_var[v]

    def _mk(self, var: int, lo: int, hi: int) -> int:
        """Find-or-create the canonical handle for ``(var, lo, hi)``.

        Enforces the complement-edge canonical form: if the then-edge is
        complemented, both children are flipped and the returned handle
        carries the complement instead, so stored then-edges are always
        regular and ``f``/``not f`` resolve to the same node.
        """
        if lo == hi:
            return lo
        neg = hi & 1
        if neg:
            lo ^= 1
            hi ^= 1
        var_arr = self._var
        lo_arr = self._lo
        hi_arr = self._hi
        ut = self._ut
        mask = self._ut_mask
        h = (var * _H1 + lo * _H2 + hi * _H3) & _M64
        h ^= h >> 16
        slot = h & mask
        tomb = -1
        while True:
            e = ut[slot]
            if e == 0:
                break
            if e < 0:
                if tomb < 0:
                    tomb = slot
            elif var_arr[e] == var and lo_arr[e] == lo and hi_arr[e] == hi:
                return (e << 1) | neg
            slot = (slot + 1) & mask
        if self._free:
            node = self._free.pop()
        else:
            node = self._n
            if node == self._cap:
                self._grow_nodes()
                var_arr = self._var
                lo_arr = self._lo
                hi_arr = self._hi
            self._n = node + 1
        var_arr[node] = var
        lo_arr[node] = lo
        hi_arr[node] = hi
        if tomb >= 0:
            ut[tomb] = node
        else:
            ut[slot] = node
            self._ut_filled += 1
        self._ut_used += 1
        self._pop[var] += 1
        if self._ut_filled * 4 >= self._ut_size * 3:
            self._ut_rebuild()
        self._nodes_since_gc += 1
        live = self._n - len(self._free) + 1
        if live > self.peak_live_nodes:
            self.peak_live_nodes = live
        if (
            self.auto_gc is not None
            and not self._gc_pending
            and self._nodes_since_gc >= self.auto_gc
        ):
            # Flag only: collecting here would sweep intermediates held in
            # the in-flight operation's locals.  maybe_gc() runs it at the
            # next engine safe point.
            self._gc_pending = True
        if (
            self.auto_reorder is not None
            and not self._reorder_pending
            and not self._in_reorder
            and live > self._reorder_watermark
        ):
            self._reorder_pending = True
        return (node << 1) | neg

    def var(self, name_or_index) -> int:
        """Return the function of a single positive literal."""
        var = name_or_index if isinstance(name_or_index, int) else self.var_index(name_or_index)
        return self._mk(var, FALSE, TRUE)

    def nvar(self, name_or_index) -> int:
        """Return the function of a single negative literal."""
        return self.var(name_or_index) ^ 1

    @property
    def true(self) -> int:
        return TRUE

    @property
    def false(self) -> int:
        return FALSE

    def __len__(self) -> int:
        """Total live nodes in the pool.

        The single terminal counts as two (both polarities), keeping the
        node accounting comparable with two-terminal kernels.
        """
        return self._n - len(self._free) + 1

    # ------------------------------------------------------------------
    # Core operators
    # ------------------------------------------------------------------

    def top_var(self, *nodes: int) -> int:
        """Variable with the smallest level among the tops of ``nodes``."""
        best = -1
        best_level = _LEAF_LEVEL
        for f in nodes:
            v = self._var[f >> 1]
            if v >= 0:
                lvl = self._level_of_var[v]
                if lvl < best_level:
                    best_level = lvl
                    best = v
        return best

    def _cofactors(self, f: int, var: int) -> Tuple[int, int]:
        idx = f >> 1
        if self._var[idx] == var:
            c = f & 1
            return self._lo[idx] ^ c, self._hi[idx] ^ c
        return f, f

    def _ite(self, f: int, g: int, h: int, stats: List[int]) -> int:
        """Standardized, explicit-stack if-then-else: the three-operand
        core behind ``ite``, ``xor`` and ``xnor``.

        Each triple is rewritten to the Brace-Rudell-Bryant standard form
        before the cache lookup — equal/complement arguments collapsed,
        commutative special forms ordered by (level, index), the first
        argument made regular, the complement pushed out of the then
        branch — so every equivalent call shares one cache line.
        ``stats`` attributes the lookups to the calling entry point
        (``ite``/``xor``) while the cache key stays shared.

        Cache lookups are inlined against the direct-mapped signature
        columns; locals caching the column views are refreshed whenever
        an allocation or insertion may have reallocated them.
        """
        var_arr = self._var
        lo_arr = self._lo
        hi_arr = self._hi
        ck_a = self._ck_a
        ck_b = self._ck_b
        ck_c = self._ck_c
        ck_r = self._ck_r
        ck_mask = self._ck_mask
        lvl_of = self._level_of_var
        mk = self._mk
        todo: List[Tuple] = [(_EXPAND, f, g, h, 0)]
        results: List[int] = []
        std_rewrites = 0
        while todo:
            frame = todo.pop()
            if frame[0] == _EXPAND:
                _, f, g, h, outneg = frame
                # Collapse branches equal (or complementary) to the test.
                if g == f:
                    g = TRUE
                elif g == (f ^ 1):
                    g = FALSE
                if h == f:
                    h = FALSE
                elif h == (f ^ 1):
                    h = TRUE
                # Terminal cases.
                if f == TRUE:
                    results.append(g ^ outneg)
                    continue
                if f == FALSE:
                    results.append(h ^ outneg)
                    continue
                if g == h:
                    results.append(g ^ outneg)
                    continue
                if g == TRUE and h == FALSE:
                    results.append(f ^ outneg)
                    continue
                if g == FALSE and h == TRUE:
                    results.append(f ^ 1 ^ outneg)
                    continue
                orig_f, orig_g, orig_h = f, g, h
                # Canonical argument order for the commutative forms.  In
                # every branch both compared operands are internal nodes
                # (terminal combinations were all resolved above), so the
                # (level, index) key packs into one int without a leaf
                # check.
                fi = f >> 1
                fkey = (lvl_of[var_arr[fi]] << 32) | fi
                if g == TRUE:  # f | h == h | f
                    oi = h >> 1
                    if (lvl_of[var_arr[oi]] << 32) | oi < fkey:
                        f, h = h, f
                elif h == FALSE:  # f & g == g & f
                    oi = g >> 1
                    if (lvl_of[var_arr[oi]] << 32) | oi < fkey:
                        f, g = g, f
                elif h == TRUE:  # f -> g == ~g -> ~f
                    oi = g >> 1
                    if (lvl_of[var_arr[oi]] << 32) | oi < fkey:
                        f, g = g ^ 1, f ^ 1
                elif g == FALSE:  # ~f & h == ~h & f (operands flipped)
                    oi = h >> 1
                    if (lvl_of[var_arr[oi]] << 32) | oi < fkey:
                        f, h = h ^ 1, f ^ 1
                elif g == (h ^ 1):  # f <-> g == g <-> f
                    oi = g >> 1
                    if (lvl_of[var_arr[oi]] << 32) | oi < fkey:
                        f, g, h = g, f, f ^ 1
                # First argument regular: ite(~f,g,h) == ite(f,h,g).
                if f & 1:
                    f, g, h = f ^ 1, h, g
                # Then-branch regular: push the complement to the output.
                if g & 1:
                    g ^= 1
                    h ^= 1
                    outneg ^= 1
                if f != orig_f or g != orig_g or h != orig_h:
                    std_rewrites += 1
                a = (f << 6) | _OP_ITE
                stats[0] += 1
                hs = (a * _H1 + g * _H2 + h * _H3) & _M64
                hs ^= hs >> 16
                slot = hs & ck_mask
                if ck_a[slot] == a and ck_b[slot] == g and ck_c[slot] == h:
                    stats[1] += 1
                    results.append(ck_r[slot] ^ outneg)
                    continue
                # Inline top_var + cofactors (f is never terminal here).
                fi = f >> 1
                var = var_arr[fi]
                top = lvl_of[var]
                gi = g >> 1
                vg = var_arr[gi]
                if vg >= 0 and lvl_of[vg] < top:
                    var = vg
                    top = lvl_of[vg]
                hd = h >> 1
                vh = var_arr[hd]
                if vh >= 0 and lvl_of[vh] < top:
                    var = vh
                    top = lvl_of[vh]
                if var_arr[fi] == var:
                    c = f & 1
                    f0 = lo_arr[fi] ^ c
                    f1 = hi_arr[fi] ^ c
                else:
                    f0 = f1 = f
                if vg == var:
                    c = g & 1
                    g0 = lo_arr[gi] ^ c
                    g1 = hi_arr[gi] ^ c
                else:
                    g0 = g1 = g
                if vh == var:
                    c = h & 1
                    h0 = lo_arr[hd] ^ c
                    h1 = hi_arr[hd] ^ c
                else:
                    h0 = h1 = h
                todo.append((_REDUCE, var, a, g, h, outneg))
                todo.append((_EXPAND, f1, g1, h1, 0))
                todo.append((_EXPAND, f0, g0, h0, 0))
            else:
                _, var, a, b, c, outneg = frame
                hi = results.pop()
                lo = results.pop()
                res = mk(var, lo, hi)
                self._ck_put(a, b, c, res)
                if self._var is not var_arr:
                    var_arr = self._var
                    lo_arr = self._lo
                    hi_arr = self._hi
                if self._ck_a is not ck_a:
                    ck_a = self._ck_a
                    ck_b = self._ck_b
                    ck_c = self._ck_c
                    ck_r = self._ck_r
                    ck_mask = self._ck_mask
                results.append(res ^ outneg)
        self.std_rewrites += std_rewrites
        return results.pop()

    def _and(self, f: int, g: int, stats: List[int]) -> int:
        """Explicit-stack conjunction: the two-operand core behind
        ``and_``, ``or_``, ``diff`` and ``implies``.

        The operand pair is ordered by handle and cached under its own
        opcode (third signature column 0).  Terminal pairs — a constant
        operand, equal or complementary operands — are resolved before a
        frame would be pushed.  The pair being expanded lives in locals:
        its lo child is expanded next without a frame, and every result
        goes straight to the frame waiting for it.  ``stats`` attributes
        the lookups to the calling entry point; cache rows are written
        inline.
        """
        if f == g or g == TRUE:
            return f
        if f == TRUE:
            return g
        if f == FALSE or g == FALSE or f == (g ^ 1):
            return FALSE
        var_arr = self._var
        lo_arr = self._lo
        hi_arr = self._hi
        ck_a = self._ck_a
        ck_b = self._ck_b
        ck_c = self._ck_c
        ck_r = self._ck_r
        ck_mask = self._ck_mask
        lvl_of = self._level_of_var
        mk = self._mk
        todo: List[Tuple] = []
        lookups = hits = 0
        while True:
            # Expand the non-terminal pair (f, g).
            if f > g:
                f, g = g, f
            a = (f << 6) | _OP_AND
            lookups += 1
            hs = (a * _H1 + g * _H2) & _M64
            hs ^= hs >> 16
            slot = hs & ck_mask
            if ck_a[slot] == a and ck_b[slot] == g and ck_c[slot] == 0:
                hits += 1
                res = ck_r[slot]
            else:
                # Both operands are internal nodes here.
                fi = f >> 1
                gi = g >> 1
                vf = var_arr[fi]
                vg = var_arr[gi]
                if vf == vg or lvl_of[vf] < lvl_of[vg]:
                    var = vf
                    c = f & 1
                    f0 = lo_arr[fi] ^ c
                    f1 = hi_arr[fi] ^ c
                else:
                    var = vg
                    f0 = f1 = f
                if vg == var:
                    c = g & 1
                    g0 = lo_arr[gi] ^ c
                    g1 = hi_arr[gi] ^ c
                else:
                    g0 = g1 = g
                if f0 == g0:
                    lo = f0
                elif f0 == (g0 ^ 1):
                    lo = FALSE
                elif f0 < 2:
                    lo = g0 if f0 == TRUE else FALSE
                elif g0 < 2:
                    lo = f0 if g0 == TRUE else FALSE
                else:
                    lo = -1
                if f1 == g1:
                    hi = f1
                elif f1 == (g1 ^ 1):
                    hi = FALSE
                elif f1 < 2:
                    hi = g1 if f1 == TRUE else FALSE
                elif g1 < 2:
                    hi = f1 if g1 == TRUE else FALSE
                else:
                    hi = -1
                if lo < 0:
                    if hi < 0:
                        todo.append((_EXPAND_HI, var, a, g, hs, f1, g1))
                    else:
                        todo.append((_REDUCE_HI, var, a, g, hs, hi))
                    f, g = f0, g0
                    continue
                if hi < 0:
                    todo.append((_REDUCE_LO, var, a, g, hs, lo))
                    f, g = f1, g1
                    continue
                todo.append((_REDUCE_HI, var, a, g, hs, hi))
                res = lo
            # Hand res down the stack until a frame needs an expansion.
            while todo:
                frame = todo.pop()
                if frame[0] == _EXPAND_HI:
                    _, var, a, b, hs, f, g = frame
                    todo.append((_REDUCE_LO, var, a, b, hs, res))
                    break
                tag, var, a, b, hs, child = frame
                if tag == _REDUCE_LO:
                    res = mk(var, child, res)
                else:
                    res = mk(var, res, child)
                if self._var is not var_arr:
                    var_arr = self._var
                    lo_arr = self._lo
                    hi_arr = self._hi
                # Inline _ck_put (the signature hash does not depend on
                # the cache size, so the frame's hash survives a growth).
                if self._ck_used >= self._ck_grow_at:
                    self._ck_grow()
                    ck_a = self._ck_a
                    ck_b = self._ck_b
                    ck_c = self._ck_c
                    ck_r = self._ck_r
                    ck_mask = self._ck_mask
                slot = hs & ck_mask
                prev = ck_a[slot]
                if prev == -1:
                    self._ck_used += 1
                elif prev != a or ck_b[slot] != b or ck_c[slot] != 0:
                    self.cache_evictions += 1
                ck_a[slot] = a
                ck_b[slot] = b
                ck_c[slot] = 0
                ck_r[slot] = res
            else:
                stats[0] += lookups
                stats[1] += hits
                return res

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f & g | ~f & h``.  The universal connective."""
        return self._ite(f, g, h, self._op_stats["ite"])

    def not_(self, f: int) -> int:
        """Negation: an O(1) complement-bit flip; allocates no nodes."""
        self.not_calls += 1
        return f ^ 1

    def and_(self, f: int, g: int) -> int:
        """Conjunction."""
        return self._and(f, g, self._op_stats["and"])

    def or_(self, f: int, g: int) -> int:
        """Disjunction, as ``~(~f & ~g)``."""
        return self._and(f ^ 1, g ^ 1, self._op_stats["or"]) ^ 1

    def xor(self, f: int, g: int) -> int:
        """Exclusive or."""
        return self._ite(f, g ^ 1, g, self._op_stats["xor"])

    def xnor(self, f: int, g: int) -> int:
        """Equivalence."""
        return self._ite(f, g, g ^ 1, self._op_stats["xor"])

    def implies(self, f: int, g: int) -> int:
        """Implication ``f -> g``, as ``~(f & ~g)``."""
        return self._and(f, g ^ 1, self._op_stats["or"]) ^ 1

    def diff(self, f: int, g: int) -> int:
        """Difference ``f & ~g``."""
        return self._and(f, g ^ 1, self._op_stats["and"])

    def conj(self, fs: Iterable[int]) -> int:
        """Conjunction of many functions."""
        res = TRUE
        for f in fs:
            res = self.and_(res, f)
            if res == FALSE:
                return FALSE
        return res

    def disj(self, fs: Iterable[int]) -> int:
        """Disjunction of many functions."""
        res = FALSE
        for f in fs:
            res = self.or_(res, f)
            if res == TRUE:
                return TRUE
        return res

    # ------------------------------------------------------------------
    # Quantification and relational product
    # ------------------------------------------------------------------

    def cube(self, variables: Iterable) -> int:
        """Positive cube (conjunction of positive literals) over ``variables``.

        Used as the canonical representation of a quantification set.
        """
        vs = sorted(
            (v if isinstance(v, int) else self.var_index(v) for v in variables),
            key=lambda v: self._level_of_var[v],
            reverse=True,
        )
        res = TRUE
        for v in vs:
            res = self._mk(v, FALSE, res)
        return res

    def literal_cube(self, literals: Iterable[Tuple[Any, bool]]) -> int:
        """Conjunction of ``(variable, polarity)`` literals of either polarity.

        Built with :meth:`_mk` from the bottom level up, one node per
        literal, instead of a chain of ``and_`` calls.  A variable given
        twice with opposite polarities makes the cube empty.
        """
        lits = sorted(
            (
                (v if isinstance(v, int) else self.var_index(v), bool(positive))
                for v, positive in literals
            ),
            key=lambda lit: self._level_of_var[lit[0]],
            reverse=True,
        )
        res = TRUE
        last = None
        for lit in lits:
            var, positive = lit
            if last is not None and last[0] == var:
                if last[1] != positive:
                    return FALSE
                continue
            res = self._mk(var, FALSE, res) if positive else self._mk(var, res, FALSE)
            last = lit
        return res

    def cube_vars(self, cube: int) -> List[int]:
        """Variable indices appearing in a positive cube."""
        out = []
        while cube >= 2:
            c = cube & 1
            idx = cube >> 1
            out.append(self._var[idx])
            lo = self._lo[idx] ^ c
            cube = (self._hi[idx] ^ c) if lo == FALSE else lo
        return out

    def exist(self, variables, f: int) -> int:
        """Existentially quantify ``variables`` out of ``f``: the
        relational product ``exists variables . f & TRUE``."""
        cube = variables if isinstance(variables, int) else self.cube(variables)
        return self._and_exists(f, TRUE, cube, self._op_stats["exist"])

    def forall(self, variables, f: int) -> int:
        """Universally quantify ``variables`` out of ``f``."""
        return self.exist(variables, f ^ 1) ^ 1

    def and_exists(self, f: int, g: int, variables) -> int:
        """Fused relational product ``exists variables . f & g``.

        Avoids building the full conjunction before quantifying — the
        crucial optimization for symbolic image computation (paper §5.3).
        """
        cube = variables if isinstance(variables, int) else self.cube(variables)
        return self._and_exists(f, g, cube, self._op_stats["andex"])

    def _and_exists(self, f: int, g: int, cube: int, stats: List[int]) -> int:
        """Explicit-stack relational product ``exists cube . f & g``.

        Terminal children — a ``FALSE`` product, ``TRUE & TRUE``, or an
        exhausted cube, whose product the :meth:`_and` core finishes —
        are resolved before a frame would be pushed.  As in the core, the
        triple being expanded lives in locals and every result goes
        straight to the frame waiting for it.  A quantified split
        expands its else-branch first: ``TRUE`` ends the split, ``FALSE``
        makes the then-branch the answer with no join, and any other
        value is joined with the then-branch by ``_and`` on the
        complements.  The public connectives are never called: products
        count as ``and`` lookups, joins as ``or`` lookups, and ``stats``
        attributes the relational product's own lookups to the calling
        entry point (``and_exists`` or ``exist``).
        """
        and_ = self._and
        and_stats = self._op_stats["and"]
        or_stats = self._op_stats["or"]
        if f == FALSE or g == FALSE or f == (g ^ 1):
            return FALSE
        if cube == TRUE:
            return and_(f, g, and_stats)
        if f == TRUE and g == TRUE:
            return TRUE
        var_arr = self._var
        lo_arr = self._lo
        hi_arr = self._hi
        ck_a = self._ck_a
        ck_b = self._ck_b
        ck_c = self._ck_c
        ck_r = self._ck_r
        ck_mask = self._ck_mask
        lvl_of = self._level_of_var
        mk = self._mk
        todo: List[Tuple] = []
        lookups = hits = 0
        while True:
            # Expand the non-terminal triple (f, g, cube).
            if f > g:
                f, g = g, f
            # At least one of f, g is an internal node here.
            vf = var_arr[f >> 1]
            vg = var_arr[g >> 1]
            lf = _LEAF_LEVEL if vf < 0 else lvl_of[vf]
            lg = _LEAF_LEVEL if vg < 0 else lvl_of[vg]
            top = lf if lf < lg else lg
            while cube != TRUE and lvl_of[var_arr[cube >> 1]] < top:
                cube = hi_arr[cube >> 1] ^ (cube & 1)
            if cube == TRUE:
                res = and_(f, g, and_stats)
                if self._var is not var_arr:
                    var_arr = self._var
                    lo_arr = self._lo
                    hi_arr = self._hi
                if self._ck_a is not ck_a:
                    ck_a = self._ck_a
                    ck_b = self._ck_b
                    ck_c = self._ck_c
                    ck_r = self._ck_r
                    ck_mask = self._ck_mask
            else:
                a = (f << 6) | _OP_ANDEX
                lookups += 1
                hs = (a * _H1 + g * _H2 + cube * _H3) & _M64
                hs ^= hs >> 16
                slot = hs & ck_mask
                if ck_a[slot] == a and ck_b[slot] == g and ck_c[slot] == cube:
                    hits += 1
                    res = ck_r[slot]
                else:
                    var = vf if lf <= lg else vg
                    fi = f >> 1
                    if vf == var:
                        c = f & 1
                        f0 = lo_arr[fi] ^ c
                        f1 = hi_arr[fi] ^ c
                    else:
                        f0 = f1 = f
                    gi = g >> 1
                    if vg == var:
                        c = g & 1
                        g0 = lo_arr[gi] ^ c
                        g1 = hi_arr[gi] ^ c
                    else:
                        g0 = g1 = g
                    ci = cube >> 1
                    if var_arr[ci] == var:
                        # Quantified split: the else-branch goes first, the
                        # then-branch waits in the split frame.
                        sub = hi_arr[ci] ^ (cube & 1)
                        todo.append((_SHORT_CIRCUIT, f1, g1, sub, a, g, cube, hs))
                        if f0 == FALSE or g0 == FALSE or f0 == (g0 ^ 1):
                            res = FALSE
                        elif sub == TRUE:
                            res = and_(f0, g0, and_stats)
                            if self._var is not var_arr:
                                var_arr = self._var
                                lo_arr = self._lo
                                hi_arr = self._hi
                            if self._ck_a is not ck_a:
                                ck_a = self._ck_a
                                ck_b = self._ck_b
                                ck_c = self._ck_c
                                ck_r = self._ck_r
                                ck_mask = self._ck_mask
                        elif f0 == TRUE and g0 == TRUE:
                            res = TRUE
                        else:
                            f, g, cube = f0, g0, sub
                            continue
                    else:
                        # The cube is not exhausted below an unquantified
                        # top, so only constant children are terminal.
                        if f0 == FALSE or g0 == FALSE or f0 == (g0 ^ 1):
                            lo = FALSE
                        elif f0 == TRUE and g0 == TRUE:
                            lo = TRUE
                        else:
                            lo = -1
                        if f1 == FALSE or g1 == FALSE or f1 == (g1 ^ 1):
                            hi = FALSE
                        elif f1 == TRUE and g1 == TRUE:
                            hi = TRUE
                        else:
                            hi = -1
                        if lo < 0:
                            if hi < 0:
                                todo.append((_EXPAND_HI, var, a, g, cube, hs, f1, g1))
                            else:
                                todo.append((_REDUCE_HI, var, a, g, cube, hs, hi))
                            f, g = f0, g0
                            continue
                        if hi < 0:
                            todo.append((_REDUCE_LO, var, a, g, cube, hs, lo))
                            f, g = f1, g1
                            continue
                        todo.append((_REDUCE_HI, var, a, g, cube, hs, hi))
                        res = lo
            # Hand res down the stack until a frame needs an expansion.
            while todo:
                frame = todo.pop()
                tag = frame[0]
                if tag == _EXPAND_HI:
                    _, var, a, b, cube, hs, f, g = frame
                    todo.append((_REDUCE_LO, var, a, b, cube, hs, res))
                    break
                if tag == _REDUCE_LO:
                    _, var, a, b, c, hs, lo = frame
                    res = mk(var, lo, res)
                elif tag == _REDUCE_HI:
                    _, var, a, b, c, hs, hi = frame
                    res = mk(var, res, hi)
                elif tag == _STORE:
                    _, a, b, c, hs = frame
                else:
                    if tag == _COMBINE_OR:
                        _, a, b, c, hs, lo = frame
                        hi = res
                    else:  # _SHORT_CIRCUIT: res is the else-branch
                        _, f1, g1, sub, a, b, c, hs = frame
                        lo = res
                        if lo == TRUE:
                            hi = TRUE
                        elif f1 == FALSE or g1 == FALSE or f1 == (g1 ^ 1):
                            hi = FALSE
                        elif sub == TRUE:
                            hi = and_(f1, g1, and_stats)
                        elif f1 == TRUE and g1 == TRUE:
                            hi = TRUE
                        else:
                            if lo == FALSE:
                                todo.append((_STORE, a, b, c, hs))
                            else:
                                todo.append((_COMBINE_OR, a, b, c, hs, lo))
                            f, g, cube = f1, g1, sub
                            break
                    # Join the branches: lo | hi == ~(~lo & ~hi).
                    if lo == FALSE or hi == TRUE or lo == hi:
                        res = hi
                    elif hi == FALSE or lo == TRUE:
                        res = lo
                    elif lo == (hi ^ 1):
                        res = TRUE
                    else:
                        res = and_(lo ^ 1, hi ^ 1, or_stats) ^ 1
                if self._var is not var_arr:
                    var_arr = self._var
                    lo_arr = self._lo
                    hi_arr = self._hi
                # Inline _ck_put under the frame's size-independent hash.
                if self._ck_used >= self._ck_grow_at:
                    self._ck_grow()
                if self._ck_a is not ck_a:
                    ck_a = self._ck_a
                    ck_b = self._ck_b
                    ck_c = self._ck_c
                    ck_r = self._ck_r
                    ck_mask = self._ck_mask
                slot = hs & ck_mask
                prev = ck_a[slot]
                if prev == -1:
                    self._ck_used += 1
                elif prev != a or ck_b[slot] != b or ck_c[slot] != c:
                    self.cache_evictions += 1
                ck_a[slot] = a
                ck_b[slot] = b
                ck_c[slot] = c
                ck_r[slot] = res
            else:
                stats[0] += lookups
                stats[1] += hits
                return res

    # ------------------------------------------------------------------
    # Substitution
    # ------------------------------------------------------------------

    def rename(self, f: int, mapping: Dict[int, int], strict: bool = True) -> int:
        """Rename variables according to ``mapping`` (var index -> var index).

        The mapping must be order-preserving with respect to the current
        variable order (as is the case for interleaved present/next state
        variables); otherwise a :class:`BddError` is raised — unless
        ``strict`` is False, in which case the rename falls back to a
        simultaneous :meth:`vector_compose`, which is slower but correct
        under any order (dynamic reordering can break the interleave).
        """
        if not mapping:
            return f
        pairs = sorted(mapping.items(), key=lambda kv: self._level_of_var[kv[0]])
        images = [self._level_of_var[v] for _, v in pairs]
        if images == sorted(images):
            # The rename must also not move a variable across an unrenamed
            # variable in f's support in an order-violating way; detected
            # lazily during reconstruction (mk with out-of-order children
            # would break canonicity silently).
            map_id = self._map_id(("rename",) + tuple(sorted(mapping.items())))
            try:
                return self._rename(f, mapping, map_id)
            except BddError:
                if strict:
                    raise
        elif strict:
            raise BddError("rename mapping must preserve the variable order")
        return self.vector_compose(
            f, {v: self.var(nv) for v, nv in mapping.items()}
        )

    def _rename(self, f: int, mapping: Dict[int, int], map_id: int) -> int:
        stats = self._op_stats["rename"]
        todo: List[Tuple] = [(_EXPAND, f)]
        results: List[int] = []
        while todo:
            frame = todo.pop()
            if frame[0] == _EXPAND:
                _, f = frame
                if f < 2:
                    results.append(f)
                    continue
                neg = f & 1
                f ^= neg
                a = (f << 6) | _OP_RENAME
                stats[0] += 1
                res = self._ck_get(a, map_id, 0)
                if res >= 0:
                    stats[1] += 1
                    results.append(res ^ neg)
                    continue
                idx = f >> 1
                todo.append((_REDUCE, self._var[idx], a, neg))
                todo.append((_EXPAND, self._hi[idx]))
                todo.append((_EXPAND, self._lo[idx]))
            else:
                _, var, a, neg = frame
                hi = results.pop()
                lo = results.pop()
                nvar = mapping.get(var, var)
                nlvl = self._level_of_var[nvar]
                for child in (lo, hi):
                    if child >= 2 and self._node_level(child) <= nlvl:
                        raise BddError(
                            "rename would reorder variables; use compose instead"
                        )
                res = self._mk(nvar, lo, hi)
                self._ck_put(a, map_id, 0, res)
                results.append(res ^ neg)
        return results.pop()

    def compose(self, f: int, var, g: int) -> int:
        """Substitute function ``g`` for variable ``var`` in ``f``.

        Routed through :meth:`vector_compose` so the substitution runs as
        one cached Shannon recursion instead of two full cofactor
        traversals plus an uncached ``ite``.
        """
        v = var if isinstance(var, int) else self.var_index(var)
        return self.vector_compose(f, {v: g})

    def vector_compose(self, f: int, substitution: Dict[int, int]) -> int:
        """Simultaneously substitute functions for variables in ``f``.

        ``substitution`` maps variable indices to replacement functions.
        Implemented by Shannon recursion from the top; correct for
        simultaneous (non-iterated) substitution.
        """
        if not substitution:
            return f
        map_id = self._map_id(("vcomp",) + tuple(sorted(substitution.items())))
        return self._vcompose(f, substitution, map_id)

    def _vcompose(self, f: int, sub: Dict[int, int], map_id: int) -> int:
        stats = self._op_stats["vcomp"]
        todo: List[Tuple] = [(_EXPAND, f)]
        results: List[int] = []
        while todo:
            frame = todo.pop()
            if frame[0] == _EXPAND:
                _, f = frame
                if f < 2:
                    results.append(f)
                    continue
                neg = f & 1
                f ^= neg
                a = (f << 6) | _OP_VCOMP
                stats[0] += 1
                res = self._ck_get(a, map_id, 0)
                if res >= 0:
                    stats[1] += 1
                    results.append(res ^ neg)
                    continue
                idx = f >> 1
                todo.append((_REDUCE, self._var[idx], a, neg))
                todo.append((_EXPAND, self._hi[idx]))
                todo.append((_EXPAND, self._lo[idx]))
            else:
                _, var, a, neg = frame
                hi = results.pop()
                lo = results.pop()
                g = sub.get(var)
                if g is None:
                    g = self.var(var)
                res = self.ite(g, hi, lo)
                self._ck_put(a, map_id, 0, res)
                results.append(res ^ neg)
        return results.pop()

    # ------------------------------------------------------------------
    # Cofactors and don't-care minimization
    # ------------------------------------------------------------------

    def restrict(self, f: int, assignment: Dict[int, bool]) -> int:
        """Cofactor ``f`` with respect to a partial variable assignment."""
        if not assignment:
            return f
        map_id = self._map_id(("restr",) + tuple(sorted(assignment.items())))
        return self._restrict(f, assignment, map_id)

    def _restrict(self, f: int, assignment: Dict[int, bool], map_id: int) -> int:
        stats = self._op_stats["restr"]
        todo: List[Tuple] = [(_EXPAND, f)]
        results: List[int] = []
        while todo:
            frame = todo.pop()
            tag = frame[0]
            if tag == _EXPAND:
                _, f = frame
                if f < 2:
                    results.append(f)
                    continue
                neg = f & 1
                f ^= neg
                a = (f << 6) | _OP_RESTR
                stats[0] += 1
                res = self._ck_get(a, map_id, 0)
                if res >= 0:
                    stats[1] += 1
                    results.append(res ^ neg)
                    continue
                idx = f >> 1
                var = self._var[idx]
                if var in assignment:
                    todo.append((_REDUCE1, a, neg))
                    todo.append((
                        _EXPAND,
                        self._hi[idx] if assignment[var] else self._lo[idx],
                    ))
                else:
                    todo.append((_REDUCE, var, a, neg))
                    todo.append((_EXPAND, self._hi[idx]))
                    todo.append((_EXPAND, self._lo[idx]))
            elif tag == _REDUCE:
                _, var, a, neg = frame
                hi = results.pop()
                lo = results.pop()
                res = self._mk(var, lo, hi)
                self._ck_put(a, map_id, 0, res)
                results.append(res ^ neg)
            else:  # _REDUCE1
                _, a, neg = frame
                res = results.pop()
                self._ck_put(a, map_id, 0, res)
                results.append(res ^ neg)
        return results.pop()

    def cofactor_cube(self, f: int, cube: int) -> int:
        """Cofactor ``f`` by a (possibly negative-literal) cube BDD."""
        assignment: Dict[int, bool] = {}
        while cube >= 2:
            c = cube & 1
            idx = cube >> 1
            var = self._var[idx]
            lo = self._lo[idx] ^ c
            if lo == FALSE:
                assignment[var] = True
                cube = self._hi[idx] ^ c
            else:
                assignment[var] = False
                cube = lo
        return self.restrict(f, assignment)

    def constrain(self, f: int, c: int) -> int:
        """Generalized cofactor (constrain) of ``f`` by care set ``c``.

        ``constrain(f, c)`` agrees with ``f`` on ``c`` and is free to take
        any value outside; it maps each minterm outside ``c`` to the value
        of ``f`` on the nearest minterm inside ``c`` (Coudert-Madre).
        """
        if c == FALSE:
            raise BddError("constrain by the empty care set is undefined")
        return self._constrain(f, c)

    def _constrain(self, f: int, c: int) -> int:
        stats = self._op_stats["constrain"]
        todo: List[Tuple] = [(_EXPAND, f, c)]
        results: List[int] = []
        while todo:
            frame = todo.pop()
            tag = frame[0]
            if tag == _EXPAND:
                _, f, care = frame
                if care == TRUE or f < 2:
                    results.append(f)
                    continue
                neg = f & 1
                f ^= neg
                if f == care:
                    results.append(TRUE ^ neg)
                    continue
                if f == (care ^ 1):
                    results.append(FALSE ^ neg)
                    continue
                a = (f << 6) | _OP_CONSTRAIN
                stats[0] += 1
                res = self._ck_get(a, care, 0)
                if res >= 0:
                    stats[1] += 1
                    results.append(res ^ neg)
                    continue
                var = self.top_var(f, care)
                f0, f1 = self._cofactors(f, var)
                c0, c1 = self._cofactors(care, var)
                if c0 == FALSE:
                    todo.append((_REDUCE1, a, care, neg))
                    todo.append((_EXPAND, f1, c1))
                elif c1 == FALSE:
                    todo.append((_REDUCE1, a, care, neg))
                    todo.append((_EXPAND, f0, c0))
                else:
                    todo.append((_REDUCE, var, a, care, neg))
                    todo.append((_EXPAND, f1, c1))
                    todo.append((_EXPAND, f0, c0))
            elif tag == _REDUCE:
                _, var, a, care, neg = frame
                hi = results.pop()
                lo = results.pop()
                res = self._mk(var, lo, hi)
                self._ck_put(a, care, 0, res)
                results.append(res ^ neg)
            else:  # _REDUCE1
                _, a, care, neg = frame
                res = results.pop()
                self._ck_put(a, care, 0, res)
                results.append(res ^ neg)
        return results.pop()

    def restrict_dc(self, f: int, c: int) -> int:
        """Coudert-Madre *restrict*: minimize ``f`` using care set ``c``.

        Like :meth:`constrain` but quantifies variables absent from ``f``
        out of the care set first, which guarantees the result's support
        is a subset of ``f``'s support and usually yields smaller BDDs.
        HSIS uses this to shrink intermediate BDDs with reached-state
        don't cares (paper §1 item 3).
        """
        if c == FALSE:
            raise BddError("restrict by the empty care set is undefined")
        return self._restrict_dc(f, c)

    def _restrict_dc(self, f: int, c: int) -> int:
        stats = self._op_stats["restrdc"]
        todo: List[Tuple] = [(_EXPAND, f, c)]
        results: List[int] = []
        while todo:
            frame = todo.pop()
            tag = frame[0]
            if tag == _EXPAND:
                _, f, care = frame
                if care == TRUE or f < 2:
                    results.append(f)
                    continue
                neg = f & 1
                f ^= neg
                a = (f << 6) | _OP_RESTRDC
                stats[0] += 1
                res = self._ck_get(a, care, 0)
                if res >= 0:
                    stats[1] += 1
                    results.append(res ^ neg)
                    continue
                lf, lc = self._node_level(f), self._node_level(care)
                if lc < lf:
                    cidx = care >> 1
                    cc = care & 1
                    quantified = self.or_(
                        self._lo[cidx] ^ cc, self._hi[cidx] ^ cc
                    )
                    todo.append((_REDUCE1, a, care, neg))
                    todo.append((_EXPAND, f, quantified))
                else:
                    idx = f >> 1
                    var = self._var[idx]
                    f0, f1 = self._lo[idx], self._hi[idx]
                    c0, c1 = self._cofactors(care, var)
                    if c0 == FALSE:
                        todo.append((_REDUCE1, a, care, neg))
                        todo.append((_EXPAND, f1, c1))
                    elif c1 == FALSE:
                        todo.append((_REDUCE1, a, care, neg))
                        todo.append((_EXPAND, f0, c0))
                    else:
                        todo.append((_REDUCE, var, a, care, neg))
                        todo.append((_EXPAND, f1, c1))
                        todo.append((_EXPAND, f0, c0))
            elif tag == _REDUCE:
                _, var, a, care, neg = frame
                hi = results.pop()
                lo = results.pop()
                res = self._mk(var, lo, hi)
                self._ck_put(a, care, 0, res)
                results.append(res ^ neg)
            else:  # _REDUCE1
                _, a, care, neg = frame
                res = results.pop()
                self._ck_put(a, care, 0, res)
                results.append(res ^ neg)
        return results.pop()

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def support(self, f: int) -> List[int]:
        """Variable indices in the support of ``f``, in order."""
        seen = set()
        sup = set()
        stack = [f >> 1]
        while stack:
            idx = stack.pop()
            if idx == 0 or idx in seen:
                continue
            seen.add(idx)
            sup.add(self._var[idx])
            stack.append(self._lo[idx] >> 1)
            stack.append(self._hi[idx] >> 1)
        return sorted(sup, key=lambda v: self._level_of_var[v])

    def size(self, f) -> int:
        """Number of distinct nodes in the DAG(s) rooted at ``f``.

        ``f`` may be a single handle or an iterable of handles (shared
        size).  Terminal polarities are counted as reached — so
        ``size(FALSE) == size(TRUE) == 1``, a literal has size 3, and
        ``size(f) == size(not_(f))`` always (they share every node).
        """
        roots = [f] if isinstance(f, int) else list(f)
        seen = set()
        terminals = set()
        stack = list(roots)
        while stack:
            n = stack.pop()
            if n < 2:
                terminals.add(n)
                continue
            idx = n >> 1
            if idx in seen:
                continue
            seen.add(idx)
            c = n & 1
            stack.append(self._lo[idx] ^ c)
            stack.append(self._hi[idx] ^ c)
        return len(seen) + len(terminals)

    def var_population(self, var) -> int:
        """Number of live unique-table nodes labelled with ``var``."""
        v = var if isinstance(var, int) else self.var_index(var)
        return self._pop[v]

    def complement_edge_count(self) -> int:
        """Number of live nodes whose stored else-edge is complemented."""
        n = self._n
        return int(np.count_nonzero(
            (self._var_np[:n] >= 0) & ((self._lo_np[:n] & 1) == 1)
        ))

    def eval(self, f: int, assignment: Dict) -> bool:
        """Evaluate ``f`` under a total assignment (name or index keys)."""
        norm = {
            (k if isinstance(k, int) else self.var_index(k)): bool(v)
            for k, v in assignment.items()
        }
        while f >= 2:
            idx = f >> 1
            var = self._var[idx]
            if var not in norm:
                raise BddError(f"assignment misses variable {self.var_name(var)!r}")
            f = (self._hi[idx] if norm[var] else self._lo[idx]) ^ (f & 1)
        return f == TRUE

    def eval_batch(self, f: int, assignments, variables=None) -> "np.ndarray":
        """Evaluate ``f`` on many assignments at once (vectorized).

        ``assignments`` is a 2-D boolean array-like, one row per
        assignment.  Columns correspond to all declared variables (by
        index) unless ``variables`` names the column order explicitly.
        Returns a boolean array of results.  All rows walk the DAG in
        lockstep — at most ``var_count`` numpy passes regardless of the
        number of rows.
        """
        bits = np.asarray(assignments, dtype=bool)
        if bits.ndim != 2:
            raise BddError("assignments must be a 2-D boolean array")
        if variables is None:
            if bits.shape[1] != self.var_count:
                raise BddError(
                    "assignment width must equal var_count "
                    f"({bits.shape[1]} != {self.var_count})"
                )
            full = bits
            covered = None
        else:
            cols = [
                v if isinstance(v, int) else self.var_index(v)
                for v in variables
            ]
            if len(cols) != bits.shape[1]:
                raise BddError("variables must match the assignment width")
            full = np.zeros((bits.shape[0], self.var_count), dtype=bool)
            full[:, cols] = bits
            covered = set(cols)
        if covered is not None:
            for v in self.support(f):
                if v not in covered:
                    raise BddError(
                        f"assignment misses variable {self.var_name(v)!r}"
                    )
        rows = full.shape[0]
        handles = np.full(rows, f, dtype=np.int64)
        var_np = self._var_np
        lo_np = self._lo_np
        hi_np = self._hi_np
        active = np.flatnonzero(handles >= 2)
        while active.size:
            ha = handles[active]
            idx = ha >> 1
            branch = full[active, var_np[idx]]
            child = np.where(branch, hi_np[idx], lo_np[idx]) ^ (ha & 1)
            handles[active] = child
            active = active[child >= 2]
        return handles == TRUE

    def sat_count(self, f: int, care_vars: Optional[Sequence] = None) -> int:
        """Exact model count of ``f`` over ``care_vars``.

        ``care_vars`` defaults to all declared variables; it must contain
        the support of ``f``.  Exact arbitrary-precision arithmetic.
        Complement edges are handled by counting regular nodes and taking
        the complement against the suffix space at each complemented arc.
        The node walk is an explicit-stack postorder, so deep chains never
        touch the interpreter recursion limit.
        """
        import bisect

        if care_vars is None:
            care = list(range(self.var_count))
        else:
            care = [v if isinstance(v, int) else self.var_index(v) for v in care_vars]
        care_levels = sorted(self._level_of_var[v] for v in care)
        care_set = set(care_levels)
        for v in self.support(f):
            if self._level_of_var[v] not in care_set:
                raise BddError("care_vars must contain the support of f")
        n = len(care_levels)
        lvl_of = self._level_of_var
        var_arr = self._var
        lo_arr = self._lo
        hi_arr = self._hi

        def rank(level: int) -> int:
            """Number of care variables with level < ``level``."""
            return bisect.bisect_left(care_levels, level)

        # memo: regular node index -> model count over ranks >= its rank.
        memo: Dict[int, int] = {}

        def count_from(handle: int, from_rank: int) -> int:
            # Models of ``handle`` over care vars of rank >= from_rank;
            # the regular node's count must already be memoized.
            if handle == TRUE:
                return 1 << (n - from_rank)
            if handle == FALSE:
                return 0
            idx = handle >> 1
            node_rank = rank(lvl_of[var_arr[idx]])
            c = memo[idx]
            if handle & 1:
                c = (1 << (n - node_rank)) - c
            return c << (node_rank - from_rank)

        root_idx = f >> 1
        if root_idx:
            stack: List[Tuple[int, bool]] = [(root_idx, False)]
            while stack:
                idx, ready = stack.pop()
                if idx in memo:
                    continue
                if ready:
                    r = rank(lvl_of[var_arr[idx]])
                    memo[idx] = (
                        count_from(lo_arr[idx], r + 1)
                        + count_from(hi_arr[idx], r + 1)
                    )
                    continue
                stack.append((idx, True))
                for child in (lo_arr[idx], hi_arr[idx]):
                    ci = child >> 1
                    if ci and ci not in memo:
                        stack.append((ci, False))
        return count_from(f, 0)

    def pick_cube(self, f: int, care_vars: Optional[Sequence] = None) -> Optional[Dict[int, bool]]:
        """Return one satisfying partial assignment, or None if ``f`` is FALSE.

        Variables in ``care_vars`` (indices or names) absent from the
        chosen path are assigned ``False`` to make the cube total over the
        care set.  Prefers low branches (lexicographically smallest cube).
        """
        if f == FALSE:
            return None
        cube: Dict[int, bool] = {}
        node = f
        while node >= 2:
            c = node & 1
            idx = node >> 1
            var = self._var[idx]
            lo = self._lo[idx] ^ c
            if lo != FALSE:
                cube[var] = False
                node = lo
            else:
                cube[var] = True
                node = self._hi[idx] ^ c
        if care_vars is not None:
            for v in care_vars:
                idx = v if isinstance(v, int) else self.var_index(v)
                cube.setdefault(idx, False)
        return cube

    def sat_iter(self, f: int, care_vars: Sequence) -> Iterator[Dict[int, bool]]:
        """Enumerate all total satisfying assignments over ``care_vars``.

        Iterative DFS: each stack frame records the branch value taken
        into it, applied to a shared prefix assignment when the frame is
        popped (sibling subtrees only ever rewrite deeper positions, so
        the prefix stays valid).
        """
        care = [v if isinstance(v, int) else self.var_index(v) for v in care_vars]
        care_sorted = sorted(care, key=lambda v: self._level_of_var[v])
        m = len(care_sorted)
        var_arr = self._var
        lo_arr = self._lo
        hi_arr = self._hi
        acc: Dict[int, bool] = {}
        # (node, depth, branch): branch is the value of care_sorted[depth-1].
        stack: List[Tuple[int, int, bool]] = [(f, 0, False)]
        while stack:
            node, depth, branch = stack.pop()
            if depth:
                acc[care_sorted[depth - 1]] = branch
            if node == FALSE:
                continue
            if depth == m:
                if node == TRUE:
                    yield dict(acc)
                continue
            var = care_sorted[depth]
            node_var = var_arr[node >> 1] if node >= 2 else -1
            if node_var == var:
                c = node & 1
                idx = node >> 1
                stack.append((hi_arr[idx] ^ c, depth + 1, True))
                stack.append((lo_arr[idx] ^ c, depth + 1, False))
            else:
                # node does not test var (or is TRUE): both branches.
                stack.append((node, depth + 1, True))
                stack.append((node, depth + 1, False))

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def register_root(self, name: str, node: int) -> None:
        """Register/overwrite an external GC root under ``name``."""
        self._roots[name] = node

    def deregister_root(self, name: str) -> None:
        """Drop a previously registered root (missing names are ignored)."""
        self._roots.pop(name, None)

    def register_root_group(self, prefix: str, nodes: Iterable[int]) -> None:
        """Register a family of roots under ``prefix.<i>`` names.

        Any previously registered roots with the same prefix are dropped
        first, so re-registering a shrinking family does not leak stale
        roots.
        """
        stale = [k for k in self._roots if k.startswith(prefix + ".")]
        for k in stale:
            del self._roots[k]
        for i, node in enumerate(nodes):
            self._roots[f"{prefix}.{i}"] = node

    def _mark(self, extra_roots: Iterable[int]) -> "np.ndarray":
        """Vectorized reachability: boolean mask over node indices.

        Frontier BFS over the numpy columns — each wave gathers the
        children of the newly marked nodes in one pass (marking masks off
        the complement bit, so both polarities survive together).
        """
        n = self._n
        lo_np = self._lo_np[:n]
        hi_np = self._hi_np[:n]
        marked = np.zeros(n, dtype=bool)
        marked[0] = True
        roots = [h >> 1 for h in self._roots.values()]
        roots.extend(h >> 1 for h in extra_roots)
        if roots:
            frontier = np.unique(np.asarray(roots, dtype=np.int64))
            frontier = frontier[~marked[frontier]]
            while frontier.size:
                marked[frontier] = True
                kids = np.unique(np.concatenate(
                    (lo_np[frontier] >> 1, hi_np[frontier] >> 1)
                ))
                frontier = kids[~marked[kids]]
        return marked

    def _recount_populations(self) -> None:
        """Rebuild the per-variable live node counts from the columns."""
        n = self._n
        var_np = self._var_np[:n]
        live = np.flatnonzero(var_np >= 0)
        counts = np.bincount(var_np[live], minlength=self.var_count)
        self._pop = [int(x) for x in counts]

    def gc(self, extra_roots: Iterable[int] = ()) -> int:
        """Mark-and-sweep collection; returns the number of nodes freed.

        Keeps every node reachable from registered roots plus
        ``extra_roots``.  Node indices of live nodes are stable — the
        sweep only blanks dead slots and recycles them through the free
        list, so handles held in engine locals survive.  Mark, sweep and
        the unique-table rebuild are vectorized numpy passes.  The
        computed cache is cleared only when nodes were actually freed (a
        no-op sweep cannot leave dangling entries).
        """
        n = self._n
        var_np = self._var_np[:n]
        marked = self._mark(extra_roots)
        dead = np.flatnonzero((var_np >= 0) & ~marked)
        freed = int(dead.size)
        if freed:
            var_np[dead] = -1
            self._free.extend(dead.tolist())
            self._ut_rebuild()
            self._recount_populations()
            self.clear_cache()
        self.gc_count += 1
        self._gc_pending = False
        self._nodes_since_gc = 0
        self.tracer.instant(
            "bdd.gc", cat="bdd",
            freed=freed, live=len(self), roots=len(self._roots),
            runs=self.gc_count,
        )
        return freed

    def compact(self, extra_roots: Iterable[int] = ()) -> List[int]:
        """Compacting collection: drop dead nodes AND close the gaps.

        Unlike :meth:`gc` (index-stable), compaction *moves* nodes: live
        nodes are renumbered contiguously from the bottom of the columns
        in one vectorized sweep (old -> new index map, children/roots
        remapped through it, unique table rebuilt).  Every handle not
        reachable from a registered root or ``extra_roots`` is
        invalidated; registered roots are remapped in place and the
        remapped ``extra_roots`` are returned in order.  Strictly a
        safe-point operation — callers must re-read every handle they
        keep from the remapped roots (see docs/kernel.md).
        """
        extra = list(extra_roots)
        n = self._n
        var_np, lo_np, hi_np = self._var_np, self._lo_np, self._hi_np
        marked = self._mark(extra)
        live = np.flatnonzero(marked)  # index 0 is always first
        new_n = int(live.size)
        freed = (self._n - len(self._free)) - new_n
        newidx = np.full(n, -1, dtype=np.int64)
        newidx[live] = np.arange(new_n, dtype=np.int64)
        var2 = var_np[live].copy()
        lo_old = lo_np[live]
        hi_old = hi_np[live]
        lo2 = (newidx[lo_old >> 1] << 1) | (lo_old & 1)
        hi2 = (newidx[hi_old >> 1] << 1) | (hi_old & 1)
        var_np[:new_n] = var2
        lo_np[:new_n] = lo2
        hi_np[:new_n] = hi2
        var_np[new_n:n] = -1
        lo_np[new_n:n] = 0
        hi_np[new_n:n] = 0
        self._n = new_n
        self._free = []
        self._roots = {
            name: int((newidx[h >> 1] << 1) | (h & 1))
            for name, h in self._roots.items()
        }
        self._ut_rebuild()
        self._recount_populations()
        self.clear_cache()
        self.compact_count += 1
        self._gc_pending = False
        self._nodes_since_gc = 0
        self.tracer.instant(
            "bdd.compact", cat="bdd",
            freed=freed, live=len(self), roots=len(self._roots),
            runs=self.compact_count,
        )
        return [int((newidx[h >> 1] << 1) | (h & 1)) for h in extra]

    def maybe_gc(self, extra_roots: Iterable[int] = ()) -> int:
        """Run pending collections/reorders iff auto-managed ones are due.

        Engines call this at *safe points* — moments where every node
        they hold is either a registered root or passed via
        ``extra_roots`` — so intermediates held only in operator locals
        are never swept.  A pending dynamic reorder (see ``auto_reorder``)
        runs here too, under the same contract: in-place sifting keeps
        every root handle valid.  Returns the number of nodes freed by
        GC (0 when no collection ran).
        """
        if not (self._gc_pending or self._reorder_pending):
            return 0
        extra = list(extra_roots)
        freed = 0
        if self._gc_pending:
            freed = self.gc(extra_roots=extra)
        if self._reorder_pending and not self._in_reorder:
            self.reorder_now(extra_roots=extra)
        return freed

    def reorder_now(self, extra_roots: Iterable[int] = ()) -> int:
        """Sift the variable order in place; returns nodes saved.

        Must only be called at a safe point (everything live registered
        as a root or passed via ``extra_roots``).  Root handles remain
        valid — swaps relabel nodes without moving their indices.
        """
        from repro.bdd.ordering import sift_in_place

        if self._in_reorder:
            return 0
        extra = list(extra_roots)
        self._in_reorder = True
        try:
            with self.tracer.span("bdd.reorder", cat="bdd"):
                # Sifting frees dead nodes eagerly via refcounts, so start
                # from a collected heap for an accurate count.
                self.gc(extra_roots=extra)
                before = len(self)
                stats = sift_in_place(self, extra_roots=extra)
                after = len(self)
                # Swaps invalidate structure-keyed cache entries.
                self.clear_cache()
        finally:
            self._in_reorder = False
            self._reorder_pending = False
        self.reorder_count += 1
        self.sift_swaps += stats["swaps"]
        self.sift_fast_swaps += stats["fast_swaps"]
        self.sift_lb_skips += stats["lb_skips"]
        if self.auto_reorder is not None:
            self._reorder_watermark = max(self.auto_reorder, 2 * after)
        self.tracer.instant(
            "bdd.reorder_done", cat="bdd",
            before=before, after=after,
            swaps=stats["swaps"], fast_swaps=stats["fast_swaps"],
            runs=self.reorder_count,
        )
        return before - after

    # ------------------------------------------------------------------
    # In-place level-swap primitives (used by repro.bdd.ordering.sift_in_place)
    # ------------------------------------------------------------------

    def _build_refcounts(self, extra_roots: Iterable[int] = ()) -> List[int]:
        """Per-index reference counts from live nodes and roots.

        Valid only at a safe point right after :meth:`gc`: every live
        node is then reachable from the counted references, so sifting
        can free nodes eagerly the moment their count drops to zero.
        Built with one vectorized bincount over the child columns.
        """
        n = self._n
        var_np = self._var_np[:n]
        live = np.flatnonzero(var_np >= 0)
        children = np.concatenate(
            (self._lo_np[live] >> 1, self._hi_np[live] >> 1)
        ) if live.size else np.empty(0, dtype=np.int64)
        refs = np.bincount(children, minlength=n).tolist()
        for h in self._roots.values():
            refs[h >> 1] += 1
        for h in extra_roots:
            refs[h >> 1] += 1
        return refs

    def _deref(self, handle: int, refs: List[int]) -> None:
        """Drop one reference; recursively free nodes reaching zero."""
        stack = [handle >> 1]
        var_arr = self._var
        while stack:
            idx = stack.pop()
            if idx == 0:
                continue
            refs[idx] -= 1
            if refs[idx] == 0 and var_arr[idx] >= 0:
                self._ut_delete(idx)
                self._pop[var_arr[idx]] -= 1
                stack.append(self._lo[idx] >> 1)
                stack.append(self._hi[idx] >> 1)
                var_arr[idx] = -1
                self._free.append(idx)

    def _mk_ref(self, var: int, lo: int, hi: int, refs: List[int]) -> int:
        """Refcount-aware :meth:`_mk` used during in-place swaps.

        Newly created nodes charge one reference to each child; found
        nodes charge nothing (the caller accounts for its own reference).
        Never arms auto-GC/auto-reorder — we are inside the reorder.
        """
        if lo == hi:
            return lo
        neg = hi & 1
        if neg:
            lo ^= 1
            hi ^= 1
        var_arr = self._var
        lo_arr = self._lo
        hi_arr = self._hi
        ut = self._ut
        mask = self._ut_mask
        h = (var * _H1 + lo * _H2 + hi * _H3) & _M64
        h ^= h >> 16
        slot = h & mask
        tomb = -1
        while True:
            e = ut[slot]
            if e == 0:
                break
            if e < 0:
                if tomb < 0:
                    tomb = slot
            elif var_arr[e] == var and lo_arr[e] == lo and hi_arr[e] == hi:
                return (e << 1) | neg
            slot = (slot + 1) & mask
        if self._free:
            node = self._free.pop()
        else:
            node = self._n
            if node == self._cap:
                self._grow_nodes()
                var_arr = self._var
                lo_arr = self._lo
                hi_arr = self._hi
            self._n = node + 1
        var_arr[node] = var
        lo_arr[node] = lo
        hi_arr[node] = hi
        if tomb >= 0:
            ut[tomb] = node
        else:
            ut[slot] = node
            self._ut_filled += 1
        self._ut_used += 1
        self._pop[var] += 1
        if node == len(refs):
            refs.append(0)
        refs[node] = 0
        refs[lo >> 1] += 1
        refs[hi >> 1] += 1
        live = self._n - len(self._free) + 1
        if live > self.peak_live_nodes:
            self.peak_live_nodes = live
        if self._ut_filled * 4 >= self._ut_size * 3:
            self._ut_rebuild()
        return (node << 1) | neg

    def _swap_levels_only(self, lvl: int) -> None:
        """Bookkeeping-only swap of levels ``lvl`` and ``lvl+1``.

        Correct exactly when the two variables do not interact (no live
        function depends on both), so no node labelled with the upper
        variable reaches one labelled with the lower.
        """
        x = self._var_at_level[lvl]
        y = self._var_at_level[lvl + 1]
        self._var_at_level[lvl], self._var_at_level[lvl + 1] = y, x
        self._level_of_var[x], self._level_of_var[y] = lvl + 1, lvl

    def _swap_adjacent(self, lvl: int, refs: List[int]) -> int:
        """Swap the variables at ``lvl`` and ``lvl+1`` in place.

        The classic sifting primitive: every node labelled ``x`` (upper)
        that reaches a ``y`` node is relabelled ``y`` in place — keeping
        its index, hence every external handle — with freshly built ``x``
        children.  Nodes whose reference count drops to zero are freed
        eagerly.  The canonical form survives because a handle's polarity
        equals its value on the all-ones assignment, which no variable
        order can change.  Returns the number of nodes rewritten.

        The snapshot of ``x``-labelled nodes is a vectorized column scan;
        nodes created during the loop are x-labelled children below the
        swap window and must not be revisited, and nodes freed mid-loop
        are always below ``x`` (only children are dereferenced), so the
        snapshot stays valid.
        """
        x = self._var_at_level[lvl]
        y = self._var_at_level[lvl + 1]
        self._swap_levels_only(lvl)
        snapshot = np.flatnonzero(self._var_np[:self._n] == x).tolist()
        var_arr = self._var
        lo_arr = self._lo
        hi_arr = self._hi
        moved = 0
        for node in snapshot:
            lo = lo_arr[node]
            hi = hi_arr[node]
            lo_idx = lo >> 1
            hi_idx = hi >> 1
            lo_tests_y = var_arr[lo_idx] == y
            hi_tests_y = var_arr[hi_idx] == y
            if not (lo_tests_y or hi_tests_y):
                continue
            if lo_tests_y:
                c = lo & 1
                f00 = lo_arr[lo_idx] ^ c
                f01 = hi_arr[lo_idx] ^ c
            else:
                f00 = f01 = lo
            if hi_tests_y:
                c = hi & 1
                f10 = lo_arr[hi_idx] ^ c
                f11 = hi_arr[hi_idx] ^ c
            else:
                f10 = f11 = hi
            new_lo = self._mk_ref(x, f00, f10, refs)
            new_hi = self._mk_ref(x, f01, f11, refs)
            if self._var is not var_arr:
                var_arr = self._var
                lo_arr = self._lo
                hi_arr = self._hi
            # Relabel in place: same index, same function, y on top now.
            self._ut_delete(node)
            var_arr[node] = y
            lo_arr[node] = new_lo
            hi_arr[node] = new_hi
            self._ut_insert_node(node)
            self._pop[x] -= 1
            self._pop[y] += 1
            refs[new_lo >> 1] += 1
            refs[new_hi >> 1] += 1
            self._deref(lo, refs)
            self._deref(hi, refs)
            moved += 1
        return moved

    def cache_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-operator computed-cache statistics.

        Returns ``{op: {"lookups": n, "hits": n, "hit_rate": r}}`` for
        every cached operator (see :data:`CACHED_OPS`).
        """
        out: Dict[str, Dict[str, float]] = {}
        for op, (lookups, hits) in self._op_stats.items():
            out[op] = {
                "lookups": lookups,
                "hits": hits,
                "hit_rate": (hits / lookups) if lookups else 0.0,
            }
        return out

    def cache_hit_rate(self) -> float:
        """Overall computed-cache hit rate across all operators."""
        lookups = sum(s[0] for s in self._op_stats.values())
        hits = sum(s[1] for s in self._op_stats.values())
        return (hits / lookups) if lookups else 0.0

    # ------------------------------------------------------------------
    # Export / debug
    # ------------------------------------------------------------------

    def to_expr(self, f: int) -> str:
        """Render ``f`` as a (possibly large) nested ite expression string."""
        if f == FALSE:
            return "FALSE"
        if f == TRUE:
            return "TRUE"
        idx = f >> 1
        c = f & 1
        name = self.var_name(self._var[idx])
        return (
            f"ite({name}, {self.to_expr(self._hi[idx] ^ c)}, "
            f"{self.to_expr(self._lo[idx] ^ c)})"
        )

    def stats(self) -> Dict[str, int]:
        """Manager statistics (live nodes, cache entries, variables, GCs)."""
        return {
            "live_nodes": len(self),
            "allocated_nodes": self._n + 1,
            "node_capacity": self._cap,
            "cache_entries": self._ck_used,
            "cache_capacity": self._ck_cap,
            "cache_evictions": self.cache_evictions,
            "unique_slots": self._ut_size,
            "unique_used": self._ut_used,
            "peak_live_nodes": self.peak_live_nodes,
            "variables": self.var_count,
            "gc_runs": self.gc_count,
            "compact_runs": self.compact_count,
            "not_calls": self.not_calls,
            "std_rewrites": self.std_rewrites,
            "complement_edges": self.complement_edge_count(),
            "reorder_runs": self.reorder_count,
            "reorder_swaps": self.sift_swaps,
            "reorder_fast_swaps": self.sift_fast_swaps,
        }



