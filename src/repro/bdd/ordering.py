"""Static variable-ordering heuristics and in-place dynamic reordering.

HSIS derives its BDD variable order from the structure of the interacting
FSM network (footnote 1 of the paper cites Aziz-Tasiran-Brayton, "BDD
Variable Ordering for Interacting Finite State Machines", DAC 1994).  The
key ideas reproduced here:

* latches (state variables) of tightly communicating machines should sit
  close together in the order;
* present-state and next-state bits of one latch are interleaved
  (handled by :meth:`repro.bdd.mdd.MddManager.declare_pair`);
* combinational variables are placed near the latches they feed.

The affinity-based linear arrangement below is the classic greedy
approximation: repeatedly append the variable with the largest total edge
weight to the already-placed prefix.

Dynamic reordering is classic Rudell sifting over adjacent level swaps
inside one manager (``sift_in_place``).  Node indices — and therefore
every root handle — stay valid, which is what lets the
manager run it at GC safe points, armed by its ``auto_reorder`` knob or
forced with :meth:`repro.bdd.manager.BDD.reorder_now`.  A
variable-interaction matrix turns swaps of non-interacting levels into
pure bookkeeping, and a lower-bound estimate skips whole directions that
cannot beat the best size already found.  Each swap snapshots the upper
level straight off the manager's flat ``var`` column (one vectorized
scan) and relabels nodes in place in the array store; per-level
populations are O(1) counter reads, so the lower bound costs nothing to
evaluate.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

from repro.bdd.manager import BDD


def validate_permutation(
    order: Sequence[str], names: Iterable[str]
) -> Optional[str]:
    """Check that ``order`` is a permutation of ``names``.

    Returns ``None`` when it is, else a one-line human-readable reason
    (missing / unknown / duplicated entries).  Shared by the explicit
    ``encode(order=...)`` path and the ``.hsis-orders`` cache, both of
    which must refuse to install an order that does not cover the
    design's variables exactly.
    """
    wanted = set(names)
    seen: Set[str] = set()
    for name in order:
        if name in seen:
            return f"duplicate variable {name!r} in order"
        seen.add(name)
    unknown = seen - wanted
    if unknown:
        return f"unknown variable(s) in order: {', '.join(sorted(unknown))}"
    missing = wanted - seen
    if missing:
        return f"order misses variable(s): {', '.join(sorted(missing))}"
    return None


def affinity_order(
    groups: Sequence[Set[str]],
    all_items: Sequence[str],
) -> List[str]:
    """Order ``all_items`` so that items co-occurring in ``groups`` are close.

    ``groups`` are sets of item names that interact (e.g. the support sets
    of the relations of a BLIF-MV network); the affinity between two items
    is the number of groups containing both.  Returns a greedy linear
    arrangement: each step places the remaining item with the largest
    total affinity to the placed prefix, then the largest total weight
    (summed affinity to every item), then the earliest position in
    ``all_items``; the first step therefore seeds with the globally
    most-connected item.  Items never seen in any group keep their
    relative input order at the end.

    The candidates sit in a max-heap keyed by ``(attraction, weight,
    -position)`` with lazy entries: a placement pushes a fresh entry for
    each of the placed item's neighbours, the only items whose
    attraction it changes, and an entry whose attraction is out of date
    is skipped when popped.  The cost is ``O((n + e) log n)`` for ``n``
    items and ``e`` neighbour pairs.  A repeated item is placed once
    per occurrence; all its occurrences share one attraction, and each
    placement of it attracts its neighbours again.
    """
    items_set = set(all_items)
    neighbours: Dict[str, Dict[str, int]] = {name: {} for name in all_items}
    for group in groups:
        members = list(group & items_set)
        for a in members:
            near = neighbours[a]
            for b in members:
                if b != a:
                    near[b] = near.get(b, 0) + 1
    # Per distinct item: first position and occurrences left to place.
    position: Dict[str, int] = {}
    left: Dict[str, int] = {}
    for i, name in enumerate(all_items):
        position.setdefault(name, i)
        left[name] = left.get(name, 0) + 1
    weight = {name: sum(near.values()) for name, near in neighbours.items()}
    attraction = dict.fromkeys(position, 0)
    # Positions are distinct, so the name in the fourth place is never
    # compared.  Attractions only grow: an item's one live entry is the
    # one carrying its current attraction.
    heap = [(0, -weight[name], i, name) for name, i in position.items()]
    heapq.heapify(heap)
    placed: List[str] = []
    while heap:
        neg_attraction, _, _, best = heap[0]
        if -neg_attraction != attraction[best]:
            heapq.heappop(heap)
            continue
        placed.append(best)
        left[best] -= 1
        if not left[best]:
            heapq.heappop(heap)
        for n, shared in neighbours[best].items():
            if left[n]:
                attraction[n] += shared
                heapq.heappush(heap, (-attraction[n], -weight[n], position[n], n))
    return placed


def interacting_fsm_order(
    latch_supports: Mapping[str, Set[str]],
    nonstate_vars: Sequence[str] = (),
) -> List[str]:
    """Order latches of interacting FSMs (Aziz-Tasiran-Brayton style).

    ``latch_supports`` maps each latch name to the set of latch names its
    next-state function depends on (the FSM communication graph).  Latches
    of machines that read each other are placed adjacently.  Non-state
    variables are appended after the latch whose support mentions them
    most; unmentioned ones go last.
    """
    latches = list(latch_supports)
    groups = [
        {latch} | (set(support) & set(latches))
        for latch, support in latch_supports.items()
    ]
    latch_order = affinity_order(groups, latches)

    # Attach each non-state var right after the latch group using it most.
    usage: Dict[str, Dict[str, int]] = {v: {} for v in nonstate_vars}
    for latch, support in latch_supports.items():
        for v in support:
            if v in usage:
                usage[v][latch] = usage[v].get(latch, 0) + 1
    order: List[str] = []
    attached: Dict[str, List[str]] = {latch: [] for latch in latch_order}
    tail: List[str] = []
    for v in nonstate_vars:
        if usage[v]:
            best_latch = max(usage[v], key=lambda l: usage[v][l])
            attached[best_latch].append(v)
        else:
            tail.append(v)
    for latch in latch_order:
        order.append(latch)
        order.extend(attached[latch])
    order.extend(tail)
    return order


def population_order(src: BDD) -> List[int]:
    """Variables sorted by live node population, most populous first.

    Ties break towards the variable closer to the top of the order, so
    the result is deterministic.  This is the processing order Rudell
    sifting prescribes: moving the fattest level first frees the most
    nodes earliest.
    """
    return sorted(
        range(src.var_count),
        key=lambda v: (-src.var_population(v), src.level(v)),
    )


# ----------------------------------------------------------------------
# In-place sifting (complement-edge safe)
# ----------------------------------------------------------------------


def interaction_masks(bdd: BDD, roots: Iterable[int]) -> List[int]:
    """Per-variable interaction bitmasks over the supports of ``roots``.

    Variables *interact* when some root function depends on both.  The
    relation is order-independent, so one matrix serves a whole sift
    session.  If ``x`` and ``y`` do not interact, no live node labelled
    ``x`` can reach a ``y`` node (after a GC every live node belongs to
    some root's DAG), making their level swap a pure bookkeeping move.
    """
    masks = [0] * bdd.var_count
    seen = set()
    for f in roots:
        if (f >> 1) in seen:
            continue
        seen.add(f >> 1)
        sup = bdd.support(f)
        for i, u in enumerate(sup):
            mu = masks[u]
            for v in sup[i + 1:]:
                mu |= 1 << v
                masks[v] |= 1 << u
            masks[u] = mu
    return masks


def _sift_one(
    bdd: BDD,
    var: int,
    refs: List[int],
    mask: int,
    max_growth: float,
    stats: Dict[str, int],
) -> None:
    """Sift one variable to its locally best level and leave it there."""
    nvars = bdd.var_count

    def step(down: bool) -> None:
        lvl = bdd.level(var)
        swap_lvl = lvl if down else lvl - 1
        other = bdd.var_at(swap_lvl + 1 if down else swap_lvl)
        if (mask >> other) & 1:
            bdd._swap_adjacent(swap_lvl, refs)
            stats["swaps"] += 1
        else:
            bdd._swap_levels_only(swap_lvl)
            stats["fast_swaps"] += 1

    def direction_gain_bound(down: bool) -> int:
        # Moving only ``var`` can free at most its own nodes plus those of
        # the interacting levels it crosses; non-interacting levels are
        # provably size-neutral.  Returns 0 when nothing interacts.
        lvl = bdd.level(var)
        levels = range(lvl + 1, nvars) if down else range(0, lvl)
        gain = 0
        interacts = False
        for l in levels:
            u = bdd.var_at(l)
            if (mask >> u) & 1:
                interacts = True
                gain += bdd.var_population(u)
        if not interacts:
            return 0
        return bdd.var_population(var) + gain

    best_size = len(bdd)
    best_lvl = bdd.level(var)

    def walk(down: bool) -> None:
        nonlocal best_size, best_lvl
        bound = direction_gain_bound(down)
        if bound == 0 or len(bdd) - bound >= best_size:
            stats["lb_skips"] += 1
            return
        while True:
            lvl = bdd.level(var)
            if (down and lvl == nvars - 1) or (not down and lvl == 0):
                break
            step(down)
            size = len(bdd)
            if size < best_size:
                best_size = size
                best_lvl = bdd.level(var)
            if size > max_growth * best_size:
                break

    # Try the closer end first (Rudell), then sweep through to the other.
    start = bdd.level(var)
    first_down = start >= nvars // 2
    walk(first_down)
    walk(not first_down)
    # Settle back at the best level seen.
    while bdd.level(var) != best_lvl:
        step(down=bdd.level(var) < best_lvl)


def sift_in_place(
    bdd: BDD,
    extra_roots: Iterable[int] = (),
    max_growth: float = 1.2,
    max_vars: int = 0,
) -> Dict[str, int]:
    """Rudell sifting by in-place adjacent level swaps.

    Must run at a safe point right after a GC: everything live has to be
    reachable from the manager's roots (``extra_roots``, the open holds
    and the live owners' handles), because nodes orphaned by a swap are
    freed eagerly via reference counts.  All root handles stay valid.
    ``max_vars`` bounds how many variables are sifted (0 = all);
    ``max_growth`` aborts a direction once the size exceeds that
    multiple of the best seen.
    Returns counters: full/fast swaps, lower-bound skips, sizes.
    """
    stats = {
        "swaps": 0,
        "fast_swaps": 0,
        "lb_skips": 0,
        "vars_sifted": 0,
        "start_size": len(bdd),
        "final_size": len(bdd),
    }
    if bdd.var_count < 2:
        return stats
    roots = bdd._root_handles(extra_roots)
    refs = bdd._build_refcounts(roots)
    masks = interaction_masks(bdd, roots)
    todo = population_order(bdd)
    if max_vars:
        todo = todo[:max_vars]
    for var in todo:
        if bdd.var_population(var) == 0:
            continue
        stats["vars_sifted"] += 1
        _sift_one(bdd, var, refs, masks[var], max_growth, stats)
    stats["final_size"] = len(bdd)
    return stats
