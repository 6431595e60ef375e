"""Early quantification: schedules for multiply-and-quantify (paper §4, item 5).

Building the product transition relation requires conjoining many
relation BDDs and existentially quantifying the non-state variables.  If
a variable appears only in conjuncts that have already been multiplied,
it can be quantified *early* from the partial product, which keeps the
intermediate BDDs small.  The early quantification problem — find a
schedule minimizing the peak BDD size — is NP-hard; HSIS ships heuristic
schedulers ([Hojati-Krishnan-Brayton, UCB M94/11]); we provide three:

* ``greedy`` — bucket elimination by minimum combined support: repeatedly
  pick the quantifiable variable whose elimination touches the smallest
  combined support, conjoin exactly the conjuncts mentioning it with a
  fused ``and_exists``, and put the result back in the pool.
* ``linear`` — multiply conjuncts in the given order, quantifying each
  variable as soon as no remaining conjunct mentions it.
* ``monolithic`` — multiply everything, quantify at the end (the baseline
  that early quantification beats; kept for the ablation benchmark).

All schedulers record the peak intermediate size so benchmarks can
compare memory behaviour, and return the same final BDD (the product
with all requested variables quantified out).  Every executed
:class:`ScheduleStep` also emits a ``quantify.step`` trace instant when
the manager's tracer is enabled.

For image computations that run the *same* pool against a changing
frontier every iteration (partitioned reachability), the schedule can be
computed once from the supports alone (:func:`plan_schedule`) and then
replayed cheaply against fresh BDDs (:func:`execute_schedule`) — the
greedy cost function only ever looks at supports, so planning needs no
BDD operations at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple,
)

from repro.bdd.manager import BDD

METHODS = ("greedy", "linear", "monolithic")


@dataclass
class Conjunct:
    """A relation BDD together with its boolean-variable support."""

    node: int
    support: FrozenSet[int]
    label: str = ""


@dataclass
class ScheduleStep:
    """One multiply/quantify step, for introspection and tests."""

    combined: Tuple[str, ...]
    quantified: Tuple[int, ...]
    result_size: int


@dataclass
class QuantifyResult:
    """Outcome of a multiply-and-quantify run."""

    node: int
    peak_size: int
    steps: List[ScheduleStep] = field(default_factory=list)


def make_conjuncts(bdd: BDD, nodes: Iterable[Tuple[int, str]]) -> List[Conjunct]:
    """Wrap ``(node, label)`` pairs into :class:`Conjunct` with supports."""
    return [
        Conjunct(node=node, support=frozenset(bdd.support(node)), label=label)
        for node, label in nodes
    ]


def multiply_and_quantify(
    bdd: BDD,
    conjuncts: Sequence[Conjunct],
    quantify: Set[int],
    method: str = "greedy",
    groups: Optional[Sequence[Sequence[int]]] = None,
) -> QuantifyResult:
    """Conjoin ``conjuncts`` and existentially quantify ``quantify``.

    ``quantify`` is a set of boolean variable indices.  Variables in
    ``quantify`` that appear in no conjunct are vacuous and ignored.
    ``groups`` (optional, greedy only) lists conjunct index groups —
    e.g. the conjuncts of one hierarchy instance — that are clustered
    first, eliminating each group's private variables inside the group
    before the global elimination runs (see :func:`plan_schedule`).
    """
    if method not in METHODS:
        raise ValueError(f"unknown scheduling method {method!r}; want one of {METHODS}")
    pool = [
        Conjunct(c.node, c.support, c.label or f"r{i}")
        for i, c in enumerate(conjuncts)
    ]
    if not pool:
        return QuantifyResult(node=bdd.true, peak_size=1)
    with bdd.tracer.span(
        "quantify", cat="quantify",
        method=method, conjuncts=len(pool), variables=len(quantify),
    ) as span:
        if method == "monolithic":
            result = _monolithic(bdd, pool, quantify)
        elif method == "linear":
            result = _linear(bdd, pool, quantify)
        elif groups:
            schedule = plan_schedule(
                [c.support for c in pool], quantify, groups=groups
            )
            result = execute_schedule(bdd, [c.node for c in pool], schedule)
        else:
            result = _greedy(bdd, pool, quantify)
        span.add(peak_size=result.peak_size, result_size=bdd.size(result.node))
    return result


def _safe_point(bdd: BDD, pool: Iterable[Conjunct], *extra: int) -> None:
    """Run a pending auto-GC keeping the scheduler's working set alive."""
    bdd.maybe_gc(extra_roots=[c.node for c in pool] + list(extra))


def tree_reduce(
    combine: Callable[[int, int], int], lists: List[List[int]], identity: int
) -> List[int]:
    """Reduce every operand list to one handle with ``combine``.

    Each round combines adjacent operands pairwise within every list,
    list by list; an odd operand out carries over to the next round, so
    a list of width w reduces as a balanced tree of depth
    ``ceil(log2(w))`` (a left fold for up to three operands).  Empty
    lists reduce to ``identity``.
    """
    pending = [list(l) for l in lists]
    while any(len(l) > 1 for l in pending):
        pending = [
            [combine(l[j], l[j + 1]) for j in range(0, len(l) - 1, 2)]
            + (l[-1:] if len(l) % 2 else [])
            for l in pending
        ]
    return [l[0] if l else identity for l in pending]


def _reduce_and(
    bdd: BDD, result: QuantifyResult, lists: List[List[int]]
) -> List[int]:
    """Tree-AND every operand list to one node (see :func:`tree_reduce`),
    recording every intermediate product in ``result.peak_size``."""

    def conjoin(f: int, g: int) -> int:
        r = bdd.and_(f, g)
        result.peak_size = max(result.peak_size, bdd.size(r))
        return r

    return tree_reduce(conjoin, lists, bdd.true)


def _record_step(
    bdd: BDD,
    result: QuantifyResult,
    combined: Tuple[str, ...],
    quantified: Tuple[int, ...],
    size: int,
) -> None:
    """Append one :class:`ScheduleStep` and mirror it as a trace instant."""
    result.steps.append(
        ScheduleStep(combined=combined, quantified=quantified, result_size=size)
    )
    if bdd.tracer.enabled:
        bdd.tracer.instant(
            "quantify.step", cat="quantify",
            combined=len(combined), quantified=len(quantified),
            result_size=size, peak_size=result.peak_size,
        )


def _monolithic(bdd: BDD, pool: List[Conjunct], quantify: Set[int]) -> QuantifyResult:
    result = QuantifyResult(node=bdd.true, peak_size=1)
    product = bdd.true
    for c in pool:
        product = bdd.and_(product, c.node)
        size = bdd.size(product)
        result.peak_size = max(result.peak_size, size)
        _record_step(bdd, result, (c.label,), (), size)
        _safe_point(bdd, pool, product)
    present = quantify & set(bdd.support(product))
    product = bdd.exist(sorted(present), product)
    size = bdd.size(product)
    result.peak_size = max(result.peak_size, size)
    _record_step(bdd, result, (), tuple(sorted(present)), size)
    result.node = product
    return result


def _linear(bdd: BDD, pool: List[Conjunct], quantify: Set[int]) -> QuantifyResult:
    result = QuantifyResult(node=bdd.true, peak_size=1)
    product = bdd.true
    product_support: Set[int] = set()
    for idx, c in enumerate(pool):
        remaining = pool[idx + 1:]
        # Quantify, during this conjunction, every variable whose last
        # occurrence is this conjunct.
        dying = {
            v
            for v in (quantify & (c.support | product_support))
            if all(v not in r.support for r in remaining)
        }
        product = bdd.and_exists(product, c.node, sorted(dying))
        product_support = set(bdd.support(product))
        size = bdd.size(product)
        result.peak_size = max(result.peak_size, size)
        _record_step(bdd, result, (c.label,), tuple(sorted(dying)), size)
        _safe_point(bdd, remaining, product)
    result.node = product
    return result


def _greedy(bdd: BDD, pool: List[Conjunct], quantify: Set[int]) -> QuantifyResult:
    """Bucket elimination with an incremental var -> cluster index.

    ``by_var`` maps each variable to the ids of the live conjuncts whose
    support mentions it; it is updated on every merge, so picking the
    cheapest variable inspects only the clusters that actually contain
    it instead of rescanning the whole pool per pending variable
    (previously O(|pending|² · |pool| · |support|) across a run).
    Conjunct ids increase monotonically and ``table`` preserves
    insertion order, which reproduces the original pool-order semantics
    exactly (rest in input order, merged cluster appended).
    """
    result = QuantifyResult(node=bdd.true, peak_size=1)
    table: Dict[int, Conjunct] = dict(enumerate(pool))
    next_id = len(pool)
    by_var: Dict[int, Set[int]] = {}
    for cid, c in table.items():
        for v in c.support:
            by_var.setdefault(v, set()).add(cid)
    pending = {v for v in quantify if by_var.get(v)}
    while pending:
        # Cheapest variable: smallest combined support of the cluster
        # that mentions it (ties broken by cluster size then var index).
        def cost(var: int) -> Tuple[int, int, int]:
            union: Set[int] = set()
            for cid in by_var[var]:
                union |= table[cid].support
            return (len(union), len(by_var[var]), var)

        var = min(pending, key=cost)
        cluster_ids = sorted(by_var[var])
        cluster_id_set = set(cluster_ids)
        cluster = [table[cid] for cid in cluster_ids]
        # Quantify var plus any pending variable entirely local to the cluster.
        local = {
            v for v in pending
            if by_var.get(v) and by_var[v] <= cluster_id_set
        }
        cluster.sort(key=lambda c: len(c.support))
        if len(cluster) > 1:
            [product] = _reduce_and(
                bdd, result, [[c.node for c in cluster[:-1]]]
            )
            product = bdd.and_exists(product, cluster[-1].node, sorted(local))
        else:
            product = bdd.exist(sorted(local), cluster[0].node)
        size = bdd.size(product)
        result.peak_size = max(result.peak_size, size)
        _record_step(
            bdd, result,
            tuple(c.label for c in cluster), tuple(sorted(local)), size,
        )
        merged = Conjunct(
            node=product,
            support=frozenset(bdd.support(product)),
            label="(" + "*".join(c.label for c in cluster) + ")",
        )
        # Incremental index update: retire the cluster, append the merge.
        for cid in cluster_ids:
            for v in table[cid].support:
                ids = by_var[v]
                ids.discard(cid)
                if not ids:
                    del by_var[v]
            del table[cid]
        table[next_id] = merged
        for v in merged.support:
            by_var.setdefault(v, set()).add(next_id)
        next_id += 1
        pending -= local
        pending = {v for v in pending if by_var.get(v)}
        _safe_point(bdd, table.values())
    # Conjoin whatever is left (no quantifiable variables remain).
    live = sorted(table.values(), key=lambda c: len(c.support))
    [product] = _reduce_and(bdd, result, [[c.node for c in live]])
    _safe_point(bdd, live, product)
    if live:
        _record_step(
            bdd, result,
            tuple(c.label for c in live), (), bdd.size(product),
        )
    result.node = product
    return result


# ----------------------------------------------------------------------
# Reusable schedules (partitioned image computation)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PlanStep:
    """One planned merge: conjoin ``merge`` slots, quantify ``quantify``.

    ``merge`` lists input slots in execution order (smallest planned
    support first, mirroring the greedy executor); the product lands in
    slot ``result``.
    """

    merge: Tuple[int, ...]
    quantify: Tuple[int, ...]
    result: int


@dataclass
class ImageSchedule:
    """A frozen greedy schedule, replayable against fresh conjunct BDDs.

    ``inputs`` is the number of input slots; ``steps`` the planned
    merges; ``tail`` the slots conjoined (without quantification) at the
    end, in execution order.
    """

    inputs: int
    steps: List[PlanStep]
    tail: Tuple[int, ...]


def plan_schedule(
    supports: Sequence[FrozenSet[int]],
    quantify: Set[int],
    groups: Optional[Sequence[Sequence[int]]] = None,
) -> ImageSchedule:
    """Plan a greedy multiply-and-quantify from supports alone.

    The greedy heuristic's cost function depends only on conjunct
    supports, so the whole elimination order can be fixed without
    touching a single BDD.  Planned supports of merged clusters are the
    union minus the quantified variables — a superset of the true BDD
    support, which keeps early quantification sound (a variable is only
    scheduled once every conjunct that *could* mention it has been
    merged; quantifying a variable absent from the product is the
    identity).

    ``groups`` (optional) lists slot-index groups that should be
    clustered first — e.g. the conjuncts of one hierarchy instance
    (:attr:`EncodedNetwork.conjunct_groups`).  For each group, every
    quantifiable variable mentioned *only* inside that group (an
    instance-private wire) is eliminated within the group before the
    global phase runs over the per-group products plus the ungrouped
    slots.  On replicated designs the groups are isomorphic, so each
    instance collapses to the same small cross-instance interface and
    the global elimination never interleaves unrelated instances.
    """
    table: Dict[int, FrozenSet[int]] = {
        i: frozenset(s) for i, s in enumerate(supports)
    }
    next_slot = [len(table)]
    by_var: Dict[int, Set[int]] = {}
    for slot, support in table.items():
        for v in support:
            by_var.setdefault(v, set()).add(slot)
    steps: List[PlanStep] = []
    if groups:
        for group in groups:
            slots = {s for s in group if s in table}
            if not slots:
                continue
            pending = {
                v for v in quantify
                if by_var.get(v) and by_var[v] <= slots
            }
            _plan_greedy_phase(
                table, by_var, pending, steps, next_slot, allowed=slots
            )
    pending = {v for v in quantify if by_var.get(v)}
    _plan_greedy_phase(table, by_var, pending, steps, next_slot, allowed=None)
    tail = tuple(sorted(table, key=lambda slot: len(table[slot])))
    return ImageSchedule(inputs=len(supports), steps=steps, tail=tail)


def _plan_greedy_phase(
    table: Dict[int, FrozenSet[int]],
    by_var: Dict[int, Set[int]],
    pending: Set[int],
    steps: List[PlanStep],
    next_slot: List[int],
    allowed: Optional[Set[int]],
) -> None:
    """One greedy elimination phase over ``pending`` variables.

    Mutates the shared planner state.  ``allowed`` (group phases)
    restricts clustering to a slot set; merge results join it, so the
    invariant ``by_var[v] <= allowed`` holds for the phase's pending
    variables throughout.
    """
    while pending:
        def cost(var: int) -> Tuple[int, int, int]:
            union: Set[int] = set()
            for slot in by_var[var]:
                union |= table[slot]
            return (len(union), len(by_var[var]), var)

        var = min(pending, key=cost)
        cluster_ids = sorted(by_var[var])
        cluster_id_set = set(cluster_ids)
        local = {
            v for v in pending
            if by_var.get(v) and by_var[v] <= cluster_id_set
        }
        union: Set[int] = set()
        for slot in cluster_ids:
            union |= table[slot]
        ordered = sorted(cluster_ids, key=lambda slot: len(table[slot]))
        steps.append(
            PlanStep(
                merge=tuple(ordered),
                quantify=tuple(sorted(local)),
                result=next_slot[0],
            )
        )
        merged = frozenset(union - local)
        for slot in cluster_ids:
            for v in table[slot]:
                ids = by_var[v]
                ids.discard(slot)
                if not ids:
                    del by_var[v]
            del table[slot]
        table[next_slot[0]] = merged
        for v in merged:
            by_var.setdefault(v, set()).add(next_slot[0])
        if allowed is not None:
            allowed.add(next_slot[0])
        next_slot[0] += 1
        pending -= local
        pending = {v for v in pending if by_var.get(v)}


def execute_schedule(
    bdd: BDD, nodes: Sequence[int], schedule: ImageSchedule
) -> QuantifyResult:
    """Replay a planned schedule against concrete conjunct BDDs.

    ``nodes[i]`` fills input slot ``i``; the slot count must match the
    plan.  No scheduling decisions are made here — this is the cheap
    per-iteration half of a plan-once/run-many partitioned image.

    Steps execute in dependency *waves*: every step whose merge slots
    are all filled runs in the current wave.  The wave's merge prefixes
    tree-reduce jointly through :func:`_reduce_and`, then the wave's
    quantification cubes are built, then its fused relational products
    run, each in plan order.  GC safe points sit between waves, never
    inside one.
    """
    if len(nodes) != schedule.inputs:
        raise ValueError(
            f"schedule expects {schedule.inputs} conjuncts, got {len(nodes)}"
        )
    result = QuantifyResult(node=bdd.true, peak_size=1)
    slots: Dict[int, int] = dict(enumerate(nodes))
    remaining = list(schedule.steps)
    while remaining:
        ready = [s for s in remaining if all(i in slots for i in s.merge)]
        if not ready:  # defensive: a well-formed plan always progresses
            raise ValueError("image schedule has an unsatisfiable step")
        remaining = [s for s in remaining if not all(i in slots for i in s.merge)]
        # exists vars . (s_0 & ... & s_k-2) & s_k-1, one product per step;
        # single-slot merges degenerate to exists vars . TRUE & s_0.
        prefixes = _reduce_and(
            bdd, result,
            [[slots[i] for i in step.merge[:-1]] for step in ready],
        )
        cubes = [bdd.cube(step.quantify) for step in ready]
        products = [
            bdd.and_exists(prefix, slots[step.merge[-1]], cube)
            for step, prefix, cube in zip(ready, prefixes, cubes)
        ]
        for step, product in zip(ready, products):
            size = bdd.size(product)
            result.peak_size = max(result.peak_size, size)
            _record_step(
                bdd, result,
                tuple(f"s{i}" for i in step.merge), step.quantify, size,
            )
            for i in step.merge:
                del slots[i]
            slots[step.result] = product
        bdd.maybe_gc(extra_roots=list(slots.values()))
    [product] = _reduce_and(bdd, result, [[slots[i] for i in schedule.tail]])
    bdd.maybe_gc(extra_roots=list(slots.values()) + [product])
    result.node = product
    return result
