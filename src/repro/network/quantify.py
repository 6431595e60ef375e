"""Early quantification: schedules for multiply-and-quantify (paper §4, item 5).

Building the product transition relation requires conjoining many
relation BDDs and existentially quantifying the non-state variables.  If
a variable appears only in conjuncts that have already been multiplied,
it can be quantified *early* from the partial product, which keeps the
intermediate BDDs small.  The early quantification problem — find a
schedule minimizing the peak BDD size — is NP-hard; HSIS ships heuristic
schedulers ([Hojati-Krishnan-Brayton, UCB M94/11]); we provide three
planners:

* ``greedy`` (:func:`plan_schedule`) — bucket elimination by minimum
  combined support: repeatedly pick the quantifiable variable whose
  elimination touches the smallest combined support, merge exactly the
  slots mentioning it and quantify every variable local to them.  The
  costs live in a heap, and a merge re-costs only the variables of the
  merged cluster, the only costs it can change.
* ``linear`` (:func:`plan_linear`) — multiply conjuncts in the given
  order, quantifying each variable at its last occurrence.
* ``monolithic`` (:func:`plan_monolithic`) — multiply everything,
  quantify at the end (the baseline that early quantification beats;
  kept for the ablation benchmark).

A planner reads conjunct supports only and returns the schedule as plain
data (:class:`ImageSchedule`); planning is traced as a ``quantify.plan``
span.  One executor, :func:`execute_schedule`, runs every schedule
against concrete BDDs: one fused ``and_exists`` per step, in plan order,
with a GC safe point after each.  It records the peak intermediate size
so benchmarks can compare memory behaviour, and every executed
:class:`ScheduleStep` also emits a ``quantify.step`` trace instant when
the manager's tracer is enabled.

Because planning needs no BDD operations, a pool that runs against a
changing frontier every iteration (partitioned reachability) is planned
once and its schedule replayed against fresh BDDs.
"""

from __future__ import annotations

import heapq
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
    """One executed multiply/quantify step, for introspection and tests.

    ``combined`` names the merged slots (``s3``) in execution order.
    """

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
    The method's planner fixes the schedule from the supports, and
    :func:`execute_schedule` runs it.
    """
    if method not in METHODS:
        raise ValueError(f"unknown scheduling method {method!r}; want one of {METHODS}")
    if not conjuncts:
        return QuantifyResult(node=bdd.true, peak_size=1)
    supports = [c.support for c in conjuncts]
    with bdd.tracer.span(
        "quantify.plan", cat="quantify", method=method, conjuncts=len(conjuncts)
    ) as span:
        if method == "greedy":
            schedule = plan_schedule(supports, quantify, groups=groups)
        elif method == "linear":
            schedule = plan_linear(supports, quantify)
        else:
            schedule = plan_monolithic(supports, quantify)
        span.add(steps=len(schedule.steps))
    with bdd.tracer.span(
        "quantify", cat="quantify",
        method=method, conjuncts=len(conjuncts), variables=len(quantify),
    ) as span:
        result = execute_schedule(bdd, [c.node for c in conjuncts], schedule)
        span.add(peak_size=result.peak_size, result_size=bdd.size(result.node))
    return result


def tree_reduce(
    combine: Callable[[int, int], int], items: Sequence[int], identity: int
) -> int:
    """Reduce ``items`` to one handle with ``combine``, as a balanced tree.

    Each round combines adjacent operands pairwise; an odd operand out
    carries over to the next round, so w operands reduce in a tree of
    depth ``ceil(log2(w))`` (a left fold for up to three operands).  A
    single operand costs no operation; no operands reduce to
    ``identity``.
    """
    pending = list(items)
    while len(pending) > 1:
        pending = [
            combine(pending[j], pending[j + 1])
            for j in range(0, len(pending) - 1, 2)
        ] + (pending[-1:] if len(pending) % 2 else [])
    return pending[0] if pending else identity


def _reduce_and(bdd: BDD, result: QuantifyResult, items: Sequence[int]) -> int:
    """Tree-AND ``items`` to one node (see :func:`tree_reduce`),
    recording every intermediate product in ``result.peak_size``."""

    def conjoin(f: int, g: int) -> int:
        r = bdd.and_(f, g)
        result.peak_size = max(result.peak_size, bdd.size(r))
        return r

    return tree_reduce(conjoin, items, bdd.true)


# ----------------------------------------------------------------------
# Schedules as data: three planners, one executor
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PlanStep:
    """One planned merge: conjoin ``merge`` slots, quantify ``quantify``.

    ``merge`` lists slots in execution order: all but the last conjoin
    first, and the last enters the fused relational product.  The
    product lands in the fresh slot ``result``.
    """

    merge: Tuple[int, ...]
    quantify: Tuple[int, ...]
    result: int


@dataclass
class ImageSchedule:
    """A planned schedule, replayable against fresh conjunct BDDs.

    ``inputs`` is the number of input slots; ``steps`` the planned
    merges in execution order; ``tail`` the slots conjoined (without
    quantification) at the end, in execution order.
    """

    inputs: int
    steps: List[PlanStep]
    tail: Tuple[int, ...]


def plan_linear(
    supports: Sequence[FrozenSet[int]], quantify: Set[int]
) -> ImageSchedule:
    """Plan a linear multiply-and-quantify in pool order.

    Step 0 takes slot 0 alone; step ``i`` merges the previous product
    with slot ``i`` and quantifies the variables whose last occurrence
    is slot ``i``.
    """
    n = len(supports)
    last: Dict[int, int] = {}
    for i, support in enumerate(supports):
        for v in support:
            last[v] = i
    steps = [
        PlanStep(
            merge=(i,) if i == 0 else (n + i - 1, i),
            quantify=tuple(sorted(
                v for v in support if v in quantify and last[v] == i
            )),
            result=n + i,
        )
        for i, support in enumerate(supports)
    ]
    return ImageSchedule(inputs=n, steps=steps, tail=(2 * n - 1,) if n else ())


def plan_monolithic(
    supports: Sequence[FrozenSet[int]], quantify: Set[int]
) -> ImageSchedule:
    """Plan the baseline: the linear chain with nothing quantified, then
    one step that quantifies every requested variable from the full
    product."""
    chain = plan_linear(supports, set())
    if not supports:
        return chain
    final = PlanStep(
        merge=chain.tail,
        quantify=tuple(sorted(set().union(*supports).intersection(quantify))),
        result=2 * len(supports),
    )
    return ImageSchedule(
        inputs=len(supports), steps=chain.steps + [final], tail=(final.result,)
    )


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

    Each phase keeps its variables' costs ``(union size, slot count,
    var)`` in a heap.  A merge changes the cost of exactly the
    variables of the merged cluster's union, so only those are costed
    again; the rest of the heap stays valid.  The key is a total order,
    so the heap picks the variable a full rescan would.
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
    for group in groups or ():
        slots = {s for s in group if s in table}
        pending = {
            v for v in quantify
            if by_var.get(v) and by_var[v] <= slots
        }
        _plan_greedy_phase(table, by_var, pending, steps, next_slot)
    pending = {v for v in quantify if by_var.get(v)}
    _plan_greedy_phase(table, by_var, pending, steps, next_slot)
    tail = tuple(sorted(table, key=lambda slot: len(table[slot])))
    return ImageSchedule(inputs=len(supports), steps=steps, tail=tail)


def _plan_greedy_phase(
    table: Dict[int, FrozenSet[int]],
    by_var: Dict[int, Set[int]],
    pending: Set[int],
    steps: List[PlanStep],
    next_slot: List[int],
) -> None:
    """One greedy elimination phase over ``pending`` variables.

    Mutates the shared planner state.  A merge takes only slots that
    mention a pending variable, so a group phase, whose pending
    variables only the group's slots mention, stays inside the group.
    """

    def cost(var: int) -> Tuple[int, int, int]:
        slots = by_var[var]
        return (len(frozenset().union(*(table[s] for s in slots))), len(slots), var)

    heap = [cost(v) for v in pending]
    heapq.heapify(heap)
    current = {entry[2]: entry for entry in heap}
    while pending:
        entry = heapq.heappop(heap)
        var = entry[2]
        if current.get(var) != entry:
            continue  # superseded by a later cost, or already quantified
        cluster_ids = sorted(by_var[var])
        cluster_id_set = set(cluster_ids)
        union = frozenset().union(*(table[slot] for slot in cluster_ids))
        local = {
            v for v in union
            if v in pending and by_var[v] <= cluster_id_set
        }
        ordered = sorted(cluster_ids, key=lambda slot: len(table[slot]))
        steps.append(
            PlanStep(
                merge=tuple(ordered),
                quantify=tuple(sorted(local)),
                result=next_slot[0],
            )
        )
        merged = union - local
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
        next_slot[0] += 1
        pending -= local
        for v in local:
            del current[v]
        for v in merged:
            if v in pending:
                current[v] = cost(v)
                heapq.heappush(heap, current[v])


def execute_schedule(
    bdd: BDD, nodes: Sequence[int], schedule: ImageSchedule
) -> QuantifyResult:
    """Run a planned schedule against concrete conjunct BDDs.

    ``nodes[i]`` fills input slot ``i``; the slot count must match the
    plan.  No scheduling decisions are made here.  Each step, in plan
    order, tree-ANDs its merge slots but the last (see
    :func:`_reduce_and`) and runs one fused ``exists quantify . prefix &
    last``; its slots are dropped, its product fills its result slot,
    and a GC safe point keeps every live slot.  The tail slots are
    conjoined at the end.
    """
    if len(nodes) != schedule.inputs:
        raise ValueError(
            f"schedule expects {schedule.inputs} conjuncts, got {len(nodes)}"
        )
    result = QuantifyResult(node=bdd.true, peak_size=1)
    slots: Dict[int, int] = dict(enumerate(nodes))
    for step in schedule.steps:
        operands = [slots.pop(i) for i in step.merge]
        prefix = _reduce_and(bdd, result, operands[:-1])
        product = bdd.and_exists(prefix, operands[-1], step.quantify)
        size = bdd.size(product)
        result.peak_size = max(result.peak_size, size)
        result.steps.append(ScheduleStep(
            combined=tuple(f"s{i}" for i in step.merge),
            quantified=step.quantify,
            result_size=size,
        ))
        if bdd.tracer.enabled:
            bdd.tracer.instant(
                "quantify.step", cat="quantify",
                combined=len(step.merge), quantified=len(step.quantify),
                result_size=size, peak_size=result.peak_size,
            )
        slots[step.result] = product
        bdd.maybe_gc(extra_roots=list(slots.values()))
    result.node = _reduce_and(bdd, result, [slots[i] for i in schedule.tail])
    bdd.maybe_gc(extra_roots=list(slots.values()) + [result.node])
    return result
