"""Structural features of a flat BLIF-MV network.

The order heuristics in :mod:`repro.ordering_portfolio.heuristics` never
look at BDDs — they read the *wiring*: which variable drives which,
which latches read each other's state, and how strongly two machines
communicate.  Everything here is derived from the flat
:class:`~repro.blifmv.ast.Model` alone, so features can be extracted
(and candidate orders built) before a single BDD node is allocated.

:func:`design_digest` is the identity under which winning orders are
persisted: a SHA-256 over a canonical structural dump of the model, so
the ``.hsis-orders/`` cache keys on what the design *is*, not on how
its source file happened to be formatted.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.blifmv.ast import Model
from repro.parallel.atomic import json_digest


def design_digest(model: Model) -> str:
    """Canonical content hash of a flat model's structure.

    Covers everything that affects verification semantics: variable
    domains, table relations (rows, defaults), latches with resets, and
    the synchrony tree.  Comment/whitespace/section-order changes in the
    source file do not fork the digest.
    """
    dump = {
        "name": model.name,
        "inputs": list(model.inputs),
        "outputs": list(model.outputs),
        "domains": {
            name: list(model.domain(name))
            for name in model.declared_variables()
        },
        "tables": [
            {
                "inputs": list(table.inputs),
                "outputs": list(table.outputs),
                "rows": [
                    [repr(e) for e in row.inputs]
                    + ["->"]
                    + [repr(e) for e in row.outputs]
                    for row in table.rows
                ],
                "default": (
                    None
                    if table.default is None
                    else [repr(e) for e in table.default]
                ),
            }
            for table in model.tables
        ],
        "latches": [
            [latch.input, latch.output, list(latch.reset)]
            for latch in model.latches
        ],
        "synchrony": repr(model.synchrony),
    }
    return json_digest(dump)


def fanin_map(model: Model) -> Dict[str, Set[str]]:
    """Direct drivers of every variable.

    A table output is driven by the table's inputs; a latch output is
    driven (sequentially) by its input wire.  Primary inputs have no
    drivers.
    """
    fanin: Dict[str, Set[str]] = {
        name: set() for name in model.declared_variables()
    }
    for table in model.tables:
        for out in table.outputs:
            fanin[out].update(table.inputs)
    for latch in model.latches:
        fanin[latch.output].add(latch.input)
    return fanin


def fanin_cone(
    wire: str, fanin: Dict[str, Set[str]], boundary: Set[str]
) -> Set[str]:
    """Transitive fanin of ``wire``, cut at ``boundary`` variables.

    Boundary variables (latch outputs, primary inputs) are *included* in
    the cone but not expanded — the cone of a latch's next-state wire is
    the combinational logic feeding it plus the state/input variables it
    reads, which is exactly the latch's support.
    """
    cone: Set[str] = set()
    stack = [wire]
    while stack:
        name = stack.pop()
        if name in cone:
            continue
        cone.add(name)
        if name in boundary and name != wire:
            continue
        stack.extend(fanin.get(name, ()))
    return cone


def latch_supports(model: Model) -> Dict[str, Set[str]]:
    """Each latch's support: the fanin cone of its next-state wire.

    Maps latch output name to the set of variables its next-state
    function transitively reads (other latch outputs, primary inputs,
    and the combinational wires in between).  This is the FSM
    communication graph of Aziz-Tasiran-Brayton: latch ``a`` reads latch
    ``b`` iff ``b in latch_supports(model)[a]``.
    """
    fanin = fanin_map(model)
    state = {latch.output for latch in model.latches}
    boundary = state | set(model.inputs)
    return {
        latch.output: fanin_cone(latch.input, fanin, boundary)
        for latch in model.latches
    }


def communication_graph(model: Model) -> Dict[Tuple[str, str], int]:
    """Weighted latch-to-latch communication edges.

    The weight of an (unordered, sorted) latch pair counts how much the
    two machines talk: 2 for each direct state read (``a`` reads ``b``
    or vice versa) plus 1 per shared support variable.  Heuristics that
    partition or linearize the latch set (min-cut, proximity) maximize
    intra-group weight.
    """
    supports = latch_supports(model)
    latches = [latch.output for latch in model.latches]
    weights: Dict[Tuple[str, str], int] = {}
    for i, a in enumerate(latches):
        for b in latches[i + 1:]:
            key = (a, b) if a < b else (b, a)
            weight = len(supports[a] & supports[b])
            if b in supports[a]:
                weight += 2
            if a in supports[b]:
                weight += 2
            if weight:
                weights[key] = weight
    return weights


def edge_weight(
    weights: Dict[Tuple[str, str], int], a: str, b: str
) -> int:
    """Weight of the (a, b) communication edge (0 when absent)."""
    if a > b:
        a, b = b, a
    return weights.get((a, b), 0)


def direct_combinational_fanin(model: Model, wire: str) -> List[str]:
    """Inputs of the table(s) driving ``wire``, in declaration order."""
    seen: Dict[str, None] = {}
    for table in model.tables:
        if wire in table.outputs:
            for name in table.inputs:
                seen.setdefault(name)
    return list(seen)
