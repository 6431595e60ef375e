"""Encoding of flat BLIF-MV models into BDD relation conjuncts.

Every BLIF-MV relation (table) becomes a characteristic-function BDD over
the log-encoded multi-valued variables it mentions, built straight from
its rows by the direct builder :func:`repro.bdd.mdd.relation` (no
per-row conjunction, no pairwise disjunction of rows); every latch
becomes an equality conjunct tying the latch's next-state variable to
its input wire.  The conjunct list — *not* the monolithic product — is
the output: building the product transition relation with a good
quantification schedule is the job of :mod:`repro.network.quantify`.

Variable order is chosen up front with the interacting-FSM affinity
heuristic (:func:`repro.bdd.ordering.affinity_order`): variables that
appear in the same table are placed close together, and each latch's
present/next bits are interleaved.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.bdd.manager import BDD
from repro.bdd.mdd import MddManager, MvVar
from repro.bdd.ordering import affinity_order, validate_permutation
from repro.blifmv.ast import (
    ANY,
    Any_,
    BlifMvError,
    Model,
    PatternEntry,
    Table,
    ValueSet,
)
from repro.blifmv.hierarchy import Elaboration, InstanceInfo
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.network.quantify import Conjunct

NEXT_SUFFIX = "#n"


@dataclass
class LatchVars:
    """Symbolic variables of one latch: present state, next state, input wire."""

    name: str
    x: MvVar
    y: MvVar
    input_wire: str
    reset: Tuple[str, ...]


@dataclass
class EncodedNetwork:
    """A flat model encoded into BDD conjuncts.

    ``conjuncts`` together with existential quantification of every
    non-(x, y) variable defines the product transition relation
    ``T(x, y)`` of the c/s model.
    """

    model: Model
    mdd: MddManager
    latches: List[LatchVars]
    vars: Dict[str, MvVar]
    conjuncts: List[Conjunct]
    init: int
    order_method: str = "affinity"
    # Shared-shape encoding telemetry (set when encoding an Elaboration):
    # distinct (shape, aliasing) groups whose tables were actually
    # encoded, instances instantiated by variable substitution instead,
    # and per-instance conjunct index groups for symmetry-aware
    # quantification scheduling (None when the design has one instance).
    shapes_encoded: int = 0
    instances_substituted: int = 0
    conjunct_groups: Optional[List[List[int]]] = None

    @property
    def bdd(self) -> BDD:
        return self.mdd.bdd

    def nonstate_names(self) -> List[str]:
        state = {l.name for l in self.latches}
        state |= {l.name + NEXT_SUFFIX for l in self.latches}
        return [n for n in self.vars if n not in state]


def variable_order(model: Model) -> List[str]:
    """Affinity order of the model's variables (latch outputs anchor)."""
    groups: List[Set[str]] = [set(t.variables) for t in model.tables]
    groups += [{l.input, l.output} for l in model.latches]
    return affinity_order(groups, model.declared_variables())


def encode(
    model: Model,
    order_method: str = "affinity",
    config: EngineConfig = DEFAULT_CONFIG,
    order: Optional[List[str]] = None,
    elaboration: Optional[Elaboration] = None,
    stats=None,
) -> EncodedNetwork:
    """Encode a flat model (no subcircuits) into an :class:`EncodedNetwork`.

    ``order_method`` is ``"affinity"`` (interacting-FSM heuristic) or
    ``"declared"`` (first-use order; the naive baseline for the ordering
    ablation).  ``order`` overrides both with an explicit permutation of
    the model's declared variables (the ordering portfolio races such
    candidates; see :mod:`repro.ordering_portfolio`) — latch outputs in
    the order still get their present/next bits interleaved.  ``config``
    configures the kernel's self-management (see
    :class:`repro.bdd.manager.BDD`).

    ``elaboration`` (from :func:`repro.blifmv.elaborate`) switches on
    shared-shape encoding: table conjuncts are built once per distinct
    subcircuit shape and every further instance is instantiated by
    variable substitution over the representative's BDDs (see
    docs/hierarchy.md).  ``model`` must then be ``elaboration.flat``.
    ``stats`` is an optional :class:`repro.stats.EngineStats` receiving
    ``shapes_encoded`` / ``instances_substituted`` counters and tracer
    instants.
    """
    if model.subckts:
        raise BlifMvError("encode() needs a flat model; call flatten() first")
    if elaboration is not None and elaboration.flat is not model:
        raise BlifMvError("encode(): model must be elaboration.flat")
    model.validate()
    if order is not None:
        problem = validate_permutation(order, model.declared_variables())
        if problem is not None:
            raise BlifMvError(f"explicit variable order rejected: {problem}")
        order = list(order)
        order_method = "explicit"
    elif order_method == "affinity":
        if elaboration is not None and len(elaboration.instances) > 1:
            order = shape_variable_order(elaboration)
            order_method = "shape"
        else:
            order = variable_order(model)
    elif order_method == "declared":
        order = model.declared_variables()
    else:
        raise ValueError(f"unknown order_method {order_method!r}")

    mdd = MddManager(BDD(config))
    latch_of_output = {l.output: l for l in model.latches}
    variables: Dict[str, MvVar] = {}
    latch_vars: Dict[str, LatchVars] = {}
    for name in order:
        domain = model.domain(name)
        latch = latch_of_output.get(name)
        if latch is not None:
            x, y = mdd.declare_pair(name, name + NEXT_SUFFIX, domain)
            variables[name] = x
            variables[name + NEXT_SUFFIX] = y
            latch_vars[name] = LatchVars(
                name=name,
                x=x,
                y=y,
                input_wire=latch.input,
                reset=tuple(latch.reset),
            )
        else:
            variables[name] = mdd.declare(name, domain)

    conjuncts: List[Conjunct] = []
    bdd = mdd.bdd
    shapes_encoded = 0
    instances_substituted = 0
    if elaboration is not None and len(elaboration.instances) > 1:
        nodes, shapes_encoded, instances_substituted = _encode_tables_shared(
            mdd, variables, model, elaboration, stats
        )
    else:
        nodes = [encode_table(mdd, variables, model, t) for t in model.tables]
        if elaboration is not None:
            shapes_encoded = len(elaboration.instances)
    for index, (table, node) in enumerate(zip(model.tables, nodes)):
        label = "{}:{}".format(",".join(table.outputs), index)
        conjuncts.append(
            Conjunct(node=node, support=frozenset(bdd.support(node)), label=label)
        )

    # Latch conjuncts: next-state variable equals the input wire.  Under
    # a synchrony tree (extended c/s, paper §4) a latch only copies its
    # input when selected; otherwise it holds its present value.  When a
    # latch feeds itself (constant latch) the wire *is* the present state.
    update_conditions = _synchrony_conditions(mdd, model, conjuncts)
    latch_conjunct_index: Dict[str, int] = {}
    for lv in latch_vars.values():
        wire = variables[lv.input_wire]
        if wire.values != lv.y.values:
            raise BlifMvError(
                f"latch {lv.name!r}: domain of input {lv.input_wire!r} "
                f"{wire.values} differs from state domain {lv.y.values}"
            )
        move = lv.y.eq_var(wire)
        condition = update_conditions.get(lv.name)
        if condition is None:
            node = move
        else:
            hold = lv.y.eq_var(lv.x)
            node = bdd.ite(condition, move, hold)
        latch_conjunct_index[lv.name] = len(conjuncts)
        conjuncts.append(
            Conjunct(
                node=node,
                support=frozenset(bdd.support(node)),
                label=f"latch:{lv.name}",
            )
        )

    # Primary inputs of a non-closed model range freely over their domain;
    # their domain constraint must participate in quantification.
    for name in model.inputs:
        var = variables[name]
        if var.domain_constraint != bdd.true:
            conjuncts.append(
                Conjunct(
                    node=var.domain_constraint,
                    support=frozenset(bdd.support(var.domain_constraint)),
                    label=f"domain:{name}",
                )
            )

    init = bdd.true
    for lv in latch_vars.values():
        allowed = lv.reset if lv.reset else lv.x.values
        init = bdd.and_(init, lv.x.literal(allowed))

    conjunct_groups: Optional[List[List[int]]] = None
    if elaboration is not None and len(elaboration.instances) > 1:
        conjunct_groups = []
        for inst in elaboration.instances:
            group = list(range(inst.tables[0], inst.tables[1]))
            for latch in model.latches[inst.latches[0]:inst.latches[1]]:
                index = latch_conjunct_index.get(latch.output)
                if index is not None:
                    group.append(index)
            if group:
                conjunct_groups.append(group)
        if stats is not None:
            stats.bump("shapes_encoded", shapes_encoded)
            stats.bump("instances_substituted", instances_substituted)
            stats.tracer.instant(
                "encode.shared_shapes",
                cat="encode",
                instances=len(elaboration.instances),
                shapes_encoded=shapes_encoded,
                instances_substituted=instances_substituted,
            )

    return EncodedNetwork(
        model=model,
        mdd=mdd,
        latches=list(latch_vars.values()),
        vars=variables,
        conjuncts=conjuncts,
        init=init,
        order_method=order_method,
        shapes_encoded=shapes_encoded,
        instances_substituted=instances_substituted,
        conjunct_groups=conjunct_groups,
    )


def shape_variable_order(elaboration: Elaboration) -> List[str]:
    """Instance-contiguous affinity order for a shape-aware encode.

    Each shape gets one canonical internal layout (affinity order over
    the representative's own tables and latches, expressed in canonical
    positions); every instance then lays out its copy through its own
    rename map, in hierarchy pre-order.  Instances of one shape thus get
    identical internal bit layouts, which keeps the per-instance
    substitution maps order-preserving (the fast :meth:`BDD.rename`
    path) and clusters each instance's variables for the grouped
    quantification schedules.
    """
    flat = elaboration.flat
    order: List[str] = []
    seen: Set[str] = set()
    layouts: Dict[str, List[int]] = {}
    for inst in elaboration.instances:
        layout = layouts.get(inst.shape)
        if layout is None:
            pos = {name: i for i, name in enumerate(inst.canon)}
            local = {flat_name: pos[name] for name, flat_name in inst.rename.items()}
            groups: List[Set[int]] = []
            for table in flat.tables[inst.tables[0]:inst.tables[1]]:
                groups.append({local[v] for v in table.variables if v in local})
            for latch in flat.latches[inst.latches[0]:inst.latches[1]]:
                groups.append(
                    {p for p in (local.get(latch.input), local.get(latch.output))
                     if p is not None}
                )
            layout = affinity_order(groups, list(range(len(inst.canon))))
            layouts[inst.shape] = layout
        for position in layout:
            name = inst.rename[inst.canon[position]]
            if name not in seen:
                seen.add(name)
                order.append(name)
    for name in flat.declared_variables():
        if name not in seen:
            seen.add(name)
            order.append(name)
    return order


def _alias_pattern(inst: InstanceInfo) -> Tuple[int, ...]:
    """Canonical intra-instance aliasing of flat nets.

    Two canonical positions share a flat net when the parent ties two
    ports to one actual.  A representative whose ports are aliased has
    already identified the corresponding BDD variables, so it can only
    stand in for instances aliased the same way — the alias pattern is
    therefore part of the substitution group key.
    """
    first: Dict[str, int] = {}
    return tuple(
        first.setdefault(inst.rename[name], i) for i, name in enumerate(inst.canon)
    )


def _encode_tables_shared(
    mdd: MddManager,
    variables: Dict[str, MvVar],
    model: Model,
    elaboration: Elaboration,
    stats,
) -> Tuple[List[int], int, int]:
    """Encode flat tables once per shape; substitute for other instances.

    Returns ``(nodes, shapes_encoded, instances_substituted)`` where
    ``nodes[i]`` is the BDD of ``model.tables[i]``.  The first instance
    of each (shape digest, alias pattern) group is the representative:
    its tables run through :func:`encode_table`.  Every later instance
    builds one bit-level substitution map from the canonical-position
    bijection and instantiates each representative conjunct with
    :meth:`BDD.rename` (order-preserving fast path under the shape
    variable order, ``vector_compose`` fallback otherwise).  All
    conjuncts of one instance share the same map, so the kernel's
    computed cache acts as the shared per-shape sub-BDD cache.
    """
    bdd = mdd.bdd
    nodes: List[Optional[int]] = [None] * len(model.tables)
    representatives: Dict[Tuple[str, Tuple[int, ...]], InstanceInfo] = {}
    shapes_encoded = 0
    instances_substituted = 0
    for inst in elaboration.instances:
        lo, hi = inst.tables
        key = (inst.shape, _alias_pattern(inst))
        rep = representatives.get(key)
        if rep is None:
            representatives[key] = inst
            for index in range(lo, hi):
                nodes[index] = encode_table(mdd, variables, model, model.tables[index])
            shapes_encoded += 1
            if stats is not None:
                stats.tracer.instant(
                    "hierarchy.shape_encoded",
                    cat="encode",
                    model=inst.model,
                    shape=inst.shape[:12],
                    tables=hi - lo,
                )
            continue
        mapping: Dict[int, int] = {}
        for rep_name, inst_name in zip(rep.canon, inst.canon):
            rep_flat = rep.rename[rep_name]
            inst_flat = inst.rename[inst_name]
            if rep_flat == inst_flat:
                continue
            rep_var = variables.get(rep_flat)
            inst_var = variables.get(inst_flat)
            if rep_var is None or inst_var is None:
                continue
            for rep_bit, inst_bit in zip(rep_var.bits, inst_var.bits):
                mapping[rep_bit] = inst_bit
        nodes[lo:hi] = [
            bdd.rename(nodes[ri], mapping)
            for ri in range(rep.tables[0], rep.tables[1])
        ]
        instances_substituted += 1
        if stats is not None:
            stats.tracer.instant(
                "hierarchy.instance_substituted",
                cat="encode",
                instance=inst.path,
                model=inst.model,
                shape=inst.shape[:12],
                tables=hi - lo,
            )
    return [n for n in nodes], shapes_encoded, instances_substituted


def _synchrony_conditions(
    mdd: MddManager, model: Model, conjuncts: List[Conjunct]
) -> Dict[str, int]:
    """Per-latch update conditions from the model's synchrony tree.

    Every asynchronous (A) node gets a fresh non-deterministic selector
    variable choosing one branch; a latch updates when every A-ancestor
    selects its branch.  Selector domain constraints join the conjunct
    pool (they are non-state variables, quantified out with the rest).
    Returns an empty mapping for fully synchronous models.
    """
    if model.synchrony is None:
        return {}
    from repro.blifmv.synchrony import SyncLeaf, SyncNode, validate_tree

    validate_tree(model.synchrony, {latch.output for latch in model.latches})
    bdd = mdd.bdd
    conditions: Dict[str, int] = {}
    counter = [0]

    def walk(tree, condition: int) -> None:
        if isinstance(tree, SyncLeaf):
            previous = conditions.get(tree.latch, bdd.false)
            conditions[tree.latch] = bdd.or_(previous, condition)
            return
        assert isinstance(tree, SyncNode)
        if tree.label == "S" or len(tree.children) == 1:
            for child in tree.children:
                walk(child, condition)
            return
        selector = mdd.declare(
            f"#sel{counter[0]}", [str(i) for i in range(len(tree.children))]
        )
        counter[0] += 1
        if selector.domain_constraint != bdd.true:
            conjuncts.append(
                Conjunct(
                    node=selector.domain_constraint,
                    support=frozenset(bdd.support(selector.domain_constraint)),
                    label=f"domain:{selector.name}",
                )
            )
        for index, child in enumerate(tree.children):
            walk(child, bdd.and_(condition, selector.literal(str(index))))

    walk(model.synchrony, bdd.true)
    return conditions


def encode_table(
    mdd: MddManager, variables: Dict[str, MvVar], model: Model, table: Table
) -> int:
    """Characteristic function of one (possibly non-deterministic) table.

    Every row becomes one code mask per column (``-`` admits every valid
    code, a value set its codes) and the rows go to the direct builder
    :meth:`MddManager.relation`, which allocates only nodes of the final
    relation.  An ``=x`` output expands into one row per value ``v`` of
    ``x`` with ``x = v`` and the output ``= v``.  A ``.default`` row
    adds ``default & ~cover``, where ``cover`` is the relation of the
    rows' input parts and ``default`` the default outputs under any
    input, both made by the same builder.  Masks admit valid codes only,
    so the result needs no domain-constraint conjuncts.
    """
    columns = [variables[name] for name in table.variables]
    boxes: List[Tuple[int, ...]] = []
    for row in table.rows:
        boxes.extend(_row_boxes(columns, row.inputs + row.outputs, table))
    rows = mdd.relation(columns, boxes)
    if table.default is None:
        return rows
    width = len(table.inputs)
    cover = mdd.relation(
        columns[:width],
        [box for row in table.rows for box in _row_boxes(columns, row.inputs, table)],
    )
    default = mdd.relation(
        columns, _row_boxes(columns, (ANY,) * width + tuple(table.default), table)
    )
    bdd = mdd.bdd
    return bdd.or_(rows, bdd.diff(default, cover))


def _row_boxes(
    columns: List[MvVar], entries: Sequence[PatternEntry], table: Table
) -> List[Tuple[int, ...]]:
    """One code mask per column for a row's leading ``entries``; a row
    with ``=x`` outputs becomes one such row per value of each ``x``."""
    masks: List[int] = []
    links: List[Tuple[int, int]] = []  # (output column, input column)
    for index, (var, entry) in enumerate(zip(columns, entries)):
        if isinstance(entry, str):
            masks.append(1 << var.code_of(entry))
        elif isinstance(entry, Any_):
            masks.append(var.all_codes)
        elif isinstance(entry, ValueSet):
            masks.append(var.mask(entry.values))
        else:  # Eq
            masks.append(var.all_codes)
            links.append((index, table.inputs.index(entry.name)))
    if not links:
        return [tuple(masks)]
    sources = list(dict.fromkeys(source for _, source in links))
    boxes = []
    for codes in itertools.product(
        *([c for c in range(columns[s].nvalues) if masks[s] >> c & 1] for s in sources)
    ):
        box = list(masks)
        code_of = dict(zip(sources, codes))
        for source, code in code_of.items():
            box[source] = 1 << code
        for output, source in links:
            box[output] = 1 << code_of[source]
        boxes.append(tuple(box))
    return boxes


def is_deterministic_table(
    mdd: MddManager, variables: Dict[str, MvVar], model: Model, table: Table
) -> bool:
    """True iff the table defines at most one output pattern per input.

    A BLIF-MV description with only deterministic tables is synthesizable
    hardware (paper §4).
    """
    bdd = mdd.bdd
    relation = encode_table(mdd, variables, model, table)
    in_bits: List[int] = []
    for name in table.inputs:
        in_bits.extend(variables[name].bits)
    out_vars = [variables[name] for name in table.outputs]
    out_bits = [b for v in out_vars for b in v.bits]
    care_in = [b for b in in_bits]
    # For each input pattern the number of allowed outputs must be <= 1:
    # count pairs and count patterns with at least one output.
    pairs = bdd.sat_count(relation, care_in + out_bits)
    some_output = bdd.exist(out_bits, relation)
    patterns = bdd.sat_count(some_output, care_in)
    return pairs == patterns
