"""Hierarchy elaboration: flatten a multi-model design into one model.

HSIS descriptions are hierarchical (``.subckt``); verification operates
on the flattened network of relations and latches.  Flattening renames
each instance's internal variables with an ``instance.`` prefix and
splices formal ports to the parent's actual nets.

Flattening is purely structural: non-determinism, multi-valued domains
and reset values are preserved verbatim.

:func:`elaborate` is the shape-aware sibling of :func:`flatten`: it
produces the same flat model *plus* the instance table that
:func:`flatten` used to discard — one :class:`InstanceInfo` per inlined
model, carrying the local→flat net rename, the contiguous slices of the
flat table/latch lists the instance owns, and a canonical *shape
signature* (:func:`shape_signature`) hashing the model's structure
modulo net names.  Two instances with equal signatures are isomorphic
subnetworks: the encoder (:mod:`repro.network.encode`) builds one
representative's conjuncts per shape and instantiates every other copy
by variable substitution.  See docs/hierarchy.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.blifmv.ast import (
    Any_,
    BlifMvError,
    Design,
    Eq,
    Latch,
    Model,
    PatternEntry,
    Row,
    Table,
    ValueSet,
)
from repro.parallel.atomic import json_digest


@dataclass
class InstanceInfo:
    """One inlined model instance inside an :class:`Elaboration`.

    ``path`` is the dotted instance path ("" for the root); ``canon``
    lists the instance model's local nets in canonical (first-use)
    order — the same order for every model with the same ``shape``
    digest, so position ``i`` of two isomorphic instances names the
    same structural net.  ``rename`` maps each local net to its flat
    name; ``tables`` / ``latches`` are the ``[lo, hi)`` slices of the
    flat model's table/latch lists holding this instance's own entries
    (children occupy later, disjoint slices).
    """

    path: str
    model: str
    shape: str
    canon: Tuple[str, ...]
    rename: Dict[str, str]
    tables: Tuple[int, int]
    latches: Tuple[int, int]


@dataclass
class Elaboration:
    """A flattened design that remembers where its instances came from."""

    flat: Model
    instances: List[InstanceInfo] = field(default_factory=list)

    def shape_groups(self) -> Dict[str, List[int]]:
        """Shape digest -> instance indices, in pre-order (rep first)."""
        groups: Dict[str, List[int]] = {}
        for index, inst in enumerate(self.instances):
            groups.setdefault(inst.shape, []).append(index)
        return groups


def flatten(design: Design, root: Optional[str] = None) -> Model:
    """Flatten ``design`` into a single model with no subcircuits.

    The result keeps the root's name; instance internals are prefixed
    ``instance.``.  Recursion depth equals the hierarchy depth;
    instantiation cycles are rejected.
    """
    return _elaborate(design, root, want_shapes=False).flat


def elaborate(design: Design, root: Optional[str] = None) -> Elaboration:
    """Flatten ``design`` keeping the instance table and shape signatures."""
    return _elaborate(design, root, want_shapes=True)


def _elaborate(design: Design, root: Optional[str], want_shapes: bool) -> Elaboration:
    design.validate()
    root_name = root if root is not None else design.root
    if root_name is None or root_name not in design.models:
        raise BlifMvError(f"unknown root model {root_name!r}")
    flat = Model(name=root_name)
    root_model = design.models[root_name]
    flat.inputs = list(root_model.inputs)
    flat.outputs = list(root_model.outputs)
    instances: List[InstanceInfo] = []
    used: Set[str] = set()
    _inline(
        design, root_model, prefix="", target=flat, stack=[root_name],
        instances=instances, used=used,
    )
    flat.validate()
    if want_shapes:
        cache: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
        for inst in instances:
            digest, _canon = _signature(design, inst.model, cache, [])
            inst.shape = digest
    return Elaboration(flat=flat, instances=instances)


def _rename(name: str, prefix: str, port_map: Dict[str, str]) -> str:
    if name in port_map:
        return port_map[name]
    return prefix + name


def _rename_entry(entry: PatternEntry, prefix: str, port_map: Dict[str, str]) -> PatternEntry:
    if isinstance(entry, Eq):
        return Eq(_rename(entry.name, prefix, port_map))
    return entry


def _inline(
    design: Design,
    model: Model,
    prefix: str,
    target: Model,
    stack: List[str],
    port_map: Optional[Dict[str, str]] = None,
    instances: Optional[List[InstanceInfo]] = None,
    used: Optional[Set[str]] = None,
) -> None:
    port_map = port_map or {}
    local_names = model.declared_variables()
    rename_map = {n: _rename(n, prefix, port_map) for n in local_names}
    if used is not None:
        used.update(rename_map.values())
    table_lo = len(target.tables)
    latch_lo = len(target.latches)

    if model.synchrony is not None:
        from repro.blifmv.synchrony import SyncLeaf, SyncNode

        def rename_tree(tree):
            if isinstance(tree, SyncLeaf):
                return SyncLeaf(_rename(tree.latch, prefix, port_map))
            return SyncNode(tree.label,
                            tuple(rename_tree(c) for c in tree.children))

        if target.synchrony is not None:
            raise BlifMvError(
                "only one model in the hierarchy may carry a synchrony tree"
            )
        target.synchrony = rename_tree(model.synchrony)

    # First writer wins: a child port net renames onto the parent's
    # actual, and the parent's entry (the instantiating line) is the one
    # error messages should keep pointing at.
    for net, location in model.sources.items():
        target.sources.setdefault(_rename(net, prefix, port_map), location)

    for var, domain in model.domains.items():
        new_name = _rename(var, prefix, port_map)
        existing = target.domains.get(new_name)
        if existing is not None and existing != domain:
            raise BlifMvError(
                f"conflicting domains for {new_name!r}: {existing} vs {domain}"
            )
        target.domains[new_name] = domain

    # The root's rename is the identity (no prefix, no ports), so the
    # flat model shares its (immutable) rows; only the ``=name`` entries
    # of an instance's rows need renaming.
    identity = not prefix and not port_map
    for table in model.tables:
        if identity:
            rows = list(table.rows)
            default = table.default
        else:
            rows = [
                Row(
                    inputs=tuple(
                        _rename_entry(e, prefix, port_map) for e in row.inputs
                    ),
                    outputs=tuple(
                        _rename_entry(e, prefix, port_map) for e in row.outputs
                    ),
                )
                for row in table.rows
            ]
            default = None if table.default is None else tuple(
                _rename_entry(e, prefix, port_map) for e in table.default
            )
        target.tables.append(
            Table(
                inputs=[_rename(v, prefix, port_map) for v in table.inputs],
                outputs=[_rename(v, prefix, port_map) for v in table.outputs],
                rows=rows,
                default=default,
            )
        )

    for latch in model.latches:
        target.latches.append(
            Latch(
                input=_rename(latch.input, prefix, port_map),
                output=_rename(latch.output, prefix, port_map),
                reset=list(latch.reset),
            )
        )

    if instances is not None:
        instances.append(
            InstanceInfo(
                path=prefix[:-1] if prefix else "",
                model=model.name,
                shape="",
                canon=tuple(local_names),
                rename=rename_map,
                tables=(table_lo, table_lo + len(model.tables)),
                latches=(latch_lo, latch_lo + len(model.latches)),
            )
        )

    for sub in model.subckts:
        if sub.model in stack:
            raise BlifMvError(
                "instantiation cycle: " + " -> ".join(stack + [sub.model])
            )
        child = design.models[sub.model]
        child_prefix = prefix + sub.instance + "."
        child_ports: Dict[str, str] = {}
        for formal in list(child.inputs) + list(child.outputs):
            if formal in sub.connections:
                child_ports[formal] = _rename(sub.connections[formal], prefix, port_map)
            else:
                # Dangling port: becomes a fresh prefixed net — unless a
                # real net of the same flattened name already exists, in
                # which case the "fresh" net would silently merge drivers.
                fresh = child_prefix + formal
                if used is not None and fresh in used:
                    raise BlifMvError(
                        f"model {model.name}: dangling port "
                        f"{sub.instance}.{formal} collides with existing "
                        f"net {fresh!r}"
                    )
                child_ports[formal] = fresh
        _inline(
            design,
            child,
            prefix=child_prefix,
            target=target,
            stack=stack + [sub.model],
            port_map=child_ports,
            instances=instances,
            used=used,
        )


# ----------------------------------------------------------------------
# Shape signatures
# ----------------------------------------------------------------------


def shape_signature(design: Design, model_name: str) -> Tuple[str, Tuple[str, ...]]:
    """Canonical shape of one model: ``(digest, canonical net order)``.

    The digest hashes the model's structure with every net name replaced
    by its position in the canonical (first-use) order — tables, rows,
    defaults, domains, latches, resets, the synchrony tree, and child
    subcircuits by *their* shape digests plus the positional connection
    pattern.  Two models are isomorphic modulo net (and model) names iff
    their digests are equal, and position ``i`` of their canonical
    orders then names the same structural net — which is exactly the
    bijection substitution-based instantiation needs.
    """
    if model_name not in design.models:
        raise BlifMvError(f"unknown model {model_name!r}")
    return _signature(design, model_name, {}, [])


def _signature(
    design: Design,
    name: str,
    cache: Dict[str, Tuple[str, Tuple[str, ...]]],
    stack: List[str],
) -> Tuple[str, Tuple[str, ...]]:
    if name in cache:
        return cache[name]
    if name in stack:
        raise BlifMvError(
            "instantiation cycle: " + " -> ".join(stack + [name])
        )
    if name not in design.models:
        raise BlifMvError(f"unknown model {name!r}")
    model = design.models[name]
    canon = tuple(model.declared_variables())
    pos = {n: i for i, n in enumerate(canon)}

    def entry_key(entry: PatternEntry):
        if isinstance(entry, Any_):
            return ["*"]
        if isinstance(entry, Eq):
            return ["=", pos[entry.name]]
        if isinstance(entry, ValueSet):
            return ["s", list(entry.values)]
        return ["v", entry]

    stack.append(name)
    try:
        subckts = []
        for sub in model.subckts:
            child_digest, _ = _signature(design, sub.model, cache, stack)
            child = design.models[sub.model]
            ports = list(child.inputs) + list(child.outputs)
            subckts.append(
                [
                    child_digest,
                    [
                        pos[sub.connections[f]] if f in sub.connections else None
                        for f in ports
                    ],
                ]
            )
    finally:
        stack.pop()
    payload = {
        "inputs": [pos[n] for n in model.inputs],
        "outputs": [pos[n] for n in model.outputs],
        "domains": [list(model.domain(n)) for n in canon],
        "tables": [
            [
                [pos[v] for v in t.inputs],
                [pos[v] for v in t.outputs],
                [
                    [[entry_key(e) for e in r.inputs],
                     [entry_key(e) for e in r.outputs]]
                    for r in t.rows
                ],
                None if t.default is None
                else [entry_key(e) for e in t.default],
            ]
            for t in model.tables
        ],
        "latches": [
            [pos[l.input], pos[l.output], list(l.reset)] for l in model.latches
        ],
        "synchrony": _sync_key(model.synchrony, pos),
        "subckts": subckts,
    }
    cache[name] = (json_digest(payload), canon)
    return cache[name]


def _sync_key(tree, pos: Dict[str, int]):
    if tree is None:
        return None
    from repro.blifmv.synchrony import SyncLeaf

    if isinstance(tree, SyncLeaf):
        return ["leaf", pos[tree.latch]]
    return [tree.label, [_sync_key(c, pos) for c in tree.children]]


def instance_tree(design: Design, root: Optional[str] = None) -> List[str]:
    """Human-readable instance tree (one line per instance)."""
    root_name = root if root is not None else design.root
    if root_name is None:
        return []
    if root_name not in design.models:
        raise BlifMvError(f"unknown root model {root_name!r}")
    lines: List[str] = []

    def walk(model_name: str, path: str, depth: int) -> None:
        lines.append("  " * depth + f"{path or 'top'}: {model_name}")
        for sub in design.models[model_name].subckts:
            if sub.model not in design.models:
                raise BlifMvError(
                    f"model {model_name}: unknown subcircuit model {sub.model!r}"
                )
            walk(sub.model, f"{path}.{sub.instance}" if path else sub.instance, depth + 1)

    walk(root_name, "", 0)
    return lines
