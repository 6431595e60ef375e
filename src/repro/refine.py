"""Hierarchical verification: refinement checking (paper §8 item 3).

    "As verification becomes more widely accepted, it will be applied at
    higher levels of abstraction.  We are working on techniques that
    compare lower level designs with higher level ones to guarantee that
    re-evaluation of properties proved at higher levels is not needed."

The top-down methodology of §2 refines a design by *removing*
non-determinism; as long as no new behaviour is added, universal
properties proved on the abstract model transfer to the refinement.
:func:`check_refinement` verifies exactly that, by computing the
greatest simulation relation between the implementation and the
specification over shared observables:

* ``H0(r, a)`` — implementation state ``r`` and specification state
  ``a`` agree on every observable valuation;
* ``H(r, a)`` — greatest fixpoint of: every implementation move
  ``r -> r'`` is matched by some specification move ``a -> a'`` with
  ``H(r', a')``;
* refinement holds iff every implementation initial state is related to
  some specification initial state.

Simulation implies trace containment (and is equivalent to it when the
specification is deterministic on the observables), so a passing check
licenses transferring all proved ∀-properties down the hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set

from repro.blifmv.ast import BlifMvError, Model
from repro.network.fsm import SymbolicFsm
from repro.network.product import _merge_into
from repro.network.quantify import Conjunct, multiply_and_quantify

IMPL = "impl."
SPEC = "spec."


@dataclass
class RefinementResult:
    """Outcome of a refinement check."""

    holds: bool
    relation: int
    fsm: SymbolicFsm
    iterations: int
    unmatched_initial: Optional[Dict[str, str]] = None


def _prefixed(model: Model, prefix: str) -> Dict[str, str]:
    return {name: prefix + name for name in model.declared_variables()}


def _side_bits(fsm: SymbolicFsm, prefix: str):
    """(x bits, y bits, rename maps, latch list) of one side."""
    latches = [l for l in fsm.latches if l.name.startswith(prefix)]
    x_bits = [b for l in latches for b in l.x.bits]
    y_bits = [b for l in latches for b in l.y.bits]
    x_to_y = fsm.mdd.rename_map((l.x, l.y) for l in latches)
    y_to_x = fsm.mdd.rename_map((l.y, l.x) for l in latches)
    return latches, x_bits, y_bits, x_to_y, y_to_x


def _side_transition(fsm: SymbolicFsm, prefix: str, keep: Set[int]) -> int:
    bdd = fsm.bdd
    pool = [
        c for c in fsm.conjuncts
        if any(fsm.bdd.var_name(v).startswith(prefix) for v in c.support)
    ]
    quantify: Set[int] = set()
    for c in pool:
        quantify |= set(c.support)
    quantify -= keep
    return multiply_and_quantify(bdd, pool, quantify, method="greedy").node


def _observable_predicate(
    fsm: SymbolicFsm, prefix: str, net: str, value: str, x_bits: Set[int]
) -> int:
    """May-projection of ``net=value`` onto the side's present state."""
    bdd = fsm.bdd
    var = fsm.var(prefix + net)
    if set(var.bits) <= x_bits:
        return var.literal(value)
    literal = var.literal(value)
    y_like = {
        b for latch in fsm.latches for b in latch.y.bits
    }
    pool = [
        c for c in fsm.conjuncts
        if not (set(c.support) & y_like)
        and any(bdd.var_name(v).startswith(prefix) for v in c.support)
    ]
    pool = list(pool) + [
        Conjunct(node=literal, support=frozenset(bdd.support(literal)),
                 label="atom")
    ]
    quantify: Set[int] = set()
    for c in pool:
        quantify |= set(c.support)
    quantify -= x_bits
    return multiply_and_quantify(bdd, pool, quantify, method="greedy").node


def check_refinement(
    implementation: Model,
    specification: Model,
    observables: Sequence[str],
    max_iterations: int = 10_000,
) -> RefinementResult:
    """Does ``implementation`` refine ``specification`` on ``observables``?

    Both models must be flat and closed; ``observables`` are net names
    present in both, with identical domains.  Returns the greatest
    simulation relation (a BDD over both machines' present-state bits)
    along with the verdict.
    """
    if implementation.subckts or specification.subckts:
        raise BlifMvError("check_refinement needs flat models")
    for net in observables:
        for model, role in ((implementation, "implementation"),
                            (specification, "specification")):
            if net not in model.declared_variables():
                raise BlifMvError(f"observable {net!r} missing from {role}")
        if implementation.domain(net) != specification.domain(net):
            raise BlifMvError(f"observable {net!r} has mismatched domains")

    merged = Model(name=f"{implementation.name}<= {specification.name}")
    _merge_into(merged, implementation, rename=_prefixed(implementation, IMPL))
    _merge_into(merged, specification, rename=_prefixed(specification, SPEC))
    fsm = SymbolicFsm(merged)
    bdd = fsm.bdd

    impl_latches, ix, iy, ix2y, iy2x = _side_bits(fsm, IMPL)
    spec_latches, sx, sy, sx2y, sy2x = _side_bits(fsm, SPEC)
    t_impl = _side_transition(fsm, IMPL, set(ix) | set(iy))
    t_spec = _side_transition(fsm, SPEC, set(sx) | set(sy))
    fsm.trans = bdd.and_(t_impl, t_spec)  # for callers wanting the product

    # H0: equal observable valuations (may-semantics per value).
    relation = bdd.and_(
        fsm.mdd.domain_constraint(l.x for l in impl_latches),
        fsm.mdd.domain_constraint(l.x for l in spec_latches),
    )
    for net in observables:
        for value in implementation.domain(net):
            p_impl = _observable_predicate(fsm, IMPL, net, value, set(ix))
            p_spec = _observable_predicate(fsm, SPEC, net, value, set(sx))
            relation = bdd.and_(relation, bdd.xnor(p_impl, p_spec))

    iy_cube = bdd.cube(iy)
    sy_cube = bdd.cube(sy)
    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        primed = bdd.rename(bdd.rename(relation, ix2y), sx2y)
        # ok(x_i, x_s, y_i): some spec move lands in the relation
        ok = bdd.and_exists(t_spec, primed, sy_cube)
        # bad(x_i, x_s): some impl move cannot be matched
        bad = bdd.and_exists(t_impl, bdd.not_(ok), iy_cube)
        refined = bdd.diff(relation, bad)
        if refined == relation:
            break
        relation = refined

    # Initial coverage: every impl init relates to some spec init.
    init_impl = bdd.conj(
        l.x.literal(list(l.reset) if l.reset else list(l.x.values))
        for l in impl_latches
    )
    init_spec = bdd.conj(
        l.x.literal(list(l.reset) if l.reset else list(l.x.values))
        for l in spec_latches
    )
    covered = bdd.exist(sx, bdd.and_(init_spec, relation))
    missing = bdd.diff(init_impl, covered)
    unmatched = None
    if missing != bdd.false:
        cube = bdd.pick_cube(missing, ix)
        unmatched = {
            l.name[len(IMPL):]: l.x.decode(cube) for l in impl_latches
        }
    return RefinementResult(
        holds=missing == bdd.false,
        relation=relation,
        fsm=fsm,
        iterations=iterations,
        unmatched_initial=unmatched,
    )
