"""Explicit Kripke structure of a flat BLIF-MV model, by enumeration.

The reference semantics against which the symbolic engines are checked.
Nothing here touches a BDD: states are tuples of latch values, table
membership is decided by walking the rows of the AST directly, and the
transition relation is materialized by enumerating every assignment of
the non-state variables.  Obviously correct, exponentially slow — the
constructor refuses models whose total assignment space exceeds ``cap``
(default 2^14), which is exactly the regime the fuzzer generates.

Semantics mirrored from the symbolic stack:

* a total assignment satisfies a table iff some explicit row matches its
  inputs *and* outputs, or no explicit row matches the inputs and the
  ``.default`` outputs match (:func:`repro.network.encode.encode_table`),
* each latch's next value is the current value of its input wire (fully
  synchronous c/s semantics; synchrony trees are rejected),
* atoms over combinational nets use the "may" reading: the atom holds in
  a state iff *some* resolution of the tables makes it true
  (:meth:`repro.ctl.modelcheck.ModelChecker._atom_states`).
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.blifmv.ast import Any_, Eq, Model, Table, ValueSet

State = Tuple[str, ...]
Assignment = Dict[str, str]

DEFAULT_CAP = 1 << 14


class OracleCapExceeded(Exception):
    """The model's assignment space is too large for explicit enumeration."""


def _entry_matches(entry, value: str, env: Assignment) -> bool:
    """Does a single row pattern entry accept ``value`` under ``env``?"""
    if isinstance(entry, Any_):
        return True
    if isinstance(entry, Eq):
        return value == env[entry.name]
    if isinstance(entry, ValueSet):
        return value in entry.values
    return value == entry


def table_satisfied(table: Table, env: Assignment) -> bool:
    """Relation membership of a total assignment, straight off the AST."""
    input_covered = False
    for row in table.rows:
        if all(
            _entry_matches(e, env[name], env)
            for e, name in zip(row.inputs, table.inputs)
        ):
            input_covered = True
            if all(
                _entry_matches(e, env[name], env)
                for e, name in zip(row.outputs, table.outputs)
            ):
                return True
    if not input_covered and table.default is not None:
        return all(
            _entry_matches(e, env[name], env)
            for e, name in zip(table.default, table.outputs)
        )
    return False


class ExplicitKripke:
    """Explicit-state view of a flat, fully synchronous BLIF-MV model.

    ``states`` enumerates every *valid* latch valuation (reachable or
    not) because the symbolic checkers label the full valid state space,
    not just the reachable part.  ``resolutions[state]`` holds every
    total assignment of the non-state variables consistent with all
    tables — the explicit counterpart of existentially quantifying the
    combinational logic.
    """

    def __init__(self, model: Model, cap: int = DEFAULT_CAP):
        if model.subckts:
            raise ValueError("ExplicitKripke needs a flat model")
        if model.synchrony is not None:
            raise ValueError("ExplicitKripke only supports synchronous models")
        model.validate()
        self.model = model
        self.latch_names: List[str] = [l.output for l in model.latches]
        self.latch_input: Dict[str, str] = {
            l.output: l.input for l in model.latches
        }
        self.domains: Dict[str, Tuple[str, ...]] = {
            name: model.domain(name) for name in model.declared_variables()
        }
        state_vars = set(self.latch_names)
        self.nonstate_names: List[str] = [
            n for n in self.domains if n not in state_vars
        ]

        space = 1
        for name in self.domains:
            space *= len(self.domains[name])
            if space > cap:
                raise OracleCapExceeded(
                    f"assignment space of {model.name!r} exceeds cap {cap}"
                )

        self.states: List[State] = [
            tuple(vals)
            for vals in itertools.product(
                *(self.domains[n] for n in self.latch_names)
            )
        ]
        self._index = {s: i for i, s in enumerate(self.states)}

        self.init_states: FrozenSet[State] = frozenset(
            tuple(vals)
            for vals in itertools.product(
                *(
                    tuple(l.reset) if l.reset else self.domains[l.output]
                    for l in model.latches
                )
            )
        )

        # resolutions[state] = all table-consistent total assignments.
        self.resolutions: Dict[State, List[Assignment]] = {}
        # successors[state] = set of next states.
        self.successors: Dict[State, Set[State]] = {}
        nonstate_domains = [self.domains[n] for n in self.nonstate_names]
        for state in self.states:
            base = dict(zip(self.latch_names, state))
            envs: List[Assignment] = []
            succs: Set[State] = set()
            for vals in itertools.product(*nonstate_domains):
                env = dict(base)
                env.update(zip(self.nonstate_names, vals))
                if all(table_satisfied(t, env) for t in model.tables):
                    envs.append(env)
                    succs.add(
                        tuple(env[self.latch_input[l]] for l in self.latch_names)
                    )
            self.resolutions[state] = envs
            self.successors[state] = succs

    # ------------------------------------------------------------------

    def predecessors(self) -> Dict[State, Set[State]]:
        """Inverted transition relation."""
        pred: Dict[State, Set[State]] = {s: set() for s in self.states}
        for src, dsts in self.successors.items():
            for dst in dsts:
                pred[dst].add(src)
        return pred

    def edges(self) -> Set[Tuple[State, State]]:
        """All transitions as (src, dst) pairs."""
        return {
            (src, dst)
            for src, dsts in self.successors.items()
            for dst in dsts
        }

    def reachable(self) -> Tuple[Set[State], List[Set[State]]]:
        """BFS reachable set plus the depth rings (ring 0 = initial)."""
        reached: Set[State] = set(self.init_states)
        rings: List[Set[State]] = [set(self.init_states)]
        frontier = set(self.init_states)
        while frontier:
            step: Set[State] = set()
            for s in frontier:
                step |= self.successors[s]
            frontier = step - reached
            if frontier:
                reached |= frontier
                rings.append(set(frontier))
        return reached, rings

    # ------------------------------------------------------------------

    def atom_states(self, var: str, values: Iterable[str]) -> Set[State]:
        """States satisfying ``var in values`` ("may" semantics on nets)."""
        wanted = set(values)
        if var in self.latch_input:  # a latch output (state variable)
            idx = self.latch_names.index(var)
            return {s for s in self.states if s[idx] in wanted}
        if var not in self.domains:
            raise KeyError(f"unknown variable {var!r}")
        return {
            s
            for s in self.states
            if any(env[var] in wanted for env in self.resolutions[s])
        }

    def pred_states(self, pred: Dict[str, Sequence[str]]) -> Set[State]:
        """States matching a conjunction of latch-valuation constraints."""
        out = set(self.states)
        for var, values in pred.items():
            out &= self.atom_states(var, values)
        return out

    def state_of(self, valuation: Dict[str, str]) -> Optional[State]:
        """Tuple form of a latch-name valuation (None if any latch missing)."""
        try:
            return tuple(valuation[l] for l in self.latch_names)
        except KeyError:
            return None
