"""Property automata (edge-Rabin acceptors) for language containment.

A property is a deterministic, complete automaton whose edges are guarded
by predicates over system nets; acceptance is an edge-Rabin condition
(paper §5.2).  The classic invariance property of Figure 2 — "out1 and
out2 are never asserted together" — is the automaton::

    good --[!(out1=1 & out2=1)]--> good      (accepting: stay in good)
    good --[  out1=1 & out2=1 ]--> bad
    bad  --[ true ]--> bad

with acceptance "remain in ``good`` forever" (the dotted box of the
figure), i.e. the Rabin pair (fin = edges leaving/outside good,
inf = edges inside good).

Guards form a tiny boolean expression language over multi-valued atoms
``var in {values}``; they are compiled to BDDs against the system's
encoded network, so automata can watch latches *and* combinational nets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.automata.fairness import RabinPair
from repro.bdd.mdd import MvVar


class AutomatonError(Exception):
    """Raised on ill-formed automata (bad states, nondeterminism, ...)."""


# ----------------------------------------------------------------------
# Guards
# ----------------------------------------------------------------------


class Guard:
    """Boolean expression over multi-valued atoms; compiled per-FSM."""

    def to_bdd(self, fsm) -> int:
        raise NotImplementedError

    def __and__(self, other: "Guard") -> "Guard":
        return GAnd((self, other))

    def __or__(self, other: "Guard") -> "Guard":
        return GOr((self, other))

    def __invert__(self) -> "Guard":
        return GNot(self)


@dataclass(frozen=True)
class GTrue(Guard):
    def to_bdd(self, fsm) -> int:
        return fsm.bdd.true

    def __repr__(self) -> str:
        return "true"


TRUE_GUARD = GTrue()


@dataclass(frozen=True)
class GAtom(Guard):
    """``var in values`` over a system net."""

    var: str
    values: Tuple[str, ...]

    def to_bdd(self, fsm) -> int:
        return fsm.var(self.var).literal(self.values)

    def __repr__(self) -> str:
        if len(self.values) == 1:
            return f"{self.var}={self.values[0]}"
        return f"{self.var}in{{{','.join(self.values)}}}"


@dataclass(frozen=True)
class GAnd(Guard):
    parts: Tuple[Guard, ...]

    def to_bdd(self, fsm) -> int:
        return fsm.bdd.conj(p.to_bdd(fsm) for p in self.parts)

    def __repr__(self) -> str:
        return "(" + " & ".join(map(repr, self.parts)) + ")"


@dataclass(frozen=True)
class GOr(Guard):
    parts: Tuple[Guard, ...]

    def to_bdd(self, fsm) -> int:
        return fsm.bdd.disj(p.to_bdd(fsm) for p in self.parts)

    def __repr__(self) -> str:
        return "(" + " | ".join(map(repr, self.parts)) + ")"


@dataclass(frozen=True)
class GNot(Guard):
    part: Guard

    def to_bdd(self, fsm) -> int:
        return fsm.bdd.not_(self.part.to_bdd(fsm))

    def __repr__(self) -> str:
        return f"!{self.part!r}"


def atom(var: str, values) -> GAtom:
    """Guard atom ``var in values`` (single value or iterable)."""
    if isinstance(values, (str, int)):
        values = (str(values),)
    return GAtom(var, tuple(str(v) for v in values))


# ----------------------------------------------------------------------
# Automaton structure
# ----------------------------------------------------------------------


@dataclass
class Edge:
    """A guarded transition ``src --guard--> dst``."""

    src: str
    dst: str
    guard: Guard = TRUE_GUARD


EdgeKey = Tuple[str, str]


@dataclass
class Automaton:
    """A property automaton with edge-Rabin acceptance.

    ``rabin_pairs`` lists acceptance pairs as sets of ``(src, dst)`` state
    pairs: a run is accepted iff for some pair it takes ``fin`` edges
    finitely often and ``inf`` edges infinitely often.  Helper
    constructors cover the common shapes (invariance, recurrence).
    """

    name: str
    states: List[str]
    initial: List[str]
    edges: List[Edge] = field(default_factory=list)
    rabin_pairs: List[Tuple[FrozenSet[EdgeKey], FrozenSet[EdgeKey]]] = field(
        default_factory=list
    )

    def __post_init__(self) -> None:
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise AutomatonError(f"{self.name}: duplicate states")
        for s in self.initial:
            if s not in state_set:
                raise AutomatonError(f"{self.name}: unknown initial state {s!r}")
        for e in self.edges:
            if e.src not in state_set or e.dst not in state_set:
                raise AutomatonError(
                    f"{self.name}: edge {e.src}->{e.dst} uses unknown state"
                )

    # -- construction helpers ------------------------------------------

    def add_edge(self, src: str, dst: str, guard: Guard = TRUE_GUARD) -> "Automaton":
        if src not in self.states or dst not in self.states:
            raise AutomatonError(f"{self.name}: edge {src}->{dst} uses unknown state")
        self.edges.append(Edge(src, dst, guard))
        return self

    def edges_within(self, states: Iterable[str]) -> FrozenSet[EdgeKey]:
        """All (src, dst) pairs with both endpoints in ``states``."""
        inside = set(states)
        return frozenset(
            (e.src, e.dst) for e in self.edges if e.src in inside and e.dst in inside
        )

    def edges_leaving(self, states: Iterable[str]) -> FrozenSet[EdgeKey]:
        """All (src, dst) pairs not fully inside ``states``."""
        inside = set(states)
        return frozenset(
            (e.src, e.dst)
            for e in self.edges
            if not (e.src in inside and e.dst in inside)
        )

    def accept_invariance(self, good_states: Iterable[str]) -> "Automaton":
        """Acceptance "stay inside ``good_states`` forever" (Figure 2)."""
        good = list(good_states)
        self.rabin_pairs.append(
            (self.edges_leaving(good), self.edges_within(good))
        )
        return self

    def accept_recurrence(self, recur_edges: Iterable[EdgeKey]) -> "Automaton":
        """Acceptance "take ``recur_edges`` infinitely often" (Buchi)."""
        self.rabin_pairs.append((frozenset(), frozenset(recur_edges)))
        return self

    def accept_rabin(
        self, fin: Iterable[EdgeKey], inf: Iterable[EdgeKey]
    ) -> "Automaton":
        """Raw Rabin pair: finitely many ``fin``, infinitely many ``inf``."""
        self.rabin_pairs.append((frozenset(fin), frozenset(inf)))
        return self

    # -- semantic checks -------------------------------------------------

    def check_deterministic(self, fsm) -> List[str]:
        """Return messages for guard overlaps (HSIS requires determinism)."""
        problems = []
        by_src: Dict[str, List[Edge]] = {}
        for e in self.edges:
            by_src.setdefault(e.src, []).append(e)
        bdd = fsm.bdd
        for src, edges in by_src.items():
            for i, a in enumerate(edges):
                ga = a.guard.to_bdd(fsm)
                for b in edges[i + 1:]:
                    if a.dst == b.dst:
                        continue
                    if bdd.and_(ga, b.guard.to_bdd(fsm)) != bdd.false:
                        problems.append(
                            f"{self.name}: state {src}: guards to {a.dst} and "
                            f"{b.dst} overlap"
                        )
        if len(self.initial) > 1:
            problems.append(f"{self.name}: more than one initial state")
        return problems

    def check_complete(self, fsm) -> List[str]:
        """Return messages for states whose outgoing guards miss inputs."""
        problems = []
        bdd = fsm.bdd
        by_src: Dict[str, List[Edge]] = {s: [] for s in self.states}
        for e in self.edges:
            by_src[e.src].append(e)
        for src, edges in by_src.items():
            cover = bdd.disj(e.guard.to_bdd(fsm) for e in edges)
            # Completeness is relative to valid input encodings.
            space = bdd.true
            for e in edges:
                for v in sorted(_guard_vars(e.guard)):
                    space = bdd.and_(space, fsm.var(v).domain_constraint)
            if bdd.diff(space, cover) != bdd.false:
                problems.append(f"{self.name}: state {src} is incomplete")
        return problems

    def completed(self, trap: str = "_trap") -> "Automaton":
        """Copy with a rejecting trap state catching unmatched inputs.

        Each state gets an else-edge to ``trap`` guarded by the negation
        of its guard disjunction; the trap self-loops and belongs to no
        accepting pair, so trapped runs are rejected.
        """
        if trap in self.states:
            raise AutomatonError(f"{self.name}: state {trap!r} already exists")
        out = Automaton(
            name=self.name,
            states=self.states + [trap],
            initial=list(self.initial),
            edges=list(self.edges),
            rabin_pairs=list(self.rabin_pairs),
        )
        by_src: Dict[str, List[Edge]] = {s: [] for s in self.states}
        for e in self.edges:
            by_src[e.src].append(e)
        for src, edges in by_src.items():
            if edges:
                cover = GOr(tuple(e.guard for e in edges))
                out.add_edge(src, trap, GNot(cover))
            else:
                out.add_edge(src, trap, TRUE_GUARD)
        out.add_edge(trap, trap, TRUE_GUARD)
        return out


def _guard_vars(guard: Guard) -> Set[str]:
    if isinstance(guard, GAtom):
        return {guard.var}
    if isinstance(guard, (GAnd, GOr)):
        out: Set[str] = set()
        for p in guard.parts:
            out |= _guard_vars(p)
        return out
    if isinstance(guard, GNot):
        return _guard_vars(guard.part)
    return set()


# ----------------------------------------------------------------------
# Attachment to a symbolic FSM (product machine construction)
# ----------------------------------------------------------------------


@dataclass
class AttachedMonitor:
    """An automaton woven into a :class:`~repro.network.fsm.SymbolicFsm`
    (``fsm`` is the product machine).

    Provides the symbolic edge sets the containment checker needs, plus
    decoding of the monitor state out of product-machine states.
    """

    automaton: Automaton
    fsm: object
    x: MvVar
    y: MvVar

    def state_bdd(self, states: Iterable[str]) -> int:
        return self.x.literal(list(states))

    def edge_bdd(self, keys: Iterable[EdgeKey]) -> int:
        # Sorted, so the node build order never depends on set hashing.
        bdd = self.fsm.bdd
        return bdd.disj(
            bdd.and_(self.x.literal(src), self.y.literal(dst))
            for src, dst in sorted(keys)
        )

    def rabin_pairs_bdd(self) -> List[RabinPair]:
        """Acceptance pairs as symbolic edge sets (over x, y)."""
        pairs = []
        for i, (fin, inf) in enumerate(self.automaton.rabin_pairs):
            pairs.append(
                RabinPair(
                    fin=self.edge_bdd(fin),
                    inf=self.edge_bdd(inf),
                    label=f"{self.automaton.name}.pair{i}",
                )
            )
        return pairs

    def decode(self, assignment: Dict[int, bool]) -> str:
        return str(self.x.decode(assignment))


def _monitor_pair(fsm, automaton: Automaton) -> Tuple[MvVar, MvVar]:
    """The monitor's present/next state pair on ``fsm``'s manager,
    declared once per automaton name and states."""
    from repro.network.encode import NEXT_SUFFIX  # repro.network imports us

    name = f"{automaton.name}.state"
    mdd = fsm.mdd
    if name not in mdd:
        return mdd.declare_pair(name, name + NEXT_SUFFIX, automaton.states)
    x = mdd[name]
    if (name in fsm.network.vars or any(l.x is x for l in fsm.latches)
            or x.values != tuple(automaton.states)):
        raise AutomatonError(
            f"{automaton.name}: state variable {name!r} is already in use "
            f"(values {list(x.values)}, states {automaton.states})")
    return x, mdd[name + NEXT_SUFFIX]


def attach(fsm, automaton: Automaton, check: bool = True) -> AttachedMonitor:
    """Attach ``automaton`` as a monitor on ``fsm`` (paper §5.2).

    The monitor's ``fsm`` is the product: ``fsm`` plus a state-variable
    pair and the transition conjunct ``OR over edges (x=src & guard &
    y=dst)``.  ``fsm`` itself is not changed, so several monitors share
    one machine.  With ``check`` (default) the automaton must be
    deterministic; incomplete automata are completed with a rejecting
    trap automatically.
    """
    if check:
        problems = automaton.check_deterministic(fsm)
        if problems:
            raise AutomatonError("; ".join(problems))
        if automaton.check_complete(fsm):
            automaton = automaton.completed()
    x, y = _monitor_pair(fsm, automaton)
    bdd = fsm.bdd
    init = bdd.and_(fsm.init, x.literal(list(automaton.initial)))
    trans = bdd.disj(
        bdd.conj(
            [x.literal(e.src), e.guard.to_bdd(fsm), y.literal(e.dst)]
        )
        for e in automaton.edges
    )
    product = fsm.product(x, y, automaton.initial, init, trans,
                          label=f"monitor:{automaton.name}")
    return AttachedMonitor(automaton=automaton, fsm=product, x=x, y=y)
