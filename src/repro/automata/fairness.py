"""Fairness constraints: the edge-Streett/edge-Rabin environment (paper §5.1).

HSIS distinguishes:

* **Negative fairness constraints** — behaviours satisfying them are
  removed.  The canonical one is the *negative state-subset* constraint:
  a run that eventually stays inside the subset forever is excluded
  (models "indefinite but finite delay").
* **Positive fairness constraints** — only behaviours satisfying them are
  kept, e.g. *positive fair edges* that must be taken infinitely often
  (Büchi on edges), and Streett pairs ``inf(E) -> inf(F)``.

The paper notes that edge-Streett (for the system/environment) combined
with edge-Rabin (for property acceptance, complemented into Streett) is
the most expressive environment for which language containment stays
polynomial; the next natural extension makes it NP-complete.

Everything normalizes to two lists consumed by the fair-cycle engine
(:mod:`repro.lc.faircycle`):

* ``buchi``  — edge sets that a fair run takes infinitely often,
* ``streett`` — pairs ``(E, F)`` meaning ``inf(E) -> inf(F)``.

Edge sets are BDDs over present-state *and* next-state variables; a
state set ``S(x)`` used as a Büchi condition is normalized to the edge
set of all transitions leaving ``S``-states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class BuchiState:
    """Positive constraint: visit ``states`` infinitely often."""

    states: int
    label: str = ""


@dataclass(frozen=True)
class BuchiEdge:
    """Positive constraint: take an edge of ``edges`` infinitely often."""

    edges: int
    label: str = ""


@dataclass(frozen=True)
class NegativeStateSet:
    """Negative constraint: runs staying in ``states`` forever are excluded.

    Equivalent to the Büchi condition "infinitely often outside".
    """

    states: int
    label: str = ""


@dataclass(frozen=True)
class StreettPair:
    """``inf(e) -> inf(f)`` over edge sets (edge-Streett environment)."""

    e: int
    f: int
    label: str = ""


@dataclass(frozen=True)
class RabinPair:
    """Acceptance pair: finitely many ``fin`` edges AND infinitely many
    ``inf`` edges.  A run is accepted if *some* pair holds (edge-Rabin)."""

    fin: int
    inf: int
    label: str = ""


@dataclass
class NormalizedFairness:
    """Engine-ready form: conjunction of Büchi and Streett conditions."""

    buchi: List[Tuple[int, str]] = field(default_factory=list)
    streett: List[Tuple[int, int, str]] = field(default_factory=list)

    @property
    def trivial(self) -> bool:
        return not self.buchi and not self.streett

    def nodes(self):
        """Iterate every BDD node referenced by the conditions.

        Engines hold these across their safe points: fairness
        constraints live for the whole run of a fair-cycle computation.
        """
        for node, _label in self.buchi:
            yield node
        for e, f, _label in self.streett:
            yield e
            yield f


class FairnessSpec:
    """A collection of fairness constraints on one machine."""

    def __init__(self, constraints: Sequence = ()):
        self.constraints: List = list(constraints)

    def add(self, constraint) -> "FairnessSpec":
        self.constraints.append(constraint)
        return self

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    def nodes(self):
        """Every raw BDD handle held by the constraints.

        Engines that run GC/reorder safe points between receiving a spec
        and normalizing it must hold these across them — the constraint
        dataclasses hold bare integer handles that a sweep would
        otherwise free and recycle.
        """
        for c in self.constraints:
            for attr in ("states", "edges", "e", "f", "fin", "inf"):
                node = getattr(c, attr, None)
                if node is not None:
                    yield node

    def normalize(self, bdd, true_node: int) -> NormalizedFairness:
        """Normalize all constraints to edge-level Büchi/Streett conditions.

        State sets become source-state edge predicates (the engine always
        intersects with the transition relation, so ``S(x)`` as an edge
        set means "an edge leaving an S-state").
        """
        out = NormalizedFairness()
        for i, c in enumerate(self.constraints):
            label = getattr(c, "label", "") or f"fair{i}"
            if isinstance(c, BuchiState):
                out.buchi.append((c.states, label))
            elif isinstance(c, BuchiEdge):
                out.buchi.append((c.edges, label))
            elif isinstance(c, NegativeStateSet):
                out.buchi.append((bdd.not_(c.states), label))
            elif isinstance(c, StreettPair):
                out.streett.append((c.e, c.f, label))
            elif isinstance(c, RabinPair):
                raise TypeError(
                    "RabinPair is a property acceptance condition, not a "
                    "system fairness constraint; complement it with "
                    "complement_rabin() first"
                )
            else:
                raise TypeError(f"unknown fairness constraint {c!r}")
        return out


def complement_rabin(pairs: Sequence[RabinPair]) -> List[StreettPair]:
    """Complement an edge-Rabin acceptance into edge-Streett constraints.

    A run violates ``exists pair: fin(F) and inf(I)`` iff for every pair
    ``inf(I) -> inf(F)``.  Language containment therefore reduces to a
    fair-cycle search under the system fairness plus these Streett pairs
    (paper §5.2/§5.3).
    """
    return [
        StreettPair(e=p.inf, f=p.fin, label=f"~{p.label}" if p.label else "~rabin")
        for p in pairs
    ]
