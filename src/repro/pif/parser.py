"""PIF — the Property Intermediate Format (paper Figure 1).

The user describes desired properties in PIF; CTL properties go to the
model checker, automata properties to the language-containment checker,
and fairness declarations constrain the system.  The concrete syntax
implemented here::

    # comment
    ctl <name> :: <CTL formula>

    automaton <name>
      states A B C
      initial A
      edge A A :: !(out1=1 & out2=1)
      edge A B :: out1=1 & out2=1
      edge B B :: TRUE
      accept invariance A
      accept recurrence A->A
      accept rabin fin { A->B } inf { A->A }
    end

    fairness negative :: st=eating        # negative state subset
    fairness buchi    :: tok=1            # visit infinitely often
    fairness edge     :: st=pause & st'=run   # fair edges (v' = next state)
    fairness streett  :: req=1 ; ack=1    # inf(E) -> inf(F)

Guards and fairness predicates are propositional formulas in CTL-atom
syntax; a primed name ``v'`` refers to the next-state copy of latch
``v`` (edge predicates).  :meth:`PifFile.bind` compiles everything
against a concrete machine.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.automata.automaton import (
    Automaton,
    GAnd,
    GAtom,
    GNot,
    GOr,
    GTrue,
    Guard,
)
from repro.automata.fairness import (
    BuchiEdge,
    BuchiState,
    FairnessSpec,
    NegativeStateSet,
    StreettPair,
)
from repro.ctl.ast import And, Atom, FalseF, Formula, Iff, Implies, Not, Or, TrueF
from repro.ctl.parser import CtlParseError, parse_ctl
from repro.network.encode import NEXT_SUFFIX


class PifError(Exception):
    """Raised on malformed PIF input."""


@dataclass
class FairnessDecl:
    """One ``fairness`` line, unbound (formulas, not BDDs)."""

    kind: str  # negative | buchi | edge | streett
    first: Formula
    second: Optional[Formula] = None
    label: str = ""


@dataclass
class PifFile:
    """Parsed PIF contents."""

    ctl_props: List[Tuple[str, Formula]] = field(default_factory=list)
    automata: List[Automaton] = field(default_factory=list)
    fairness: List[FairnessDecl] = field(default_factory=list)

    def automaton(self, name: str) -> Automaton:
        for aut in self.automata:
            if aut.name == name:
                return aut
        raise PifError(f"no automaton named {name!r}")

    def bind_fairness(self, fsm) -> FairnessSpec:
        """Compile the fairness declarations against a machine."""
        spec = FairnessSpec()
        for decl in self.fairness:
            first = _formula_to_bdd(decl.first, fsm)
            if decl.kind == "negative":
                spec.add(NegativeStateSet(first, label=decl.label))
            elif decl.kind == "buchi":
                spec.add(BuchiState(first, label=decl.label))
            elif decl.kind == "edge":
                spec.add(BuchiEdge(first, label=decl.label))
            elif decl.kind == "streett":
                assert decl.second is not None
                spec.add(
                    StreettPair(
                        e=first,
                        f=_formula_to_bdd(decl.second, fsm),
                        label=decl.label,
                    )
                )
            else:  # pragma: no cover - guarded at parse time
                raise PifError(f"unknown fairness kind {decl.kind!r}")
        return spec


def _resolve_primed(name: str) -> str:
    if name.endswith("'"):
        return name[:-1] + NEXT_SUFFIX
    return name


def formula_to_guard(formula: Formula) -> Guard:
    """Propositional CTL formula -> automaton guard."""
    if isinstance(formula, TrueF):
        return GTrue()
    if isinstance(formula, FalseF):
        return GNot(GTrue())
    if isinstance(formula, Atom):
        return GAtom(_resolve_primed(formula.var), formula.values)
    if isinstance(formula, Not):
        return GNot(formula_to_guard(formula.sub))
    if isinstance(formula, And):
        return GAnd((formula_to_guard(formula.left), formula_to_guard(formula.right)))
    if isinstance(formula, Or):
        return GOr((formula_to_guard(formula.left), formula_to_guard(formula.right)))
    if isinstance(formula, Implies):
        return GOr(
            (GNot(formula_to_guard(formula.left)), formula_to_guard(formula.right))
        )
    if isinstance(formula, Iff):
        left = formula_to_guard(formula.left)
        right = formula_to_guard(formula.right)
        return GOr((GAnd((left, right)), GAnd((GNot(left), GNot(right)))))
    raise PifError(f"guard must be propositional, got {formula}")


def _formula_to_bdd(formula: Formula, fsm) -> int:
    return formula_to_guard(formula).to_bdd(fsm)


_EDGE_RE = re.compile(r"^(\w[\w.$#]*)->(\w[\w.$#]*)$")


def _parse_prop(text: str, where: str) -> Formula:
    try:
        return parse_ctl(text)
    except CtlParseError as exc:
        raise PifError(f"{where}: {exc}") from exc


def parse_pif(text: str, source: str = "<string>") -> PifFile:
    """Parse PIF text."""
    out = PifFile()
    lines = [line.split("#", 1)[0].rstrip() for line in text.splitlines()]
    i = 0

    def at(lineno: int) -> str:
        return f"{source}:{lineno + 1}"

    def err(lineno: int, message: str) -> PifError:
        return PifError(f"{at(lineno)}: {message}")

    while i < len(lines):
        line = lines[i].strip()
        if not line:
            i += 1
            continue
        if line.startswith("ctl "):
            rest = line[4:]
            if "::" not in rest:
                raise err(i, "ctl line needs 'ctl <name> :: <formula>'")
            name, formula_text = rest.split("::", 1)
            out.ctl_props.append(
                (name.strip(), _parse_prop(formula_text.strip(), at(i)))
            )
            i += 1
            continue
        if line.startswith("fairness "):
            rest = line[len("fairness "):].strip()
            parts = rest.split("::", 1)
            if len(parts) != 2:
                raise err(i, "fairness line needs 'fairness <kind> :: <pred>'")
            kind = parts[0].strip()
            if kind not in ("negative", "buchi", "edge", "streett"):
                raise err(i, f"unknown fairness kind {kind!r}")
            label = f"{kind}@{i + 1}"
            if kind == "streett":
                halves = parts[1].split(";")
                if len(halves) != 2:
                    raise err(i, "streett fairness needs '<e-pred> ; <f-pred>'")
                out.fairness.append(
                    FairnessDecl(
                        kind=kind,
                        first=_parse_prop(halves[0].strip(), at(i)),
                        second=_parse_prop(halves[1].strip(), at(i)),
                        label=label,
                    )
                )
            else:
                out.fairness.append(
                    FairnessDecl(
                        kind=kind,
                        first=_parse_prop(parts[1].strip(), at(i)),
                        label=label,
                    )
                )
            i += 1
            continue
        if line.startswith("automaton"):
            parts = line.split()
            if len(parts) != 2:
                raise err(i, "automaton line needs a name")
            name = parts[1]
            i += 1
            states: List[str] = []
            initial: List[str] = []
            edges: List[Tuple[str, str, Guard]] = []
            accepts: List[Tuple[str, str]] = []
            while i < len(lines):
                body = lines[i].strip()
                if not body:
                    i += 1
                    continue
                if body == "end":
                    break
                if body.startswith("states "):
                    states.extend(body.split()[1:])
                elif body.startswith("initial "):
                    initial.extend(body.split()[1:])
                elif body.startswith("edge "):
                    rest = body[len("edge "):]
                    if "::" in rest:
                        head, guard_text = rest.split("::", 1)
                        guard = formula_to_guard(
                            _parse_prop(guard_text.strip(), at(i))
                        )
                    else:
                        head, guard = rest, GTrue()
                    head_parts = head.split()
                    if len(head_parts) != 2:
                        raise err(i, "edge line needs 'edge <src> <dst> [:: guard]'")
                    edges.append((head_parts[0], head_parts[1], guard))
                elif body.startswith("accept "):
                    accepts.append((body, at(i)))
                else:
                    raise err(i, f"unexpected automaton line {body!r}")
                i += 1
            if i >= len(lines):
                raise err(i - 1, f"automaton {name!r} missing 'end'")
            i += 1  # past 'end'
            aut = Automaton(name=name, states=states, initial=initial)
            for src, dst, guard in edges:
                aut.add_edge(src, dst, guard)
            for body, where in accepts:
                _apply_accept(aut, body, where)
            out.automata.append(aut)
            continue
        raise err(i, f"unexpected line {line!r}")
    return out


def _parse_edge_list(text: str, where: str) -> List[Tuple[str, str]]:
    pairs = []
    for token in text.replace(",", " ").split():
        match = _EDGE_RE.match(token)
        if not match:
            raise PifError(f"{where}: bad edge {token!r} (want src->dst)")
        pairs.append((match.group(1), match.group(2)))
    return pairs


def _apply_accept(aut: Automaton, body: str, where: str) -> None:
    rest = body[len("accept "):].strip()
    if rest.startswith("invariance"):
        aut.accept_invariance(rest.split()[1:])
        return
    if rest.startswith("recurrence"):
        aut.accept_recurrence(_parse_edge_list(rest[len("recurrence"):], where))
        return
    if rest.startswith("rabin"):
        match = re.match(
            r"rabin\s+fin\s*\{([^}]*)\}\s*inf\s*\{([^}]*)\}\s*$", rest
        )
        if not match:
            raise PifError(f"{where}: bad rabin acceptance {rest!r}")
        aut.accept_rabin(
            _parse_edge_list(match.group(1), where),
            _parse_edge_list(match.group(2), where),
        )
        return
    raise PifError(f"{where}: unknown acceptance {rest!r}")


def parse_pif_file(path: str) -> PifFile:
    """Parse a PIF file from disk."""
    with open(path) as handle:
        return parse_pif(handle.read(), source=path)
