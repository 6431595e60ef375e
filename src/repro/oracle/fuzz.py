"""Seeded random generators and shrinking for the differential harness.

Everything is driven by an explicit :class:`random.Random` — no module
state, no entropy — so any failure reproduces bit-for-bit from its seed.
The generators produce:

* :func:`gen_model` — small flat BLIF-MV models: multi-valued latches,
  non-deterministic tables (ANY / value-set / ``=input`` entries,
  defaults, partial relations), optional primary inputs and observable
  wires.  Assignment spaces stay within the explicit oracle's cap.
* :func:`gen_ctl` / :func:`gen_prop` — CTL formulas over the model's
  nets (full operator set; ``gen_prop`` is propositional, used to
  exercise the ``AG`` invariant fast path).
* :func:`gen_fairness_descs` — fairness constraints as plain dicts that
  bind to both engines (:func:`fairness_spec_from_descs` symbolically,
  :func:`repro.oracle.containment.system_fairness_from_descs`
  explicitly).
* :func:`gen_automaton_desc` — deterministic, complete property automata
  (decision-list guards) with invariance / recurrence / raw-Rabin
  acceptance, as plain dicts (:func:`automaton_from_desc` rebuilds).

:func:`shrink_case` greedily minimizes a failing case while a caller
predicate keeps failing — drop rows, defaults, fairness constraints and
formulas, narrow value sets and resets — bounded and deterministic.
"""

from __future__ import annotations

import copy
import random
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

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
    BuchiState,
    FairnessSpec,
    NegativeStateSet,
    StreettPair,
)
from repro.blifmv import parse, write_model
from repro.blifmv.ast import (
    ANY,
    Any_,
    BlifMvError,
    Eq,
    Latch,
    Model,
    Row,
    Table,
    ValueSet,
)
from repro.ctl.ast import (
    AF,
    AG,
    AU,
    AX,
    And,
    Atom,
    EF,
    EG,
    EU,
    EX,
    FalseF,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    TrueF,
)

DOMAINS: Tuple[Tuple[str, ...], ...] = (
    ("0", "1"),
    ("0", "1"),
    ("0", "1", "2"),
    ("0", "1", "2", "3"),
)

DEFAULT_MAX_SPACE = 4096


# ----------------------------------------------------------------------
# Models
# ----------------------------------------------------------------------


def _subset(rng: random.Random, values: Sequence[str], min_size: int = 1) -> List[str]:
    size = rng.randint(min_size, len(values))
    return sorted(rng.sample(list(values), size))


def _input_entry(rng: random.Random, domain: Tuple[str, ...]):
    r = rng.random()
    if r < 0.55:
        return rng.choice(domain)
    if r < 0.82:
        return ANY
    return ValueSet(tuple(_subset(rng, domain)))


def _output_entry(
    rng: random.Random,
    domain: Tuple[str, ...],
    eq_candidates: Sequence[str],
):
    r = rng.random()
    if r < 0.55:
        return rng.choice(domain)
    if r < 0.70 and eq_candidates:
        return Eq(rng.choice(list(eq_candidates)))
    if r < 0.90:
        return ValueSet(tuple(_subset(rng, domain)))
    return ANY


def _gen_table(
    rng: random.Random,
    model: Model,
    output: str,
    available: Sequence[str],
) -> Table:
    n_in = rng.randint(1, min(3, len(available)))
    inputs = sorted(rng.sample(list(available), n_in))
    out_domain = model.domain(output)
    eq_candidates = [v for v in inputs if model.domain(v) == out_domain]
    table = Table(inputs=inputs, outputs=[output])
    n_rows = rng.randint(0, 3)
    for _ in range(n_rows):
        table.rows.append(
            Row(
                inputs=tuple(
                    _input_entry(rng, model.domain(v)) for v in inputs
                ),
                outputs=(_output_entry(rng, out_domain, eq_candidates),),
            )
        )
    if n_rows == 0 or rng.random() < 0.5:
        table.default = (_output_entry(rng, out_domain, eq_candidates),)
    return table


def gen_model(
    rng: random.Random,
    max_space: int = DEFAULT_MAX_SPACE,
    name: str = "fuzz",
) -> Model:
    """One random flat model whose assignment space fits ``max_space``."""
    for _attempt in range(64):
        model = _gen_model_once(rng, name)
        space = 1
        for v in model.declared_variables():
            space *= len(model.domain(v))
        if space > max_space:
            continue
        try:
            model.validate()
        except BlifMvError:
            continue
        return model
    raise RuntimeError("could not generate a model within the space cap")


def _gen_model_once(rng: random.Random, name: str) -> Model:
    model = Model(name=name)
    n_latch = rng.choice([1, 2, 2, 2, 3])
    latch_domains = [rng.choice(DOMAINS) for _ in range(n_latch)]

    # Primary input (optional).
    has_input = rng.random() < 0.5
    if has_input:
        model.inputs.append("inp")
        model.domains["inp"] = rng.choice(DOMAINS[:3])

    latch_outs = [f"s{i}" for i in range(n_latch)]
    for latch_name, domain in zip(latch_outs, latch_domains):
        model.domains[latch_name] = domain

    # Observable combinational wire (optional), usable downstream.
    available = list(latch_outs) + (["inp"] if has_input else [])
    wires: List[str] = []
    if rng.random() < 0.5:
        model.domains["w0"] = rng.choice(DOMAINS[:3])
        model.tables.append(_gen_table(rng, model, "w0", available))
        wires.append("w0")
        model.outputs.append("w0")

    # Latch next-state functions.
    for i, (latch_name, domain) in enumerate(zip(latch_outs, latch_domains)):
        r = rng.random()
        same_domain = [
            v
            for v in available
            if model.domain(v) == domain and v != latch_name
        ]
        if r < 0.12 and same_domain:
            # Feed the latch straight from an existing net.
            input_name = rng.choice(same_domain)
        else:
            input_name = f"n{i}"
            model.domains[input_name] = domain
            if r < 0.95:
                model.tables.append(
                    _gen_table(rng, model, input_name, available + wires)
                )
            # else: leave the wire undriven — a free non-deterministic
            # value on both engines.
        reset = _subset(rng, domain) if rng.random() < 0.9 else [rng.choice(domain)]
        if rng.random() < 0.7:
            reset = [rng.choice(domain)]
        model.latches.append(
            Latch(input=input_name, output=latch_name, reset=list(reset))
        )

    if not model.outputs:
        model.outputs.append(latch_outs[0])
    return model


# ----------------------------------------------------------------------
# CTL formulas
# ----------------------------------------------------------------------


def _gen_atom(rng: random.Random, model: Model) -> Atom:
    latches = [l.output for l in model.latches]
    others = [v for v in model.declared_variables() if v not in latches]
    if others and rng.random() < 0.35:
        var = rng.choice(sorted(others))
    else:
        var = rng.choice(latches)
    domain = model.domain(var)
    if rng.random() < 0.75:
        values: Tuple[str, ...] = (rng.choice(domain),)
    else:
        values = tuple(_subset(rng, domain))
    return Atom(var, values)


def gen_prop(rng: random.Random, model: Model, depth: int = 2) -> Formula:
    """A propositional (non-temporal) formula over the model's nets."""
    if depth <= 0 or rng.random() < 0.4:
        r = rng.random()
        if r < 0.05:
            return TrueF()
        if r < 0.1:
            return FalseF()
        return _gen_atom(rng, model)
    op = rng.choice(["not", "and", "or", "implies", "iff"])
    if op == "not":
        return Not(gen_prop(rng, model, depth - 1))
    left = gen_prop(rng, model, depth - 1)
    right = gen_prop(rng, model, depth - 1)
    return {"and": And, "or": Or, "implies": Implies, "iff": Iff}[op](left, right)


def gen_ctl(rng: random.Random, model: Model, depth: int = 3) -> Formula:
    """A CTL formula over the model's nets, full operator set."""
    if depth <= 0 or rng.random() < 0.3:
        return gen_prop(rng, model, 1)
    op = rng.choice(
        ["not", "and", "or", "implies",
         "EX", "EF", "EG", "EU", "AX", "AF", "AG", "AU"]
    )
    if op == "not":
        return Not(gen_ctl(rng, model, depth - 1))
    if op in ("and", "or", "implies"):
        left = gen_ctl(rng, model, depth - 1)
        right = gen_ctl(rng, model, depth - 1)
        return {"and": And, "or": Or, "implies": Implies}[op](left, right)
    if op in ("EX", "EF", "EG", "AX", "AF", "AG"):
        unary = {"EX": EX, "EF": EF, "EG": EG, "AX": AX, "AF": AF, "AG": AG}
        return unary[op](gen_ctl(rng, model, depth - 1))
    left = gen_ctl(rng, model, depth - 1)
    right = gen_ctl(rng, model, depth - 1)
    return EU(left, right) if op == "EU" else AU(left, right)


def format_ctl(f: Formula) -> str:
    """Serialize a formula so :func:`repro.ctl.parser.parse_ctl` round-trips.

    ``str(Atom)`` prints multi-value atoms without the space the lexer
    needs, so the corpus uses this writer instead.
    """
    if isinstance(f, TrueF):
        return "TRUE"
    if isinstance(f, FalseF):
        return "FALSE"
    if isinstance(f, Atom):
        if len(f.values) == 1:
            return f"{f.var}={f.values[0]}"
        return "{} in {{{}}}".format(f.var, ",".join(f.values))
    if isinstance(f, Not):
        return f"!({format_ctl(f.sub)})"
    if isinstance(f, And):
        return f"(({format_ctl(f.left)}) & ({format_ctl(f.right)}))"
    if isinstance(f, Or):
        return f"(({format_ctl(f.left)}) | ({format_ctl(f.right)}))"
    if isinstance(f, Implies):
        return f"(({format_ctl(f.left)}) -> ({format_ctl(f.right)}))"
    if isinstance(f, Iff):
        return f"(({format_ctl(f.left)}) <-> ({format_ctl(f.right)}))"
    for cls, tag in ((EX, "EX"), (EF, "EF"), (EG, "EG"),
                     (AX, "AX"), (AF, "AF"), (AG, "AG")):
        if isinstance(f, cls):
            return f"{tag} ({format_ctl(f.sub)})"
    if isinstance(f, EU):
        return f"E[({format_ctl(f.left)}) U ({format_ctl(f.right)})]"
    if isinstance(f, AU):
        return f"A[({format_ctl(f.left)}) U ({format_ctl(f.right)})]"
    raise TypeError(f"unknown formula node {f!r}")


# ----------------------------------------------------------------------
# Fairness constraints (engine-neutral descs)
# ----------------------------------------------------------------------


def _state_pred_desc(rng: random.Random, model: Model) -> Dict[str, List[str]]:
    latches = [l.output for l in model.latches]
    chosen = rng.sample(latches, rng.randint(1, min(2, len(latches))))
    return {
        name: _subset(rng, model.domain(name)) for name in sorted(chosen)
    }


def gen_fairness_descs(rng: random.Random, model: Model) -> List[dict]:
    """0-2 fairness constraints as engine-neutral dicts."""
    descs: List[dict] = []
    for _ in range(rng.choice([0, 0, 0, 1, 1, 2])):
        r = rng.random()
        if r < 0.45:
            descs.append(
                {"kind": "buchi_state", "src": _state_pred_desc(rng, model)}
            )
        elif r < 0.75:
            descs.append(
                {"kind": "negative_state", "src": _state_pred_desc(rng, model)}
            )
        else:
            descs.append(
                {
                    "kind": "streett",
                    "e_src": _state_pred_desc(rng, model),
                    "f_src": _state_pred_desc(rng, model),
                }
            )
    return descs


def fairness_spec_from_descs(fsm, descs: Sequence[dict]) -> FairnessSpec:
    """Bind engine-neutral fairness descs to a symbolic machine."""
    bdd = fsm.bdd

    def state_set(pred: Dict[str, Sequence[str]]) -> int:
        return bdd.conj(
            fsm.var(name).literal(list(values))
            for name, values in sorted(pred.items())
        )

    spec = FairnessSpec()
    for i, desc in enumerate(descs):
        kind = desc["kind"]
        if kind == "buchi_state":
            spec.add(BuchiState(state_set(desc["src"]), label=f"fz{i}"))
        elif kind == "negative_state":
            spec.add(NegativeStateSet(state_set(desc["src"]), label=f"fz{i}"))
        elif kind == "streett":
            spec.add(
                StreettPair(
                    e=state_set(desc["e_src"]),
                    f=state_set(desc["f_src"]),
                    label=f"fz{i}",
                )
            )
        else:
            raise ValueError(f"unknown fairness desc kind {kind!r}")
    return spec


# ----------------------------------------------------------------------
# Property automata (engine-neutral descs)
# ----------------------------------------------------------------------


def _gen_guard_desc(rng: random.Random, model: Model) -> list:
    atom = _gen_atom(rng, model)
    desc: list = ["atom", atom.var, list(atom.values)]
    if rng.random() < 0.25:
        desc = ["not", desc]
    if rng.random() < 0.2:
        other = _gen_atom(rng, model)
        desc = ["and", desc, ["atom", other.var, list(other.values)]]
    return desc


def guard_from_desc(desc: Sequence) -> Guard:
    tag = desc[0]
    if tag == "true":
        return GTrue()
    if tag == "atom":
        return GAtom(desc[1], tuple(desc[2]))
    if tag == "not":
        return GNot(guard_from_desc(desc[1]))
    if tag == "and":
        return GAnd(tuple(guard_from_desc(d) for d in desc[1:]))
    if tag == "or":
        return GOr(tuple(guard_from_desc(d) for d in desc[1:]))
    raise ValueError(f"unknown guard desc {desc!r}")


def gen_automaton_desc(rng: random.Random, model: Model) -> dict:
    """A deterministic, complete property automaton as a plain dict.

    Each state's outgoing edges form a decision list (g1; !g1&g2; else),
    so determinism and completeness hold by construction.
    """
    n_states = rng.choice([2, 2, 2, 3])
    states = [f"q{i}" for i in range(n_states)]
    edges: List[list] = []
    for src in states:
        k = rng.choice([1, 1, 2])
        conds = [_gen_guard_desc(rng, model) for _ in range(k)]
        negated = None
        for cond in conds:
            dst = rng.choice(states)
            guard = cond if negated is None else ["and", negated, cond]
            edges.append([src, dst, guard])
            neg = ["not", cond]
            negated = neg if negated is None else ["and", negated, neg]
        edges.append([src, rng.choice(states), negated])

    desc = {
        "name": "mon",
        "states": states,
        "initial": [states[0]],
        "edges": edges,
    }
    automaton = automaton_from_desc(dict(desc, rabin=[]))
    r = rng.random()
    if r < 0.5:
        good = _subset(rng, states)
        if len(good) == len(states):
            good = good[:-1]
        automaton.accept_invariance(good)
    elif r < 0.8:
        keys = [(e.src, e.dst) for e in automaton.edges]
        automaton.accept_recurrence(
            rng.sample(keys, rng.randint(1, min(3, len(keys))))
        )
    else:
        keys = [(e.src, e.dst) for e in automaton.edges]
        fin = rng.sample(keys, rng.randint(0, min(2, len(keys))))
        inf = rng.sample(keys, rng.randint(1, min(3, len(keys))))
        automaton.accept_rabin(fin, inf)
    desc["rabin"] = [
        [sorted(fin), sorted(inf)] for fin, inf in automaton.rabin_pairs
    ]
    return desc


def automaton_from_desc(desc: dict) -> Automaton:
    automaton = Automaton(
        name=desc["name"],
        states=list(desc["states"]),
        initial=list(desc["initial"]),
    )
    for src, dst, guard in desc["edges"]:
        automaton.add_edge(src, dst, guard_from_desc(guard))
    for fin, inf in desc.get("rabin", []):
        automaton.accept_rabin(
            [tuple(k) for k in fin], [tuple(k) for k in inf]
        )
    return automaton


# ----------------------------------------------------------------------
# Cases (one generated trial's inputs) and shrinking
# ----------------------------------------------------------------------


def gen_case(rng: random.Random, max_space: int = DEFAULT_MAX_SPACE) -> dict:
    """All inputs of one differential trial, generated from one stream."""
    model = gen_model(rng, max_space=max_space)
    formulas = [gen_ctl(rng, model) for _ in range(rng.choice([2, 2, 3]))]
    invariant = AG(gen_prop(rng, model))
    return {
        "model": model,
        "formulas": formulas,
        "invariant": invariant,
        "fairness": gen_fairness_descs(rng, model),
        "automaton": gen_automaton_desc(rng, model),
        "build_method": rng.choice(["greedy", "greedy", "linear", "monolithic"]),
        "partitioned": rng.random() < 0.25,
    }


def case_to_payload(case: dict) -> dict:
    """JSON-ready form of a case (used for corpus entries)."""
    return {
        "model": write_model(case["model"]),
        "formulas": [format_ctl(f) for f in case["formulas"]],
        "invariant": format_ctl(case["invariant"]),
        "fairness": case["fairness"],
        "automaton": case["automaton"],
        "build_method": case["build_method"],
        "partitioned": case["partitioned"],
    }


def case_from_payload(payload: dict) -> dict:
    from repro.ctl.parser import parse_ctl

    return {
        "model": parse(payload["model"]).root_model(),
        "formulas": [parse_ctl(text) for text in payload["formulas"]],
        "invariant": parse_ctl(payload["invariant"]),
        "fairness": payload["fairness"],
        "automaton": payload["automaton"],
        "build_method": payload.get("build_method", "greedy"),
        "partitioned": payload.get("partitioned", False),
    }


def _formula_shrinks(f: Formula) -> Iterator[Formula]:
    if isinstance(f, (Not, EX, EF, EG, AX, AF, AG)):
        yield f.sub
    if isinstance(f, (And, Or, Implies, Iff, EU, AU)):
        yield f.left
        yield f.right
    if not isinstance(f, (TrueF, FalseF, Atom)):
        yield TrueF()


def _case_mutations(case: dict) -> Iterator[Callable[[dict], None]]:
    """Yield in-place simplifications, most aggressive first."""
    model: Model = case["model"]
    for i in range(len(case["fairness"])):
        yield lambda c, i=i: c["fairness"].pop(i)
    if len(case["formulas"]) > 1:
        for i in range(len(case["formulas"])):
            yield lambda c, i=i: c["formulas"].pop(i)
    for i, f in enumerate(case["formulas"]):
        for smaller in _formula_shrinks(f):
            yield lambda c, i=i, s=smaller: c["formulas"].__setitem__(i, s)
    for smaller in _formula_shrinks(case["invariant"].sub):
        yield lambda c, s=smaller: c.__setitem__("invariant", AG(s))
    for ti, table in enumerate(model.tables):
        for ri in range(len(table.rows)):
            yield lambda c, ti=ti, ri=ri: c["model"].tables[ti].rows.pop(ri)
        if table.default is not None:
            yield lambda c, ti=ti: setattr(c["model"].tables[ti], "default", None)
    for ti, table in enumerate(model.tables):
        for ri, row in enumerate(table.rows):
            for col, entry in enumerate(row.inputs):
                if isinstance(entry, (Any_, ValueSet)):
                    value = (
                        entry.values[0]
                        if isinstance(entry, ValueSet)
                        else model.domain(table.inputs[col])[0]
                    )
                    yield lambda c, ti=ti, ri=ri, col=col, v=value: _set_row_entry(
                        c["model"].tables[ti], ri, col, v, output=False
                    )
            for col, entry in enumerate(row.outputs):
                if isinstance(entry, (Any_, ValueSet, Eq)):
                    value = (
                        entry.values[0]
                        if isinstance(entry, ValueSet)
                        else model.domain(table.outputs[col])[0]
                    )
                    yield lambda c, ti=ti, ri=ri, col=col, v=value: _set_row_entry(
                        c["model"].tables[ti], ri, col, v, output=True
                    )
    for li, latch in enumerate(model.latches):
        if len(latch.reset) > 1:
            yield lambda c, li=li: setattr(
                c["model"].latches[li], "reset", c["model"].latches[li].reset[:1]
            )
    automaton = case.get("automaton")
    if automaton and len(automaton.get("rabin", [])) > 1:
        for i in range(len(automaton["rabin"])):
            yield lambda c, i=i: c["automaton"]["rabin"].pop(i)


def _set_row_entry(table: Table, ri: int, col: int, value: str,
                   output: bool) -> None:
    """Replace row ``ri`` by a copy with one entry set (rows are frozen)."""
    row = table.rows[ri]
    if output:
        row = Row(row.inputs, row.outputs[:col] + (value,) + row.outputs[col + 1:])
    else:
        row = Row(row.inputs[:col] + (value,) + row.inputs[col + 1:], row.outputs)
    table.rows[ri] = row


def shrink_case(
    case: dict,
    still_fails: Callable[[dict], bool],
    max_attempts: int = 200,
) -> dict:
    """Greedy minimization: apply any simplification that keeps failing.

    ``still_fails`` must swallow its own exceptions (a mutation can
    produce a model the engines reject); treat errors as "not failing".
    """
    current = copy.deepcopy(case)
    attempts = 0
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for mutate in _case_mutations(current):
            if attempts >= max_attempts:
                break
            candidate = copy.deepcopy(current)
            try:
                mutate(candidate)
                candidate["model"].validate()
            except Exception:
                continue
            attempts += 1
            if still_fails(candidate):
                current = candidate
                progress = True
                break
    return current
