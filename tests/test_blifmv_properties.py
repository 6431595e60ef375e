"""Property-based tests for BLIF-MV: random models round-trip through the
writer/parser and encode to identical machines, and table validation
agrees with a row-by-row reference scan."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.blifmv import Model, Row, Table, Latch, flatten, parse, write
from repro.blifmv.ast import ANY, Any_, BlifMvError, Design, Eq, ValueSet
from repro.network import SymbolicFsm


@st.composite
def models(draw):
    """A random closed one-or-two latch model with a random table."""
    domain_size = draw(st.integers(min_value=2, max_value=4))
    domain = tuple(str(i) for i in range(domain_size))
    n_latches = draw(st.integers(min_value=1, max_value=2))
    model = Model(name="rand")
    for i in range(n_latches):
        state, nxt = f"s{i}", f"n{i}"
        model.domains[state] = domain
        model.domains[nxt] = domain
        rows = []
        for value in domain:
            targets = draw(
                st.lists(st.sampled_from(domain), min_size=1, max_size=2,
                         unique=True)
            )
            entry = targets[0] if len(targets) == 1 else ValueSet(tuple(targets))
            rows.append(Row(inputs=(value,), outputs=(entry,)))
        model.tables.append(Table(inputs=[state], outputs=[nxt], rows=rows))
        reset = draw(st.sampled_from(domain))
        model.latches.append(Latch(input=nxt, output=state, reset=[reset]))
    model.validate()
    return model


def machine_signature(model: Model):
    """(#reached states, sorted reached valuations) — machine semantics."""
    fsm = SymbolicFsm(model)
    fsm.build_transition()
    reached = fsm.reachable().reached
    states = sorted(
        tuple(sorted(s.items())) for s in fsm.states_iter(reached)
    )
    return fsm.count_states(reached), states


@settings(max_examples=30, deadline=None)
@given(models())
def test_writer_parser_roundtrip_preserves_semantics(model):
    design = Design()
    design.add(model)
    text = write(design)
    reparsed = flatten(parse(text))
    assert machine_signature(model) == machine_signature(reparsed)


@settings(max_examples=30, deadline=None)
@given(models())
def test_reachable_states_closed_under_image(model):
    fsm = SymbolicFsm(model)
    fsm.build_transition()
    reached = fsm.reachable().reached
    image = fsm.image(reached)
    assert fsm.bdd.diff(image, reached) == fsm.bdd.false


@settings(max_examples=20, deadline=None)
@given(models())
def test_partitioned_reachability_agrees(model):
    fsm1 = SymbolicFsm(model)
    full = fsm1.reachable(partitioned=True).reached
    fsm2 = SymbolicFsm(model)
    fsm2.build_transition()
    mono = fsm2.reachable().reached
    assert fsm1.count_states(full) == fsm2.count_states(mono)


RGB = ("r", "g", "b")
#: Domains of the validation tables' columns: inputs a, b, w and outputs
#: o, p (undeclared names are binary).
VALIDATION_DOMAINS = {"w": RGB, "p": RGB}
FAULTS = (
    "value", "value_set", "eq_in_input", "eq_non_input", "eq_domain",
    "row_width", "default_width",
)


def row_major_fault(model, table):
    """The row-major scan table validation ran before it checked columns,
    kept as the reference: the first fault in row order (a row's inputs,
    then its outputs, the default last) as its message, or None."""
    in_cols = [(v, model.domain(v), False) for v in table.inputs]
    out_cols = [(v, model.domain(v), True) for v in table.outputs]

    def entries_fault(entries, columns):
        for entry, (var, domain, is_output) in zip(entries, columns):
            if isinstance(entry, Any_):
                continue
            if isinstance(entry, Eq):
                if not is_output:
                    return "'=' only allowed in output columns"
                if entry.name not in table.inputs:
                    return f"'={entry.name}' does not name an input of the table"
                if model.domain(entry.name) != domain:
                    return f"'={entry.name}' domain mismatch with {var!r}"
                continue
            values = entry.values if isinstance(entry, ValueSet) else (entry,)
            for value in values:
                if value not in domain:
                    return f"value {value!r} not in domain of {var!r} {domain}"
        return None

    for row in table.rows:
        if len(row.inputs) != len(in_cols) or len(row.outputs) != len(out_cols):
            return (
                f"row width mismatch in table for {table.outputs} "
                f"(expected {len(in_cols) + len(out_cols)})"
            )
        fault = entries_fault(row.inputs, in_cols) or entries_fault(
            row.outputs, out_cols
        )
        if fault:
            return fault
    if table.default is None:
        return None
    if len(table.default) != len(out_cols):
        return f".default width mismatch for {table.outputs}"
    return entries_fault(table.default, out_cols)


@st.composite
def faulty_tables(draw):
    """A table of 0-40 rows over binary and 3-valued columns, its
    literals drawn from a few per column, with zero or more injected
    faults of the kinds validation reports."""
    inputs = draw(st.lists(st.sampled_from(["a", "b", "w"]), unique=True, max_size=3))
    outputs = draw(
        st.lists(st.sampled_from(["o", "p"]), unique=True, min_size=1, max_size=2)
    )

    def domain(var):
        return VALIDATION_DOMAINS.get(var, ("0", "1"))

    def pattern(columns, is_output):
        entries = []
        for var in columns:
            pool = list(domain(var)) + [ANY, ValueSet(domain(var)[:2])]
            if is_output:
                pool += [Eq(i) for i in inputs if domain(i) == domain(var)]
            entries.append(draw(st.sampled_from(pool)))
        return entries

    rows = [
        (pattern(inputs, False), pattern(outputs, True))
        for _ in range(draw(st.integers(0, 40)))
    ]
    default = pattern(outputs, True) if draw(st.booleans()) else None
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=3)):
        if fault == "default_width":
            default = [] if default is None else default + ["0"]
            continue
        if not rows:
            continue
        ins, outs = rows[draw(st.integers(0, len(rows) - 1))]
        if fault == "row_width":
            if draw(st.booleans()):
                ins.append("0")
            elif outs:
                outs.pop()
            continue
        on_input = fault in ("value", "value_set") and draw(st.booleans())
        if fault == "eq_in_input":
            on_input = True
        entries, columns = (ins, inputs) if on_input else (outs, outputs)
        if not entries or len(entries) > len(columns):
            continue
        j = draw(st.integers(0, len(entries) - 1))
        var = columns[j]
        if fault == "value":
            entries[j] = "q"
        elif fault == "value_set":
            entries[j] = ValueSet((domain(var)[0], "q"))
        elif fault == "eq_in_input":
            entries[j] = Eq(var)  # an input, of the column's own domain
        elif fault == "eq_non_input":
            entries[j] = Eq(draw(st.sampled_from(["o", "p", "zz"])))
        elif fault == "eq_domain":
            others = [i for i in inputs if domain(i) != domain(var)]
            if others:
                entries[j] = Eq(draw(st.sampled_from(others)))
    return Table(
        inputs, outputs,
        rows=[Row(tuple(i), tuple(o)) for i, o in rows],
        default=None if default is None else tuple(default),
    )


@settings(max_examples=300, deadline=None)
@given(faulty_tables())
def test_table_validation_matches_row_major_reference(table):
    """Property: validation raises exactly the reference's first fault,
    and the column check accepts exactly the tables the reference does."""
    model = Model("m", domains=dict(VALIDATION_DOMAINS), tables=[table])
    fault = row_major_fault(model, table)
    try:
        model.validate()
    except BlifMvError as err:
        assert str(err) == f"model m: {fault}"
    else:
        assert fault is None
    in_cols = [(v, model.domain(v), False) for v in table.inputs]
    out_cols = [(v, model.domain(v), True) for v in table.outputs]
    assert model._columns_valid(table, in_cols, out_cols) == (fault is None)
