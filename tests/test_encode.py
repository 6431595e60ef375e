"""Tests for table encoding: BDD relations vs explicit row semantics."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import MddManager
from repro.bdd.mdd import MvVar
from repro.blifmv import BlifMvError, flatten, parse
from repro.blifmv.ast import ANY, Any_, Eq, Model, Row, Table, ValueSet
from repro.models import GALLERY, TABLE1, get_spec
from repro.network import SymbolicFsm, encode, is_deterministic_table, variable_order
from repro.network.encode import encode_table
from repro.network.quantify import tree_reduce


def _model(text):
    return flatten(parse(text))


def _relation_pairs(net, table_index=0):
    """Enumerate (input values, output values) allowed by the encoded table."""
    model = net.model
    table = model.tables[table_index]
    bdd = net.bdd
    relation = net.conjuncts[table_index].node
    in_vars = [net.mdd[n] for n in table.inputs]
    out_vars = [net.mdd[n] for n in table.outputs]
    pairs = set()
    for ins in itertools.product(*(v.values for v in in_vars)):
        for outs in itertools.product(*(v.values for v in out_vars)):
            cube = bdd.true
            for var, value in zip(in_vars + out_vars, list(ins) + list(outs)):
                cube = bdd.and_(cube, var.literal(value))
            if bdd.and_(relation, cube) != bdd.false:
                pairs.add((ins, outs))
    return pairs


class TestTableEncoding:
    def test_function_table(self):
        net = encode(_model("""
.model m
.mv a 3
.mv o 3
.table a -> o
0 1
1 2
2 0
.end
"""))
        assert _relation_pairs(net) == {(("0",), ("1",)), (("1",), ("2",)),
                                        (("2",), ("0",))}

    def test_nondeterministic_rows(self):
        net = encode(_model("""
.model m
.table a -> o
0 (0,1)
1 1
.end
"""))
        assert _relation_pairs(net) == {(("0",), ("0",)), (("0",), ("1",)),
                                        (("1",), ("1",))}

    def test_any_input(self):
        net = encode(_model("""
.model m
.table a -> o
- 1
.end
"""))
        assert _relation_pairs(net) == {(("0",), ("1",)), (("1",), ("1",))}

    def test_default_applies_to_unmatched(self):
        net = encode(_model("""
.model m
.mv a 3
.table a -> o
.default 0
2 1
.end
"""))
        assert _relation_pairs(net) == {(("0",), ("0",)), (("1",), ("0",)),
                                        (("2",), ("1",))}

    def test_default_not_shadowing_explicit_nondeterminism(self):
        # An input matched by a row does NOT take the default.
        net = encode(_model("""
.model m
.table a -> o
.default 1
0 0
.end
"""))
        assert _relation_pairs(net) == {(("0",), ("0",)), (("1",), ("1",))}

    def test_equality_output(self):
        net = encode(_model("""
.model m
.mv a,o 3
.table a -> o
- =a
.end
"""))
        assert _relation_pairs(net) == {(("0",), ("0",)), (("1",), ("1",)),
                                        (("2",), ("2",))}

    def test_no_input_constant(self):
        net = encode(_model("""
.model m
.mv o 3
.table -> o
2
.end
"""))
        assert _relation_pairs(net) == {((), ("2",))}

    def test_invalid_codes_excluded(self):
        net = encode(_model("""
.model m
.mv a 3
.table a -> o
- 1
.end
"""))
        relation = net.conjuncts[0].node
        a = net.mdd["a"]
        # code 3 (the unused encoding) must not satisfy the relation
        bad = net.bdd.conj([net.bdd.var(a.bits[0]), net.bdd.var(a.bits[1])])
        assert net.bdd.and_(relation, bad) == net.bdd.false


class TestLatchEncoding:
    def test_latch_equality_conjunct(self):
        net = encode(_model("""
.model m
.mv s,n 3
.table s -> n
0 1
1 2
2 0
.latch n s
.reset s
0
.end
"""))
        labels = [c.label for c in net.conjuncts]
        assert any(label == "latch:s" for label in labels)

    def test_latch_domain_mismatch_rejected(self):
        with pytest.raises(BlifMvError):
            encode(_model("""
.model m
.mv s 3
.table s -> n
- 1
.latch n s
.reset s
0
.end
"""))

    def test_init_from_reset(self):
        net = encode(_model("""
.model m
.mv s,n 4
.table s -> n
- =s
.latch n s
.reset s
1 2
.end
"""))
        s = net.mdd["s"]
        assert net.bdd.sat_count(net.init, s.bits) == 2

    def test_empty_reset_means_any_value(self):
        net = encode(_model("""
.model m
.mv s,n 3
.table s -> n
- =s
.latch n s
.end
"""))
        s = net.mdd["s"]
        assert net.bdd.sat_count(net.init, s.bits) == 3


class TestDeterminism:
    def test_deterministic_table(self):
        model = _model("""
.model m
.table a -> o
0 1
1 0
.end
""")
        net = encode(model)
        assert is_deterministic_table(net.mdd, net.vars, model, model.tables[0])

    def test_nondeterministic_table(self):
        model = _model("""
.model m
.table a -> o
0 (0,1)
1 0
.end
""")
        net = encode(model)
        assert not is_deterministic_table(net.mdd, net.vars, model, model.tables[0])


class TestOrdering:
    def test_variable_order_covers_everything(self):
        model = _model("""
.model m
.mv s,n 3
.table s x -> n
- - =s
.latch n s
.reset s
0
.end
""")
        order = variable_order(model)
        assert set(order) == set(model.declared_variables())

    def test_declared_method(self):
        model = _model("""
.model m
.table a -> o
0 1
1 0
.end
""")
        net = encode(model, order_method="declared")
        assert net.order_method == "declared"
        with pytest.raises(ValueError):
            encode(model, order_method="bogus")

    def test_encode_rejects_hierarchy(self):
        design = parse("""
.model top
.subckt leaf u1
.end
.model leaf
.table a -> o
0 1
1 0
.end
""")
        with pytest.raises(BlifMvError):
            encode(design.root_model())


# ----------------------------------------------------------------------
# The direct builder against the row-by-row formulation it replaced
# ----------------------------------------------------------------------


def _codes_by_or(var, codes):
    """Value codes as an OR of code cubes (the old literal and domain)."""
    bdd = var.bdd
    return bdd.disj(
        bdd.literal_cube((bit, (code >> i) & 1) for i, bit in enumerate(var.bits))
        for code in sorted(codes)
    )


def row_by_row(mdd, variables, table):
    """Each row's literals ANDed as a tree, the rows ORed as a tree, the
    default under the complement of the input cover, then every
    column's domain constraint ANDed on."""
    bdd = mdd.bdd

    def domain(var):
        return _codes_by_or(var, range(var.nvalues))

    def entry(name, e):
        var = variables[name]
        if isinstance(e, Any_):
            return bdd.true
        if isinstance(e, Eq):
            other = variables[e.name]
            f = bdd.true
            for a, b in zip(var.bits, other.bits):
                f = bdd.and_(f, bdd.xnor(bdd.var(a), bdd.var(b)))
            return bdd.and_(bdd.and_(f, domain(var)), domain(other))
        values = e.values if isinstance(e, ValueSet) else (e,)
        return _codes_by_or(var, [var.code_of(v) for v in values])

    in_parts = [
        tree_reduce(bdd.and_, [entry(n, e) for e, n in zip(row.inputs, table.inputs)],
                    bdd.true)
        for row in table.rows
    ]
    out_parts = [
        tree_reduce(bdd.and_, [entry(n, e) for e, n in zip(row.outputs, table.outputs)],
                    bdd.true)
        for row in table.rows
    ]
    rows = tree_reduce(
        bdd.or_, [bdd.and_(i, o) for i, o in zip(in_parts, out_parts)], bdd.false
    )
    if table.default is not None:
        cover = tree_reduce(bdd.or_, in_parts, bdd.false)
        default = bdd.true
        for e, n in zip(table.default, table.outputs):
            default = bdd.and_(default, entry(n, e))
        rows = bdd.or_(rows, bdd.and_(bdd.not_(cover), default))
    for name in table.variables:
        rows = bdd.and_(rows, domain(variables[name]))
    return rows


@st.composite
def random_tables(draw):
    """A table over 2-4 variables with small, mostly non-power-of-two
    domains; columns may repeat a variable, rows mix values, ``-``,
    value sets and ``=`` outputs, and a default row is optional."""
    sizes = draw(st.lists(st.sampled_from([1, 2, 3, 5, 6, 7]), min_size=2, max_size=4))
    names = [f"v{i}" for i in range(len(sizes))]
    domains = {n: tuple(str(c) for c in range(k)) for n, k in zip(names, sizes)}
    inputs = draw(st.lists(st.sampled_from(names), min_size=0, max_size=3))
    outputs = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2))

    def entry(name, is_output):
        values = domains[name]
        kinds = ["value", "any", "set"]
        sources = [i for i in inputs if domains[i] == values]
        if is_output and sources:
            kinds.append("eq")
        kind = draw(st.sampled_from(kinds))
        if kind == "any":
            return ANY
        if kind == "eq":
            return Eq(draw(st.sampled_from(sources)))
        if kind == "set":
            chosen = draw(st.sets(st.sampled_from(values), min_size=1))
            return ValueSet(tuple(v for v in values if v in chosen))
        return draw(st.sampled_from(values))

    rows = [
        Row(tuple(entry(n, False) for n in inputs), tuple(entry(n, True) for n in outputs))
        for _ in range(draw(st.integers(0, 6)))
    ]
    default = None
    if draw(st.booleans()):
        default = tuple(entry(n, True) for n in outputs)
    table = Table(list(inputs), list(outputs), rows, default)
    pair = sizes[0] == sizes[1] and draw(st.booleans())
    return Model("m", domains=domains, tables=[table]), pair


def _declare(model, pair):
    """Declare the model's variables; ``pair`` interleaves the first two."""
    mdd = MddManager()
    names = sorted(model.domains)
    variables = {}
    if pair:
        variables[names[0]], variables[names[1]] = mdd.declare_pair(
            names[0], names[1], model.domains[names[0]]
        )
        names = names[2:]
    for name in names:
        variables[name] = mdd.declare(name, model.domains[name])
    return mdd, variables


class TestDirectBuilder:
    @settings(max_examples=80, deadline=None)
    @given(random_tables())
    def test_matches_row_by_row(self, drawn):
        """Equal handles in the declared order and again after a sift,
        whose moved levels send the builder through ``ite``."""
        model, pair = drawn
        mdd, variables = _declare(model, pair)
        table = model.tables[0]
        built = encode_table(mdd, variables, model, table)
        assert built == row_by_row(mdd, variables, table)
        mdd.bdd.reorder_now(extra_roots=[built])
        assert encode_table(mdd, variables, model, table) == built
        assert row_by_row(mdd, variables, table) == built

    def test_out_of_order_bits_fall_back_to_ite(self):
        """Bits reversed within ``a`` and interleaved with ``b``: no
        column sits above its children, so the builder goes through
        ``ite`` and still lands on the row-by-row handle."""
        model = _model("""
.model m
.mv a,b 5
.table a -> b
.default 4
0 (1,2)
1 =a
- 3
.end
""")
        mdd = MddManager()
        bdd = mdd.bdd
        bits = {name: bdd.add_var(name) for name in
                ("a.2", "b.0", "a.1", "b.1", "a.0", "b.2")}
        values = model.domains["a"]
        variables = {
            v: MvVar(bdd, v, values, [bits[f"{v}.{i}"] for i in range(3)])
            for v in ("a", "b")
        }
        table = model.tables[0]
        before = bdd.cache_stats()["ite"]["lookups"]
        built = encode_table(mdd, variables, model, table)
        assert bdd.cache_stats()["ite"]["lookups"] > before
        assert built == row_by_row(mdd, variables, table)

    @pytest.mark.parametrize("name", TABLE1 + sorted(GALLERY))
    def test_design_tables_match_row_by_row(self, name):
        net = encode(get_spec(name).flat())
        for table, conjunct in zip(net.model.tables, net.conjuncts):
            assert conjunct.node == row_by_row(net.mdd, net.vars, table), table.outputs

    @pytest.mark.parametrize("name", ["scheduler", "dcnew"])
    def test_encode_allocates_final_nodes_only(self, name):
        """Row-by-row encoding allocated 120,852 (scheduler) and 49,143
        (dcnew) nodes for relations of about 4,000."""
        fsm = SymbolicFsm(get_spec(name).flat())
        assert fsm.bdd.stats()["allocated_nodes"] <= 6000
