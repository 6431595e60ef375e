"""Complemented-edge kernel invariants (property-based).

The kernel stores handles as ``index << 1 | complement`` with the
then-edge of every stored node kept regular.  These tests pin the
consequences down:

* negation is an O(1) bit flip — an involution that allocates nothing,
* a function and its negation share one DAG (equal sizes),
* the stored-then-regular canonical form holds for every live node,
* results stay canonical and semantically correct versus the exhaustive
  truth-table oracle, through random operator DAGs, GC, and in-place
  dynamic reordering.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.bdd import BDD
from repro.config import EngineConfig
from repro.oracle.truthtable import TruthTable

from tests.test_bdd_properties import (
    NAMES,
    all_envs,
    brute,
    build,
    exprs,
    fresh,
)


def tt_build(expr) -> TruthTable:
    """Evaluate the expression strategy's AST on the truth-table oracle."""
    n = len(NAMES)
    tag = expr[0]
    if tag == "var":
        return TruthTable.var(n, NAMES.index(expr[1]))
    if tag == "const":
        return TruthTable.true(n) if expr[1] else TruthTable.false(n)
    if tag == "not":
        return ~tt_build(expr[1])
    if tag == "and":
        return tt_build(expr[1]) & tt_build(expr[2])
    if tag == "or":
        return tt_build(expr[1]) | tt_build(expr[2])
    if tag == "xor":
        return tt_build(expr[1]) ^ tt_build(expr[2])
    if tag == "ite":
        return tt_build(expr[1]).ite(tt_build(expr[2]), tt_build(expr[3]))
    raise AssertionError(tag)


def assert_matches_table(bdd: BDD, f: int, table: TruthTable) -> None:
    for a in range(1 << table.n):
        env = {NAMES[j]: bool((a >> j) & 1) for j in range(table.n)}
        assert bdd.eval(f, env) == table.eval(a), (a, env)


@settings(max_examples=60, deadline=None)
@given(exprs())
def test_not_is_a_zero_allocation_involution(expr):
    bdd = fresh()
    f = build(bdd, expr)
    allocated = bdd.stats()["allocated_nodes"]
    calls = bdd.not_calls
    g = bdd.not_(f)
    h = bdd.not_(g)
    assert h == f  # involution
    assert g == f ^ 1  # literally a complement-bit flip
    assert bdd.stats()["allocated_nodes"] == allocated  # nothing allocated
    assert bdd.not_calls == calls + 2  # and the telemetry saw both flips


@settings(max_examples=40, deadline=None)
@given(exprs())
def test_function_and_negation_share_one_dag(expr):
    bdd = fresh()
    f = build(bdd, expr)
    assert bdd.size(f) == bdd.size(bdd.not_(f))


@settings(max_examples=40, deadline=None)
@given(st.lists(exprs(), min_size=1, max_size=4))
def test_stored_then_edges_are_always_regular(expr_list):
    bdd = fresh()
    for expr in expr_list:
        build(bdd, expr)
    for idx in range(1, len(bdd._var)):
        if bdd._var[idx] < 0:  # freed slot
            continue
        assert bdd._hi[idx] & 1 == 0, (
            f"node {idx} stores a complemented then-edge"
        )


@settings(max_examples=40, deadline=None)
@given(exprs(), exprs())
def test_negation_canonicity_de_morgan(e1, e2):
    # not(a and b) must be the *same handle* as (not a) or (not b):
    # complement edges make De Morgan pairs structurally identical.
    bdd = fresh()
    a, b = build(bdd, e1), build(bdd, e2)
    assert bdd.not_(bdd.and_(a, b)) == bdd.or_(bdd.not_(a), bdd.not_(b))
    assert bdd.not_(bdd.or_(a, b)) == bdd.and_(bdd.not_(a), bdd.not_(b))
    # The two-operand AND core and the three-operand ITE core agree
    # handle for handle.
    F, T = bdd.false, bdd.true
    assert bdd.and_(a, b) == bdd.ite(a, b, F)
    assert bdd.or_(a, b) == bdd.ite(a, T, b)
    assert bdd.diff(a, b) == bdd.ite(a, bdd.not_(b), F)
    assert bdd.implies(a, b) == bdd.ite(a, b, T)


@settings(max_examples=30, deadline=None)
@given(exprs())
def test_matches_truthtable_oracle(expr):
    bdd = fresh()
    f = build(bdd, expr)
    assert_matches_table(bdd, f, tt_build(expr))


@settings(max_examples=20, deadline=None)
@given(st.lists(exprs(), min_size=2, max_size=5), st.randoms())
def test_reorder_preserves_semantics_and_canonicity(expr_list, rng):
    """In-place sifting keeps every rooted handle's function intact, and
    rebuilding an expression after the reorder lands on the same handle
    (canonicity holds under the *current* order)."""
    bdd = fresh()
    roots = [build(bdd, expr) for expr in expr_list]
    tables = [tt_build(expr) for expr in expr_list]
    bdd.reorder_now(extra_roots=roots)
    for f, table in zip(roots, tables):
        assert_matches_table(bdd, f, table)
    rebuilt = [build(bdd, expr) for expr in expr_list]
    assert rebuilt == roots


@settings(max_examples=20, deadline=None)
@given(exprs())
def test_sat_count_and_sat_iter_agree_after_reorder(expr):
    """Model counting and model enumeration must agree under whatever
    variable order the manager currently has (regression: rings decoded
    empty after dynamic reordering)."""
    bdd = fresh()
    f = build(bdd, expr)
    care = [bdd._var_of_name[n] for n in NAMES]
    before = bdd.sat_count(f, care)
    bdd.reorder_now(extra_roots=[f])
    assert bdd.sat_count(f, care) == before
    models = list(bdd.sat_iter(f, care))
    assert len(models) == before
    for assignment in models:
        assert bdd.eval(f, {bdd.var_name(v): val for v, val in assignment.items()})


def test_auto_reorder_kicks_in_and_keeps_answers():
    """An end-to-end smoke: arm auto_reorder low, run a workload with
    maybe_gc safe points, and check the reorder actually fired without
    changing any held root's brute-force semantics."""
    bdd = BDD(EngineConfig(auto_reorder=16))
    for name in NAMES:
        bdd.add_var(name)
    a, b, c, d, e = (bdd.var(n) for n in NAMES)
    f = bdd.or_(bdd.and_(a, bdd.not_(b)), bdd.xor(c, bdd.and_(d, e)))
    g = bdd.ite(bdd.xor(a, e), bdd.or_(b, d), bdd.and_(bdd.not_(c), b))
    expected_f = {tuple(env.items()): bdd.eval(f, env) for env in all_envs()}
    expected_g = {tuple(env.items()): bdd.eval(g, env) for env in all_envs()}
    with bdd.hold(lambda: [f, g]):
        for _ in range(20):
            junk = bdd.xor(f, g)
            junk = bdd.and_(junk, bdd.or_(f, bdd.not_(g)))
            bdd.maybe_gc(extra_roots=[junk])
    assert bdd.stats()["reorder_runs"] >= 1
    for env in all_envs():
        assert bdd.eval(f, env) == expected_f[tuple(env.items())]
        assert bdd.eval(g, env) == expected_g[tuple(env.items())]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(NAMES), exprs(), exprs())
def test_mk_is_ite_of_its_children(name, lo_expr, hi_expr):
    """``mk`` returns the canonical ``ite(var, hi, lo)`` handle, whether
    it can make the node directly or has to fall back to ``ite``."""
    bdd = fresh()
    lo = build(bdd, lo_expr)
    hi = build(bdd, hi_expr)
    var = bdd.var_index(name)
    f = bdd.mk(var, lo, hi)
    assert f == bdd.ite(bdd.var(var), hi, lo)
    assert_matches_table(
        bdd, f, TruthTable.var(len(NAMES), NAMES.index(name)).ite(
            tt_build(hi_expr), tt_build(lo_expr)
        )
    )
