"""Property-based tests: the BDD engine against brute-force evaluation.

Random boolean expressions are built over a small variable set, turned
into BDDs, and compared with direct evaluation on every assignment.
These tests pin down canonicity, operator semantics, quantification and
the don't-care operators far more broadly than hand-written cases.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.bdd import BDD

NAMES = ["v0", "v1", "v2", "v3", "v4"]


# -- expression strategy -------------------------------------------------

def exprs(depth=3):
    leaf = st.one_of(
        st.sampled_from([("var", n) for n in NAMES]),
        st.just(("const", True)),
        st.just(("const", False)),
    )
    def extend(children):
        return st.one_of(
            st.tuples(st.just("not"), children),
            st.tuples(st.just("and"), children, children),
            st.tuples(st.just("or"), children, children),
            st.tuples(st.just("xor"), children, children),
            st.tuples(st.just("ite"), children, children, children),
        )
    return st.recursive(leaf, extend, max_leaves=12)


def build(bdd: BDD, expr) -> int:
    tag = expr[0]
    if tag == "var":
        return bdd.var(expr[1])
    if tag == "const":
        return bdd.true if expr[1] else bdd.false
    if tag == "not":
        return bdd.not_(build(bdd, expr[1]))
    if tag == "and":
        return bdd.and_(build(bdd, expr[1]), build(bdd, expr[2]))
    if tag == "or":
        return bdd.or_(build(bdd, expr[1]), build(bdd, expr[2]))
    if tag == "xor":
        return bdd.xor(build(bdd, expr[1]), build(bdd, expr[2]))
    if tag == "ite":
        return bdd.ite(build(bdd, expr[1]), build(bdd, expr[2]), build(bdd, expr[3]))
    raise AssertionError(tag)


def brute(expr, env) -> bool:
    tag = expr[0]
    if tag == "var":
        return env[expr[1]]
    if tag == "const":
        return expr[1]
    if tag == "not":
        return not brute(expr[1], env)
    if tag == "and":
        return brute(expr[1], env) and brute(expr[2], env)
    if tag == "or":
        return brute(expr[1], env) or brute(expr[2], env)
    if tag == "xor":
        return brute(expr[1], env) != brute(expr[2], env)
    if tag == "ite":
        return brute(expr[2], env) if brute(expr[1], env) else brute(expr[3], env)
    raise AssertionError(tag)


def all_envs():
    for bits in itertools.product([False, True], repeat=len(NAMES)):
        yield dict(zip(NAMES, bits))


def fresh() -> BDD:
    bdd = BDD()
    for name in NAMES:
        bdd.add_var(name)
    return bdd


@settings(max_examples=60, deadline=None)
@given(exprs())
def test_bdd_matches_brute_force(expr):
    bdd = fresh()
    f = build(bdd, expr)
    for env in all_envs():
        assert bdd.eval(f, env) is brute(expr, env)


@settings(max_examples=60, deadline=None)
@given(exprs())
def test_canonicity_of_equivalent_builds(expr):
    """Building f and ~~f (different op sequences) yields the same node."""
    bdd = fresh()
    f = build(bdd, expr)
    g = bdd.not_(bdd.not_(build(bdd, expr)))
    assert f == g


@settings(max_examples=40, deadline=None)
@given(exprs(), st.sampled_from(NAMES))
def test_exist_semantics(expr, var):
    bdd = fresh()
    f = build(bdd, expr)
    g = bdd.exist([var], f)
    for env in all_envs():
        env_t = dict(env, **{var: True})
        env_f = dict(env, **{var: False})
        expected = brute(expr, env_t) or brute(expr, env_f)
        assert bdd.eval(g, env) is expected


@settings(max_examples=40, deadline=None)
@given(exprs(), st.sampled_from(NAMES))
def test_forall_semantics(expr, var):
    bdd = fresh()
    f = build(bdd, expr)
    g = bdd.forall([var], f)
    for env in all_envs():
        env_t = dict(env, **{var: True})
        env_f = dict(env, **{var: False})
        expected = brute(expr, env_t) and brute(expr, env_f)
        assert bdd.eval(g, env) is expected


@settings(max_examples=40, deadline=None)
@given(exprs(), exprs(), st.sets(st.sampled_from(NAMES), max_size=3))
def test_and_exists_equals_naive(e1, e2, names):
    bdd = fresh()
    f, g = build(bdd, e1), build(bdd, e2)
    fused = bdd.and_exists(f, g, sorted(names))
    naive = bdd.exist(sorted(names), bdd.and_(f, g))
    assert fused == naive


@settings(max_examples=40, deadline=None)
@given(exprs(), exprs())
def test_constrain_and_restrict_agree_on_care(e_f, e_c):
    bdd = fresh()
    f, c = build(bdd, e_f), build(bdd, e_c)
    if c == bdd.false:
        return
    for op in (bdd.constrain, bdd.restrict_dc):
        g = op(f, c)
        assert bdd.and_(bdd.xor(f, g), c) == bdd.false


@settings(max_examples=40, deadline=None)
@given(exprs())
def test_sat_count_matches_enumeration(expr):
    bdd = fresh()
    f = build(bdd, expr)
    expected = sum(1 for env in all_envs() if brute(expr, env))
    assert bdd.sat_count(f, NAMES) == expected


@settings(max_examples=30, deadline=None)
@given(exprs())
def test_sat_iter_exactly_the_models(expr):
    bdd = fresh()
    f = build(bdd, expr)
    got = set()
    for model in bdd.sat_iter(f, NAMES):
        named = tuple(model[bdd.var_index(n)] for n in NAMES)
        got.add(named)
    expected = {
        tuple(env[n] for n in NAMES) for env in all_envs() if brute(expr, env)
    }
    assert got == expected


@settings(max_examples=30, deadline=None)
@given(exprs())
def test_gc_never_corrupts_registered_roots(expr):
    bdd = fresh()
    f = build(bdd, expr)
    with bdd.hold(lambda: [f]):
        build(bdd, ("and", ("var", "v0"), ("var", "v4")))  # garbage
        bdd.gc()
    for env in all_envs():
        assert bdd.eval(f, env) is brute(expr, env)
