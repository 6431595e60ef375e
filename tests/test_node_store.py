"""Regression battery for the flat numpy node store (PR 6).

Four families of pins:

* **Deep-chain regressions** — every formerly-recursive helper
  (`_rename`, `_vcompose`, `_restrict`, `_constrain`, `_restrict_dc`,
  `sat_count`, `sat_iter`) must survive a 2000-variable chain *under a
  tightened interpreter recursion limit*, proving the explicit-stack
  conversions and the removal of the old ``sys.setrecursionlimit``
  escape hatch.
* **compose parity** — ``compose`` is routed through ``vector_compose``;
  both must land on the same handle and allocate the same node count.
* **Cache fault injection** — a one-slot computed cache forces an
  eviction on essentially every insert; in-flight operators must stay
  correct versus the truth-table oracle (an eviction must never
  invalidate indices an explicit stack still holds).
* **Open-addressing table** — collision-heavy same-variable patterns and
  growth/rehash under live references, cross-checked against the oracle.
"""

import pickle
import random
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from repro.bdd import BDD
from repro.bdd.manager import BddError
from repro.config import EngineConfig
from repro.oracle.truthtable import TruthTable

DEEP = 2000


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


@contextmanager
def tight_recursion(headroom: int = 160):
    """Clamp the recursion limit just above the current stack depth.

    Any helper that still recursed per BDD level would blow up on the
    2000-node chains below; explicit-stack code sails through.  Also
    asserts nothing inside mutated the limit (the old ``_ensure_depth``
    escape hatch did exactly that, leaking across managers/threads).
    """
    old = sys.getrecursionlimit()
    clamped = _stack_depth() + headroom
    sys.setrecursionlimit(clamped)
    try:
        yield
        assert sys.getrecursionlimit() == clamped, (
            "a kernel helper mutated the global recursion limit"
        )
    finally:
        sys.setrecursionlimit(old)


def deep_manager() -> BDD:
    bdd = BDD()
    for i in range(DEEP):
        bdd.add_var(f"a{i}")
    for i in range(DEEP):
        bdd.add_var(f"b{i}")
    return bdd


def deep_chain(bdd: BDD) -> int:
    """Positive cube over a0..a1999 — a 2000-node linear DAG."""
    return bdd.cube([f"a{i}" for i in range(DEEP)])


# ---------------------------------------------------------------------------
# Deep-chain regressions: one per converted helper
# ---------------------------------------------------------------------------


def test_deep_rename():
    bdd = deep_manager()
    f = deep_chain(bdd)
    mapping = {i: DEEP + i for i in range(DEEP)}  # a_i -> b_i, order-preserving
    with tight_recursion():
        g = bdd.rename(f, mapping)
    assert g == bdd.cube(range(DEEP, 2 * DEEP))


def test_deep_vector_compose():
    bdd = deep_manager()
    f = deep_chain(bdd)
    sub = {i: bdd.var(DEEP + i) for i in range(DEEP)}
    with tight_recursion():
        g = bdd.vector_compose(f, sub)
        # Complemented root exercises the negation normalization path.
        h = bdd.vector_compose(bdd.not_(f), sub)
    assert g == bdd.cube(range(DEEP, 2 * DEEP))
    assert h == bdd.not_(g)


def test_deep_compose():
    bdd = deep_manager()
    f = deep_chain(bdd)
    with tight_recursion():
        g = bdd.compose(f, DEEP - 1, bdd.var(DEEP))  # a1999 := b0
    assert g == bdd.cube(list(range(DEEP - 1)) + [DEEP])


def test_deep_restrict():
    bdd = deep_manager()
    f = deep_chain(bdd)
    with tight_recursion():
        g = bdd.restrict(f, {DEEP - 1: True})   # bottom literal: full walk
        z = bdd.restrict(f, {1000: False})
    assert g == bdd.cube(range(DEEP - 1))
    assert z == bdd.false


def test_deep_constrain():
    bdd = deep_manager()
    f = deep_chain(bdd)
    with tight_recursion():
        g = bdd.constrain(f, bdd.var(DEEP - 1))
    # Constraining by a literal cube is exactly the cofactor.
    assert g == bdd.cube(range(DEEP - 1))


def test_deep_restrict_dc():
    bdd = deep_manager()
    f = deep_chain(bdd)
    care = bdd.cube(range(0, DEEP, 2))  # even a's as the care set
    with tight_recursion():
        r = bdd.restrict_dc(f, care)
    # Defining property of don't-care minimization: agree on the care set.
    assert bdd.and_(r, care) == bdd.and_(f, care)


def test_deep_sat_count():
    bdd = deep_manager()
    f = deep_chain(bdd)
    with tight_recursion():
        # Support is the 2000 a's; the 2000 b's are free.
        assert bdd.sat_count(f) == 1 << DEEP
        assert bdd.sat_count(f, range(DEEP)) == 1


def test_deep_sat_iter():
    bdd = deep_manager()
    f = deep_chain(bdd)
    with tight_recursion():
        models = list(bdd.sat_iter(f, range(DEEP)))
    assert len(models) == 1
    assert all(models[0][v] for v in range(DEEP))
    assert set(models[0]) == set(range(DEEP))


def test_no_recursion_limit_escape_hatch_in_kernel_source():
    import inspect

    import repro.bdd.manager as manager
    import repro.bdd.ops as ops
    import repro.bdd.ordering as ordering

    for mod in (manager, ops, ordering):
        src = inspect.getsource(mod)
        assert "setrecursionlimit" not in src, mod.__name__
        assert "_ensure_depth" not in src, mod.__name__


# ---------------------------------------------------------------------------
# compose == vector_compose (satellite 2)
# ---------------------------------------------------------------------------


def _medium(bdd: BDD):
    for i in range(8):
        bdd.add_var(f"x{i}")
    v = [bdd.var(i) for i in range(8)]
    f = bdd.ite(
        v[2],
        bdd.xor(bdd.and_(v[0], v[3]), bdd.or_(v[5], bdd.and_(v[1], bdd.not_(v[6])))),
        bdd.xor(v[4], v[7]),
    )
    g = bdd.or_(bdd.and_(v[4], v[6]), bdd.xor(v[0], v[5]))
    return f, g


def test_compose_matches_vector_compose_handle_and_expansion():
    bdd = BDD()
    f, g = _medium(bdd)
    r1 = bdd.compose(f, 3, g)
    r2 = bdd.vector_compose(f, {3: g})
    assert r1 == r2
    # ...and both equal the textbook restrict/ite expansion (canonicity).
    expansion = bdd.ite(
        g, bdd.restrict(f, {3: True}), bdd.restrict(f, {3: False})
    )
    assert r1 == expansion


def test_compose_node_count_parity_with_vector_compose():
    a = BDD()
    fa, ga = _medium(a)
    a.compose(fa, 3, ga)
    b = BDD()
    fb, gb = _medium(b)
    b.vector_compose(fb, {3: gb})
    assert a.stats()["allocated_nodes"] == b.stats()["allocated_nodes"]


# ---------------------------------------------------------------------------
# Cache fault injection: evict on (essentially) every insert (satellite 3)
# ---------------------------------------------------------------------------


def test_one_slot_cache_thrash_stays_correct():
    """cache_limit=1 degenerates the computed cache to a single slot, so
    nearly every ``_ck_put`` evicts the previous entry — including inserts
    made *mid-operator* while an explicit stack still holds node indices.
    Evictions must never invalidate those indices; every intermediate
    result is checked against the exhaustive oracle."""
    n = 6
    rng = random.Random(0xBDD)
    bdd = BDD(EngineConfig(cache_limit=1))
    names = [f"v{i}" for i in range(n)]
    for nm in names:
        bdd.add_var(nm)
    pool = [(bdd.var(i), TruthTable.var(n, i)) for i in range(n)]

    def check(f, t):
        for a in range(1 << n):
            env = {names[j]: bool((a >> j) & 1) for j in range(n)}
            assert bdd.eval(f, env) == t.eval(a), (a, env)

    for step in range(120):
        op = rng.choice([
            "and", "or", "xor", "not", "ite", "exist", "compose",
            "diff", "implies", "and_exists",
        ])
        f, tf = rng.choice(pool)
        g, tg = rng.choice(pool)
        h, th = rng.choice(pool)
        if op == "and":
            r, tr = bdd.and_(f, g), tf & tg
        elif op == "or":
            r, tr = bdd.or_(f, g), tf | tg
        elif op == "diff":
            r, tr = bdd.diff(f, g), tf.diff(tg)
        elif op == "implies":
            r, tr = bdd.implies(f, g), tf.implies(tg)
        elif op == "and_exists":
            cube = rng.sample(range(n), rng.randint(1, 3))
            r, tr = bdd.and_exists(f, g, cube), tf.and_exists(tg, cube)
        elif op == "xor":
            r, tr = bdd.xor(f, g), tf ^ tg
        elif op == "not":
            r, tr = bdd.not_(f), ~tf
        elif op == "ite":
            r, tr = bdd.ite(f, g, h), tf.ite(tg, th)
        elif op == "exist":
            j = rng.randrange(n)
            r, tr = bdd.exist([j], f), tf.exist([j])
        else:
            j = rng.randrange(n)
            r, tr = bdd.compose(f, j, g), tf.compose(j, tg)
        check(r, tr)
        pool.append((r, tr))

    st = bdd.stats()
    assert st["cache_capacity"] == 1
    assert st["cache_evictions"] > 50, "thrash harness never forced evictions"
    assert bdd.cache_size() <= 1


def test_cache_growth_under_inflight_operator():
    """The growable default cache reallocates its arrays mid-operator;
    handles held by the operator's stack must survive (indices are into
    the *node* columns, never the cache).  Two workloads: ``xor`` runs on
    the standardized ITE core; ``or_`` and ``and_exists`` (whose joins
    and products call the AND core directly) write their cache rows
    inline.  A spy on ``_ck_grow`` checks that the cache really grew
    under each of them."""
    bdd = BDD()  # growable cache, starts at 4096 entries
    for i in range(14):
        bdd.add_var(f"g{i}")
    f = bdd.true
    rng = random.Random(7)
    for _ in range(900):
        i, j = rng.randrange(14), rng.randrange(14)
        f = bdd.xor(f, bdd.and_(bdd.var(i), bdd.nvar(j)))
    st = bdd.stats()
    assert st["cache_capacity"] > 4096, "workload never grew the cache"
    # Spot-check correctness after many in-flight growth events.
    rows = np.array([[bool((a >> j) & 1) for j in range(14)] for a in range(0, 1 << 14, 97)])
    got = bdd.eval_batch(f, rows)
    for row, expect in zip(rows, got):
        env = {f"g{j}": bool(row[j]) for j in range(14)}
        assert bdd.eval(f, env) == bool(expect)

    n = 14
    bdd = BDD()
    for i in range(n):
        bdd.add_var(f"g{i}")
    grown_under = []
    grow = bdd._ck_grow

    def spy():
        names, frame = set(), sys._getframe(1)
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        grown_under.append(names)
        grow()

    bdd._ck_grow = spy
    # Row a is the assignment with variable j = bit j of a; every result
    # is checked on all 2^14 rows against a numpy truth table.
    rows = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1

    def exist(table, variables):
        for j in variables:
            halves = table.reshape(-1, 2, 1 << j)
            table = np.broadcast_to(
                halves.any(axis=1, keepdims=True), halves.shape
            ).reshape(-1)
        return table

    def dnf(cubes):
        f, table = bdd.false, np.zeros(1 << n, dtype=bool)
        for _ in range(cubes):
            lits = [(rng.randrange(n), rng.random() < 0.5) for _ in range(4)]
            f = bdd.or_(f, bdd.literal_cube(lits))
            table = table | np.all([rows[:, j] == pos for j, pos in lits], axis=0)
        return f, table

    rng = random.Random(7)
    pool = [dnf(30) for _ in range(4)]
    assert any("or_" in names for names in grown_under), "or_ never grew the cache"
    products = []
    for _ in range(300):
        (f, tf), (g, tg) = rng.sample(pool, 2)
        cube = rng.sample(range(n), 5)
        products.append((bdd.and_exists(f, g, cube), exist(tf & tg, cube)))
    assert any("_and_exists" in names for names in grown_under), (
        "and_exists never grew the cache"
    )
    for f, table in pool + products:
        assert np.array_equal(bdd.eval_batch(f, rows), table)


def test_and_exists_calls_no_public_connective():
    """Quantified splits join their branches, and products below an
    exhausted cube finish, in the AND core itself: patching the public
    ``and_``/``or_`` to raise must not disturb ``and_exists``, nor
    ``exist``/``forall``, which run on the same relational product."""
    bdd = BDD()
    x = [bdd.var(bdd.add_var(f"x{i}")) for i in range(6)]
    # Quantifying x0 joins two non-constant branches; below x3 the cube
    # is exhausted and products over x4, x5 finish in the core.
    f = bdd.ite(x[0], bdd.and_(x[1], x[2]), bdd.and_(x[3], x[4]))
    g = bdd.or_(bdd.or_(x[2], x[4]), bdd.xor(x[3], x[5]))
    quantified = [0, 3]
    expected = bdd.exist(quantified, bdd.and_(f, g))
    some = bdd.exist(quantified, f)
    every = bdd.forall(quantified, f)
    bdd.clear_cache()
    joins = bdd.cache_stats()["or"]["lookups"]
    products = bdd.cache_stats()["and"]["lookups"]

    def refuse(*args):
        raise AssertionError("a quantifier called a public connective")

    bdd.and_ = bdd.or_ = refuse
    assert bdd.and_exists(f, g, quantified) == expected
    assert bdd.cache_stats()["or"]["lookups"] > joins
    assert bdd.cache_stats()["and"]["lookups"] > products
    exists_before = bdd.cache_stats()["exist"]["lookups"]
    assert bdd.exist(quantified, f) == some
    assert bdd.forall(quantified, f) == every
    assert bdd.cache_stats()["exist"]["lookups"] > exists_before


# ---------------------------------------------------------------------------
# Open-addressing unique table (satellite 4)
# ---------------------------------------------------------------------------


def test_collision_heavy_same_var_patterns_rehash_and_stay_canonical():
    """4096 minterm cubes over 12 vars put 4096 nodes on the *same*
    top variable with near-sequential child handles — the adversarial
    pattern for multiplicative hashing with linear probing — and force
    several table rehashes (initial size is 2048 slots)."""
    n = 12
    bdd = BDD()
    for i in range(n):
        bdd.add_var(f"m{i}")
    initial_slots = bdd.stats()["unique_slots"]

    def minterm(k: int) -> int:
        lits = [bdd.var(j) if (k >> j) & 1 else bdd.nvar(j) for j in range(n)]
        return bdd.conj(lits)

    handles = [minterm(k) for k in range(1 << n)]
    st = bdd.stats()
    assert st["unique_slots"] > initial_slots, "table never rehashed"
    # Every internal node is findable: used counter == live internal nodes
    # (``len`` counts the shared terminal as two, one per polarity).
    assert st["unique_used"] == len(bdd) - 2
    # Canonicity through all that probing: rebuilding returns identical
    # handles and allocates nothing new.
    allocated = st["allocated_nodes"]
    for k in range(0, 1 << n, 61):
        assert minterm(k) == handles[k]
    assert bdd.stats()["allocated_nodes"] == allocated
    # Distinctness: minterms are pairwise distinct functions.
    assert len(set(handles)) == 1 << n
    # Semantics of a sample against the oracle.
    for k in (0, 1, 1717, 4095):
        t = TruthTable(n, 1 << k)
        for a in (0, k, 4095, 2048):
            env = {f"m{j}": bool((a >> j) & 1) for j in range(n)}
            assert bdd.eval(handles[k], env) == t.eval(a)


def test_growth_and_rehash_under_live_references():
    """Handles taken *before* node-array growth and table rehash must stay
    valid and keep their function afterwards (node indices never move)."""
    n = 10
    bdd = BDD()
    for i in range(n):
        bdd.add_var(f"r{i}")
    early = []
    tables = []
    for j in range(n - 1):
        f = bdd.xor(bdd.var(j), bdd.and_(bdd.var(j + 1), bdd.nvar(0)))
        early.append(f)
        tables.append(
            TruthTable.var(n, j) ^ (TruthTable.var(n, j + 1) & ~TruthTable.var(n, 0))
        )
    cap_before = bdd.stats()["node_capacity"]
    # Blow past the initial 1024-slot node capacity (and the unique table).
    for k in range(1 << n):
        bdd.conj([bdd.var(j) if (k >> j) & 1 else bdd.nvar(j) for j in range(n)])
    st = bdd.stats()
    assert st["node_capacity"] > cap_before, "workload never grew the arrays"
    for f, t in zip(early, tables):
        for a in (0, 1, 513, 1023):
            env = {f"r{j}": bool((a >> j) & 1) for j in range(n)}
            assert bdd.eval(f, env) == t.eval(a)
    # Rebuilding an early function still lands on the exact same handle.
    rebuilt = bdd.xor(bdd.var(0), bdd.and_(bdd.var(1), bdd.nvar(0)))
    assert rebuilt == early[0]


def test_unique_table_healthy_after_sifting_tombstones():
    """Sifting deletes and reinserts relabeled nodes, leaving tombstones;
    the table must stay canonical and its live counter exact."""
    bdd = BDD()
    for i in range(8):
        bdd.add_var(f"s{i}")
    v = [bdd.var(i) for i in range(8)]
    f = bdd.or_(bdd.and_(v[0], v[4]), bdd.or_(bdd.and_(v[1], v[5]), bdd.and_(v[2], v[6])))
    bdd.reorder_now(extra_roots=[f])
    st = bdd.stats()
    assert st["unique_used"] == len(bdd) - 2
    # Find-or-create still lands on existing nodes through any tombstones.
    # Only the held root survived the reorder's sweep — re-fetch the
    # literals and rebuild; canonicity must land back on ``f``.
    w = [bdd.var(i) for i in range(8)]
    rebuilt = bdd.or_(
        bdd.and_(w[0], w[4]), bdd.or_(bdd.and_(w[1], w[5]), bdd.and_(w[2], w[6]))
    )
    assert rebuilt == f


# ---------------------------------------------------------------------------
# Vectorized evaluation + pickling plumbing
# ---------------------------------------------------------------------------


def test_eval_batch_matches_scalar_eval():
    n = 10
    bdd = BDD()
    for i in range(n):
        bdd.add_var(f"e{i}")
    rng = random.Random(99)
    f = bdd.false
    for _ in range(60):
        i, j, k = (rng.randrange(n) for _ in range(3))
        f = bdd.ite(bdd.var(i), bdd.xor(f, bdd.var(j)), bdd.or_(f, bdd.nvar(k)))
    rows = np.array(
        [[bool((a >> j) & 1) for j in range(n)] for a in range(1 << n)], dtype=bool
    )
    got = bdd.eval_batch(f, rows)
    assert got.dtype == bool and got.shape == (1 << n,)
    for a in range(0, 1 << n, 17):
        env = {f"e{j}": bool((a >> j) & 1) for j in range(n)}
        assert bool(got[a]) == bdd.eval(f, env)
    # Named-column variant and terminal fast paths.
    sub = bdd.eval_batch(f, rows, variables=[f"e{j}" for j in range(n)])
    assert np.array_equal(sub, got)
    assert bdd.eval_batch(bdd.true, rows).all()
    assert not bdd.eval_batch(bdd.false, rows).any()
    with pytest.raises(BddError):
        bdd.eval_batch(f, rows[:, :3])


def test_manager_pickles_and_restores_views():
    bdd = BDD()
    for i in range(6):
        bdd.add_var(f"p{i}")
    f = bdd.xor(bdd.var(0), bdd.and_(bdd.var(3), bdd.nvar(5)))
    clone = pickle.loads(pickle.dumps(bdd))
    g = f  # node indices survive the round trip
    for a in range(1 << 6):
        env = {f"p{j}": bool((a >> j) & 1) for j in range(6)}
        assert clone.eval(g, env) == bdd.eval(f, env)
    # The restored manager must be fully operational (views rebuilt).
    assert clone.and_(g, clone.var(1)) == clone.and_(clone.var(1), g)
