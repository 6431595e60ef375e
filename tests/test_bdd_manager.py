"""Unit tests for the core BDD manager."""

import pickle

import pytest

from repro.bdd import BDD, BddError, FALSE, TRUE
from repro.config import EngineConfig


@pytest.fixture
def bdd():
    manager = BDD()
    for name in ("a", "b", "c", "d"):
        manager.add_var(name)
    return manager


class TestVariables:
    def test_declared_variables_are_ordered(self, bdd):
        assert bdd.var_count == 4
        assert [bdd.var_name(v) for v in bdd.order] == ["a", "b", "c", "d"]

    def test_duplicate_declaration_rejected(self, bdd):
        with pytest.raises(BddError):
            bdd.add_var("a")

    def test_unknown_variable_rejected(self, bdd):
        with pytest.raises(BddError):
            bdd.var_index("zz")

    def test_insert_at_level(self):
        manager = BDD()
        manager.add_var("x")
        manager.add_var("y")
        manager.add_var("z", level=0)
        assert [manager.var_name(v) for v in manager.order] == ["z", "x", "y"]


class TestCanonicity:
    def test_terminals(self, bdd):
        assert bdd.true == TRUE
        assert bdd.false == FALSE

    def test_same_function_same_node(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        f1 = bdd.and_(a, b)
        f2 = bdd.not_(bdd.or_(bdd.not_(a), bdd.not_(b)))
        assert f1 == f2

    def test_reduction_no_redundant_test(self, bdd):
        a = bdd.var("a")
        assert bdd.ite(a, bdd.true, bdd.true) == bdd.true

    def test_negative_literal(self, bdd):
        assert bdd.nvar("a") == bdd.not_(bdd.var("a"))

    def test_double_negation(self, bdd):
        f = bdd.xor(bdd.var("a"), bdd.var("c"))
        assert bdd.not_(bdd.not_(f)) == f


class TestConnectives:
    def test_truth_table_and(self, bdd):
        f = bdd.and_(bdd.var("a"), bdd.var("b"))
        for a in (0, 1):
            for b in (0, 1):
                expected = bool(a and b)
                env = {"a": a, "b": b, "c": 0, "d": 0}
                assert bdd.eval(f, env) is expected

    def test_truth_table_xor(self, bdd):
        f = bdd.xor(bdd.var("a"), bdd.var("b"))
        for a in (0, 1):
            for b in (0, 1):
                env = {"a": a, "b": b, "c": 0, "d": 0}
                assert bdd.eval(f, env) is bool(a ^ b)

    def test_implies(self, bdd):
        f = bdd.implies(bdd.var("a"), bdd.var("b"))
        assert bdd.eval(f, {"a": 0, "b": 0, "c": 0, "d": 0}) is True
        assert bdd.eval(f, {"a": 1, "b": 0, "c": 0, "d": 0}) is False

    def test_xnor_is_not_xor(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        assert bdd.xnor(a, b) == bdd.not_(bdd.xor(a, b))

    def test_conj_disj_shortcut(self, bdd):
        vars_ = [bdd.var(n) for n in ("a", "b", "c")]
        assert bdd.conj([bdd.false] + vars_) == bdd.false
        assert bdd.disj([bdd.true] + vars_) == bdd.true

    def test_diff(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        f = bdd.diff(a, b)
        assert bdd.eval(f, {"a": 1, "b": 0, "c": 0, "d": 0}) is True
        assert bdd.eval(f, {"a": 1, "b": 1, "c": 0, "d": 0}) is False


class TestIte:
    def test_ite_as_mux(self, bdd):
        f = bdd.ite(bdd.var("a"), bdd.var("b"), bdd.var("c"))
        assert bdd.eval(f, {"a": 1, "b": 1, "c": 0, "d": 0}) is True
        assert bdd.eval(f, {"a": 0, "b": 1, "c": 0, "d": 0}) is False
        assert bdd.eval(f, {"a": 0, "b": 0, "c": 1, "d": 0}) is True

    def test_ite_terminal_cases(self, bdd):
        a = bdd.var("a")
        g = bdd.var("b")
        assert bdd.ite(bdd.true, g, a) == g
        assert bdd.ite(bdd.false, g, a) == a
        assert bdd.ite(a, g, g) == g
        assert bdd.ite(a, bdd.true, bdd.false) == a


class TestQuantification:
    def test_exist_removes_variable(self, bdd):
        f = bdd.and_(bdd.var("a"), bdd.var("b"))
        g = bdd.exist(["a"], f)
        assert g == bdd.var("b")

    def test_forall(self, bdd):
        f = bdd.or_(bdd.var("a"), bdd.var("b"))
        assert bdd.forall(["a"], f) == bdd.var("b")

    def test_exist_of_disjoint_var_is_identity(self, bdd):
        f = bdd.xor(bdd.var("a"), bdd.var("b"))
        assert bdd.exist(["d"], f) == f

    def test_and_exists_equals_sequential(self, bdd):
        f = bdd.or_(bdd.var("a"), bdd.var("c"))
        g = bdd.xor(bdd.var("a"), bdd.var("b"))
        direct = bdd.and_exists(f, g, ["a"])
        sequential = bdd.exist(["a"], bdd.and_(f, g))
        assert direct == sequential

    def test_multi_var_cube(self, bdd):
        f = bdd.conj([bdd.var("a"), bdd.var("b"), bdd.var("c")])
        assert bdd.exist(["a", "b", "c"], f) == bdd.true

    def test_cube_vars_roundtrip(self, bdd):
        cube = bdd.cube(["c", "a"])
        names = {bdd.var_name(v) for v in bdd.cube_vars(cube)}
        assert names == {"a", "c"}


class TestSubstitution:
    def test_rename_order_preserving(self, bdd):
        f = bdd.and_(bdd.var("a"), bdd.nvar("b"))
        mapping = {bdd.var_index("a"): bdd.var_index("c"),
                   bdd.var_index("b"): bdd.var_index("d")}
        g = bdd.rename(f, mapping)
        assert bdd.eval(g, {"a": 0, "b": 0, "c": 1, "d": 0}) is True

    def test_rename_order_violation_matches_vector_compose(self, bdd):
        """A map that reverses the order, or moves a variable below an
        unrenamed one of the support, is rebuilt through ``ite`` and lands
        on the handle of the same simultaneous substitution."""
        a, b, c, d = (bdd.var_index(n) for n in "abcd")
        for f, mapping in [
            (bdd.and_(bdd.var("c"), bdd.nvar("d")), {c: b, d: a}),
            (bdd.or_(bdd.var("a"), bdd.nvar("b")), {a: d}),
        ]:
            substitution = {v: bdd.var(nv) for v, nv in mapping.items()}
            assert bdd.rename(f, mapping) == bdd.vector_compose(f, substitution)

    def test_compose(self, bdd):
        f = bdd.and_(bdd.var("a"), bdd.var("b"))
        g = bdd.compose(f, "a", bdd.or_(bdd.var("c"), bdd.var("d")))
        assert bdd.eval(g, {"a": 0, "b": 1, "c": 1, "d": 0}) is True
        assert bdd.eval(g, {"a": 1, "b": 1, "c": 0, "d": 0}) is False

    def test_vector_compose_is_simultaneous(self, bdd):
        # swap a and b simultaneously: a&!b becomes b&!a
        f = bdd.and_(bdd.var("a"), bdd.nvar("b"))
        sub = {bdd.var_index("a"): bdd.var("b"), bdd.var_index("b"): bdd.var("a")}
        g = bdd.vector_compose(f, sub)
        assert bdd.eval(g, {"a": 0, "b": 1, "c": 0, "d": 0}) is True
        assert bdd.eval(g, {"a": 1, "b": 0, "c": 0, "d": 0}) is False


class TestCofactorsAndDontCares:
    def test_restrict_assignment(self, bdd):
        f = bdd.ite(bdd.var("a"), bdd.var("b"), bdd.var("c"))
        assert bdd.restrict(f, {bdd.var_index("a"): True}) == bdd.var("b")
        assert bdd.restrict(f, {bdd.var_index("a"): False}) == bdd.var("c")

    def test_constrain_agrees_on_care_set(self, bdd):
        f = bdd.xor(bdd.var("a"), bdd.var("b"))
        care = bdd.var("a")
        g = bdd.constrain(f, care)
        # On the care set the functions agree.
        assert bdd.and_(bdd.xor(f, g), care) == bdd.false

    def test_constrain_identity_cases(self, bdd):
        f = bdd.var("a")
        assert bdd.constrain(f, bdd.true) == f
        assert bdd.constrain(f, f) == bdd.true
        with pytest.raises(BddError):
            bdd.constrain(f, bdd.false)

    def test_restrict_dc_agrees_and_shrinks_support(self, bdd):
        a, b, c = bdd.var("a"), bdd.var("b"), bdd.var("c")
        f = bdd.or_(bdd.and_(a, b), bdd.and_(bdd.not_(a), c))
        care = a
        g = bdd.restrict_dc(f, care)
        assert bdd.and_(bdd.xor(f, g), care) == bdd.false
        # restrict guarantees support(g) subset of support(f)
        assert set(bdd.support(g)) <= set(bdd.support(f))


class TestCountingAndEnumeration:
    def test_sat_count_simple(self, bdd):
        f = bdd.or_(bdd.var("a"), bdd.var("b"))
        assert bdd.sat_count(f, ["a", "b"]) == 3
        assert bdd.sat_count(f) == 12  # free c, d double twice

    def test_sat_count_terminals(self, bdd):
        assert bdd.sat_count(bdd.true, ["a", "b"]) == 4
        assert bdd.sat_count(bdd.false, ["a", "b"]) == 0

    def test_sat_count_requires_support(self, bdd):
        f = bdd.var("c")
        with pytest.raises(BddError):
            bdd.sat_count(f, ["a"])

    def test_sat_iter_covers_all_models(self, bdd):
        f = bdd.xor(bdd.var("a"), bdd.var("c"))
        models = list(bdd.sat_iter(f, ["a", "b", "c"]))
        assert len(models) == 4
        for m in models:
            named = {bdd.var_name(k): v for k, v in m.items()}
            assert named["a"] != named["c"]

    def test_pick_cube_satisfies(self, bdd):
        f = bdd.and_(bdd.var("b"), bdd.nvar("c"))
        cube = bdd.pick_cube(f, ["a", "b", "c", "d"])
        env = {bdd.var_name(k): v for k, v in cube.items()}
        assert bdd.eval(f, env) is True

    def test_pick_cube_of_false(self, bdd):
        assert bdd.pick_cube(bdd.false) is None

    def test_support(self, bdd):
        f = bdd.ite(bdd.var("a"), bdd.var("c"), bdd.var("c"))
        assert [bdd.var_name(v) for v in bdd.support(f)] == ["c"]

    def test_size(self, bdd):
        f = bdd.and_(bdd.var("a"), bdd.var("b"))
        assert bdd.size(f) == 4  # two internal + two terminals


class _Owner:
    """An engine object in miniature: it declares the handles it holds."""

    def __init__(self, handles):
        self.handles = list(handles)
        self.reads = 0

    def live_handles(self):
        self.reads += 1
        return self.handles


class TestGarbageCollection:
    def test_gc_preserves_roots(self, bdd):
        f = bdd.xor(bdd.var("a"), bdd.var("b"))
        garbage = [bdd.conj([bdd.var("a"), bdd.var("c"), bdd.var("d")])]
        owner = _Owner([f])
        bdd.keep(owner.live_handles)
        del garbage
        before = len(bdd)
        freed = bdd.gc()
        assert freed > 0
        assert len(bdd) < before
        assert bdd.eval(f, {"a": 1, "b": 0, "c": 0, "d": 0}) is True

    def test_gc_extra_roots(self, bdd):
        f = bdd.and_(bdd.var("a"), bdd.var("d"))
        bdd.gc(extra_roots=[f])
        assert bdd.eval(f, {"a": 1, "b": 0, "c": 0, "d": 1}) is True

    def test_nodes_reusable_after_gc(self, bdd):
        f = bdd.and_(bdd.var("a"), bdd.var("b"))
        bdd.gc()  # f is garbage
        g = bdd.and_(bdd.var("a"), bdd.var("b"))
        assert bdd.eval(g, {"a": 1, "b": 1, "c": 0, "d": 0}) is True

    def test_deregister_root(self, bdd):
        """A root stops pinning its nodes once its hold closes or its owner
        is freed: nothing is deregistered by hand."""
        f = bdd.and_(bdd.var("a"), bdd.var("b"))
        with bdd.hold(lambda: [f]):
            bdd.gc()
            assert bdd.eval(f, {"a": 1, "b": 1, "c": 0, "d": 0}) is True
        owner = _Owner([f])
        bdd.keep(owner.live_handles)
        assert bdd.gc() == 0
        del owner
        assert bdd.gc() > 0

    def test_stats_shape(self, bdd):
        stats = bdd.stats()
        assert {"live_nodes", "allocated_nodes", "cache_entries",
                "variables", "gc_runs"} <= set(stats)


class TestRootSources:
    """A handle survives a collection iff a safe point's ``extra_roots``,
    an open ``hold`` or a live owner's provider names it."""

    def test_providers_are_read_only_when_a_collection_runs(self, bdd):
        owner = _Owner([bdd.and_(bdd.var("a"), bdd.var("b"))])
        bdd.keep(owner.live_handles)
        assert bdd.maybe_gc() == 0 and owner.reads == 0
        bdd.gc()
        assert owner.reads == 1

    def test_holds_nest_and_close_on_error(self, bdd):
        f = bdd.and_(bdd.var("a"), bdd.var("b"))
        g = bdd.or_(bdd.var("c"), bdd.var("d"))
        with bdd.hold(lambda: [f]):
            with pytest.raises(RuntimeError):
                with bdd.hold(lambda: [g]):
                    raise RuntimeError("leave the inner block")
            assert bdd.gc() > 0  # g is no longer held, f still is
            assert bdd.eval(f, {"a": 1, "b": 1, "c": 0, "d": 0}) is True
        assert bdd.gc() > 0

    def test_pickled_manager_leaves_providers_and_holds_behind(self, bdd):
        f = bdd.xor(bdd.var("a"), bdd.var("c"))
        owner = _Owner([f])
        bdd.keep(owner.live_handles)
        bdd.gc()
        with bdd.hold(lambda: [f]):
            clone = pickle.loads(pickle.dumps(bdd))
        assert clone.gc() > 0  # nothing roots f in the copy
        assert bdd.gc() == 0


class TestSizeSemantics:
    def test_size_constants(self, bdd):
        assert bdd.size(bdd.false) == 1
        assert bdd.size(bdd.true) == 1

    def test_size_literal(self, bdd):
        assert bdd.size(bdd.var("a")) == 3  # one internal + both terminals

    def test_size_cube_reaches_both_terminals(self, bdd):
        cube = bdd.cube(["a", "b", "c"])
        assert bdd.size(cube) == 5

    def test_shared_size_of_constants(self, bdd):
        assert bdd.size([bdd.true, bdd.false]) == 2

    def test_var_population(self, bdd):
        f = bdd.and_(bdd.var("a"), bdd.var("b"))
        assert bdd.var_population("a") == 2  # literal a and the conjunction
        assert bdd.var_population("b") == 1
        assert bdd.var_population("c") == 0
        del f


class TestSelfManagement:
    def test_gc_skips_cache_clear_when_nothing_freed(self, bdd):
        f = bdd.and_(bdd.var("a"), bdd.var("b"))
        owner = _Owner([f])
        bdd.keep(owner.live_handles)
        bdd.gc()  # collect any garbage from fixture setup
        a_idx = bdd.var_index("a")
        # Creates cache entries but no new nodes.
        bdd.restrict(f, {a_idx: True})
        cached = bdd.cache_size()
        assert cached > 0
        assert bdd.gc() == 0
        assert bdd.cache_size() == cached  # cache survived the no-op sweep

    def test_cache_limit_evicts(self):
        manager = BDD(EngineConfig(cache_limit=4))
        for name in ("a", "b", "c", "d", "e", "f"):
            manager.add_var(name)
        f = manager.true
        for name in ("a", "b", "c", "d", "e", "f"):
            f = manager.and_(f, manager.var(name))
        assert manager.cache_evictions > 0
        assert manager.cache_size() <= 4
        env = {n: 1 for n in ("a", "b", "c", "d", "e", "f")}
        assert manager.eval(f, env) is True

    def test_cache_limit_preserves_correctness(self):
        def build(config):
            manager = BDD(config)
            vs = [manager.add_var(f"v{i}") for i in range(8)]
            f = manager.false
            for i in range(0, 8, 2):
                f = manager.or_(
                    f, manager.and_(manager.var(vs[i]), manager.var(vs[i + 1]))
                )
            return manager, f

        unlimited_mgr, unlimited = build(EngineConfig())
        tiny_mgr, tiny = build(EngineConfig(cache_limit=2))
        assert tiny_mgr.cache_evictions > 0
        care = [f"v{i}" for i in range(8)]
        assert (tiny_mgr.sat_count(tiny, care)
                == unlimited_mgr.sat_count(unlimited, care))

    def test_auto_gc_flags_and_maybe_gc_collects(self):
        manager = BDD(EngineConfig(auto_gc=5))
        for name in ("a", "b", "c", "d"):
            manager.add_var(name)
        keep = manager.xor(manager.var("a"), manager.var("b"))
        owner = _Owner([keep])
        manager.keep(owner.live_handles)
        # Churn out garbage until the trigger fires.
        for _ in range(4):
            manager.conj([manager.var("a"), manager.var("c"), manager.var("d")])
        assert manager._gc_pending
        freed = manager.maybe_gc()
        assert freed > 0
        assert manager.gc_count == 1
        assert not manager._gc_pending
        assert manager.eval(keep, {"a": 1, "b": 0, "c": 0, "d": 0}) is True

    def test_maybe_gc_noop_without_flag(self, bdd):
        bdd.and_(bdd.var("a"), bdd.var("b"))
        assert bdd.maybe_gc() == 0
        assert bdd.gc_count == 0

    def test_auto_gc_disabled_by_default(self, bdd):
        for _ in range(50):
            bdd.conj([bdd.var("a"), bdd.var("c"), bdd.var("d")])
        assert not bdd._gc_pending

    def test_register_root_group_replaces_prefix(self, bdd):
        """An owner's family of roots is read at each collection, so a
        family that shrinks leaves no stale root behind."""
        f = bdd.and_(bdd.var("a"), bdd.var("b"))
        g = bdd.or_(bdd.var("c"), bdd.var("d"))
        owner = _Owner([f, g])
        bdd.keep(owner.live_handles)
        bdd.gc()
        assert bdd.gc() == 0
        owner.handles = [g]
        assert bdd.gc() == bdd.size(f) - 2  # f's own nodes, no terminal
        assert bdd.eval(g, {"a": 0, "b": 0, "c": 0, "d": 1}) is True

    def test_cache_stats_counts_hits(self, bdd):
        a, b = bdd.var("a"), bdd.var("b")
        bdd.and_(a, b)
        bdd.clear_cache()
        f = bdd.and_(a, b)
        assert bdd.and_(a, b) == f  # pure cache hit
        stats = bdd.cache_stats()["and"]
        assert stats["lookups"] >= 2
        assert stats["hits"] >= 1
        assert 0.0 < stats["hit_rate"] <= 1.0
        assert 0.0 < bdd.cache_hit_rate() <= 1.0

    def test_stats_has_telemetry_keys(self, bdd):
        stats = bdd.stats()
        assert {"cache_evictions", "peak_live_nodes"} <= set(stats)
        assert stats["peak_live_nodes"] >= 2
