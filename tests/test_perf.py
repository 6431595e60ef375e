"""Tests for kernel self-management and the EngineStats telemetry.

Covers the three tentpole behaviours of the self-managing kernel:

* recursion safety — deep-chain BDDs (1000+ variables) run through the
  explicit-stack operators without ``RecursionError``,
* auto-GC at engine safe points — collections fire mid-fixpoint without
  invalidating registered roots, and results match the unmanaged run,
* bounded computed cache — evictions occur and fixpoints stay correct.

Plus the :mod:`repro.perf` aggregator itself.
"""

import pytest

from repro.bdd import BDD
from repro.blifmv import flatten, parse
from repro.config import EngineConfig
from repro.ctl import check_ctl
from repro.network import SymbolicFsm
from repro.perf import EngineStats

COUNTER = """
.model counter
.mv s,n 8
.table s -> n
0 1
1 2
2 3
3 4
4 5
5 6
6 7
7 0
.latch n s
.reset s
0
.end
"""


def build(text, **kwargs):
    fsm = SymbolicFsm(flatten(parse(text)), **kwargs)
    fsm.build_transition()
    return fsm


# ----------------------------------------------------------------------
# Recursion safety: 1000-variable chains
# ----------------------------------------------------------------------

N_DEEP = 1000


@pytest.fixture(scope="module")
def deep():
    """A manager with 1000 chained variables and the full conjunction."""
    manager = BDD()
    vs = [manager.add_var(f"v{i}") for i in range(N_DEEP)]
    cube = manager.true
    for v in reversed(vs):
        cube = manager.and_(manager.var(v), cube)
    return manager, vs, cube


class TestDeepChains:
    def test_deep_and_chain(self, deep):
        manager, vs, cube = deep
        assert manager.size(cube) == N_DEEP + 2  # lo edges all hit FALSE

    def test_deep_not(self, deep):
        manager, vs, cube = deep
        neg = manager.not_(cube)
        assert manager.not_(neg) == cube

    def test_deep_ite(self, deep):
        manager, vs, cube = deep
        g = manager.ite(cube, manager.var(vs[0]), manager.false)
        assert g == cube  # cube implies v0

    def test_deep_exist(self, deep):
        manager, vs, cube = deep
        # Quantifying all but the first variable leaves the literal v0.
        rest = vs[1:]
        assert manager.exist(rest, cube) == manager.var(vs[0])

    def test_deep_and_exists(self, deep):
        manager, vs, cube = deep
        # Chain of xnors: v0 <-> v1 <-> ... <-> v999; quantifying the
        # middle leaves v0 <-> v999 semantics checked by evaluation.
        chain = manager.true
        for a, b in zip(vs, vs[1:]):
            chain = manager.and_(
                chain, manager.xnor(manager.var(a), manager.var(b))
            )
        mid = vs[1:-1]
        collapsed = manager.and_exists(chain, manager.true, mid)
        expected = manager.xnor(manager.var(vs[0]), manager.var(vs[-1]))
        assert collapsed == expected

    def test_deep_rename(self, deep):
        manager, vs, cube = deep
        # Identity rename walks the full depth through _rename.
        assert manager.rename(cube, {vs[0]: vs[0]}) == cube

    def test_deep_restrict_and_satcount(self, deep):
        manager, vs, cube = deep
        restricted = manager.restrict(cube, {vs[0]: True})
        assert manager.sat_count(restricted, vs) == 2


class TestDeepReachability:
    def test_1000_bit_chain_fsm_reachability(self):
        """A 1000-boolean-variable machine runs a reachability fixpoint
        through and_exists/rename/diff/or_ without RecursionError."""
        n = 500  # 500 interleaved x/y pairs = 1000 boolean variables
        manager = BDD()
        xs, ys = [], []
        for i in range(n):
            xs.append(manager.add_var(f"x{i}"))
            ys.append(manager.add_var(f"y{i}"))
        # Toggle machine: y_i = !x_i for every bit, init = all zeros.
        trans = manager.true
        for x, y in zip(reversed(xs), reversed(ys)):
            trans = manager.and_(
                trans, manager.xor(manager.var(x), manager.var(y))
            )
        init = manager.true
        for x in reversed(xs):
            init = manager.and_(manager.nvar(x), init)
        x_cube = manager.cube(xs)
        y_to_x = {y: x for x, y in zip(xs, ys)}

        reached = init
        frontier = init
        iterations = 0
        while frontier != manager.false:
            nxt = manager.and_exists(trans, frontier, x_cube)
            step = manager.rename(nxt, y_to_x)
            frontier = manager.diff(step, reached)
            reached = manager.or_(reached, frontier)
            iterations += 1
            assert iterations <= 4
        # all-zeros and all-ones: the toggle machine has exactly 2
        # reachable states.
        assert manager.sat_count(reached, xs) == 2
        assert iterations == 2


# ----------------------------------------------------------------------
# Auto-GC at engine safe points
# ----------------------------------------------------------------------


class TestAutoGc:
    def test_auto_gc_fires_during_reachability(self):
        baseline = build(COUNTER)
        base_reach = baseline.reachable()
        managed = build(COUNTER, config=EngineConfig(auto_gc=50))
        reach = managed.reachable()
        assert managed.bdd.gc_count > 0
        # Registered roots survived: the fixpoint matches the baseline.
        assert managed.count_states(reach.reached) == \
            baseline.count_states(base_reach.reached) == 8
        assert reach.converged

    def test_auto_gc_preserves_trans_and_init(self):
        fsm = build(COUNTER, config=EngineConfig(auto_gc=25))
        fsm.reachable()
        # Usable after collections: another full fixpoint from scratch.
        again = fsm.reachable()
        assert fsm.count_states(again.reached) == 8

    def test_ctl_with_auto_gc_matches_default(self):
        plain = build(COUNTER)
        managed = build(COUNTER, config=EngineConfig(auto_gc=40))
        for formula in ("EF s=5", "AG EX TRUE", "AF s=0"):
            assert (check_ctl(managed, formula).holds
                    == check_ctl(plain, formula).holds)
        assert managed.bdd.gc_count > 0


class TestCacheLimit:
    def test_fixpoint_matches_with_tiny_cache(self):
        unlimited = build(COUNTER)
        tiny = build(COUNTER, config=EngineConfig(cache_limit=32))
        r_unlimited = unlimited.reachable()
        r_tiny = tiny.reachable()
        assert tiny.bdd.cache_evictions > 0
        assert (tiny.count_states(r_tiny.reached)
                == unlimited.count_states(r_unlimited.reached))
        assert r_tiny.iterations == r_unlimited.iterations


# ----------------------------------------------------------------------
# EngineStats
# ----------------------------------------------------------------------


class TestEngineStats:
    def test_phase_accumulates(self):
        stats = EngineStats()
        with stats.phase("work") as timer:
            pass
        assert timer.seconds >= 0.0
        with stats.phase("work"):
            pass
        assert stats.phases["work"].calls == 2
        assert stats.phase_seconds("work") >= timer.seconds
        assert stats.phase_seconds("absent") == 0.0

    def test_counters(self):
        stats = EngineStats()
        stats.bump("events")
        stats.bump("events", 4)
        assert stats.counters["events"] == 5

    def test_snapshot_with_bdd(self):
        manager = BDD()
        a = manager.add_var("a")
        b = manager.add_var("b")
        manager.and_(manager.var(a), manager.var(b))
        stats = EngineStats(manager)
        with stats.phase("p"):
            pass
        snap = stats.snapshot()
        assert snap["live_nodes"] >= 3
        assert "cache_hit_rate" in snap
        assert "and" in snap["op_cache"]
        assert snap["phases"]["p"]["calls"] == 1

    def test_format_mentions_key_numbers(self):
        fsm = build(COUNTER)
        fsm.reachable()
        text = fsm.stats.format()
        assert "nodes:" in text
        assert "hit rate" in text
        assert "phase reach" in text
        assert "phase encode" in text

    def test_fsm_records_phases(self):
        fsm = build(COUNTER)
        result = fsm.reachable()
        assert fsm.stats.phase_seconds("encode") > 0.0
        assert fsm.stats.phase_seconds("build_tr") > 0.0
        assert result.seconds == pytest.approx(
            fsm.stats.phase_seconds("reach"))

    def test_checker_reuses_fsm_stats(self):
        fsm = build(COUNTER)
        result = check_ctl(fsm, "EF s=3")
        assert result.holds
        assert fsm.stats.phase_seconds("mc") > 0.0
        assert result.seconds == pytest.approx(fsm.stats.phase_seconds("mc"))
