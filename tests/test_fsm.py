"""Tests for the symbolic FSM: images, reachability, state inspection."""

import pytest

from repro.bdd import BddError
from repro.blifmv import flatten, parse
from repro.network import SymbolicFsm

COUNTER = """
.model counter
.mv s,n 4
.table s -> n
0 1
1 2
2 3
3 0
.latch n s
.reset s
0
.end
"""

BRANCHY = """
.model branchy
.mv s,n 4
.table s -> n
0 (1,2)
1 3
2 3
3 3
.latch n s
.reset s
0
.end
"""


def build(text, **kwargs):
    fsm = SymbolicFsm(flatten(parse(text)), **kwargs)
    fsm.build_transition()
    return fsm


class TestTransitionRelation:
    def test_methods_equivalent(self):
        results = set()
        for method in ("greedy", "linear", "monolithic"):
            fsm = SymbolicFsm(flatten(parse(COUNTER)))
            fsm.build_transition(method=method)
            # compare via truth on all state pairs
            results.add(fsm.count_states(fsm.image(fsm.init)))
        assert results == {1}

    def test_quantify_result_populated(self):
        fsm = build(COUNTER)
        assert fsm.quantify_result is not None
        assert fsm.quantify_result.peak_size >= 2

    def test_frozen_after_build(self):
        """A built machine stays as it is when a product extends it."""
        fsm = build(COUNTER)
        before = (list(fsm.latches), list(fsm.conjuncts), fsm.init, fsm.trans)
        x, y = fsm.mdd.declare_pair("extra", "extra#n", ["0", "1"])
        product = fsm.product(x, y, ["0"], fsm.bdd.and_(fsm.init, x.literal("0")),
                              fsm.bdd.true, "late")
        assert len(product.latches) == len(fsm.latches) + 1
        assert product.trans is None
        assert (fsm.latches, fsm.conjuncts, fsm.init, fsm.trans) == before


class TestImages:
    def test_image_follows_function(self):
        fsm = build(COUNTER)
        s0 = fsm.state_cube({"s": "0"})
        img = fsm.image(s0)
        assert fsm.pick_state(img) == {"s": "1"}

    def test_image_of_nondeterministic_state(self):
        fsm = build(BRANCHY)
        img = fsm.image(fsm.state_cube({"s": "0"}))
        assert fsm.count_states(img) == 2

    def test_preimage_inverts_image(self):
        fsm = build(COUNTER)
        s2 = fsm.state_cube({"s": "2"})
        pre = fsm.preimage(s2)
        assert fsm.pick_state(pre) == {"s": "1"}

    def test_image_preimage_galois(self):
        # S <= pre(post(S)) restricted to states with successors
        fsm = build(BRANCHY)
        s = fsm.state_cube({"s": "1"})
        back = fsm.preimage(fsm.image(s))
        assert fsm.bdd.and_(s, back) == s

    def test_partitioned_image_matches(self):
        fsm = build(BRANCHY)
        for value in "0123":
            s = fsm.state_cube({"s": value})
            assert fsm.image_partitioned(s) == fsm.image(s)


class TestReachability:
    def test_full_cycle(self):
        fsm = build(COUNTER)
        result = fsm.reachable()
        assert result.converged
        assert fsm.count_states(result.reached) == 4
        assert result.iterations == 4

    def test_rings_partition_reached(self):
        fsm = build(COUNTER)
        result = fsm.reachable()
        bdd = fsm.bdd
        union = bdd.false
        for ring in result.rings:
            assert bdd.and_(ring, union) == bdd.false  # disjoint
            union = bdd.or_(union, ring)
        assert union == result.reached

    def test_ring_depth_is_bfs_distance(self):
        fsm = build(COUNTER)
        result = fsm.reachable()
        # state '2' is exactly two steps from reset
        s2 = fsm.state_cube({"s": "2"})
        hits = [i for i, ring in enumerate(result.rings)
                if fsm.bdd.and_(ring, s2) != fsm.bdd.false]
        assert hits == [2]

    def test_observer_ends_search(self):
        fsm = build(COUNTER)
        result = fsm.reachable(observer=lambda depth, frontier, reached: depth == 1)
        assert not result.converged
        assert result.iterations == 1 and len(result.rings) == 2
        assert fsm.count_states(result.reached) == 2

    def test_stopped_search_keeps_converged_one_rooted(self):
        fsm = build(COUNTER)

        def stop(depth, frontier, reached):
            return depth == 1

        partial = fsm.reachable(observer=stop)
        assert {partial.reached, *partial.rings} <= set(fsm.live_handles())
        full = fsm.reachable()
        fsm.reachable(observer=stop)
        roots = set(fsm.live_handles())
        assert {full.reached, *full.rings} <= roots
        fsm.bdd.gc()
        assert fsm.count_states(full.reached) == 4

    def test_observer_called_each_depth(self):
        fsm = build(COUNTER)
        depths = []
        fsm.reachable(observer=lambda d, f, r: depths.append(d))
        assert depths == [0, 1, 2, 3]

    def test_partitioned_reachability(self):
        fsm = SymbolicFsm(flatten(parse(BRANCHY)))
        result = fsm.reachable(partitioned=True)
        assert fsm.count_states(result.reached) == 4

    def test_custom_init(self):
        fsm = build(COUNTER)
        result = fsm.reachable(init=fsm.state_cube({"s": "2"}))
        assert fsm.count_states(result.reached) == 4


class TestStateInspection:
    def test_count_excludes_invalid_codes(self):
        fsm = build("""
.model m
.mv s,n 3
.table s -> n
- =s
.latch n s
.end
""")
        assert fsm.count_states(fsm.bdd.true) == 3

    def test_states_iter_limit(self):
        fsm = build(COUNTER)
        reached = fsm.reachable().reached
        assert len(list(fsm.states_iter(reached, limit=2))) == 2
        assert len(list(fsm.states_iter(reached))) == 4

    def test_state_cube_partial(self):
        text = """
.model m
.mv a,an 2
.mv b,bn 2
.table a -> an
- =a
.table b -> bn
- =b
.latch an a
.latch bn b
.end
"""
        fsm = build(text)
        partial = fsm.state_cube({"a": "1"})
        assert fsm.count_states(partial) == 2

    def test_pick_state_empty(self):
        fsm = build(COUNTER)
        assert fsm.pick_state(fsm.bdd.false) is None

    def test_var_lookup(self):
        fsm = build(COUNTER)
        assert fsm.var("s").name == "s"
        with pytest.raises(BddError):
            fsm.var("nope")


def monitor_product():
    """COUNTER times a two-state monitor that starts in 'a' and always
    moves to 'b'."""
    fsm = SymbolicFsm(flatten(parse(COUNTER)))
    x, y = fsm.mdd.declare_pair("mon", "mon#n", ["a", "b"])
    init = fsm.bdd.and_(fsm.init, x.literal("a"))
    return fsm.product(x, y, ["a"], init, y.literal("b"), "monitor:test")


class TestMonitorHooks:
    def test_product_extends_init(self):
        product = monitor_product()
        product.build_transition()
        # init now constrains the monitor to 'a'
        got = product.pick_state(product.init)
        assert got["mon"] == "a"

    def test_monitor_conjunct_in_transition(self):
        product = monitor_product()
        product.build_transition()
        img = product.image(product.init)
        assert all(s["mon"] == "b" for s in product.states_iter(img))
