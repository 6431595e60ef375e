"""Tests for the static variable-ordering heuristics."""

from repro.bdd import BDD
from repro.bdd.ordering import (
    affinity_order,
    interacting_fsm_order,
    population_order,
)


class TestAffinityOrder:
    def test_groups_cluster(self):
        order = affinity_order(
            groups=[{"a", "b"}, {"a", "b"}, {"c", "d"}],
            all_items=["a", "c", "b", "d"],
        )
        # a and b co-occur twice: they must be adjacent.
        ia, ib = order.index("a"), order.index("b")
        assert abs(ia - ib) == 1

    def test_all_items_present_once(self):
        items = ["x", "y", "z", "w"]
        order = affinity_order([{"x", "z"}], items)
        assert sorted(order) == sorted(items)

    def test_isolated_items_kept(self):
        order = affinity_order([], ["p", "q"])
        assert sorted(order) == ["p", "q"]

    def test_items_not_in_groups_ignored_in_affinity(self):
        order = affinity_order([{"a", "b", "zz"}], ["a", "b"])
        assert sorted(order) == ["a", "b"]


class TestInteractingFsmOrder:
    def test_communicating_latches_adjacent(self):
        order = interacting_fsm_order(
            {"l1": {"l2"}, "l2": {"l1"}, "l3": set(), "l4": {"l3"}},
        )
        i1, i2 = order.index("l1"), order.index("l2")
        assert abs(i1 - i2) == 1

    def test_nonstate_vars_attached_to_users(self):
        order = interacting_fsm_order(
            {"l1": {"w"}, "l2": set()},
            nonstate_vars=["w", "unused"],
        )
        assert order.index("w") == order.index("l1") + 1
        assert order[-1] == "unused"


def _comparator(names):
    """``x_i == y_i`` for all i, with variables declared in ``names`` order."""
    bdd = BDD()
    for name in names:
        bdd.add_var(name)
    eq = bdd.true
    for i in range(len(names) // 2):
        eq = bdd.and_(eq, bdd.xnor(bdd.var(f"x{i}"), bdd.var(f"y{i}")))
    return bdd, eq


def test_interleaved_order_smaller_for_comparator():
    # The classic example: x1..xn,y1..yn ordering blows up equality,
    # interleaving keeps it linear.
    n = 6
    blocked, blocked_eq = _comparator(
        [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(n)]
    )
    interleaved, interleaved_eq = _comparator(
        [name for i in range(n) for name in (f"x{i}", f"y{i}")]
    )
    assert interleaved.size(interleaved_eq) < blocked.size(blocked_eq)


class TestPopulationOrder:
    def test_most_populous_first(self):
        bdd = BDD()
        a = bdd.add_var("a")
        b = bdd.add_var("b")
        c = bdd.add_var("c")
        # a labels two nodes (literal + conjunction root), b one, c none.
        bdd.and_(bdd.var(a), bdd.var(b))
        order = population_order(bdd)
        assert order[0] == a
        assert order[1] == b
        assert order[2] == c
        assert bdd.var_population(a) > bdd.var_population(b) > bdd.var_population(c)

    def test_ties_break_by_level(self):
        bdd = BDD()
        names = [bdd.add_var(n) for n in ("p", "q", "r")]
        # No nodes at all: every population is 0, so the order falls back
        # to top-to-bottom levels.
        assert population_order(bdd) == list(bdd.order)
