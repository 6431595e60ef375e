"""Shape-aware hierarchy elaboration (docs/hierarchy.md).

Covers the shape-signature canonicalization, the elaborate/flatten
equivalence, the shared-shape encoder's substitution path (counters,
reachability parity, grouped quantification schedules), and the three
hierarchy bugfixes that rode along with the feature:

* ``instance_tree`` raises :class:`BlifMvError` (not ``KeyError``) on
  unknown root or subcircuit models;
* ``_inline`` keeps the *first* writer of a source-location entry when
  a child port renames onto a parent net;
* a dangling child port whose fresh flat name collides with an
  existing net is rejected instead of silently merging drivers.
"""

import pytest

from repro.blifmv import (
    BlifMvError,
    Design,
    elaborate,
    flatten,
    parse,
    shape_signature,
)
from repro.blifmv.ast import Model, Subckt
from repro.blifmv.hierarchy import instance_tree
from repro.network.fsm import SymbolicFsm

CELL = """
.model cell
.inputs tin
.outputs tout
.mv st 3
.mv st_next 3
.table tin st -> st_next
0 0 0
1 0 1
0 1 1
1 1 2
- 2 0
.table st -> tout
0 0
1 0
2 1
.latch st_next st
.reset st
0
.end
"""


def ring(n: int) -> Design:
    """A ring of ``n`` identical cells under one top model."""
    lines = [".model top"]
    for i in range(n):
        prev = (i - 1) % n
        lines.append(
            f".subckt cell c{i} tin=link{prev} tout=link{i}"
        )
    lines.append(".end")
    return parse("\n".join(lines) + "\n" + CELL)


class TestShapeSignature:
    def test_isomorphic_models_share_a_digest(self):
        a = parse(CELL)
        renamed = CELL.replace("st", "zz").replace("tin", "qq")
        b = parse(renamed)
        design = Design(models={"cell": a.models["cell"],
                                "other": b.models["cell"]})
        da, _ = shape_signature(design, "cell")
        db, _ = shape_signature(design, "other")
        assert da == db

    def test_canonical_positions_align(self):
        a = parse(CELL)
        b = parse(CELL.replace("st", "zz").replace("tin", "qq"))
        design = Design(models={"cell": a.models["cell"],
                                "other": b.models["cell"]})
        _, canon_a = shape_signature(design, "cell")
        _, canon_b = shape_signature(design, "other")
        assert len(canon_a) == len(canon_b)
        # position i of both orders names the same structural net
        mapping = dict(zip(canon_a, canon_b))
        assert mapping["st"] == "zz"
        assert mapping["tin"] == "qq"

    def test_structural_change_forks_the_digest(self):
        a = parse(CELL)
        b = parse(CELL.replace(".reset st\n0", ".reset st\n1"))
        design = Design(models={"cell": a.models["cell"],
                                "other": b.models["cell"]})
        da, _ = shape_signature(design, "cell")
        db, _ = shape_signature(design, "other")
        assert da != db

    def test_unknown_model_raises(self):
        design = parse(CELL)
        with pytest.raises(BlifMvError, match="unknown model"):
            shape_signature(design, "nonesuch")


class TestElaborate:
    def test_flat_matches_flatten(self):
        design = ring(3)
        assert elaborate(design).flat == flatten(design)

    def test_instance_table(self):
        design = ring(3)
        elab = elaborate(design)
        # top + 3 cells, pre-order, top first
        assert [i.model for i in elab.instances] == ["top"] + ["cell"] * 3
        groups = elab.shape_groups()
        cells = [i for i in elab.instances if i.model == "cell"]
        assert len({i.shape for i in cells}) == 1
        assert len(groups[cells[0].shape]) == 3

    def test_table_slices_partition_the_flat_model(self):
        design = ring(3)
        elab = elaborate(design)
        covered = []
        for inst in elab.instances:
            covered.extend(range(*inst.tables))
        assert sorted(covered) == list(range(len(elab.flat.tables)))

    def test_renames_land_in_flat_model(self):
        elab = elaborate(ring(2))
        flat_names = set(elab.flat.declared_variables())
        for inst in elab.instances:
            for flat_name in inst.rename.values():
                assert flat_name in flat_names


class TestSharedShapeEncode:
    def test_substitution_counters_and_parity(self):
        design = ring(4)
        elab = elaborate(design)
        shared = SymbolicFsm(elab)
        shared.build_transition()
        reach_s = shared.reachable()
        plain = SymbolicFsm(flatten(design))
        plain.build_transition()
        reach_p = plain.reachable()
        assert shared.count_states(reach_s.reached) == \
            plain.count_states(reach_p.reached)
        assert reach_s.iterations == reach_p.iterations
        # top's shape + the cell shape: encoded once each, 3 substituted
        assert shared.network.shapes_encoded == 2
        assert shared.network.instances_substituted == 3
        assert shared.stats.counters["shapes_encoded"] == 2
        assert shared.stats.counters["instances_substituted"] == 3

    def test_instance_groups_keep_reach_parity(self):
        design = ring(3)
        elab = elaborate(design)
        shared = SymbolicFsm(elab)
        assert shared.network.conjunct_groups is not None
        # one group per instance that owns conjuncts (the bare top owns
        # none and is dropped)
        nonempty = [
            i for i in elab.instances
            if i.tables[0] < i.tables[1] or i.latches[0] < i.latches[1]
        ]
        assert len(shared.network.conjunct_groups) == len(nonempty)
        reach_s = shared.reachable()
        plain = SymbolicFsm(flatten(design))
        reach_p = plain.reachable()
        assert shared.count_states(reach_s.reached) == \
            plain.count_states(reach_p.reached)

    def test_single_instance_design_is_a_no_op(self):
        design = parse(CELL)
        elab = elaborate(design)
        fsm = SymbolicFsm(elab)
        assert fsm.network.shapes_encoded == 1
        assert fsm.network.instances_substituted == 0


class TestInstanceTreeErrors:
    def test_unknown_root_raises_blifmv_error(self):
        design = parse(CELL)
        with pytest.raises(BlifMvError, match="unknown root model"):
            instance_tree(design, "nonesuch")

    def test_unknown_child_model_raises_blifmv_error(self):
        top = Model(name="top")
        top.subckts.append(
            Subckt(model="ghost", instance="g", connections={})
        )
        cell = parse(CELL).models["cell"]
        design = Design(models={"top": top, "cell": cell}, root="top")
        with pytest.raises(BlifMvError, match="unknown subcircuit model"):
            instance_tree(design)

    def test_valid_tree_lists_instances(self):
        lines = instance_tree(ring(2))
        assert lines[0] == "top: top"
        assert any("c0" in line for line in lines[1:])


class TestSourcesFirstWriterWins:
    def test_parent_location_survives_port_rename(self):
        cell = parse(CELL).models["cell"]
        cell.sources["tout"] = "cell.mv line 4"
        top = Model(name="top")
        top.sources["wire0"] = "top.mv line 2"
        top.subckts.append(
            Subckt(model="cell", instance="c0",
                   connections={"tin": "wire0", "tout": "wire0"})
        )
        design = Design(models={"top": top, "cell": cell}, root="top")
        flat = flatten(design)
        # the child's entry renames onto wire0 but must not clobber the
        # parent's (the instantiating line is the useful one)
        assert flat.sources["wire0"] == "top.mv line 2"
        # entries with no parent writer still flow through, prefixed
        cell2 = parse(CELL).models["cell"]
        cell2.sources["st"] = "cell.mv line 9"
        design2 = Design(models={"top": top, "cell": cell2}, root="top")
        assert flatten(design2).sources["c0.st"] == "cell.mv line 9"


class TestDanglingPortCollision:
    def test_collision_with_parent_net_raises(self):
        cell = parse(CELL).models["cell"]
        top = Model(name="top")
        # a literal parent net named "c0.tout" collides with the fresh
        # net minted for instance c0's dangling tout port
        top.domains["c0.tout"] = ("0", "1")
        top.subckts.append(
            Subckt(model="cell", instance="c0", connections={"tin": "c0.tout"})
        )
        design = Design(models={"top": top, "cell": cell}, root="top")
        with pytest.raises(BlifMvError, match="dangling port"):
            flatten(design)

    def test_ordinary_dangling_ports_stay_fine(self):
        cell = parse(CELL).models["cell"]
        top = Model(name="top")
        top.subckts.append(
            Subckt(model="cell", instance="c0", connections={})
        )
        design = Design(models={"top": top, "cell": cell}, root="top")
        flat = flatten(design)
        names = set(flat.declared_variables())
        assert "c0.tin" in names
        assert "c0.tout" in names
