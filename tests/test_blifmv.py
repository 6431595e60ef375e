"""Tests for the BLIF-MV parser, writer and AST validation."""

import pytest

from repro.blifmv import (
    ANY,
    BlifMvError,
    Eq,
    Model,
    Row,
    Table,
    ValueSet,
    flatten,
    line_count,
    parse,
    write,
)

COUNTER = """
.model counter
.mv s 3
.mv s_next 3
.table s -> s_next
0 1
1 2
2 0
.latch s_next s
.reset s
0
.end
"""


class TestParser:
    def test_basic_model(self):
        design = parse(COUNTER)
        model = design.root_model()
        assert model.name == "counter"
        assert len(model.tables) == 1
        assert len(model.latches) == 1
        assert model.latches[0].reset == ["0"]

    def test_domains(self):
        design = parse(COUNTER)
        model = design.root_model()
        assert model.domain("s") == ("0", "1", "2")
        assert model.domain("undeclared") == ("0", "1")

    def test_symbolic_domain(self):
        design = parse("""
.model m
.mv st 3 idle busy done
.table st -> o
idle 0
busy 1
done 1
.end
""")
        assert design.root_model().domain("st") == ("idle", "busy", "done")

    def test_value_sets_and_any(self):
        design = parse("""
.model m
.mv a 4
.table a -> o
(0,1) 1
- 0
.end
""")
        table = design.root_model().tables[0]
        assert table.rows[0].inputs[0] == ValueSet(("0", "1"))
        assert table.rows[1].inputs[0] is ANY or table.rows[1].inputs[0] == ANY

    def test_equality_construct(self):
        design = parse("""
.model m
.mv a,b 3
.table a -> b
- =a
.end
""")
        assert design.root_model().tables[0].rows[0].outputs[0] == Eq("a")

    def test_default_row(self):
        design = parse("""
.model m
.table a b -> o
.default 0
1 1 1
.end
""")
        table = design.root_model().tables[0]
        assert table.default == ("0",)
        assert len(table.rows) == 1

    def test_multiple_outputs(self):
        design = parse("""
.model m
.table a -> x y
0 1 0
1 0 1
.end
""")
        table = design.root_model().tables[0]
        assert table.outputs == ["x", "y"]

    def test_comments_and_continuations(self):
        design = parse("""
.model m  # the model
.table a \\
  -> o
0 1  # row
1 0
.end
""")
        assert design.root_model().tables[0].inputs == ["a"]

    def test_names_compat(self):
        design = parse("""
.model m
.names a b o
1 1 1
.end
""")
        table = design.root_model().tables[0]
        assert table.inputs == ["a", "b"]
        assert table.outputs == ["o"]

    def test_subckt(self):
        design = parse("""
.model top
.subckt child u1 i=x o=y
.end
.model child
.inputs i
.outputs o
.table i -> o
0 1
1 0
.end
""")
        sub = design.models["top"].subckts[0]
        assert sub.connections == {"i": "x", "o": "y"}

    def test_multi_variable_mv(self):
        design = parse("""
.model m
.mv a,b 3
.table a -> b
- =a
.end
""")
        model = design.root_model()
        assert model.domain("a") == model.domain("b") == ("0", "1", "2")

    def test_inline_latch_reset(self):
        design = parse("""
.model m
.latch n s 1
.table s -> n
0 1
1 0
.end
""")
        assert design.root_model().latches[0].reset == ["1"]

    def test_r_shorthand(self):
        design = parse("""
.model m
.latch n s
.r 0
.table s -> n
0 1
1 0
.end
""")
        assert design.root_model().latches[0].reset == ["0"]


class TestParserErrors:
    @pytest.mark.parametrize("text,fragment", [
        (".table a -> o\n0 1\n.end", "before .model"),
        (".model m\n.mv a x\n.end", "bad domain size"),
        (".model m\n.table a -> o\n0\n.end", "row has 1 entries"),
        (".model m\n.reset s\n0\n.end", "unknown latch"),
        (".model m\n.table -> o\n(,) \n.end", "empty value set"),
        (".model m\n.frob x\n.end", "unknown directive"),
        (".model m\n.subckt child\n.end", "needs a model and an instance"),
        ("", "no .model"),
    ])
    def test_error_messages(self, text, fragment):
        with pytest.raises(BlifMvError) as err:
            parse(text)
        assert fragment in str(err.value)

    def test_validation_value_outside_domain(self):
        with pytest.raises(BlifMvError):
            parse(".model m\n.mv a 2\n.table a -> o\n5 1\n.end")

    def test_validation_reset_outside_domain(self):
        with pytest.raises(BlifMvError):
            parse(".model m\n.latch n s 7\n.table s -> n\n0 0\n1 0\n.end")

    def test_validation_multiple_drivers(self):
        with pytest.raises(BlifMvError) as err:
            parse(".model m\n.table a -> o\n0 1\n.table b -> o\n0 1\n.end")
        assert "multiple drivers" in str(err.value)

    @pytest.mark.parametrize("table,message", [
        (
            Table(["a"], ["o"], rows=[Row(("0", "1"), ("1",))]),
            "model m: row width mismatch in table for ['o'] (expected 2)",
        ),
        (
            Table(["a"], ["o"], rows=[Row(("0",), ("1",))], default=("0", "1")),
            "model m: .default width mismatch for ['o']",
        ),
        (
            Table(["a", "b"], ["o"], rows=[Row((Eq("b"), "0"), ("1",))]),
            "model m: '=' only allowed in output columns",
        ),
        (
            Table(["a"], ["o"], rows=[Row((ANY,), (Eq("o"),))]),
            "model m: '=o' does not name an input of the table",
        ),
        (
            Table(["w"], ["o"], rows=[Row((ANY,), (Eq("w"),))]),
            "model m: '=w' domain mismatch with 'o'",
        ),
        (
            Table(["w"], ["o"], rows=[Row((ValueSet(("r", "q")),), ("1",))]),
            "model m: value 'q' not in domain of 'w' ('r', 'g', 'b')",
        ),
        (
            Table(["a"], ["o"], rows=[Row(("0",), ("1",))], default=("2",)),
            "model m: value '2' not in domain of 'o' ('0', '1')",
        ),
    ])
    def test_model_validation_messages(self, table, message):
        model = Model("m", inputs=["a", "b", "w"], domains={"w": ("r", "g", "b")},
                      tables=[table])
        with pytest.raises(BlifMvError) as err:
            model.validate()
        assert str(err.value) == message

    def test_validation_eq_wrong_column(self):
        with pytest.raises(BlifMvError):
            parse(".model m\n.table a -> o\n=zz 1\n.end")

    def test_unknown_subckt_model(self):
        with pytest.raises(BlifMvError):
            parse(".model top\n.subckt nope u1 a=b\n.end").validate()


class TestWriter:
    def test_roundtrip(self):
        design = parse(COUNTER)
        text = write(design)
        again = parse(text)
        model_a = design.root_model()
        model_b = again.root_model()
        assert model_a.domains == model_b.domains
        assert len(model_a.tables) == len(model_b.tables)
        assert model_a.latches[0].reset == model_b.latches[0].reset

    def test_roundtrip_preserves_special_entries(self):
        text = """
.model m
.mv a,b 3
.table a -> b
.default 0
- =a
(0,1) 2
.end
"""
        design = parse(text)
        again = parse(write(design))
        table = again.root_model().tables[0]
        assert table.default == ("0",)
        assert table.rows[0].outputs[0] == Eq("a")
        assert table.rows[1].inputs[0] == ValueSet(("0", "1"))

    def test_line_count_positive(self):
        assert line_count(parse(COUNTER)) > 5


class TestFlatten:
    def test_root_rows_are_shared_not_copied(self):
        design = parse(COUNTER)
        root, flat = design.root_model(), flatten(design)
        assert flat.tables[0].rows is not root.tables[0].rows
        assert all(a is b for a, b in zip(flat.tables[0].rows,
                                          root.tables[0].rows))
        with pytest.raises(AttributeError):
            flat.tables[0].rows[0].inputs = ("1",)  # frozen

    def test_two_levels(self):
        design = parse("""
.model top
.subckt leaf u1 o=x
.subckt leaf u2 o=y
.end
.model leaf
.outputs o
.mv st 2
.table st -> n
0 1
1 0
.mv n 2
.latch n st
.reset st
0
.table st -> o
- =st
.end
""")
        flat = flatten(design)
        assert not flat.subckts
        names = {latch.output for latch in flat.latches}
        assert names == {"u1.st", "u2.st"}

    def test_port_binding(self):
        design = parse("""
.model top
.subckt inverter inv i=a o=b
.table -> a
1
.end
.model inverter
.inputs i
.outputs o
.table i -> o
0 1
1 0
.end
""")
        flat = flatten(design)
        # the inverter table now reads 'a' and writes 'b'
        tables = [t for t in flat.tables if t.outputs == ["b"]]
        assert tables and tables[0].inputs == ["a"]

    def test_cycle_detection(self):
        from repro.blifmv import Design, Model, Subckt

        design = Design()
        model_a = Model(name="a", subckts=[Subckt(model="b", instance="u1")])
        model_b = Model(name="b", subckts=[Subckt(model="a", instance="u2")])
        design.add(model_a)
        design.add(model_b)
        with pytest.raises(BlifMvError) as err:
            flatten(design)
        assert "cycle" in str(err.value)

    def test_dangling_ports_get_fresh_nets(self):
        design = parse("""
.model top
.subckt leaf u1
.end
.model leaf
.inputs i
.outputs o
.table i -> o
- =i
.end
""")
        flat = flatten(design)
        table = flat.tables[0]
        assert table.inputs == ["u1.i"]
        assert table.outputs == ["u1.o"]

    def test_nested_three_levels(self):
        design = parse("""
.model top
.subckt mid m1 p=w
.end
.model mid
.outputs p
.subckt leaf l1 o=p
.end
.model leaf
.outputs o
.table -> o
1
.end
""")
        flat = flatten(design)
        assert flat.tables[0].outputs == ["w"]
