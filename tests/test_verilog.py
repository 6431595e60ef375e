"""Tests for the Verilog front end: lexer, parser, and compiled semantics.

Semantic tests compile small modules and check the resulting machine's
behaviour (reached states, functions) rather than the BLIF-MV text — the
lowering is free to choose its table decomposition.
"""

import os
import subprocess
import sys

import pytest

from repro.blifmv import flatten
from repro.ctl import ModelChecker, check_ctl
from repro.network import SymbolicFsm
from repro.verilog import VerilogError, compile_verilog, parse_verilog, tokenize
from repro.verilog.lexer import parse_sized_literal


def machine(src, **kwargs):
    fsm = SymbolicFsm(flatten(compile_verilog(src, **kwargs)))
    fsm.build_transition()
    return fsm


def reached_values(fsm, var):
    reached = fsm.reachable().reached
    return {s[var] for s in fsm.states_iter(reached)}


class TestLexer:
    def test_tokens(self):
        tokens = tokenize("module m; wire x; endmodule")
        assert [t.text for t in tokens] == [
            "module", "m", ";", "wire", "x", ";", "endmodule"]

    def test_comments_stripped(self):
        tokens = tokenize("a // comment\n /* block\n comment */ b")
        assert [t.text for t in tokens] == ["a", "b"]

    def test_sized_literals(self):
        assert parse_sized_literal("4'b0101") == (5, 4)
        assert parse_sized_literal("2'd3") == (3, 2)
        assert parse_sized_literal("8'hff") == (255, 8)

    def test_xz_rejected(self):
        with pytest.raises(VerilogError):
            parse_sized_literal("4'b01xz")

    def test_line_numbers(self):
        tokens = tokenize("a\nb\nc")
        assert [t.line for t in tokens] == [1, 2, 3]

    def test_unexpected_character(self):
        with pytest.raises(VerilogError):
            tokenize("a ` b")


class TestParser:
    def test_module_ports(self):
        src = "module m(a, b); input a; output b; assign b = a; endmodule"
        mod = parse_verilog(src).modules[0]
        assert mod.ports == ["a", "b"]

    def test_operator_precedence(self):
        from repro.verilog.ast import Binop
        src = "module m; wire x, a, b, c; assign x = a | b & c; endmodule"
        mod = parse_verilog(src).modules[0]
        assign = [i for i in mod.items if type(i).__name__ == "ContAssign"][0]
        assert isinstance(assign.value, Binop)
        assert assign.value.op == "|"
        assert assign.value.right.op == "&"

    def test_missing_semicolon(self):
        with pytest.raises(VerilogError):
            parse_verilog("module m; wire x endmodule")

    def test_unsupported_system_call(self):
        with pytest.raises(VerilogError):
            parse_verilog("module m; wire x; assign x = $random(); endmodule")


class TestCombinational:
    def test_assign_chain(self):
        fsm = machine("""
module m;
  reg s; initial s = 0;
  always @(posedge clk) s <= !s;
  wire a, b;
  assign a = !s;
  assign b = a && s;
endmodule
""")
        mc = ModelChecker(fsm)
        assert mc.check("AG !(b=1)").holds  # a && s is never true

    def test_arithmetic(self):
        fsm = machine("""
module m;
  reg [2:0] c; initial c = 0;
  always @(posedge clk) c <= c + 3;
endmodule
""")
        assert reached_values(fsm, "c") == {"0", "3", "6", "1", "4", "7", "2", "5"}

    def test_comparison_and_ternary(self):
        fsm = machine("""
module m;
  reg [1:0] c; initial c = 0;
  always @(posedge clk) c <= (c >= 2) ? 0 : c + 1;
endmodule
""")
        assert reached_values(fsm, "c") == {"0", "1", "2"}

    def test_bit_select(self):
        fsm = machine("""
module m;
  reg [2:0] c; initial c = 0;
  always @(posedge clk) c <= c + 1;
  wire hi;
  assign hi = c[2];
endmodule
""")
        mc = ModelChecker(fsm)
        # hi=1 exactly when c >= 4
        sat = mc.eval("hi=1")
        got = {s["c"] for s in fsm.states_iter(sat)}
        assert got == {"4", "5", "6", "7"}

    def test_reduction_operators(self):
        fsm = machine("""
module m;
  reg [1:0] c; initial c = 0;
  always @(posedge clk) c <= c + 1;
  wire all1, any1;
  assign all1 = &c;
  assign any1 = |c;
endmodule
""")
        mc = ModelChecker(fsm)
        assert {s["c"] for s in fsm.states_iter(mc.eval("all1=1"))} == {"3"}
        assert {s["c"] for s in fsm.states_iter(mc.eval("any1=1"))} == {"1", "2", "3"}


class TestSequential:
    def test_if_else_hold_semantics(self):
        fsm = machine("""
module m;
  reg s, up; initial s = 0; initial up = 0;
  always @(posedge clk) up <= !up;
  always @(posedge clk) begin
    if (up) s <= 1;
  end
endmodule
""")
        # s holds its value when up=0
        mc = ModelChecker(fsm)
        assert mc.check("AG (s=1 -> AX s=1)").holds

    def test_case_statement(self):
        fsm = machine("""
module m;
  enum { red, green, yellow } reg light;
  initial light = red;
  always @(posedge clk) begin
    case (light)
      red: light <= green;
      green: light <= yellow;
      yellow: light <= red;
    endcase
  end
endmodule
""")
        assert reached_values(fsm, "light") == {"red", "green", "yellow"}
        mc = ModelChecker(fsm)
        assert mc.check("AG (light=red -> AX light=green)").holds

    def test_case_default(self):
        fsm = machine("""
module m;
  reg [1:0] c; initial c = 0;
  always @(posedge clk) begin
    case (c)
      0: c <= 2;
      default: c <= 0;
    endcase
  end
endmodule
""")
        assert reached_values(fsm, "c") == {"0", "2"}

    def test_nonblocking_reads_old_values(self):
        # classic swap: both registers exchange values simultaneously
        fsm = machine("""
module m;
  reg a, b; initial a = 0; initial b = 1;
  always @(posedge clk) begin
    a <= b;
    b <= a;
  end
endmodule
""")
        mc = ModelChecker(fsm)
        assert mc.check("AG ((a=0 & b=1) | (a=1 & b=0))").holds

    def test_blocking_in_comb_sees_new_values(self):
        fsm = machine("""
module m;
  reg s; initial s = 0;
  always @(posedge clk) s <= !s;
  reg t, u;
  always @(*) begin
    t = !s;
    u = t;
  end
endmodule
""")
        mc = ModelChecker(fsm)
        assert mc.check("AG ((s=0 & u=1) | (s=1 & u=0))").holds


class TestNonDeterminism:
    def test_nd_wire(self):
        fsm = machine("""
module m;
  reg s; initial s = 0;
  wire flip;
  assign flip = $ND(0, 1);
  always @(posedge clk) s <= flip ? !s : s;
endmodule
""")
        assert reached_values(fsm, "s") == {"0", "1"}

    def test_nd_initial_value(self):
        fsm = machine("""
module m;
  reg [1:0] c; initial c = $ND(1, 2);
  always @(posedge clk) c <= c;
endmodule
""")
        init_states = {s["c"] for s in fsm.states_iter(fsm.init)}
        assert init_states == {"1", "2"}

    def test_nd_requires_constants(self):
        with pytest.raises(VerilogError):
            compile_verilog("""
module m;
  reg s; wire w; initial s = 0;
  assign w = $ND(s, 1);
  always @(posedge clk) s <= w;
endmodule
""")


class TestHierarchy:
    SRC = """
module inv(i, o);
  input i; output o;
  assign o = !i;
endmodule

module top;
  reg s; initial s = 0;
  wire t;
  inv u1(.i(s), .o(t));
  always @(posedge clk) s <= t;
endmodule
"""

    def test_instance_semantics(self):
        fsm = machine(self.SRC)
        assert reached_values(fsm, "s") == {"0", "1"}

    def test_positional_connections(self):
        fsm = machine(self.SRC.replace(".i(s), .o(t)", "s, t"))
        assert reached_values(fsm, "s") == {"0", "1"}

    def test_root_selection(self):
        design = compile_verilog(self.SRC)
        assert design.root == "top"

    def test_explicit_root(self):
        design = compile_verilog(self.SRC, root="inv")
        assert design.root == "inv"

    def test_parameters(self):
        fsm = machine("""
module m;
  parameter LIMIT = 2;
  reg [1:0] c; initial c = 0;
  always @(posedge clk) c <= (c == LIMIT) ? 0 : c + 1;
endmodule
""")
        assert reached_values(fsm, "c") == {"0", "1", "2"}


class TestCompileErrors:
    def test_incomplete_comb_assignment(self):
        with pytest.raises(VerilogError) as err:
            compile_verilog("""
module m;
  reg s; initial s = 0;
  always @(posedge clk) s <= s;
  reg w;
  always @(*) begin
    if (s) w = 1;
  end
endmodule
""")
        assert "implied latch" in str(err.value)

    def test_undeclared_net(self):
        with pytest.raises(VerilogError):
            compile_verilog("module m; assign x = 1; endmodule")

    def test_blocking_in_sequential_rejected(self):
        with pytest.raises(VerilogError):
            compile_verilog("""
module m;
  reg s; initial s = 0;
  always @(posedge clk) s = !s;
endmodule
""")

    def test_enum_arithmetic_rejected(self):
        with pytest.raises(VerilogError):
            compile_verilog("""
module m;
  enum { a, b } reg s;
  initial s = a;
  wire w;
  assign w = s + 1;
  always @(posedge clk) s <= s;
endmodule
""")

    def test_width_limit(self):
        with pytest.raises(VerilogError):
            compile_verilog("""
module m;
  reg [15:0] c; initial c = 0;
  always @(posedge clk) c <= c;
endmodule
""")

    def test_unknown_module_instantiated(self):
        with pytest.raises(VerilogError):
            compile_verilog("module m; nothere u1(x); wire x; endmodule")


class TestSourceAnnotations:
    def test_registers_carry_source_lines(self):
        src = """module m;
  reg a, b;
  initial a = 0;
  initial b = 0;
  always @(posedge clk) a <= !a;
  always @(posedge clk) begin
    if (a) b <= 1;
    else b <= 0;
  end
endmodule
"""
        model = flatten(compile_verilog(src))
        assert model.sources["a"] == "m.v:5"
        assert model.sources["b"] == "m.v:7,8"

    def test_sources_roundtrip_blifmv(self):
        from repro.blifmv import parse, write
        src = """module m;
  reg a;
  initial a = 0;
  always @(posedge clk) a <= !a;
endmodule
"""
        design = compile_verilog(src)
        again = flatten(parse(write(design)))
        assert again.sources["a"].startswith("m.v:")


def test_blifmv_text_independent_of_hash_seed():
    """if/else merging must not iterate a set: the BLIF-MV text of every
    Table-1 design is the same under any ``PYTHONHASHSEED``."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = (
        "import sys\n"
        "from repro.blifmv.writer import write\n"
        "from repro.models import TABLE1, get_spec\n"
        "for name in TABLE1:\n"
        "    sys.stdout.write(write(get_spec(name).design))\n"
    )
    texts = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True,
        )
        texts.add(done.stdout)
    assert len(texts) == 1
