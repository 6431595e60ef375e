"""Tests for the hsis shell (programmatic command execution)."""

import pytest

from repro.cli import CliError, HsisShell
from repro.models import get_spec
from repro.network import SymbolicFsm
from repro.pif import PifFile

VERILOG = """
module toggle;
  reg s; initial s = 0;
  wire go;
  assign go = $ND(0, 1);
  always @(posedge clk) s <= go ? !s : s;
  wire out;
  assign out = s;
endmodule
"""

BLIFMV = """
.model counter
.mv s,n 3
.table s -> n
0 1
1 2
2 0
.latch n s
.reset s
0
.end
"""

PIF = """
ctl can_reach_two :: EF s=2
ctl never_stuck :: AG EX TRUE

automaton lc_no_three
  states A
  initial A
  edge A A
  accept invariance A
end
"""


@pytest.fixture
def files(tmp_path):
    v = tmp_path / "toggle.v"
    v.write_text(VERILOG)
    b = tmp_path / "counter.mv"
    b.write_text(BLIFMV)
    p = tmp_path / "props.pif"
    p.write_text(PIF)
    return {"verilog": str(v), "blifmv": str(b), "pif": str(p),
            "tmp": tmp_path}


class TestLoading:
    def test_read_blif_mv(self, files):
        shell = HsisShell()
        out = shell.execute(f"read_blif_mv {files['blifmv']}")
        assert "1 latches" in out

    def test_read_verilog(self, files):
        shell = HsisShell()
        out = shell.execute(f"read_verilog {files['verilog']}")
        assert "latches" in out

    def test_read_pif(self, files):
        shell = HsisShell()
        out = shell.execute(f"read_pif {files['pif']}")
        assert "2 CTL properties" in out
        assert "1 automata" in out

    def test_write_blif_mv(self, files):
        shell = HsisShell()
        shell.execute(f"read_blif_mv {files['blifmv']}")
        target = files["tmp"] / "out.mv"
        shell.execute(f"write_blif_mv {target}")
        assert target.exists()
        assert ".model" in target.read_text()

    def test_unknown_command(self):
        with pytest.raises(CliError):
            HsisShell().execute("frobnicate")

    def test_empty_line(self):
        assert HsisShell().execute("") == ""
        assert HsisShell().execute("# comment only") == ""


class TestVerificationFlow:
    def test_full_flow(self, files):
        shell = HsisShell()
        outputs = shell.run_script([
            f"read_blif_mv {files['blifmv']}",
            f"read_pif {files['pif']}",
            "build_tr greedy",
            "comp_reach",
            "print_stats",
            "mc",
            "lc",
        ])
        assert "reached 3 states" in outputs
        assert "mc can_reach_two: passed" in outputs
        assert "mc never_stuck: passed" in outputs
        assert "lc lc_no_three: passed" in outputs

    def test_inline_mc_formula(self, files):
        shell = HsisShell()
        shell.execute(f"read_blif_mv {files['blifmv']}")
        out = shell.execute("mc EF s=1")
        assert "passed" in out

    def test_mc_without_properties(self, files):
        shell = HsisShell()
        shell.execute(f"read_blif_mv {files['blifmv']}")
        with pytest.raises(CliError):
            shell.execute("mc")

    def test_lc_without_pif(self, files):
        shell = HsisShell()
        shell.execute(f"read_blif_mv {files['blifmv']}")
        with pytest.raises(CliError):
            shell.execute("lc")

    def test_commands_need_design(self):
        shell = HsisShell()
        for command in ("build_tr", "comp_reach", "print_stats", "mc EF x=1"):
            with pytest.raises(CliError):
                shell.execute(command)

    def test_build_tr_methods(self, files):
        for method in ("greedy", "linear", "monolithic"):
            shell = HsisShell()
            shell.execute(f"read_blif_mv {files['blifmv']}")
            out = shell.execute(f"build_tr {method}")
            assert "transition relation" in out

    def test_failing_mc_reports(self, files):
        shell = HsisShell()
        shell.execute(f"read_blif_mv {files['blifmv']}")
        out = shell.execute("mc AG s=0")
        assert "FAILED" in out

    def test_debug_mc(self, files):
        shell = HsisShell()
        shell.execute(f"read_blif_mv {files['blifmv']}")
        out = shell.execute("debug_mc AG s=0")
        assert "FAILS" in out

    def test_debug_mc_by_pif_name(self, files):
        shell = HsisShell()
        shell.execute(f"read_blif_mv {files['blifmv']}")
        shell.execute(f"read_pif {files['pif']}")
        out = shell.execute("debug_mc can_reach_two")
        assert "holds" in out


def _write_design(name, tmp_path):
    spec = get_spec(name)
    design, props = tmp_path / f"{name}.v", tmp_path / f"{name}.pif"
    design.write_text(spec.verilog)
    props.write_text(spec.pif_text)
    return str(design), str(props)


def _counting(monkeypatch, owner, attr):
    """Record the first argument of every call to ``owner.attr``."""
    calls = []
    original = getattr(owner, attr)

    def wrapper(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)
    return calls


class TestOneMachine:
    def test_fairness_bound_once(self, tmp_path, monkeypatch):
        """mc, debug_mc, bisim and lc share one binding of the PIF
        fairness on the loaded machine."""
        design, props = _write_design("rrarbiter", tmp_path)
        binds = _counting(monkeypatch, PifFile, "bind_fairness")
        shell = HsisShell()
        shell.execute(f"read_verilog {design}")
        shell.execute(f"read_pif {props}")
        names = [name for name, _formula in shell.pif.ctl_props]
        outputs = [shell.execute(command) for command in [
            "mc", f"debug_mc {names[0]}", f"debug_mc {names[1]}", "bisim", "lc",
        ]]
        assert len(binds) == 1
        assert "FAILED" not in "\n".join(outputs)
        shell.execute(f"read_pif {props}")
        shell.execute("mc")
        assert len(binds) == 2  # a new PIF is bound anew

    def test_mc_after_comp_reach_searches_no_more(self, tmp_path,
                                                  monkeypatch):
        """Once comp_reach has the reached states, every passing
        invariant is answered from them: the session searches once."""
        design, props = _write_design("gigamax", tmp_path)
        searches = _counting(monkeypatch, SymbolicFsm, "reachable")
        shell = HsisShell()
        shell.execute(f"read_verilog {design}")
        shell.execute(f"read_pif {props}")
        shell.execute("comp_reach")
        out = shell.execute("mc")
        assert out.count(": passed") == len(shell.pif.ctl_props) == 9
        assert len(searches) == 1

    def test_lc_checks_the_loaded_machine(self, tmp_path, monkeypatch):
        design, props = _write_design("scheduler", tmp_path)
        machines = _counting(monkeypatch, SymbolicFsm, "__init__")
        shell = HsisShell()
        shell.execute(f"read_verilog {design}")
        shell.execute(f"read_pif {props}")
        out = shell.execute("lc")
        assert out.count(": passed") == 2
        assert machines == [shell.fsm]

    def test_lc_leaves_no_product_nodes_behind(self, tmp_path):
        """Each lc product's nodes are collected after its report, so
        they do not stay in the loaded machine's table."""
        design, props = _write_design("scheduler", tmp_path)
        shell = HsisShell()
        shell.execute(f"read_verilog {design}")
        shell.execute(f"read_pif {props}")
        assert "FAILED" not in shell.execute("lc")
        bdd = shell.fsm.bdd
        live = len(bdd)
        assert bdd.gc() == 0 and len(bdd) == live
        assert live < bdd.peak_live_nodes


class TestSimulation:
    def test_sim_flow(self, files):
        shell = HsisShell()
        shell.execute(f"read_blif_mv {files['blifmv']}")
        out = shell.execute("sim_init")
        assert "s=0" in out
        out = shell.execute("sim_step")
        assert "s=1" in out
        out = shell.execute("sim_random 4")
        assert "visited" in out

    def test_sim_step_choice(self, files):
        shell = HsisShell()
        shell.execute(f"read_verilog {files['verilog']}")
        shell.execute("sim_init")
        out = shell.execute("sim_step 0")
        assert "->" in out


class TestHelp:
    def test_help_lists_commands(self):
        out = HsisShell().execute("help")
        for name in ("read_blif_mv", "comp_reach", "mc", "lc"):
            assert name in out


NEW_DESIGN = """
.model two
.mv c,cn 4
.table c -> cn
0 1
1 2
2 3
3 0
.latch cn c
.reset c
0
.mv s,sn 4
.table s -> sn
- =s
.latch sn s
.reset s
0
.end
"""

SPEC_DESIGN = """
.model spec
.mv c,cn 4
.table c -> cn
- (0,1,2,3)
.latch cn c
.reset c
0
.end
"""


@pytest.fixture
def two_part(tmp_path):
    design = tmp_path / "two.mv"
    design.write_text(NEW_DESIGN)
    spec = tmp_path / "spec.mv"
    spec.write_text(SPEC_DESIGN)
    return {"design": str(design), "spec": str(spec), "tmp": tmp_path}


class TestAbstractionCommands:
    def test_coi(self, two_part):
        shell = HsisShell()
        shell.execute(f"read_blif_mv {two_part['design']}")
        out = shell.execute("coi c")
        assert "dropped 1 latches" in out
        assert "reached 4 states" in shell.execute("comp_reach")

    def test_coi_needs_args(self, two_part):
        shell = HsisShell()
        shell.execute(f"read_blif_mv {two_part['design']}")
        with pytest.raises(CliError):
            shell.execute("coi")

    def test_delay(self, two_part):
        shell = HsisShell()
        shell.execute(f"read_blif_mv {two_part['design']}")
        out = shell.execute("delay c 1 2")
        assert "delayed by [1, 2]" in out
        # the timed machine still reaches a fixpoint
        assert "reached" in shell.execute("comp_reach")

    def test_bisim(self, two_part):
        shell = HsisShell()
        shell.execute(f"read_blif_mv {two_part['design']}")
        shell.execute("comp_reach")
        out = shell.execute("bisim c=0")
        assert "classes" in out

    def test_refine(self, two_part):
        shell = HsisShell()
        shell.execute(f"read_blif_mv {two_part['design']}")
        out = shell.execute(f"refine {two_part['spec']} c")
        assert "HOLDS" in out

    def test_write_dot(self, two_part):
        shell = HsisShell()
        shell.execute(f"read_blif_mv {two_part['design']}")
        target = two_part["tmp"] / "g.dot"
        out = shell.execute(f"write_dot {target}")
        assert "wrote" in out
        assert "digraph" in target.read_text()


class TestInteractiveDebugger:
    def test_scripted_session(self, two_part):
        shell = HsisShell()
        shell.execute(f"read_blif_mv {two_part['design']}")
        feeds = iter(["0", "u", "q"])
        shell.input_fn = lambda prompt: next(feeds)
        out = shell.execute("debug_mc_interactive AG !(c=3)")
        assert "FAILS" in out
        assert "[0]" in out

    def test_bad_choice_reported(self, two_part):
        shell = HsisShell()
        shell.execute(f"read_blif_mv {two_part['design']}")
        feeds = iter(["99", "q"])
        shell.input_fn = lambda prompt: next(feeds)
        out = shell.execute("debug_mc_interactive AG !(c=3)")
        assert "bad choice" in out

    def test_needs_formula(self, two_part):
        shell = HsisShell()
        shell.execute(f"read_blif_mv {two_part['design']}")
        with pytest.raises(CliError):
            shell.execute("debug_mc_interactive")
