"""hsis: the interactive shell tying the environment together (Figure 1).

The command set mirrors the HSIS workflow: read a design (Verilog or
BLIF-MV), read properties (PIF), build the transition relation with an
early-quantification schedule, compute reached states, run the model
checker and the language-containment checker, and debug failures::

    hsis> read_verilog design.v
    hsis> read_pif props.pif
    hsis> build_tr greedy
    hsis> comp_reach
    hsis> mc                # all CTL properties from the PIF file
    hsis> lc                # all automata properties from the PIF file
    hsis> debug_mc mutex    # interactive formula unfolding
    hsis> sim_random 20

Run ``hsis script.cmd`` to execute a command file, or ``hsis`` for a
REPL.  Every command is also usable programmatically through
:class:`HsisShell` (the test suite drives it that way).
"""

from __future__ import annotations

import argparse
import shlex
import sys
from typing import Callable, Dict, List, Optional

from repro.blifmv import elaborate, flatten, parse_file as parse_blifmv_file, write_file
from repro.ctl import ModelChecker, parse_ctl
from repro.debug import CtlDebugger, format_lc_report
from repro.lc import check_containment
from repro.network import SymbolicFsm
from repro.pif import PifFile, parse_pif_file
from repro.sim import Simulator
from repro.trace import Tracer, safe_write_trace, summary as trace_summary
from repro.verilog import compile_verilog


class CliError(Exception):
    """User-facing command errors (bad arguments, missing state)."""


class HsisShell:
    """Stateful command interpreter; each command returns its output text."""

    def __init__(
        self,
        auto_gc: Optional[int] = None,
        cache_limit: Optional[int] = None,
        auto_reorder: Optional[int] = None,
        show_stats: bool = False,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.auto_gc = auto_gc
        self.cache_limit = cache_limit
        self.auto_reorder = auto_reorder
        self.show_stats = show_stats
        self.tracer = tracer
        self.design = None
        self.flat = None
        self.fsm: Optional[SymbolicFsm] = None
        self.pif: Optional[PifFile] = None
        self.reach = None
        self.simulator: Optional[Simulator] = None
        self.checker: Optional[ModelChecker] = None
        self._commands: Dict[str, Callable[[List[str]], str]] = {
            "read_blif_mv": self.cmd_read_blif_mv,
            "read_verilog": self.cmd_read_verilog,
            "read_pif": self.cmd_read_pif,
            "write_blif_mv": self.cmd_write_blif_mv,
            "build_tr": self.cmd_build_tr,
            "comp_reach": self.cmd_comp_reach,
            "print_stats": self.cmd_print_stats,
            "mc": self.cmd_mc,
            "lc": self.cmd_lc,
            "debug_mc": self.cmd_debug_mc,
            "debug_mc_interactive": self.cmd_debug_mc_interactive,
            "sim_init": self.cmd_sim_init,
            "sim_step": self.cmd_sim_step,
            "sim_random": self.cmd_sim_random,
            "coi": self.cmd_coi,
            "delay": self.cmd_delay,
            "bisim": self.cmd_bisim,
            "refine": self.cmd_refine,
            "write_dot": self.cmd_write_dot,
            "fuzz": self.cmd_fuzz,
            "help": self.cmd_help,
        }
        self.input_fn = input  # overridable for scripted interaction

    # ------------------------------------------------------------------

    def execute(self, line: str) -> str:
        """Execute one command line; returns printable output."""
        parts = shlex.split(line, comments=True)
        if not parts:
            return ""
        command, args = parts[0], parts[1:]
        handler = self._commands.get(command)
        if handler is None:
            raise CliError(f"unknown command {command!r} (try 'help')")
        return handler(args)

    def run_script(self, lines) -> str:
        out = []
        for line in lines:
            result = self.execute(line)
            if result:
                out.append(result)
        return "\n".join(out)

    # -- design loading ---------------------------------------------------

    def _make_fsm(self, flat) -> SymbolicFsm:
        return SymbolicFsm(
            flat, auto_gc=self.auto_gc, cache_limit=self.cache_limit,
            auto_reorder=self.auto_reorder, tracer=self.tracer,
        )

    def _after_load(self) -> str:
        assert self.design is not None
        self.flat = flatten(self.design)
        self.fsm = self._make_fsm(self.flat)
        self.reach = None
        self.simulator = None
        self.checker = None
        elapsed = self.fsm.stats.phase_seconds("encode")
        return (
            f"loaded {self.design.root}: {len(self.flat.latches)} latches, "
            f"{len(self.flat.tables)} tables ({elapsed:.2f}s encode)"
        )

    def cmd_read_blif_mv(self, args: List[str]) -> str:
        """read_blif_mv <file> — load a BLIF-MV design."""
        if len(args) != 1:
            raise CliError("usage: read_blif_mv <file>")
        self.design = parse_blifmv_file(args[0])
        return self._after_load()

    def cmd_read_verilog(self, args: List[str]) -> str:
        """read_verilog <file> [root] — compile Verilog via vl2mv and load."""
        if len(args) not in (1, 2):
            raise CliError("usage: read_verilog <file> [root-module]")
        with open(args[0]) as handle:
            self.design = compile_verilog(
                handle.read(), root=args[1] if len(args) == 2 else None
            )
        return self._after_load()

    def cmd_read_pif(self, args: List[str]) -> str:
        """read_pif <file> — load properties and fairness constraints."""
        if len(args) != 1:
            raise CliError("usage: read_pif <file>")
        self.pif = parse_pif_file(args[0])
        return (
            f"loaded {len(self.pif.ctl_props)} CTL properties, "
            f"{len(self.pif.automata)} automata, "
            f"{len(self.pif.fairness)} fairness constraints"
        )

    def cmd_write_blif_mv(self, args: List[str]) -> str:
        """write_blif_mv <file> — dump the loaded design as BLIF-MV."""
        if len(args) != 1:
            raise CliError("usage: write_blif_mv <file>")
        if self.design is None:
            raise CliError("no design loaded")
        write_file(self.design, args[0])
        return f"wrote {args[0]}"

    # -- core verification flow ---------------------------------------------

    def _need_fsm(self) -> SymbolicFsm:
        if self.fsm is None:
            raise CliError("no design loaded (read_blif_mv / read_verilog first)")
        return self.fsm

    def cmd_build_tr(self, args: List[str]) -> str:
        """build_tr [greedy|linear|monolithic] — build the product relation."""
        method = args[0] if args else "greedy"
        fsm = self._need_fsm()
        before = fsm.stats.phase_seconds("build_tr")
        trans = fsm.build_transition(method=method)
        elapsed = fsm.stats.phase_seconds("build_tr") - before
        assert fsm.quantify_result is not None
        return (
            f"transition relation: {fsm.bdd.size(trans)} nodes "
            f"(peak {fsm.quantify_result.peak_size}, schedule={method}, "
            f"{elapsed:.2f}s)"
        )

    def cmd_comp_reach(self, args: List[str]) -> str:
        """comp_reach [--partitioned] — compute the reachable states."""
        fsm = self._need_fsm()
        partitioned = "--partitioned" in args
        self.reach = fsm.reachable(partitioned=partitioned)
        return (
            f"reached {fsm.count_states(self.reach.reached)} states in "
            f"{self.reach.iterations} iterations ({self.reach.seconds:.2f}s)"
        )

    def cmd_print_stats(self, args: List[str]) -> str:
        """print_stats — BDD manager and design statistics."""
        fsm = self._need_fsm()
        stats = fsm.bdd.stats()
        lines = [
            f"latches: {len(fsm.latches)}",
            f"conjuncts: {len(fsm.conjuncts)}",
            "bdd: {live_nodes} live nodes, {variables} boolean vars, "
            "{cache_entries} cache entries".format(**stats),
        ]
        if self.reach is not None:
            lines.append(f"reached states: {fsm.count_states(self.reach.reached)}")
        lines.append(fsm.stats.format())
        return "\n".join(lines)

    def _make_checker(self) -> ModelChecker:
        fsm = self._need_fsm()
        fairness = self.pif.bind_fairness(fsm) if self.pif is not None else None
        if self.checker is None:
            self.checker = ModelChecker(
                fsm,
                fairness=fairness,
                reached=self.reach.reached if self.reach is not None else None,
            )
        return self.checker

    def cmd_mc(self, args: List[str]) -> str:
        """mc [--jobs N] [formula...] — model check PIF CTL properties.

        With ``--jobs N`` (N > 1) and more than one loaded property, the
        independent properties are sharded across worker processes; the
        verdicts are identical to the serial run (see docs/parallel.md).
        """
        workers = 1
        if "--jobs" in args:
            at = args.index("--jobs")
            try:
                workers = int(args[at + 1])
            except (IndexError, ValueError):
                raise CliError("usage: mc [--jobs N] [formula...]")
            if workers <= 0:
                raise CliError("mc: --jobs must be a positive integer")
            args = args[:at] + args[at + 2:]
        jobs = []
        if args:
            text = " ".join(args)
            jobs.append((text, parse_ctl(text)))
        else:
            if self.pif is None or not self.pif.ctl_props:
                raise CliError("no CTL properties loaded; read_pif or pass a formula")
            jobs = list(self.pif.ctl_props)
        if workers > 1 and len(jobs) > 1:
            from repro.parallel import check_properties

            self._need_fsm()  # same preconditions as the serial path
            verdicts = check_properties(
                self.flat,
                jobs,
                self.pif.fairness if self.pif is not None else (),
                jobs=workers,
            )
            return "\n".join(v.format() for v in verdicts)
        checker = self._make_checker()
        out = []
        for name, formula in jobs:
            result = checker.check(formula)
            verdict = "passed" if result.holds else "FAILED"
            out.append(f"mc {name}: {verdict} ({result.seconds:.2f}s)  [{formula}]")
        return "\n".join(out)

    def cmd_lc(self, args: List[str]) -> str:
        """lc [name...] — language containment for PIF automata."""
        if self.pif is None or not self.pif.automata:
            raise CliError("no automata loaded; read_pif first")
        if self.design is None:
            raise CliError("no design loaded")
        names = args if args else [a.name for a in self.pif.automata]
        out = []
        for name in names:
            automaton = self.pif.automaton(name)
            # Each LC run attaches a monitor, so it needs a fresh machine.
            fsm = self._make_fsm(self.flat)
            fairness = self.pif.bind_fairness(fsm)
            result = check_containment(fsm, automaton, system_fairness=fairness)
            verdict = "passed" if result.holds else "FAILED"
            out.append(f"lc {name}: {verdict} ({result.seconds:.2f}s)")
            if not result.holds:
                out.append(format_lc_report(result))
        return "\n".join(out)

    def cmd_debug_mc(self, args: List[str]) -> str:
        """debug_mc <formula|pif-name> — print the CTL explanation tree."""
        if not args:
            raise CliError("usage: debug_mc <formula or PIF property name>")
        text = " ".join(args)
        formula = None
        if self.pif is not None:
            for name, f in self.pif.ctl_props:
                if name == text:
                    formula = f
                    break
        if formula is None:
            formula = parse_ctl(text)
        checker = self._make_checker()
        debugger = CtlDebugger(checker)
        return debugger.explain(formula).format()

    def cmd_debug_mc_interactive(self, args: List[str]) -> str:
        """debug_mc_interactive <formula> — unfold a formula step by step.

        At each node the sub-formulas responsible for the verdict are
        listed; type a number to descend (the paper §6.2 interaction:
        'the user can be given the choice of choosing which formula he
        wants certified false'), 'u' to go back up, 'q' to stop.
        """
        if not args:
            raise CliError("usage: debug_mc_interactive <formula>")
        checker = self._make_checker()
        debugger = CtlDebugger(checker)
        node = debugger.explain(parse_ctl(" ".join(args)))
        stack = [node]
        transcript: List[str] = []
        while True:
            current = stack[-1]
            verdict = "holds" if current.holds else "FAILS"
            transcript.append(f"{current.formula}  {verdict}")
            if current.note:
                transcript.append(f"  note: {current.note}")
            for step in current.path:
                transcript.append(f"  | {step.format()}")
            for index, child in enumerate(current.children):
                child_verdict = "holds" if child.holds else "FAILS"
                transcript.append(f"  [{index}] {child.formula}  {child_verdict}")
            if not current.children:
                transcript.append("  (leaf)")
            try:
                choice = self.input_fn("debug> ").strip()
            except EOFError:
                break
            if choice in ("q", "quit", ""):
                break
            if choice in ("u", "up"):
                if len(stack) > 1:
                    stack.pop()
                continue
            try:
                index = int(choice)
                stack.append(current.children[index])
            except (ValueError, IndexError):
                transcript.append(f"  ? bad choice {choice!r}")
        return "\n".join(transcript)

    # -- abstraction / timing / minimization -----------------------------------

    def cmd_coi(self, args: List[str]) -> str:
        """coi <net...> — reduce the design to the cone of influence."""
        from repro.network.abstraction import cone_of_influence

        if not args:
            raise CliError("usage: coi <observed-net...>")
        if self.flat is None:
            raise CliError("no design loaded")
        reduced, report = cone_of_influence(self.flat, args)
        self.flat = reduced
        self.fsm = self._make_fsm(reduced)
        self.reach = None
        self.checker = None
        self.simulator = None
        return (
            f"cone of influence: kept {len(report.kept_latches)} latches "
            f"({report.kept_tables} tables), dropped "
            f"{len(report.dropped_latches)} latches "
            f"({report.dropped_tables} tables)"
        )

    def cmd_delay(self, args: List[str]) -> str:
        """delay <latch> <min> <max> — attach an inertial delay bound."""
        from repro.network.timing import DelayBound, elaborate_delays

        if len(args) != 3:
            raise CliError("usage: delay <latch-output> <min> <max>")
        if self.flat is None:
            raise CliError("no design loaded")
        bound = DelayBound(int(args[1]), int(args[2]))
        self.flat = elaborate_delays(self.flat, {args[0]: bound})
        self.fsm = self._make_fsm(self.flat)
        self.reach = None
        self.checker = None
        self.simulator = None
        return (
            f"latch {args[0]!r} delayed by [{bound.low}, {bound.high}] ticks "
            f"({len(self.flat.latches)} latches total)"
        )

    def cmd_bisim(self, args: List[str]) -> str:
        """bisim [net=value...] — bisimulation quotient statistics."""
        from repro.minimize import bisimulation_partition, quotient_size

        fsm = self._need_fsm()
        fsm.require_transition()
        checker = self._make_checker()
        observables = [checker.eval(spec) for spec in args]
        within = self.reach.reached if self.reach is not None else None
        partition = bisimulation_partition(fsm, observables, within=within)
        total = fsm.count_states(
            within if within is not None else fsm.state_domain())
        return (
            f"bisimulation: {total} states -> {quotient_size(partition)} "
            f"classes ({partition.iterations} refinement passes)"
        )

    def cmd_refine(self, args: List[str]) -> str:
        """refine <spec.mv|spec.v> <observable...> — check refinement."""
        from repro.refine import check_refinement

        if len(args) < 2:
            raise CliError("usage: refine <spec-file> <observable...>")
        if self.flat is None:
            raise CliError("no design loaded")
        path = args[0]
        if path.endswith(".v"):
            with open(path) as handle:
                spec = flatten(compile_verilog(handle.read()))
        else:
            spec = flatten(parse_blifmv_file(path))
        result = check_refinement(self.flat, spec, args[1:])
        if result.holds:
            return (
                f"refinement HOLDS: {self.flat.name} refines {spec.name} "
                f"on {args[1:]} ({result.iterations} iterations)"
            )
        state = " ".join(
            f"{k}={v}" for k, v in sorted((result.unmatched_initial or {}).items())
        )
        return f"refinement FAILS: unmatched initial state {state}"

    def cmd_write_dot(self, args: List[str]) -> str:
        """write_dot <file> — dump the transition relation as Graphviz."""
        from repro.bdd.dump import to_dot

        if len(args) != 1:
            raise CliError("usage: write_dot <file>")
        fsm = self._need_fsm()
        roots = {"trans": fsm.require_transition(), "init": fsm.init}
        if self.reach is not None:
            roots["reached"] = self.reach.reached
        with open(args[0], "w") as handle:
            handle.write(to_dot(fsm.bdd, roots))
        return f"wrote {args[0]} ({fsm.bdd.size(list(roots.values()))} nodes)"

    # -- simulation -----------------------------------------------------------

    def _need_sim(self) -> Simulator:
        if self.simulator is None:
            self.simulator = Simulator(self._need_fsm(), seed=0)
            self.simulator.reset()
        return self.simulator

    def cmd_sim_init(self, args: List[str]) -> str:
        """sim_init — (re)start simulation from an initial state."""
        sim = Simulator(self._need_fsm(), seed=0)
        self.simulator = sim
        state = sim.reset()
        return "simulation at " + " ".join(
            f"{k}={v}" for k, v in sorted(state.items())
        )

    def cmd_sim_step(self, args: List[str]) -> str:
        """sim_step [choice] — advance one tick (optionally pick successor)."""
        sim = self._need_sim()
        choice = int(args[0]) if args else None
        state = sim.step(choice=choice)
        return "-> " + " ".join(f"{k}={v}" for k, v in sorted(state.items()))

    def cmd_sim_random(self, args: List[str]) -> str:
        """sim_random <n> — run n random steps and report coverage."""
        steps = int(args[0]) if args else 10
        sim = self._need_sim()
        sim.run(steps)
        return (
            f"ran {steps} steps, visited {sim.visited_count()} distinct states\n"
            + sim.trace.format()
        )

    def cmd_fuzz(self, args: List[str]) -> str:
        """fuzz [trials] [seed] — differential sweep vs the explicit oracle."""
        from repro.oracle import run_sweep

        if len(args) > 2:
            raise CliError("usage: fuzz [trials] [seed]")
        try:
            trials = int(args[0]) if args else 25
            seed0 = int(args[1]) if len(args) > 1 else 0
        except ValueError as exc:
            raise CliError(f"fuzz: bad number: {exc}")
        sweep = run_sweep(trials, seed0=seed0, auto_reorder=self.auto_reorder)
        return sweep.summary()

    def cmd_help(self, args: List[str]) -> str:
        """help — list commands."""
        lines = []
        for name in sorted(self._commands):
            doc = (self._commands[name].__doc__ or "").strip().splitlines()
            lines.append(doc[0] if doc else name)
        return "\n".join(lines)


def _print_final_stats(shell: HsisShell) -> None:
    if shell.show_stats and shell.fsm is not None:
        print(shell.fsm.stats.format())


def _write_trace_file(tracer: Optional[Tracer], path: Optional[str]) -> bool:
    """Write the run's trace; on failure print a clear error, not a
    traceback (and never crash after the verification work succeeded).

    Returns False when the file could not be written so callers can
    surface it in their exit code.  Serve mode reuses the same
    :func:`repro.trace.export.safe_write_trace` underneath for its
    per-job trace files.
    """
    if tracer is None or path is None:
        return True
    fmt, error = safe_write_trace(tracer, path)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return False
    print(f"trace: wrote {len(tracer)} events to {path} ({fmt})")
    return True


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _fuzz_main(argv: List[str]) -> int:
    """``hsis fuzz`` — run the differential fuzz sweep from the shell."""
    from repro.oracle import run_sweep
    from repro.perf import EngineStats

    parser = argparse.ArgumentParser(
        prog="hsis fuzz",
        description=(
            "Cross-check the symbolic engines against the explicit-state "
            "oracle on randomly generated designs; any divergence is "
            "shrunk and recorded as a corpus repro."
        ),
    )
    parser.add_argument(
        "--trials", type=_positive_int, default=100, metavar="N",
        help="number of seeded trials to run (default 100)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="first seed; trial i uses seed S+i (default 0)",
    )
    parser.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="write shrunk repros of any divergence into DIR",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="record failing cases without minimizing them first",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print aggregate engine statistics after the sweep",
    )
    parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="shard the seed range across N worker processes (default 1)",
    )
    parser.add_argument(
        "--auto-reorder", type=_positive_int, default=None, metavar="N",
        help=(
            "arm dynamic variable reordering (sifting at safe points) in "
            "every engine under test once its table exceeds N nodes"
        ),
    )
    parser.add_argument(
        "--portfolio", type=_positive_int, default=None, metavar="K",
        help=(
            "exercise the first K ordering-portfolio heuristics: trial i "
            "runs under heuristic i mod K (deterministic round-robin, no "
            "racing; see docs/ordering.md)"
        ),
    )
    parser.add_argument(
        "--shared-shapes", action="store_true",
        help=(
            "exercise shared-shape elaboration: every trial additionally "
            "runs a two-instance replica of the generated design through "
            "both shared-shape and plain-flatten encodes and diffs their "
            "reachable state sets (see docs/hierarchy.md)"
        ),
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help=(
            "record a structured event trace (.jsonl, .txt summary, or "
            "Chrome/Perfetto JSON by extension)"
        ),
    )
    opts = parser.parse_args(argv)
    stats = EngineStats()
    if opts.trace:
        stats.tracer = Tracer()

    def progress(report) -> None:
        if not report.ok:
            for div in report.divergences:
                print(div, file=sys.stderr)

    if opts.jobs > 1:
        from repro.parallel import run_sweep_parallel

        sweep = run_sweep_parallel(
            opts.trials,
            seed0=opts.seed,
            jobs=opts.jobs,
            stats=stats,
            corpus_dir=opts.corpus,
            shrink=not opts.no_shrink,
            progress=progress,
            auto_reorder=opts.auto_reorder,
            portfolio=opts.portfolio,
            shared_shapes=opts.shared_shapes,
        )
    else:
        sweep = run_sweep(
            opts.trials,
            seed0=opts.seed,
            stats=stats,
            corpus_dir=opts.corpus,
            shrink=not opts.no_shrink,
            progress=progress,
            auto_reorder=opts.auto_reorder,
            portfolio=opts.portfolio,
            shared_shapes=opts.shared_shapes,
        )
    print(sweep.summary())
    if opts.stats:
        print(stats.format())
    trace_ok = _write_trace_file(stats.tracer if opts.trace else None, opts.trace)
    return 0 if sweep.ok and trace_ok else 1


def _check_main(argv: List[str]) -> int:
    """``hsis check`` — batch multi-property model checking."""
    from repro.parallel import check_properties
    from repro.perf import EngineStats

    parser = argparse.ArgumentParser(
        prog="hsis check",
        description=(
            "Model check every CTL property of a PIF file against a "
            "design; independent properties are sharded across worker "
            "processes with --jobs."
        ),
    )
    parser.add_argument("design", help="BLIF-MV (.mv) or Verilog (.v) design")
    parser.add_argument("pif", help="PIF file with the CTL properties")
    parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="check up to N properties concurrently (default 1)",
    )
    parser.add_argument(
        "--portfolio", type=_positive_int, default=None, metavar="K",
        help=(
            "race K candidate variable orders as worker processes, keep "
            "the first finisher, and remember the winning order per "
            "design in the order cache (see docs/ordering.md)"
        ),
    )
    parser.add_argument(
        "--orders-dir", default=None, metavar="DIR",
        help="winning-order cache directory (default .hsis-orders)",
    )
    parser.add_argument(
        "--results", default=None, metavar="FILE",
        help=(
            "write the verdicts as deterministic JSON (no timings), "
            "byte-identical across --jobs/--portfolio settings"
        ),
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-property deadline; overrunning checks report as timeout",
    )
    parser.add_argument(
        "--shared-shapes", dest="shared_shapes", action="store_true",
        default=True,
        help=(
            "encode each distinct subcircuit shape once and instantiate "
            "replicas by variable substitution (default; no-op on "
            "single-instance designs, overridden by --portfolio)"
        ),
    )
    parser.add_argument(
        "--no-shared-shapes", dest="shared_shapes", action="store_false",
        help="always encode every instance's tables from scratch",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print aggregate engine statistics after the run",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help=(
            "record a structured event trace (.jsonl, .txt summary, or "
            "Chrome/Perfetto JSON by extension)"
        ),
    )
    opts = parser.parse_args(argv)
    try:
        if opts.design.endswith(".v"):
            with open(opts.design) as handle:
                design = compile_verilog(handle.read())
        else:
            design = parse_blifmv_file(opts.design)
        elab = elaborate(design)
        flat = elab.flat
        pif = parse_pif_file(opts.pif)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not pif.ctl_props:
        print("error: no CTL properties in the PIF file", file=sys.stderr)
        return 2
    stats = EngineStats()
    if opts.trace:
        stats.tracer = Tracer()
    if opts.portfolio is not None:
        from repro.ordering_portfolio import DEFAULT_ORDERS_DIR, run_portfolio_check

        verdicts, provenance = run_portfolio_check(
            flat,
            pif.ctl_props,
            pif.fairness,
            k=opts.portfolio,
            orders_dir=opts.orders_dir or DEFAULT_ORDERS_DIR,
            stats=stats,
            timeout=opts.timeout,
        )
        print(
            f"portfolio: {provenance['source']} "
            f"(heuristic {provenance['heuristic']}, "
            f"{provenance['candidates']} candidate(s))"
        )
    else:
        # The ordering portfolio extracts features from the flat model;
        # --portfolio therefore keeps the plain-flatten path above.
        verdicts = check_properties(
            elab if opts.shared_shapes else flat,
            pif.ctl_props,
            pif.fairness,
            jobs=opts.jobs,
            stats=stats,
            timeout=opts.timeout,
        )
    for verdict in verdicts:
        print(verdict.format())
        if verdict.error:
            print(f"  {verdict.error.strip().splitlines()[-1]}", file=sys.stderr)
    passed = sum(1 for v in verdicts if v.holds is True)
    failed = sum(1 for v in verdicts if v.holds is False)
    errors = sum(1 for v in verdicts if v.holds is None)
    print(
        f"check: {len(verdicts)} properties, {passed} passed, "
        f"{failed} failed, {errors} errored (jobs={opts.jobs})"
    )
    if opts.results:
        from repro.parallel import atomic_write_json

        # Only deterministic fields: identical bytes regardless of
        # jobs/portfolio/timing (the parity tests assert this).
        atomic_write_json(
            opts.results,
            {
                "properties": [
                    {
                        "name": v.name,
                        "formula": v.formula,
                        "holds": v.holds,
                        "status": v.status,
                    }
                    for v in verdicts
                ],
                "passed": passed,
                "failed": failed,
                "errors": errors,
            },
        )
    if opts.stats:
        print(stats.format())
    trace_ok = _write_trace_file(stats.tracer if opts.trace else None, opts.trace)
    return 0 if passed == len(verdicts) and trace_ok else 1


def _load_profile_design(target: str, pif_path: Optional[str],
                         shared_shapes: bool = False):
    """Resolve a ``profile`` target to ``(name, flat model, pif)``.

    ``gallery:NAME`` (or any bare shipped-design name) loads one of the
    built-in benchmarks with its bundled properties; a ``.mv``/``.v``
    path loads a design from disk with an optional ``--pif`` file.
    With ``shared_shapes`` the model slot holds an
    :class:`~repro.blifmv.Elaboration` (shared-shape encoding).
    """
    from repro.models import get_spec

    name = target[len("gallery:"):] if target.startswith("gallery:") else target
    if not (target.endswith(".mv") or target.endswith(".v")):
        spec = get_spec(name)
        model = spec.elaborate() if shared_shapes else spec.flat()
        return spec.name, model, spec.pif
    if target.endswith(".v"):
        with open(target) as handle:
            design = compile_verilog(handle.read())
    else:
        design = parse_blifmv_file(target)
    pif = parse_pif_file(pif_path) if pif_path else None
    model = elaborate(design) if shared_shapes else flatten(design)
    return design.root, model, pif


def _profile_main(argv: List[str]) -> int:
    """``hsis profile`` — run the pipeline under a tracer and report."""
    parser = argparse.ArgumentParser(
        prog="hsis profile",
        description=(
            "Run encode -> build_tr -> reach (and model checking when "
            "properties are available) with structured tracing enabled, "
            "print the span-tree summary, and optionally export the "
            "timeline for Perfetto."
        ),
    )
    parser.add_argument(
        "design",
        help="a .mv/.v file, or a shipped benchmark (e.g. gallery:traffic)",
    )
    parser.add_argument(
        "--pif", default=None, metavar="FILE",
        help="PIF properties to check (file designs only; gallery designs "
             "bring their own)",
    )
    parser.add_argument(
        "--method", default="greedy", metavar="M",
        help="early-quantification schedule (greedy|linear|monolithic)",
    )
    parser.add_argument(
        "--partitioned", action="store_true",
        help="use the partitioned image (never build the monolithic T)",
    )
    parser.add_argument(
        "--no-mc", action="store_true",
        help="skip model checking even when properties are available",
    )
    parser.add_argument(
        "--auto-reorder", type=_positive_int, default=None, metavar="N",
        help="arm dynamic variable reordering past N live nodes",
    )
    parser.add_argument(
        "--shared-shapes", dest="shared_shapes", action="store_true",
        default=True,
        help=(
            "encode each distinct subcircuit shape once and instantiate "
            "replicas by variable substitution (default; no-op on "
            "single-instance designs)"
        ),
    )
    parser.add_argument(
        "--no-shared-shapes", dest="shared_shapes", action="store_false",
        help="always encode every instance's tables from scratch",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="also write the raw trace (.jsonl / .txt / Chrome JSON)",
    )
    opts = parser.parse_args(argv)
    try:
        name, flat, pif = _load_profile_design(
            opts.design, opts.pif, shared_shapes=opts.shared_shapes
        )
    except (OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tracer = Tracer()
    fsm = SymbolicFsm(flat, tracer=tracer, auto_reorder=opts.auto_reorder)
    if not opts.partitioned:
        fsm.build_transition(method=opts.method)
    reach = fsm.reachable(partitioned=opts.partitioned)
    print(
        f"profile {name}: {fsm.count_states(reach.reached)} states reached "
        f"in {reach.iterations} iterations ({reach.seconds:.2f}s)"
    )
    if fsm.network.conjunct_groups is not None:
        print(
            f"shapes: {fsm.network.shapes_encoded} encoded, "
            f"{fsm.network.instances_substituted} instance(s) substituted"
        )
    if pif is not None and pif.ctl_props and not opts.no_mc:
        checker = ModelChecker(
            fsm, fairness=pif.bind_fairness(fsm), reached=reach.reached
        )
        for prop_name, formula in pif.ctl_props:
            result = checker.check(formula)
            verdict = "passed" if result.holds else "FAILED"
            print(f"mc {prop_name}: {verdict} ({result.seconds:.2f}s)")
    print(trace_summary(tracer, title=f"trace summary ({name})"))
    print(fsm.stats.format())
    return 0 if _write_trace_file(tracer, opts.trace) else 1


def _serve_main(argv: List[str]) -> int:
    """``hsis serve`` — the persistent async verification job server."""
    import asyncio

    from repro.parallel import default_jobs
    from repro.serve import DEFAULT_CACHE_DIR, HsisServer

    parser = argparse.ArgumentParser(
        prog="hsis serve",
        description=(
            "Accept concurrent check/fuzz/profile jobs over a "
            "newline-delimited JSON protocol, dispatching them onto "
            "crash-isolated worker processes with a persistent "
            "content-addressed result cache (see docs/serving.md)."
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="address to bind (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=0, metavar="P",
        help="TCP port (default 0: pick an ephemeral port and print it)",
    )
    parser.add_argument(
        "--jobs", type=_positive_int, default=None, metavar="N",
        help="concurrent worker processes (default: one per core)",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help=f"persistent result cache directory (default {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--cache-max-mib", type=_positive_int, default=None, metavar="MIB",
        help=(
            "size-cap the result cache; least-recently-used entries are "
            "evicted past the cap (default: unbounded)"
        ),
    )
    parser.add_argument(
        "--orders-dir", default=None, metavar="DIR",
        help=(
            "winning-order cache for portfolio check jobs "
            "(default .hsis-orders)"
        ),
    )
    parser.add_argument(
        "--timeout", type=float, default=300.0, metavar="SECONDS",
        help="per-job deadline enforced by worker reaping (default 300)",
    )
    parser.add_argument(
        "--memory-limit", type=_positive_int, default=None, metavar="MB",
        help="per-job address-space quota in MiB (RLIMIT_AS in the worker)",
    )
    parser.add_argument(
        "--backlog", type=_positive_int, default=64, metavar="N",
        help="bounded job-queue depth; further submissions are refused",
    )
    parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="write one JSONL tracer timeline per job into DIR",
    )
    opts = parser.parse_args(argv)

    async def _run() -> int:
        server = HsisServer(
            host=opts.host,
            port=opts.port,
            jobs=opts.jobs if opts.jobs is not None else default_jobs(),
            cache_dir=opts.cache_dir,
            timeout=opts.timeout,
            memory_limit=(
                opts.memory_limit * 1024 * 1024
                if opts.memory_limit is not None else None
            ),
            backlog=opts.backlog,
            trace_dir=opts.trace_dir,
            cache_max_bytes=(
                opts.cache_max_mib * 1024 * 1024
                if opts.cache_max_mib is not None else None
            ),
            orders_dir=opts.orders_dir,
        )
        try:
            await server.start()
        except OSError as exc:
            print(f"error: cannot bind {opts.host}:{opts.port}: {exc}",
                  file=sys.stderr)
            return 2
        print(
            f"hsis serve: listening on {server.host}:{server.port} "
            f"(jobs={server.jobs}, cache={opts.cache_dir})",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()
        return 0

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:
        print("hsis serve: interrupted", file=sys.stderr)
        return 0


def _client_design_arg(target: str):
    """CLI design reference -> protocol design object (+ optional pif)."""
    if target.startswith("gallery:"):
        return {"gallery": target[len("gallery:"):]}
    if target.endswith(".v"):
        with open(target) as handle:
            return {"verilog": handle.read()}
    if target.endswith(".mv"):
        with open(target) as handle:
            return {"blifmv": handle.read()}
    return {"gallery": target}


def _client_main(argv: List[str]) -> int:
    """``hsis client`` — scriptable front end for a running server."""
    import asyncio
    import json

    from repro.serve import ServeClient, ServeError

    parser = argparse.ArgumentParser(
        prog="hsis client",
        description="Submit jobs to (and query) a running `hsis serve`.",
    )
    parser.add_argument("--host", default="127.0.0.1", metavar="ADDR")
    parser.add_argument("--port", type=_positive_int, required=True,
                        metavar="P")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_check = sub.add_parser("check", help="model check a design's properties")
    p_check.add_argument("design", help=".mv/.v file or gallery:NAME")
    p_check.add_argument("pif", nargs="?", default=None,
                         help="PIF file (gallery designs bring their own)")
    p_fuzz = sub.add_parser("fuzz", help="run a differential sweep")
    p_fuzz.add_argument("--trials", type=_positive_int, default=None)
    p_fuzz.add_argument("--seed", type=int, default=None)
    p_profile = sub.add_parser("profile", help="reachability profile")
    p_profile.add_argument("design", help=".mv/.v file or gallery:NAME")
    p_profile.add_argument("--method", default=None, metavar="M")
    p_profile.add_argument("--partitioned", action="store_true")
    for p in (p_check, p_fuzz, p_profile):
        p.add_argument("--auto-reorder", type=_positive_int, default=None,
                       metavar="N")
        p.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS")
        p.add_argument("--stream", action="store_true",
                       help="print per-job tracer events as they stream")
        p.add_argument("--shared-shapes", dest="shared_shapes",
                       action="store_true", default=None,
                       help="force shared-shape encoding on")
        p.add_argument("--no-shared-shapes", dest="shared_shapes",
                       action="store_false",
                       help="force shared-shape encoding off")
    p_check.add_argument("--cache-limit", type=_positive_int, default=None,
                         metavar="N")
    p_check.add_argument("--auto-gc", type=_positive_int, default=None,
                         metavar="N")
    p_check.add_argument("--portfolio", type=_positive_int, default=None,
                         metavar="K",
                         help="race K candidate variable orders server-side")
    p_status = sub.add_parser("status", help="queue / cache / stats snapshot")
    p_status.add_argument("job", nargs="?", default=None)
    p_cancel = sub.add_parser("cancel", help="cancel a queued or running job")
    p_cancel.add_argument("job")
    opts = parser.parse_args(argv)

    async def _run() -> int:
        client = ServeClient(opts.host, opts.port)
        try:
            await client.connect()
        except (ConnectionError, OSError) as exc:
            print(f"error: cannot reach {opts.host}:{opts.port}: {exc}",
                  file=sys.stderr)
            return 2
        try:
            if opts.verb == "status":
                print(json.dumps(await client.status(opts.job), indent=2,
                                 sort_keys=True))
                return 0
            if opts.verb == "cancel":
                print(json.dumps(await client.cancel(opts.job), indent=2,
                                 sort_keys=True))
                return 0
            knobs = {}
            design = None
            pif = None
            if opts.verb == "fuzz":
                for name in ("trials", "seed", "auto_reorder"):
                    if getattr(opts, name) is not None:
                        knobs[name] = getattr(opts, name)
            else:
                design = _client_design_arg(opts.design)
                if opts.verb == "check":
                    if opts.pif is not None:
                        with open(opts.pif) as handle:
                            pif = handle.read()
                    for name in ("auto_reorder", "cache_limit", "auto_gc",
                                 "portfolio"):
                        if getattr(opts, name) is not None:
                            knobs[name] = getattr(opts, name)
                else:
                    if opts.method is not None:
                        knobs["method"] = opts.method
                    if opts.partitioned:
                        knobs["partitioned"] = True
                    if opts.auto_reorder is not None:
                        knobs["auto_reorder"] = opts.auto_reorder
            if opts.shared_shapes is not None:
                knobs["shared_shapes"] = opts.shared_shapes
            on_event = None
            if opts.stream:
                def on_event(line):
                    print(json.dumps(line, sort_keys=True))
            result = await client.submit(
                opts.verb, design=design, pif=pif, knobs=knobs,
                stream=opts.stream, timeout=opts.timeout,
                on_event=on_event,
            )
            print(json.dumps(result, indent=2, sort_keys=True))
            return 0 if result.get("ok") else 1
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            await client.close()

    return asyncio.run(_run())


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``hsis`` console script."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "fuzz":
        return _fuzz_main(argv[1:])
    if argv and argv[0] == "check":
        return _check_main(argv[1:])
    if argv and argv[0] == "profile":
        return _profile_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "client":
        return _client_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="hsis", description="HSIS reproduction shell"
    )
    parser.add_argument("script", nargs="?", help="command file to execute")
    parser.add_argument(
        "--stats", action="store_true",
        help="print engine statistics when the run finishes",
    )
    parser.add_argument(
        "--auto-gc", type=_positive_int, default=None, metavar="N",
        help="auto-collect dead BDD nodes every N allocations",
    )
    parser.add_argument(
        "--cache-limit", type=_positive_int, default=None, metavar="N",
        help="bound the BDD computed cache to N entries",
    )
    parser.add_argument(
        "--auto-reorder", type=_positive_int, default=None, metavar="N",
        help=(
            "arm dynamic variable reordering (sifting at engine safe "
            "points) once the BDD table exceeds N live nodes"
        ),
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help=(
            "record a structured event trace of every engine run "
            "(.jsonl, .txt summary, or Chrome/Perfetto JSON by extension)"
        ),
    )
    opts = parser.parse_args(argv)
    tracer = Tracer() if opts.trace else None
    shell = HsisShell(
        auto_gc=opts.auto_gc,
        cache_limit=opts.cache_limit,
        auto_reorder=opts.auto_reorder,
        show_stats=opts.stats,
        tracer=tracer,
    )
    if opts.script:
        try:
            handle = open(opts.script)
        except OSError as exc:
            print(f"error: cannot open script: {exc}", file=sys.stderr)
            return 1
        with handle:
            try:
                print(shell.run_script(handle))
            except CliError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        _print_final_stats(shell)
        return 0 if _write_trace_file(tracer, opts.trace) else 1
    print("HSIS reproduction shell — 'help' lists commands, ctrl-D exits")
    while True:
        try:
            line = input("hsis> ")
        except EOFError:
            print()
            _print_final_stats(shell)
            return 0 if _write_trace_file(tracer, opts.trace) else 1
        try:
            output = shell.execute(line)
            if output:
                print(output)
        except CliError as exc:
            print(f"error: {exc}")
        except Exception as exc:  # keep the REPL alive on internal errors
            print(f"internal error: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
