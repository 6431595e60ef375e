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

from repro.automata import FairnessSpec
from repro.blifmv import write_file
from repro.config import DEFAULT_CONFIG, FIELDS, EngineConfig, add_flags
from repro.ctl import ModelChecker, parse_ctl
from repro.debug import CtlDebugger, format_lc_report
from repro.lc import check_containment
from repro.models import READ_ERRORS, design_source, engine_input, read_design
from repro.network import SymbolicFsm
from repro.pif import PifFile, parse_pif_file
from repro.sim import Simulator
from repro.trace import Tracer, safe_write_trace, summary as trace_summary


class CliError(Exception):
    """User-facing command errors (bad arguments, missing state)."""


class HsisShell:
    """Stateful command interpreter; each command returns its output text."""

    def __init__(
        self,
        config: EngineConfig = DEFAULT_CONFIG,
        show_stats: bool = False,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config
        self.show_stats = show_stats
        self.tracer = tracer
        self.design = None
        self.flat = None
        self.fsm: Optional[SymbolicFsm] = None
        self.pif: Optional[PifFile] = None
        self.fairness: Optional[FairnessSpec] = None  # see _bound_fairness
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

    def _install(self, flat) -> None:
        """Make ``flat`` the model every later command works on."""
        self.flat = flat
        self.fsm = SymbolicFsm(flat, config=self.config, tracer=self.tracer)
        self.fairness = None
        self.reach = None
        self.simulator = None
        self.checker = None

    def _load(self, path: str, form: str, root: Optional[str] = None) -> str:
        _, self.design, _ = read_design(path, form=form, root=root)
        # The shell's commands (lc, coi, delay, refine) work on the flat
        # model, so it reads under the default (flattening) settings.
        self._install(engine_input(self.design))
        elapsed = self.fsm.stats.phase_seconds("encode")
        return (
            f"loaded {self.design.root}: {len(self.flat.latches)} latches, "
            f"{len(self.flat.tables)} tables ({elapsed:.2f}s encode)"
        )

    def cmd_read_blif_mv(self, args: List[str]) -> str:
        """read_blif_mv <file> — load a BLIF-MV design."""
        if len(args) != 1:
            raise CliError("usage: read_blif_mv <file>")
        return self._load(args[0], "blifmv")

    def cmd_read_verilog(self, args: List[str]) -> str:
        """read_verilog <file> [root] — compile Verilog via vl2mv and load."""
        if len(args) not in (1, 2):
            raise CliError("usage: read_verilog <file> [root-module]")
        return self._load(args[0], "verilog", *args[1:])

    def cmd_read_pif(self, args: List[str]) -> str:
        """read_pif <file> — load properties and fairness constraints."""
        if len(args) != 1:
            raise CliError("usage: read_pif <file>")
        self.pif = parse_pif_file(args[0])
        self.fairness = None
        self.checker = None
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

    def _bound_fairness(self) -> Optional[FairnessSpec]:
        """The PIF fairness on the loaded machine, bound once; its nodes
        are roots for as long as the shell keeps the spec."""
        fsm = self._need_fsm()
        if self.fairness is None and self.pif is not None:
            self.fairness = self.pif.bind_fairness(fsm)
            fsm.bdd.keep(self.fairness.nodes)
        return self.fairness

    def _make_checker(self) -> ModelChecker:
        if self.checker is None:
            self.checker = ModelChecker(
                self._need_fsm(),
                fairness=self._bound_fairness(),
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
        from repro.parallel.check import check_each, check_properties

        if workers > 1 and len(jobs) > 1:
            self._need_fsm()  # same preconditions as the serial path
            fairness = self.pif.fairness if self.pif is not None else ()
            verdicts = check_properties(
                self.flat, jobs, fairness, jobs=workers, config=self.config)
        else:
            verdicts = check_each(self._make_checker(), jobs)
        return "\n".join(
            v.format() + (f"\n  {v.reason}" if v.error else "") for v in verdicts
        )

    def cmd_lc(self, args: List[str]) -> str:
        """lc [name...] — language containment for PIF automata."""
        if self.pif is None or not self.pif.automata:
            raise CliError("no automata loaded; read_pif first")
        fsm = self._need_fsm()
        fairness = self._bound_fairness()
        out = []
        for name in args or [a.name for a in self.pif.automata]:
            result = check_containment(fsm, self.pif.automaton(name),
                                       system_fairness=fairness)
            verdict = "passed" if result.holds else "FAILED"
            out.append(f"lc {name}: {verdict} ({result.seconds:.2f}s)")
            if not result.holds:
                out.append(format_lc_report(result))
            # The product goes with its result: collect its nodes, as a
            # machine of its own would have taken them along.
            del result
            fsm.bdd.gc()
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
        self._install(reduced)
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
        self._install(elaborate_delays(self.flat, {args[0]: bound}))
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
        _, design, _ = read_design(args[0])
        spec = engine_input(design)
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
        sweep = run_sweep(trials, seed0=seed0, config=self.config)
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


def _read_inputs(design_ref: str, pif_path: Optional[str],
                 config: EngineConfig):
    """``(name, engine input, PIF)`` for a design reference, the PIF
    being the ``pif_path`` file or else a shipped design's own.
    Unreadable input prints one ``error:`` line and returns None."""
    try:
        name, design, pif = read_design(design_ref)
        model = engine_input(design, config)
        if pif_path is not None:
            pif = parse_pif_file(pif_path)
    except READ_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    return name, model, pif


def _print_verdicts(verdicts) -> None:
    """One line per verdict; a failed check's reason goes to stderr."""
    for verdict in verdicts:
        print(verdict.format())
        if verdict.error:
            print(f"  {verdict.reason}", file=sys.stderr)


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


#: Per-trial budget of ``hsis fuzz --jobs``: a worker's chunk of k trials
#: is stopped after k times this many seconds, and its seeds are reported
#: as ``crash`` divergences.  The slowest of 1,200 trials measured took
#: 0.17 s (under ``--auto-reorder 20``).
FUZZ_TRIAL_SECONDS = 10.0


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
    add_flags(parser, ("auto_gc", "auto_reorder", "portfolio", "shared_shapes"))
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help=(
            "record a structured event trace (.jsonl, .txt summary, or "
            "Chrome/Perfetto JSON by extension)"
        ),
    )
    opts = parser.parse_args(argv)
    config = EngineConfig.of(vars(opts))
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
            trial_timeout=FUZZ_TRIAL_SECONDS,
            stats=stats,
            corpus_dir=opts.corpus,
            shrink=not opts.no_shrink,
            progress=progress,
            config=config,
        )
    else:
        sweep = run_sweep(
            opts.trials,
            seed0=opts.seed,
            stats=stats,
            corpus_dir=opts.corpus,
            shrink=not opts.no_shrink,
            progress=progress,
            config=config,
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
    parser.add_argument(
        "design",
        help="a .mv/.v file, or a shipped benchmark (e.g. gallery:traffic)",
    )
    parser.add_argument("pif", help="PIF file with the CTL properties")
    parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="check up to N properties concurrently (default 1)",
    )
    add_flags(parser, ("portfolio", "shared_shapes"), shared_shapes=True)
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
        help="per-property deadline (with --portfolio, the whole list's); "
             "overrunning checks report as timeout",
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
    config = EngineConfig.of(vars(opts))
    inputs = _read_inputs(opts.design, opts.pif, config)
    if inputs is None:
        return 2
    _, model, pif = inputs
    if not pif.ctl_props:
        print("error: no CTL properties in the PIF file", file=sys.stderr)
        return 2
    stats = EngineStats()
    if opts.trace:
        stats.tracer = Tracer()
    if config.portfolio is not None:
        from repro.ordering_portfolio import DEFAULT_ORDERS_DIR, run_portfolio_check

        verdicts, provenance = run_portfolio_check(
            model,
            pif.ctl_props,
            pif.fairness,
            k=config.portfolio,
            orders_dir=opts.orders_dir or DEFAULT_ORDERS_DIR,
            stats=stats,
            timeout=opts.timeout,
            config=config,
        )
        print(
            f"portfolio: {provenance['source']} "
            f"(heuristic {provenance['heuristic']}, "
            f"{provenance['candidates']} candidate(s))"
        )
    else:
        verdicts = check_properties(
            model,
            pif.ctl_props,
            pif.fairness,
            jobs=opts.jobs,
            stats=stats,
            timeout=opts.timeout,
            config=config,
        )
    _print_verdicts(verdicts)
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
                    v.to_wire(("name", "formula", "holds", "status"))
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


def _profile_main(argv: List[str]) -> int:
    """``hsis profile`` — run the pipeline under a tracer and report."""
    from repro.parallel.check import profile_model

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
        help="PIF properties to check (default: a gallery design's own)",
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
    add_flags(parser, ("auto_reorder", "shared_shapes"), shared_shapes=True)
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="also write the raw trace (.jsonl / .txt / Chrome JSON)",
    )
    opts = parser.parse_args(argv)
    config = EngineConfig.of(vars(opts))
    inputs = _read_inputs(opts.design, opts.pif, config)
    if inputs is None:
        return 2
    name, model, pif = inputs
    tracer = Tracer()
    fsm, reach, verdicts = profile_model(
        model, None if opts.no_mc else pif, method=opts.method,
        partitioned=opts.partitioned, config=config, tracer=tracer,
    )
    print(
        f"profile {name}: {fsm.count_states(reach.reached)} states reached "
        f"in {reach.iterations} iterations ({reach.seconds:.2f}s)"
    )
    if fsm.network.conjunct_groups is not None:
        print(
            f"shapes: {fsm.network.shapes_encoded} encoded, "
            f"{fsm.network.instances_substituted} instance(s) substituted"
        )
    _print_verdicts(verdicts)
    print(trace_summary(tracer, title=f"trace summary ({name})"))
    print(fsm.stats.format())
    trace_ok = _write_trace_file(tracer, opts.trace)
    return 0 if trace_ok and all(v.ok for v in verdicts) else 1


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
    """CLI design reference -> protocol design object."""
    form, target = design_source(target)
    if form == "gallery":
        return {"gallery": target}
    with open(target) as handle:
        return {form: handle.read()}


def _client_main(argv: List[str]) -> int:
    """``hsis client`` — scriptable front end for a running server."""
    import asyncio
    import json

    from repro.serve import KNOB_DEFAULTS, ServeClient, ServeError

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
    p_profile.add_argument("--partitioned", action="store_true", default=None)
    for kind, defaults in KNOB_DEFAULTS.items():
        p = sub.choices[kind]
        # The settings a job kind accepts; unset means the server default.
        settings = [name for name in FIELDS if name in defaults]
        add_flags(p, settings, **dict.fromkeys(settings))
        p.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS")
        p.add_argument("--stream", action="store_true",
                       help="print per-job tracer events as they stream")
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
            knobs = {
                name: getattr(opts, name)
                for name in KNOB_DEFAULTS[opts.verb]
                if getattr(opts, name) is not None
            }
            design = None if opts.verb == "fuzz" else _client_design_arg(opts.design)
            pif = None
            if opts.verb == "check" and opts.pif is not None:
                with open(opts.pif) as handle:
                    pif = handle.read()
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
    add_flags(parser, ("auto_gc", "cache_limit", "auto_reorder"))
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
        config=EngineConfig.of(vars(opts)), show_stats=opts.stats, tracer=tracer,
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
