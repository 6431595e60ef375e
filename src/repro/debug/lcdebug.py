"""Language-containment debugger (paper §6.1).

Produces a lasso-shaped debug trace from a failed containment check: the
path to the cycle is *minimum* among all error traces (extracted from the
BFS onion rings), while the cycle — whose exact minimization is NP-hard —
is heuristically minimized by greedy shortest-path threading through the
fair-edge requirements.
"""

from __future__ import annotations


from repro.debug.trace import (
    Trace,
    decode_path,
    extract_shortest_path,
    thread_fair_cycle,
)
from repro.lc.containment import LcResult


def lc_counterexample(result: LcResult) -> Trace:
    """Build the error trace for a failed :func:`check_containment` run.

    Raises ``ValueError`` if the check actually passed.
    """
    if result.holds or result.fair_scc is None:
        raise ValueError("language containment holds; there is no error trace")
    graph = result.graph
    scc = result.fair_scc
    prefix_minterms = extract_shortest_path(graph, result.reach.rings, scc.states)
    if prefix_minterms is None:
        raise AssertionError("fair SCC not covered by reachability rings")
    anchor = prefix_minterms[-1]
    cycle_minterms = thread_fair_cycle(graph, scc, anchor)
    fsm = result.fsm
    prefix = decode_path(fsm, prefix_minterms[:-1])
    cycle = decode_path(fsm, cycle_minterms)
    if cycle:
        cycle[0].note = "(cycle start)"
    return Trace(prefix=prefix, cycle=cycle)


def format_lc_report(result: LcResult, max_width: int = 100) -> str:
    """Human-readable bug report for a containment check (pass or fail).

    When the design came through vl2mv the report ends with a source map
    relating each latch in the trace back to the HDL lines that assign
    it (source-level debugging, paper §8 item 7).
    """
    name = result.automaton.name
    lines = [f"property {name!r} (language containment)"]
    lines.append(
        f"  reached states explored in {result.reach.iterations} iterations"
    )
    if result.holds:
        lines.append("  PASS: the system language is contained in the property")
        return "\n".join(lines)
    kind = "early failure detection" if result.early_failure else "fair cycle search"
    lines.append(f"  FAIL (found by {kind}); error trace:")
    trace = lc_counterexample(result)
    lines.append(trace.format())
    sources = result.fsm.model.sources
    if sources:
        lines.append("  source map:")
        for net in sorted(sources):
            lines.append(f"    {net} assigned at {sources[net]}")
    return "\n".join(lines)
