"""repro — HSIS: A BDD-Based Environment for Formal Verification.

A from-scratch Python reproduction of the HSIS system (Aziz et al.,
DAC 1994): the BLIF-MV intermediate format, a Verilog front end (vl2mv),
a pure-Python BDD/MDD package, fair CTL model checking, ω-automata
language containment with edge-Streett/edge-Rabin fairness, early
quantification, early failure detection, error-trace debugging,
bisimulation minimization and a state-based simulator.

Quickstart::

    from repro import compile_verilog, flatten, SymbolicFsm, check_ctl

    design = compile_verilog(open("design.v").read())
    fsm = SymbolicFsm(flatten(design))
    result = check_ctl(fsm, "AG !(out1=1 & out2=1)")
    assert result.holds
"""

import importlib

__version__ = "1.0.0"

# Public names by defining module (``public=attribute`` renames one).
# They resolve on first access (PEP 562), so importing one submodule --
# the stdlib-only ``repro.parallel.atomic``, say -- loads nothing else.
_SOURCES = {
    "repro.bdd": "BDD MddManager MvVar",
    "repro.blifmv": "Design Model flatten parse parse_file write",
    "repro.verilog": "compile_verilog parse_verilog",
    "repro.network": (
        "SymbolicFsm compose multiply_and_quantify DelayBound "
        "bounded_response_automaton cone_of_influence elaborate_delays "
        "freeing_abstraction"
    ),
    "repro.automata": (
        "Automaton BuchiEdge BuchiState FairnessSpec NegativeStateSet "
        "RabinPair StreettPair guard_atom=atom attach"
    ),
    "repro.ctl": "ModelChecker check_ctl parse_ctl",
    "repro.lc": "check_containment language_empty",
    "repro.debug": "CtlDebugger format_lc_report lc_counterexample",
    "repro.sim": "Simulator",
    "repro.minimize": "bisimulation_partition minimize_with_reached",
    "repro.pif": "parse_pif parse_pif_file property_template=instantiate",
    "repro.refine": "RefinementResult check_refinement",
}
_EXPORTS = {
    public: (module, attribute or public)
    for module, names in _SOURCES.items()
    for public, _, attribute in (name.partition("=") for name in names.split())
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    try:
        module, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), attribute)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
