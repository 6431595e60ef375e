"""BDD/MDD package: the symbolic kernel of the HSIS reproduction.

Public surface:

* :class:`repro.bdd.manager.BDD` — ROBDD manager (unique table, ite,
  quantification, relational product, don't-care minimization, GC).
* :class:`repro.bdd.mdd.MddManager` / :class:`repro.bdd.mdd.MvVar` —
  multi-valued variables log-encoded onto boolean BDD variables, as
  required by BLIF-MV's multi-valued tables.
* :mod:`repro.bdd.ordering` — static variable-ordering heuristics for
  interacting FSMs and in-place Rudell sifting.
* :mod:`repro.bdd.dump` — Graphviz export and statistics.
"""

from repro.bdd.manager import BDD, FALSE, TRUE, BddError
from repro.bdd.mdd import MddManager, MvVar
from repro.bdd import ops, ordering, dump

__all__ = [
    "BDD",
    "FALSE",
    "TRUE",
    "BddError",
    "MddManager",
    "MvVar",
    "ops",
    "ordering",
    "dump",
]
