"""Secondary BDD operations built on the manager primitives.

These helpers are shared by the network/verification layers: cube
arithmetic and small conveniences that do not need access to manager
internals beyond its public API.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from repro.bdd.manager import BDD


def cube_union_vars(bdd: BDD, cubes: Iterable[int]) -> int:
    """Positive cube over the union of the variables of several cubes."""
    vs = set()
    for c in cubes:
        vs.update(bdd.cube_vars(c))
    return bdd.cube(vs)


def cube_minus(bdd: BDD, cube: int, remove: Sequence[int]) -> int:
    """Drop variables ``remove`` from a positive cube."""
    removed = set(remove)
    return bdd.cube([v for v in bdd.cube_vars(cube) if v not in removed])


def minterm(bdd: BDD, assignment: Dict) -> int:
    """Cube BDD for a (partial) assignment of variables to booleans."""
    return bdd.literal_cube(assignment.items())


def disjoint(bdd: BDD, f: int, g: int) -> bool:
    """True iff ``f & g`` is unsatisfiable."""
    return bdd.and_(f, g) == bdd.false


def implies(bdd: BDD, f: int, g: int) -> bool:
    """True iff ``f`` implies ``g`` (containment check on sets)."""
    return bdd.diff(f, g) == bdd.false


def count_nodes(bdd: BDD, functions: Iterable[int]) -> int:
    """Shared DAG size of a family of functions."""
    return bdd.size(list(functions))
