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
    f = bdd.true
    items = sorted(
        (
            (k if isinstance(k, int) else bdd.var_index(k), bool(v))
            for k, v in assignment.items()
        ),
        key=lambda kv: bdd.level(kv[0]),
        reverse=True,
    )
    for var, val in items:
        lit = bdd.var(var) if val else bdd.nvar(var)
        f = bdd.and_(lit, f)
    return f


def iter_minterms(bdd: BDD, f: int, care_vars: Sequence) -> Iterable[Dict[int, bool]]:
    """Alias of :meth:`BDD.sat_iter` kept for API symmetry."""
    return bdd.sat_iter(f, care_vars)


def disjoint(bdd: BDD, f: int, g: int) -> bool:
    """True iff ``f & g`` is unsatisfiable."""
    return bdd.and_(f, g) == bdd.false


def implies(bdd: BDD, f: int, g: int) -> bool:
    """True iff ``f`` implies ``g`` (containment check on sets)."""
    return bdd.diff(f, g) == bdd.false


def count_nodes(bdd: BDD, functions: Iterable[int]) -> int:
    """Shared DAG size of a family of functions."""
    return bdd.size(list(functions))
