"""Multi-valued decision-diagram layer over binary BDDs.

BLIF-MV variables range over finite symbolic domains ("multi-valued
variables").  HSIS represents each relation over such variables as a BDD
by log-encoding every multi-valued variable onto ``ceil(log2 |domain|)``
boolean variables.  This module provides:

* :class:`MvVar` — a named multi-valued variable with its domain, its
  boolean encoding bits and literal construction,
* :class:`MddManager` — a thin owner coupling a :class:`~repro.bdd.BDD`
  manager with the set of declared multi-valued variables, including
  interleaved declaration of present/next-state pairs (the ordering that
  the HSIS variable-ordering paper [Aziz-Tasiran-Brayton, DAC94]
  prescribes for FSM traversal),
* :func:`relation` — the direct builder that turns a list of rows, one
  code mask per column, into the relation's BDD node by node, with no
  apply operation under the declared order (every BLIF-MV table,
  value-set literal and domain constraint is made by it).

Domains whose size is not a power of two leave unused binary codes; every
:class:`MvVar` carries a ``domain_constraint`` BDD excluding them, and the
manager can provide the conjunction over any variable set.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.bdd.manager import BDD, FALSE, TRUE, BddError

Value = Union[str, int]


def bits_for(n: int) -> int:
    """Number of bits needed to encode ``n`` distinct values (min 1)."""
    if n < 1:
        raise ValueError("domain must be non-empty")
    return max(1, (n - 1).bit_length())


class MvVar:
    """A multi-valued variable log-encoded on boolean BDD variables.

    Values keep their declaration order; value *i* is encoded as the
    binary code *i* over ``bits`` (bit 0 = least significant).
    """

    def __init__(self, bdd: BDD, name: str, values: Sequence[Value], bit_vars: Sequence[int]):
        if len(set(values)) != len(values):
            raise BddError(f"duplicate values in domain of {name!r}")
        self.bdd = bdd
        self.name = name
        self.values: Tuple[Value, ...] = tuple(values)
        self.bits: Tuple[int, ...] = tuple(bit_vars)
        if len(self.bits) != bits_for(len(self.values)):
            raise BddError(f"wrong bit count for {name!r}")
        self._code: Dict[Value, int] = {v: i for i, v in enumerate(self.values)}
        # Code mask of the whole domain: bit c set for every valid code c.
        self.all_codes = (1 << len(self.values)) - 1
        # literal() memo: value or frozenset of values -> BDD.  The
        # handles are not GC roots, so the memo is dropped whenever a
        # collection or reorder may have freed or relabelled them.
        self._literals: Dict[object, int] = {}
        self._literals_epoch: Tuple[int, int] = self._epoch()
        self.domain_constraint = self._compute_domain_constraint()

    @property
    def nvalues(self) -> int:
        return len(self.values)

    def code_of(self, value: Value) -> int:
        """Binary code of a domain value."""
        try:
            return self._code[value]
        except KeyError:
            raise BddError(
                f"{value!r} not in domain of {self.name!r} ({self.values})"
            ) from None

    def value_of(self, code: int) -> Value:
        """Domain value of a binary code (raises on unused codes)."""
        if not 0 <= code < self.nvalues:
            raise BddError(f"code {code} outside domain of {self.name!r}")
        return self.values[code]

    def mask(self, values: Iterable[Value]) -> int:
        """Code mask of a value set: bit ``code_of(v)`` set for each value."""
        m = 0
        for value in values:
            m |= 1 << self.code_of(value)
        return m

    def _cube_for_code(self, code: int) -> int:
        return self.bdd.literal_cube(
            (bit, (code >> i) & 1) for i, bit in enumerate(self.bits)
        )

    def _epoch(self) -> Tuple[int, int]:
        return (self.bdd.gc_count, self.bdd.reorder_count)

    def _compute_domain_constraint(self) -> int:
        if self.nvalues == 1 << len(self.bits):
            return TRUE
        return relation(self.bdd, [self], [(self.all_codes,)])

    def literal(self, values: Union[Value, Iterable[Value]]) -> int:
        """BDD of ``self in values`` (a single value or an iterable)."""
        single = isinstance(values, (str, int))
        key = values if single else frozenset(values)
        epoch = self._epoch()
        if epoch != self._literals_epoch:
            self._literals = {}
            self._literals_epoch = epoch
        f = self._literals.get(key)
        if f is None:
            if single:
                f = self._cube_for_code(self.code_of(values))
            else:
                f = relation(self.bdd, [self], [(self.mask(key),)])
            self._literals[key] = f
        return f

    def eq_var(self, other: "MvVar") -> int:
        """BDD of ``self == other`` (domains must match)."""
        if self.values != other.values:
            raise BddError(
                f"domain mismatch between {self.name!r} and {other.name!r}"
            )
        bdd = self.bdd
        f = bdd.true
        for a, b in zip(self.bits, other.bits):
            f = bdd.and_(f, bdd.xnor(bdd.var(a), bdd.var(b)))
        # Exclude unused codes on either side so equality only holds on
        # valid encodings.
        f = bdd.and_(f, self.domain_constraint)
        return bdd.and_(f, other.domain_constraint)

    def decode(self, assignment: Dict[int, bool]) -> Value:
        """Read this variable's value out of a boolean assignment."""
        code = 0
        for i, bit in enumerate(self.bits):
            if assignment.get(bit, False):
                code |= 1 << i
        return self.value_of(code)

    def __repr__(self) -> str:
        return f"MvVar({self.name!r}, {len(self.values)} values)"


class MddManager:
    """Owner of multi-valued variables over a shared boolean BDD manager."""

    def __init__(self, bdd: Optional[BDD] = None):
        self.bdd = bdd if bdd is not None else BDD()
        self._vars: Dict[str, MvVar] = {}
        self.bdd.keep(self.live_handles)

    def live_handles(self) -> List[int]:
        """The domain constraints, which live as long as their variables."""
        return [var.domain_constraint for var in self._vars.values()]

    def declare(self, name: str, values: Sequence[Value]) -> MvVar:
        """Declare a multi-valued variable, appending its bits to the order."""
        if name in self._vars:
            raise BddError(f"mv variable {name!r} already declared")
        nbits = bits_for(len(values))
        bit_vars = [self.bdd.add_var(f"{name}.{i}") for i in range(nbits)]
        var = MvVar(self.bdd, name, values, bit_vars)
        self._vars[name] = var
        return var

    def declare_pair(
        self, name_a: str, name_b: str, values: Sequence[Value]
    ) -> Tuple[MvVar, MvVar]:
        """Declare two same-domain variables with *interleaved* bits.

        Used for present-state/next-state latch pairs: interleaving keeps
        the transition-relation BDD small and makes present<->next
        renaming order-preserving.
        """
        for name in (name_a, name_b):
            if name in self._vars:
                raise BddError(f"mv variable {name!r} already declared")
        nbits = bits_for(len(values))
        bits_a, bits_b = [], []
        for i in range(nbits):
            bits_a.append(self.bdd.add_var(f"{name_a}.{i}"))
            bits_b.append(self.bdd.add_var(f"{name_b}.{i}"))
        var_a = MvVar(self.bdd, name_a, values, bits_a)
        var_b = MvVar(self.bdd, name_b, values, bits_b)
        self._vars[name_a] = var_a
        self._vars[name_b] = var_b
        return var_a, var_b

    def __contains__(self, name: str) -> bool:
        return name in self._vars

    def __getitem__(self, name: str) -> MvVar:
        try:
            return self._vars[name]
        except KeyError:
            raise BddError(f"unknown mv variable {name!r}") from None

    def get(self, name: str) -> Optional[MvVar]:
        return self._vars.get(name)

    @property
    def variables(self) -> List[MvVar]:
        return list(self._vars.values())

    def cube(self, mv_vars: Iterable[MvVar]) -> int:
        """Boolean quantification cube covering all bits of ``mv_vars``."""
        bits: List[int] = []
        for v in mv_vars:
            bits.extend(v.bits)
        return self.bdd.cube(bits)

    def rename_map(
        self, pairs: Iterable[Tuple[MvVar, MvVar]]
    ) -> Dict[int, int]:
        """Boolean variable mapping renaming each pair's bits a -> b."""
        mapping: Dict[int, int] = {}
        for a, b in pairs:
            if len(a.bits) != len(b.bits):
                raise BddError(f"bit-width mismatch: {a.name} vs {b.name}")
            for ba, bb in zip(a.bits, b.bits):
                mapping[ba] = bb
        return mapping

    def relation(
        self, columns: Sequence[MvVar], rows: Iterable[Sequence[int]]
    ) -> int:
        """The relation of ``rows`` over ``columns``; see :func:`relation`."""
        return relation(self.bdd, columns, rows)

    def domain_constraint(self, mv_vars: Iterable[MvVar]) -> int:
        """Conjunction of domain constraints of ``mv_vars``."""
        return self.bdd.conj(v.domain_constraint for v in mv_vars)

    def assignment_cube(self, assignment: Dict[str, Value]) -> int:
        """BDD cube for a partial assignment of mv variables to values."""
        f = self.bdd.true
        for name, value in assignment.items():
            f = self.bdd.and_(f, self[name].literal(value))
        return f

    def decode(self, assignment: Dict[int, bool], names: Iterable[str]) -> Dict[str, Value]:
        """Decode a boolean assignment into mv values for ``names``."""
        return {n: self[n].decode(assignment) for n in names}


def relation(
    bdd: BDD, columns: Sequence[MvVar], rows: Iterable[Sequence[int]]
) -> int:
    """Characteristic function of a union of rows over multi-valued columns.

    Each row gives one code mask per column (bit ``c`` set admits code
    ``c``; :meth:`MvVar.mask`, ``MvVar.all_codes`` for any value), and
    the result is the disjunction over the rows of the conjunction of
    their column memberships.  Only valid codes are ever admitted, so the
    result implies the domain constraint of every column.  A variable
    listed in two columns gets the intersection of its two masks.

    The rows are split column by column in level order, top-down
    and without recursion: the residual row set reached below each
    prefix of codes is a node of the multi-valued diagram, memoized as
    the sorted tuple of its rows' *suffix classes* (rows that agree on
    every remaining column are one class).  The diagram is then built
    bottom-up, each column's bits from its per-code children through
    :meth:`BDD.mk`, so under the declared order no apply operation runs
    and every node allocated is a node of the result (a sifted order
    costs ``ite`` calls).  Memo keys are int tuples and every dict is
    read in insertion order, so the node numbering does not depend on
    ``PYTHONHASHSEED``.
    """
    # One column per distinct variable, ordered by the level of its top bit.
    distinct: Dict[str, MvVar] = {}
    for var in columns:
        distinct.setdefault(var.name, var)
    cols = sorted(distinct.values(), key=lambda v: min(bdd.level(b) for b in v.bits))
    where = {var.name: j for j, var in enumerate(cols)}
    slots = [where[var.name] for var in columns]
    full = [var.all_codes for var in cols]
    boxes: List[List[int]] = []
    for row in rows:
        box = full[:]
        for slot, mask in zip(slots, row):
            box[slot] &= mask
        if all(box):
            boxes.append(box)
    if not boxes:
        return FALSE
    if len(cols) == 1:
        # A literal or a domain constraint: the union of the rows' codes.
        codes = 0
        for (mask,) in boxes:
            codes |= mask
        leaves = [TRUE if codes >> c & 1 else FALSE for c in range(codes.bit_length())]
        return _fan_in(bdd, cols[0].bits, leaves)
    # Suffix classes, last column first: at column j a class is one
    # (mask at j, class at j + 1) pair, kept as (codes, next class).
    klass = [0] * len(boxes)
    classes: List[List[Tuple[List[int], int]]] = [[] for _ in cols]
    for j in reversed(range(len(cols))):
        ids: Dict[Tuple[int, int], int] = {}
        for r, box in enumerate(boxes):
            klass[r] = ids.setdefault((box[j], klass[r]), len(ids))
        classes[j] = [(_codes(mask), nxt) for mask, nxt in ids]
    # Top-down partition: kids[j][s][c] is the id of the residual set
    # that code c of set s at column j leads to (-1: no row admits c).
    frontier: Dict[Tuple[int, ...], int] = {tuple(sorted(set(klass))): 0}
    kids: List[List[List[int]]] = []
    for j, var in enumerate(cols):
        column = classes[j]
        below: Dict[Tuple[int, ...], int] = {}
        table = []
        for residual in frontier:
            buckets: Dict[int, Set[int]] = {}
            for k in residual:
                codes, nxt = column[k]
                for c in codes:
                    bucket = buckets.get(c)
                    if bucket is None:
                        buckets[c] = {nxt}
                    else:
                        bucket.add(nxt)
            kid = [-1] * var.nvalues
            for c, bucket in buckets.items():
                kid[c] = below.setdefault(tuple(sorted(bucket)), len(below))
            table.append(kid)
        kids.append(table)
        frontier = below
    # Bottom-up build: every residual set below the last column is TRUE.
    nodes = [TRUE] * len(frontier)
    for j in reversed(range(len(cols))):
        bits = cols[j].bits
        nodes = [
            _fan_in(bdd, bits, [FALSE if k < 0 else nodes[k] for k in kid])
            for kid in kids[j]
        ]
    return nodes[0]


def _codes(mask: int) -> List[int]:
    """The codes set in ``mask``, lowest first."""
    codes = []
    while mask:
        low = mask & -mask
        codes.append(low.bit_length() - 1)
        mask ^= low
    return codes


def _fan_in(bdd: BDD, bits: Sequence[int], leaves: Sequence[int]) -> int:
    """The node testing ``bits`` (bit 0 = code LSB) that leads code c to
    ``leaves[c]``; codes past the leaves lead to ``FALSE``.

    Built from the last bit up: codes that differ only in the bit being
    added pair up, and each pair with different children costs one
    :meth:`BDD.mk`.
    """
    mk = bdd.mk
    nodes = list(leaves) + [FALSE] * ((1 << len(bits)) - len(leaves))
    for i in reversed(range(len(bits))):
        half = 1 << i
        bit = bits[i]
        nodes = [
            lo if lo == hi else mk(bit, lo, hi)
            for lo, hi in zip(nodes[:half], nodes[half:])
        ]
    return nodes[0]
