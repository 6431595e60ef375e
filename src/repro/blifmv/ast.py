"""Abstract syntax for the BLIF-MV intermediate format.

BLIF-MV (Brayton et al., UCB/ERL M91/97) extends BLIF, the Berkeley Logic
Interchange Format, with multi-valued variables and non-deterministic
tables.  A model is a set of variables, latches and relations (tables);
the combinational/sequential (c/s) semantics is: at every global clock
tick each latch copies its input to its output, and values then propagate
through the relations until latch inputs are reached.

The dialect implemented here covers the constructs HSIS relies on:

* ``.model`` / ``.inputs`` / ``.outputs`` / ``.end``
* ``.mv <vars> <n> [value names]`` — multi-valued domain declaration
* ``.table <ins> -> <outs>`` with rows of value literals, ``-`` (any),
  ``(a,b,...)`` value sets, ``=name`` output-equals-input, and
  ``.default`` rows
* ``.latch <input> <output>`` and ``.reset <latch-output>`` rows
  (several rows = non-deterministic initial value)
* ``.subckt <model> <instance> formal=actual ...`` hierarchy

Tables may be non-deterministic: several rows may match one input
pattern with different outputs, and any of those outputs may be
produced.  A table defining exactly one output pattern per input pattern
is an ordinary multi-valued logic function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

BINARY_DOMAIN: Tuple[str, ...] = ("0", "1")

#: Tables of at least this many rows are validated column by column
#: (:meth:`Model._columns_valid`).  Shorter ones keep the row-major scan,
#: which is as cheap or cheaper there: the column check costs 5-10 us a
#: table however few rows it has (measured crossover: 8 to 16 rows).
COLUMN_CHECK_ROWS = 16


class BlifMvError(Exception):
    """Raised on malformed BLIF-MV input or inconsistent models."""


@dataclass(frozen=True)
class Any_:
    """Pattern entry matching every domain value (``-``)."""

    def __repr__(self) -> str:
        return "ANY"


ANY = Any_()


@dataclass(frozen=True)
class ValueSet:
    """Pattern entry matching one of an explicit set of values."""

    values: Tuple[str, ...]

    def __repr__(self) -> str:
        return "({})".format(",".join(self.values))


@dataclass(frozen=True)
class Eq:
    """Output pattern entry equating the output to input column ``name``."""

    name: str

    def __repr__(self) -> str:
        return f"={self.name}"


PatternEntry = Union[str, Any_, ValueSet, Eq]


@dataclass(frozen=True)
class Row:
    """One table row: an input pattern and an output pattern.

    Immutable, so a flattened model shares its root model's rows.
    """

    inputs: Tuple[PatternEntry, ...]
    outputs: Tuple[PatternEntry, ...]


@dataclass
class Table:
    """A (possibly non-deterministic) multi-valued relation.

    ``default`` — if present — supplies the outputs for every input
    pattern not matched by any explicit row.
    """

    inputs: List[str]
    outputs: List[str]
    rows: List[Row] = field(default_factory=list)
    default: Optional[Tuple[PatternEntry, ...]] = None

    @property
    def variables(self) -> List[str]:
        return list(self.inputs) + list(self.outputs)


@dataclass
class Latch:
    """A latch: ``output`` holds state, ``input`` is its next value.

    ``reset`` lists the allowed initial values of ``output`` (more than
    one value makes the initial state non-deterministic; an empty list
    means "any domain value").
    """

    input: str
    output: str
    reset: List[str] = field(default_factory=list)


@dataclass
class Subckt:
    """Instantiation of a child model with formal->actual connections."""

    model: str
    instance: str
    connections: Dict[str, str] = field(default_factory=dict)


@dataclass
class Model:
    """One ``.model`` section.

    ``synchrony`` optionally holds the extended-c/s synchrony tree
    (:mod:`repro.blifmv.synchrony`); None means fully synchronous.
    """

    name: str
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    domains: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    tables: List[Table] = field(default_factory=list)
    latches: List[Latch] = field(default_factory=list)
    subckts: List[Subckt] = field(default_factory=list)
    synchrony: Optional[object] = None
    # net -> human-readable source location ("file.v line 12"), carried
    # from the HDL front end for source-level debugging (paper §8 item 7)
    sources: Dict[str, str] = field(default_factory=dict)

    def domain(self, var: str) -> Tuple[str, ...]:
        """Domain of ``var`` (binary unless declared with ``.mv``)."""
        return self.domains.get(var, BINARY_DOMAIN)

    def declared_variables(self) -> List[str]:
        """Every variable mentioned by this model, in first-use order."""
        seen: Dict[str, None] = {}
        for name in self.inputs:
            seen.setdefault(name)
        for name in self.outputs:
            seen.setdefault(name)
        for table in self.tables:
            for name in table.variables:
                seen.setdefault(name)
        for latch in self.latches:
            seen.setdefault(latch.input)
            seen.setdefault(latch.output)
        for sub in self.subckts:
            for actual in sub.connections.values():
                seen.setdefault(actual)
        return list(seen)

    def validate(self) -> None:
        """Check internal consistency; raises :class:`BlifMvError`."""
        latch_outputs = set()
        for latch in self.latches:
            if latch.output in latch_outputs:
                raise BlifMvError(
                    f"model {self.name}: latch output {latch.output!r} defined twice"
                )
            latch_outputs.add(latch.output)
            domain = self.domain(latch.output)
            for value in latch.reset:
                if value not in domain:
                    raise BlifMvError(
                        f"model {self.name}: reset value {value!r} not in "
                        f"domain of {latch.output!r}"
                    )
        defined = set(latch_outputs) | set(self.inputs)
        for table in self.tables:
            for out in table.outputs:
                if out in defined and out not in self.inputs:
                    raise BlifMvError(
                        f"model {self.name}: variable {out!r} has multiple drivers"
                    )
                defined.add(out)
            self._validate_table(table)

    def _validate_table(self, table: Table) -> None:
        # Each column's (variable, domain, is_output) is resolved once
        # per table, not once per entry.
        in_cols = [(var, self.domain(var), False) for var in table.inputs]
        out_cols = [(var, self.domain(var), True) for var in table.outputs]
        if len(table.rows) >= COLUMN_CHECK_ROWS and self._columns_valid(
            table, in_cols, out_cols
        ):
            return
        # The row-major scan raises the first fault in row order (inputs
        # before outputs, the default last), so its message is the one a
        # reader of the table expects.
        width = len(in_cols) + len(out_cols)
        for row in table.rows:
            if len(row.inputs) != len(in_cols) or len(row.outputs) != len(out_cols):
                raise BlifMvError(
                    f"model {self.name}: row width mismatch in table for "
                    f"{table.outputs} (expected {width})"
                )
            self._validate_entries(row.inputs, in_cols, table)
            self._validate_entries(row.outputs, out_cols, table)
        if table.default is not None:
            if len(table.default) != len(out_cols):
                raise BlifMvError(
                    f"model {self.name}: .default width mismatch for {table.outputs}"
                )
            self._validate_entries(table.default, out_cols, table)

    def _columns_valid(
        self,
        table: Table,
        in_cols: List[Tuple[str, Tuple[str, ...], bool]],
        out_cols: List[Tuple[str, Tuple[str, ...], bool]],
    ) -> bool:
        """Whether the whole table passes, checking each column's distinct
        entries once instead of every row's entries.

        Tables repeat a handful of literals down each column, so one
        ``_validate_entries`` call over those few entries replaces one
        call per row.  It names no fault: on a fault it returns False
        and the caller's row-major scan finds the first one.
        """
        ins = [row.inputs for row in table.rows]
        outs = [row.outputs for row in table.rows]
        if table.default is not None:
            outs.append(table.default)
        entries: List[PatternEntry] = []
        columns: List[Tuple[str, Tuple[str, ...], bool]] = []
        for patterns, cols in ((ins, in_cols), (outs, out_cols)):
            if not set(map(len, patterns)) <= {len(cols)}:
                return False
            for column_entries, column in zip(zip(*patterns), cols):
                distinct = set(column_entries)
                entries.extend(distinct)
                columns.extend([column] * len(distinct))
        try:
            self._validate_entries(tuple(entries), columns, table)
        except BlifMvError:
            return False
        return True

    def _validate_entries(
        self,
        entries: Tuple[PatternEntry, ...],
        columns: List[Tuple[str, Tuple[str, ...], bool]],
        table: Table,
    ) -> None:
        for entry, (var, domain, is_output) in zip(entries, columns):
            if isinstance(entry, str):
                if entry in domain:
                    continue
                values: Tuple[str, ...] = (entry,)
            elif isinstance(entry, Any_):
                continue
            elif isinstance(entry, ValueSet):
                values = entry.values
            elif isinstance(entry, Eq):
                if not is_output:
                    raise BlifMvError(
                        f"model {self.name}: '=' only allowed in output columns"
                    )
                if entry.name not in table.inputs:
                    raise BlifMvError(
                        f"model {self.name}: '={entry.name}' does not name an input "
                        f"of the table"
                    )
                if self.domain(entry.name) != domain:
                    raise BlifMvError(
                        f"model {self.name}: '={entry.name}' domain mismatch with {var!r}"
                    )
                continue
            else:
                values = (entry,)
            for value in values:
                if value not in domain:
                    raise BlifMvError(
                        f"model {self.name}: value {value!r} not in domain of {var!r} "
                        f"{domain}"
                    )


@dataclass
class Design:
    """A collection of models; ``root`` names the top-level model."""

    models: Dict[str, Model] = field(default_factory=dict)
    root: Optional[str] = None

    def add(self, model: Model) -> None:
        if model.name in self.models:
            raise BlifMvError(f"duplicate model {model.name!r}")
        self.models[model.name] = model
        if self.root is None:
            self.root = model.name

    def root_model(self) -> Model:
        if self.root is None:
            raise BlifMvError("design has no models")
        return self.models[self.root]

    def validate(self) -> None:
        for model in self.models.values():
            model.validate()
            for sub in model.subckts:
                if sub.model not in self.models:
                    raise BlifMvError(
                        f"model {model.name}: unknown subcircuit model {sub.model!r}"
                    )
                child = self.models[sub.model]
                formals = set(child.inputs) | set(child.outputs)
                for formal in sub.connections:
                    if formal not in formals:
                        raise BlifMvError(
                            f"model {model.name}: {sub.model}.{formal} is not a port"
                        )
