"""vl2mv: compile the Verilog subset to BLIF-MV (paper §3-4).

Each module compiles to one BLIF-MV model; instances become ``.subckt``
references, so the blifmv hierarchy flattener finishes elaboration.  The
compiler mirrors the real vl2mv's style: expressions are decomposed into
*many small tables* over fresh intermediate variables (the paper reports
~1600 relations and ~1500 variables to quantify for one design — exactly
the workload the early-quantification scheduler is built for).

Lowering rules:

* scalar nets are binary; ``[msb:lsb]`` nets get the integer domain
  ``0 .. 2^width - 1``; ``enum { ... }`` nets get their symbolic domain;
* each operator node becomes a fresh variable defined by an enumerated
  table (domains are small by construction; a guard rejects blowups);
* ``cond ? a : b`` becomes a two-row table using BLIF-MV's ``=``
  output construct — no enumeration needed;
* ``$ND(c1, ..., ck)`` becomes a non-deterministic zero-input table;
* ``always @(posedge clk)`` bodies are executed symbolically into one
  next-state expression per register (if/case become ternary merges,
  unassigned paths hold the register); registers become ``.latch`` with
  ``.reset`` rows from ``initial`` assignments;
* ``always @(*)`` bodies execute the same way but define wires and must
  assign on every path (no implied latches).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.blifmv.ast import (
    ANY,
    Design,
    Eq,
    Latch,
    Model,
    Row,
    Subckt,
    Table,
)
from repro.verilog.ast import (
    AlwaysComb,
    AlwaysSeq,
    Assignment,
    Binop,
    Block,
    CaseStmt,
    ContAssign,
    EnumConst,
    Expr,
    Id,
    IfStmt,
    Index,
    InitialBlock,
    Instance,
    ModuleDecl,
    NDChoice,
    NetDecl,
    Num,
    ParamDecl,
    SourceFile,
    Stmt,
    Ternary,
    Unop,
)
from repro.verilog.lexer import VerilogError
from repro.verilog.parser import parse_verilog

MAX_TABLE_ROWS = 4096

Domain = Tuple[str, ...]
BIN: Domain = ("0", "1")


def int_domain(size: int) -> Domain:
    return tuple(str(i) for i in range(size))


@dataclass
class _Net:
    name: str
    domain: Domain
    kind: str  # input/output/wire/reg
    is_enum: bool = False


class _ModuleCompiler:
    def __init__(self, module: ModuleDecl, all_modules: Dict[str, ModuleDecl]):
        self.module = module
        self.all_modules = all_modules
        self.model = Model(name=module.name)
        self.nets: Dict[str, _Net] = {}
        self.params: Dict[str, int] = {}
        self.enum_values: Dict[str, Domain] = {}  # value name -> its domain
        self.resets: Dict[str, List[str]] = {}
        self.seq_regs: Set[str] = set()
        self.tmp_count = 0

    # -- helpers -----------------------------------------------------------

    def error(self, message: str) -> VerilogError:
        return VerilogError(f"module {self.module.name}: {message}")

    def fresh(self, domain: Domain, hint: str = "t") -> str:
        name = f"_{hint}{self.tmp_count}"
        self.tmp_count += 1
        self.declare_net(name, domain, "wire")
        return name

    def declare_net(self, name: str, domain: Domain, kind: str, is_enum: bool = False) -> None:
        if name in self.nets:
            raise self.error(f"net {name!r} declared twice")
        self.nets[name] = _Net(name=name, domain=domain, kind=kind, is_enum=is_enum)
        if domain != BIN:
            self.model.domains[name] = domain

    def domain_of(self, name: str) -> Domain:
        try:
            return self.nets[name].domain
        except KeyError:
            raise self.error(f"undeclared net {name!r}") from None

    # -- declarations -------------------------------------------------------

    def run(self) -> Model:
        port_dirs: Dict[str, str] = {}
        for item in self.module.items:
            if isinstance(item, ParamDecl):
                self.params[item.name] = self.const_eval(item.value)
        for item in self.module.items:
            if isinstance(item, NetDecl):
                domain: Domain
                if item.enum_values is not None:
                    domain = tuple(item.enum_values)
                    for value in item.enum_values:
                        if value in self.enum_values and self.enum_values[value] != domain:
                            raise self.error(
                                f"enum value {value!r} declared in two domains"
                            )
                        self.enum_values[value] = domain
                elif item.range is not None:
                    width = item.range.width
                    if width > 12:
                        raise self.error(
                            f"width {width} too large for enumeration-based "
                            "lowering (max 12)"
                        )
                    domain = int_domain(1 << width)
                else:
                    domain = BIN
                for name in item.names:
                    if item.kind in ("input", "output"):
                        if name in self.nets:
                            # 'output reg x;' after port: refine kind
                            raise self.error(f"net {name!r} declared twice")
                        port_dirs[name] = item.kind
                        self.declare_net(
                            name, domain, item.kind, is_enum=item.enum_values is not None
                        )
                    else:
                        if name in self.nets:
                            # 'output' + later 'reg name' refinement
                            net = self.nets[name]
                            if net.domain != domain:
                                raise self.error(
                                    f"net {name!r} redeclared with a different domain"
                                )
                            net.kind = net.kind  # direction wins
                        else:
                            self.declare_net(
                                name, domain, item.kind,
                                is_enum=item.enum_values is not None,
                            )
        for port in self.module.ports:
            if port not in port_dirs:
                raise self.error(f"port {port!r} has no direction declaration")
        self.model.inputs = [p for p in self.module.ports if port_dirs[p] == "input"]
        self.model.outputs = [p for p in self.module.ports if port_dirs[p] == "output"]

        # Classify sequential registers first (needed for hold semantics).
        for item in self.module.items:
            if isinstance(item, AlwaysSeq):
                for target in _assigned_targets(item.body):
                    self.seq_regs.add(target)

        for item in self.module.items:
            if isinstance(item, InitialBlock):
                for assign in item.assignments:
                    self.resets[assign.target] = self.reset_values(assign)

        for item in self.module.items:
            if isinstance(item, ContAssign):
                self.compile_cont_assign(item)
            elif isinstance(item, AlwaysComb):
                self.compile_comb(item)
            elif isinstance(item, AlwaysSeq):
                self.compile_seq(item)
            elif isinstance(item, Instance):
                self.compile_instance(item)
        return self.model

    def reset_values(self, assign: Assignment) -> List[str]:
        domain = self.domain_of(assign.target)
        expr = assign.value
        choices = expr.choices if isinstance(expr, NDChoice) else (expr,)
        values = []
        for choice in choices:
            values.append(self.const_value(choice, domain))
        return values

    def const_value(self, expr: Expr, domain: Domain) -> str:
        if isinstance(expr, Num):
            text = str(expr.value)
            if text not in domain:
                raise self.error(f"constant {text} outside domain {domain}")
            return text
        if isinstance(expr, Id):
            if expr.name in self.params:
                text = str(self.params[expr.name])
                if text not in domain:
                    raise self.error(f"constant {text} outside domain {domain}")
                return text
            if expr.name in self.enum_values:
                if self.enum_values[expr.name] != domain:
                    raise self.error(
                        f"enum constant {expr.name!r} has the wrong domain"
                    )
                return expr.name
        raise self.error(f"expected a constant, got {expr!r}")

    def const_eval(self, expr: Expr) -> int:
        if isinstance(expr, Num):
            return expr.value
        if isinstance(expr, Id) and expr.name in self.params:
            return self.params[expr.name]
        if isinstance(expr, Binop):
            left = self.const_eval(expr.left)
            right = self.const_eval(expr.right)
            return _int_binop(expr.op, left, right)
        raise self.error(f"expression is not compile-time constant: {expr!r}")

    # -- structural items -----------------------------------------------------

    def compile_instance(self, inst: Instance) -> None:
        child = self.all_modules.get(inst.module)
        if child is None:
            raise self.error(f"unknown module {inst.module!r}")
        connections: Dict[str, str] = {}
        for position, (port, net) in enumerate(inst.connections):
            if port is None:
                if position >= len(child.ports):
                    raise self.error(
                        f"instance {inst.name}: too many positional connections"
                    )
                port = child.ports[position]
            if net not in self.nets:
                raise self.error(f"instance {inst.name}: unknown net {net!r}")
            connections[port] = net
        self.model.subckts.append(
            Subckt(model=inst.module, instance=inst.name, connections=connections)
        )

    def compile_cont_assign(self, item: ContAssign) -> None:
        source = self.lower(item.value)
        self.copy_into(source, item.target)

    # -- behavioural items -----------------------------------------------------

    def compile_comb(self, item: AlwaysComb) -> None:
        env = self.execute(item.body, {}, sequential=False)
        for target, expr in env.items():
            if expr is None:
                raise self.error(
                    f"combinational always block may not assign {target!r} "
                    "on only some paths (implied latch)"
                )
            source = self.lower(expr)
            self.copy_into(source, target)

    def compile_seq(self, item: AlwaysSeq) -> None:
        env = self.execute(item.body, {}, sequential=True)
        lines_of = _assignment_lines(item.body)
        for target, expr in env.items():
            if target not in self.nets:
                raise self.error(f"undeclared register {target!r}")
            assert expr is not None  # sequential merges fall back to hold
            source = self.lower(expr)
            coerced = self.coerce(source, self.domain_of(target), hint=f"n_{target}")
            latch = Latch(input=coerced, output=target,
                          reset=list(self.resets.get(target, [])))
            self.model.latches.append(latch)
            lines = sorted(lines_of.get(target, []))
            if lines:
                # Source-level debugging (§8 item 7): remember where this
                # register is assigned so traces can point back at the HDL.
                rendered = ",".join(str(n) for n in lines)
                self.model.sources[target] = f"{self.module.name}.v:{rendered}"

    def execute(
        self,
        stmt: Stmt,
        env: Dict[str, Optional[Expr]],
        sequential: bool,
    ) -> Dict[str, Optional[Expr]]:
        """Symbolic execution of a statement: target -> value expression.

        ``None`` marks "unassigned on some path" (legal only for
        sequential logic, where it means "hold").
        """
        if isinstance(stmt, Block):
            for sub in stmt.stmts:
                env = self.execute(sub, env, sequential)
            return env
        if isinstance(stmt, Assignment):
            if sequential and not stmt.nonblocking:
                raise self.error(
                    f"sequential always blocks must use '<=' (register "
                    f"{stmt.target!r})"
                )
            if not sequential and stmt.nonblocking:
                raise self.error(
                    f"combinational always blocks must use '=' ({stmt.target!r})"
                )
            value = self.substitute(stmt.value, env) if not sequential else stmt.value
            env = dict(env)
            env[stmt.target] = value
            return env
        if isinstance(stmt, IfStmt):
            then_env = self.execute(stmt.then, env, sequential)
            else_env = (
                self.execute(stmt.other, env, sequential)
                if stmt.other is not None
                else dict(env)
            )
            return self.merge(stmt.cond, then_env, else_env, sequential)
        if isinstance(stmt, CaseStmt):
            return self.execute(self.case_to_if(stmt), env, sequential)
        raise self.error(f"unsupported statement {stmt!r}")

    def case_to_if(self, case: CaseStmt) -> Stmt:
        default: Stmt = Block()
        chain: Stmt = default
        items = list(case.items)
        default_items = [i for i in items if i.labels is None]
        if len(default_items) > 1:
            raise self.error("case statement has two default items")
        if default_items:
            chain = default_items[0].stmt
        for item in reversed([i for i in items if i.labels is not None]):
            assert item.labels is not None
            cond: Optional[Expr] = None
            for label in item.labels:
                test = Binop(op="==", left=case.subject, right=label)
                cond = test if cond is None else Binop(op="||", left=cond, right=test)
            assert cond is not None
            chain = IfStmt(cond=cond, then=item.stmt, other=chain)
        return chain

    def merge(
        self,
        cond: Expr,
        then_env: Dict[str, Optional[Expr]],
        else_env: Dict[str, Optional[Expr]],
        sequential: bool,
    ) -> Dict[str, Optional[Expr]]:
        merged: Dict[str, Optional[Expr]] = {}
        # The then-branch's targets in dict order, then those only the
        # else branch assigns (a set would tie table order and net
        # names to the hash seed).
        targets = list(then_env) + [t for t in else_env if t not in then_env]
        for target in targets:
            hold: Optional[Expr] = Id(target) if sequential else None
            then_val = then_env.get(target, hold)
            else_val = else_env.get(target, hold)
            if then_val is None or else_val is None:
                merged[target] = None
            elif then_val == else_val:
                merged[target] = then_val
            else:
                merged[target] = Ternary(cond=cond, then=then_val, other=else_val)
        return merged

    def substitute(self, expr: Expr, env: Dict[str, Optional[Expr]]) -> Expr:
        """Blocking-assignment semantics: reads see earlier writes."""
        if isinstance(expr, Id) and expr.name in env and env[expr.name] is not None:
            replacement = env[expr.name]
            assert replacement is not None
            return replacement
        if isinstance(expr, Unop):
            return Unop(expr.op, self.substitute(expr.operand, env))
        if isinstance(expr, Binop):
            return Binop(
                expr.op, self.substitute(expr.left, env), self.substitute(expr.right, env)
            )
        if isinstance(expr, Ternary):
            return Ternary(
                self.substitute(expr.cond, env),
                self.substitute(expr.then, env),
                self.substitute(expr.other, env),
            )
        if isinstance(expr, NDChoice):
            return NDChoice(tuple(self.substitute(c, env) for c in expr.choices))
        if isinstance(expr, Index):
            return Index(self.substitute(expr.base, env), expr.index)
        return expr

    # -- expression lowering -----------------------------------------------------

    def lower(self, expr: Expr) -> str:
        """Lower an expression tree to a net name, emitting tables."""
        if isinstance(expr, Id):
            if expr.name in self.params:
                return self.lower(Num(value=self.params[expr.name]))
            if expr.name in self.enum_values:
                return self.constant_net(expr.name, self.enum_values[expr.name])
            if expr.name not in self.nets:
                raise self.error(f"undeclared net {expr.name!r}")
            return expr.name
        if isinstance(expr, Num):
            if expr.width is not None:
                domain = int_domain(1 << expr.width)
            else:
                domain = int_domain(max(2, expr.value + 1))
            return self.constant_net(str(expr.value), domain)
        if isinstance(expr, EnumConst):
            if expr.name not in self.enum_values:
                raise self.error(f"unknown enum constant {expr.name!r}")
            return self.constant_net(expr.name, self.enum_values[expr.name])
        if isinstance(expr, Unop):
            return self.lower_unop(expr)
        if isinstance(expr, Binop):
            return self.lower_binop(expr)
        if isinstance(expr, Ternary):
            return self.lower_ternary(expr)
        if isinstance(expr, NDChoice):
            return self.lower_nd(expr)
        if isinstance(expr, Index):
            return self.lower_index(expr)
        raise self.error(f"unsupported expression {expr!r}")

    def constant_net(self, value: str, domain: Domain) -> str:
        net = self.fresh(domain, hint="c")
        self.model.tables.append(
            Table(inputs=[], outputs=[net], rows=[Row(inputs=(), outputs=(value,))])
        )
        return net

    def copy_into(self, source: str, target: str) -> None:
        """Identity table from ``source`` to ``target`` (domain-checked)."""
        src_domain = self.domain_of(source)
        dst_domain = self.domain_of(target)
        missing = [v for v in src_domain if v not in dst_domain]
        if missing:
            raise self.error(
                f"cannot assign {source!r} to {target!r}: values {missing} "
                f"outside target domain"
            )
        rows = [Row(inputs=(v,), outputs=(v,)) for v in src_domain]
        self.model.tables.append(
            Table(inputs=[source], outputs=[target], rows=rows)
        )

    def coerce(self, source: str, domain: Domain, hint: str = "z") -> str:
        """Return a net with exactly ``domain`` carrying ``source``'s value."""
        if self.domain_of(source) == domain:
            return source
        target = self.fresh(domain, hint=hint)
        self.copy_into(source, target)
        return target

    def lower_ternary(self, expr: Ternary) -> str:
        cond = self.to_binary(self.lower(expr.cond))
        then_net = self.lower(expr.then)
        else_net = self.lower(expr.other)
        domain = self.join_domain(then_net, else_net)
        then_net = self.coerce(then_net, domain)
        else_net = self.coerce(else_net, domain)
        out = self.fresh(domain, hint="mux")
        self.model.tables.append(
            Table(
                inputs=[cond, then_net, else_net],
                outputs=[out],
                rows=[
                    Row(inputs=("1", ANY, ANY), outputs=(Eq(then_net),)),
                    Row(inputs=("0", ANY, ANY), outputs=(Eq(else_net),)),
                ],
            )
        )
        return out

    def lower_nd(self, expr: NDChoice) -> str:
        values: List[str] = []
        domains: List[Domain] = []
        for choice in expr.choices:
            if isinstance(choice, Num):
                values.append(str(choice.value))
                domains.append(int_domain(max(2, choice.value + 1)))
            elif isinstance(choice, Id) and choice.name in self.enum_values:
                values.append(choice.name)
                domains.append(self.enum_values[choice.name])
            elif isinstance(choice, Id) and choice.name in self.params:
                value = self.params[choice.name]
                values.append(str(value))
                domains.append(int_domain(max(2, value + 1)))
            else:
                raise self.error(
                    "$ND choices must be constants (paper's non-determinism "
                    "construct)"
                )
        domain = max(domains, key=len)
        for d in domains:
            if d[0] not in domain:  # enum vs int mix
                raise self.error("$ND mixes enum and integer constants")
        out = self.fresh(domain, hint="nd")
        rows = [Row(inputs=(), outputs=(v,)) for v in values]
        self.model.tables.append(Table(inputs=[], outputs=[out], rows=rows))
        return out

    def lower_index(self, expr: Index) -> str:
        if not isinstance(expr.base, Id):
            raise self.error("bit-select base must be a net")
        index = self.const_eval(expr.index)
        base = self.lower(expr.base)
        domain = self.domain_of(base)
        out = self.fresh(BIN, hint="bit")
        rows = [
            Row(inputs=(v,), outputs=(str((int(v) >> index) & 1),)) for v in domain
        ]
        self.model.tables.append(Table(inputs=[base], outputs=[out], rows=rows))
        return out

    def to_binary(self, net: str) -> str:
        """Truth value of a net: 0 iff the value is '0' (Verilog-style)."""
        domain = self.domain_of(net)
        if domain == BIN:
            return net
        if self.nets[net].is_enum:
            raise self.error(f"enum net {net!r} used as a condition")
        out = self.fresh(BIN, hint="b")
        rows = [
            Row(inputs=(v,), outputs=("0" if int(v) == 0 else "1",)) for v in domain
        ]
        self.model.tables.append(Table(inputs=[net], outputs=[out], rows=rows))
        return out

    def join_domain(self, a: str, b: str) -> Domain:
        da, db = self.domain_of(a), self.domain_of(b)
        if da == db:
            return da
        ea, eb = self.nets[a].is_enum, self.nets[b].is_enum
        if ea or eb:
            raise self.error(
                f"enum domain mismatch between {a!r} ({da}) and {b!r} ({db})"
            )
        return da if len(da) >= len(db) else db

    def lower_unop(self, expr: Unop) -> str:
        operand = self.lower(expr.operand)
        domain = self.domain_of(operand)
        if self.nets[operand].is_enum:
            raise self.error(f"operator {expr.op!r} not defined on enums")
        size = len(domain)
        width = (size - 1).bit_length() if size > 1 else 1

        def compute(v: int) -> int:
            if expr.op == "!":
                return 0 if v else 1
            if expr.op == "~":
                return (~v) & ((1 << width) - 1) if size == (1 << width) else (
                    (size - 1 - v)
                )
            if expr.op == "-":
                return (-v) % size
            if expr.op == "&":
                return 1 if v == size - 1 else 0
            if expr.op == "|":
                return 1 if v != 0 else 0
            raise self.error(f"unsupported unary operator {expr.op!r}")

        out_domain = BIN if expr.op in ("!", "&", "|") else domain
        out = self.fresh(out_domain, hint="u")
        rows = [
            Row(inputs=(v,), outputs=(str(compute(int(v))),)) for v in domain
        ]
        self.model.tables.append(Table(inputs=[operand], outputs=[out], rows=rows))
        return out

    def lower_binop(self, expr: Binop) -> str:
        left = self.lower(expr.left)
        right = self.lower(expr.right)
        la, lb = self.nets[left], self.nets[right]
        da, db = la.domain, lb.domain
        if la.is_enum or lb.is_enum:
            return self.lower_enum_binop(expr.op, left, right)
        if len(da) * len(db) > MAX_TABLE_ROWS:
            raise self.error(
                f"operator {expr.op!r} table would need {len(da) * len(db)} rows"
            )
        size = max(len(da), len(db))
        if expr.op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
            out_domain = BIN
        else:
            out_domain = da if len(da) >= len(db) else db
        out = self.fresh(out_domain, hint="o")
        rows = []
        for va in da:
            for vb in db:
                result = _int_binop(expr.op, int(va), int(vb), size)
                rows.append(Row(inputs=(va, vb), outputs=(str(result),)))
        self.model.tables.append(
            Table(inputs=[left, right], outputs=[out], rows=rows)
        )
        return out

    def lower_enum_binop(self, op: str, left: str, right: str) -> str:
        da, db = self.domain_of(left), self.domain_of(right)
        if da != db:
            raise self.error(
                f"enum comparison between different domains {da} and {db}"
            )
        if op not in ("==", "!="):
            raise self.error(f"operator {op!r} not defined on enums")
        out = self.fresh(BIN, hint="e")
        rows = []
        for va in da:
            for vb in db:
                equal = va == vb
                value = "1" if (equal if op == "==" else not equal) else "0"
                rows.append(Row(inputs=(va, vb), outputs=(value,)))
        self.model.tables.append(
            Table(inputs=[left, right], outputs=[out], rows=rows)
        )
        return out


def _assignment_lines(stmt: Stmt) -> Dict[str, Set[int]]:
    """Target -> set of source lines assigning it (for ``.source``)."""
    out: Dict[str, Set[int]] = {}

    def walk(node: Stmt) -> None:
        if isinstance(node, Assignment):
            if node.line:
                out.setdefault(node.target, set()).add(node.line)
        elif isinstance(node, Block):
            for sub in node.stmts:
                walk(sub)
        elif isinstance(node, IfStmt):
            walk(node.then)
            if node.other is not None:
                walk(node.other)
        elif isinstance(node, CaseStmt):
            for item in node.items:
                walk(item.stmt)

    walk(stmt)
    return out


def _assigned_targets(stmt: Stmt) -> Set[str]:
    if isinstance(stmt, Assignment):
        return {stmt.target}
    if isinstance(stmt, Block):
        out: Set[str] = set()
        for sub in stmt.stmts:
            out |= _assigned_targets(sub)
        return out
    if isinstance(stmt, IfStmt):
        out = _assigned_targets(stmt.then)
        if stmt.other is not None:
            out |= _assigned_targets(stmt.other)
        return out
    if isinstance(stmt, CaseStmt):
        out = set()
        for item in stmt.items:
            out |= _assigned_targets(item.stmt)
        return out
    return set()


def _int_binop(op: str, a: int, b: int, size: int = 1 << 30) -> int:
    if op == "==":
        return int(a == b)
    if op == "!=":
        return int(a != b)
    if op == "<":
        return int(a < b)
    if op == "<=":
        return int(a <= b)
    if op == ">":
        return int(a > b)
    if op == ">=":
        return int(a >= b)
    if op == "&&":
        return int(bool(a) and bool(b))
    if op == "||":
        return int(bool(a) or bool(b))
    if op == "&":
        return (a & b) % size
    if op == "|":
        return (a | b) % size
    if op == "^":
        return (a ^ b) % size
    if op == "+":
        return (a + b) % size
    if op == "-":
        return (a - b) % size
    if op == "*":
        return (a * b) % size
    if op == "/":
        return (a // b) % size if b else 0
    if op == "%":
        return (a % b) % size if b else 0
    if op == "<<":
        return (a << b) % size
    if op == ">>":
        return (a >> b) % size
    raise VerilogError(f"unsupported binary operator {op!r}")


def compile_source(source: SourceFile, root: Optional[str] = None) -> Design:
    """Compile parsed Verilog into a BLIF-MV design.

    ``root`` defaults to the unique module not instantiated anywhere.
    """
    modules = {m.name: m for m in source.modules}
    design = Design()
    for module in source.modules:
        model = _ModuleCompiler(module, modules).run()
        design.add(model)
    instantiated = {
        inst.module
        for module in source.modules
        for inst in module.items
        if isinstance(inst, Instance)
    }
    if root is None:
        candidates = [m.name for m in source.modules if m.name not in instantiated]
        if not candidates:
            raise VerilogError("no root module (instantiation cycle?)")
        root = candidates[-1]
    if root not in design.models:
        raise VerilogError(f"unknown root module {root!r}")
    design.root = root
    design.validate()
    return design


def compile_verilog(
    text: str, root: Optional[str] = None, source: str = "<string>"
) -> Design:
    """Parse and compile Verilog text to a BLIF-MV design (vl2mv).

    Errors name ``source``: ``source:N: ...`` for a lexical or syntax
    error on line N, ``source: ...`` for the others.
    """
    try:
        return compile_source(parse_verilog(text), root=root)
    except VerilogError as exc:
        where = source if exc.line is None else f"{source}:{exc.line}"
        raise VerilogError(f"{where}: {exc.message}") from None


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: ``vl2mv input.v [-o output.mv] [--root name]``."""
    import argparse

    from repro.blifmv.writer import write

    cli = argparse.ArgumentParser(
        prog="vl2mv", description="Compile a Verilog subset to BLIF-MV"
    )
    cli.add_argument("input", help="Verilog source file")
    cli.add_argument("-o", "--output", help="output BLIF-MV file (default stdout)")
    cli.add_argument("--root", help="root module name")
    args = cli.parse_args(argv)
    with open(args.input) as handle:
        design = compile_verilog(handle.read(), root=args.root, source=args.input)
    text = write(design) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
