"""Recursive-descent parser for the vl2mv Verilog subset."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.verilog.ast import (
    AlwaysComb,
    AlwaysSeq,
    Assignment,
    Binop,
    Block,
    CaseItem,
    CaseStmt,
    ContAssign,
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
    Range,
    SourceFile,
    Stmt,
    Ternary,
    Unop,
)
from repro.verilog.lexer import Token, VerilogError, parse_sized_literal, tokenize

_BINARY_LEVELS = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["<<", ">>"],
    ["+", "-"],
    ["*", "/", "%"],
]


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing --------------------------------------------------

    def peek(self, offset: int = 0) -> Optional[Token]:
        index = self.pos + offset
        return self.tokens[index] if index < len(self.tokens) else None

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise VerilogError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise VerilogError(f"expected {text!r}, got {tok.text!r}", tok.line)
        return tok

    def expect_id(self) -> str:
        tok = self.next()
        if tok.kind != "id":
            raise VerilogError(f"expected identifier, got {tok.text!r}", tok.line)
        return tok.text

    # -- top level ---------------------------------------------------------

    def source(self) -> SourceFile:
        out = SourceFile()
        while self.peek() is not None:
            out.modules.append(self.module())
        return out

    def module(self) -> ModuleDecl:
        self.expect("module")
        name = self.expect_id()
        ports: List[str] = []
        if self.at("("):
            self.next()
            while not self.at(")"):
                ports.append(self.expect_id())
                if self.at(","):
                    self.next()
            self.expect(")")
        self.expect(";")
        mod = ModuleDecl(name=name, ports=ports)
        while not self.at("endmodule"):
            mod.items.append(self.module_item())
        self.expect("endmodule")
        return mod

    def module_item(self):
        tok = self.peek()
        assert tok is not None
        if tok.text in ("input", "output", "wire", "reg"):
            return self.net_decl()
        if tok.text == "enum":
            return self.enum_decl()
        if tok.text in ("parameter", "localparam"):
            return self.param_decl()
        if tok.text == "assign":
            return self.cont_assign()
        if tok.text == "always":
            return self.always()
        if tok.text == "initial":
            return self.initial()
        if tok.kind == "id":
            return self.instance()
        raise VerilogError(f"unexpected {tok.text!r}", tok.line)

    def net_decl(self) -> NetDecl:
        kind = self.next().text
        rng = self.opt_range()
        # 'output reg [..] name' style
        if self.at("reg") or self.at("wire"):
            self.next()
            if rng is None:
                rng = self.opt_range()
        names = [self.expect_id()]
        while self.at(","):
            self.next()
            names.append(self.expect_id())
        self.expect(";")
        return NetDecl(kind=kind, names=names, range=rng)

    def enum_decl(self) -> NetDecl:
        self.expect("enum")
        self.expect("{")
        values = [self.expect_id()]
        while self.at(","):
            self.next()
            values.append(self.expect_id())
        self.expect("}")
        kind = "wire"
        if self.at("reg") or self.at("wire"):
            kind = self.next().text
        names = [self.expect_id()]
        while self.at(","):
            self.next()
            names.append(self.expect_id())
        self.expect(";")
        return NetDecl(kind=kind, names=names, enum_values=values)

    def opt_range(self) -> Optional[Range]:
        if not self.at("["):
            return None
        self.next()
        msb = self.const_int()
        self.expect(":")
        lsb = self.const_int()
        self.expect("]")
        return Range(msb=msb, lsb=lsb)

    def const_int(self) -> int:
        tok = self.next()
        if tok.kind == "number":
            return int(tok.text)
        if tok.kind == "sized":
            value, _width = parse_sized_literal(tok.text)
            return value
        raise VerilogError(f"expected constant, got {tok.text!r}", tok.line)

    def param_decl(self) -> ParamDecl:
        self.next()  # parameter | localparam
        name = self.expect_id()
        self.expect("=")
        value = self.expression()
        self.expect(";")
        return ParamDecl(name=name, value=value)

    def cont_assign(self) -> ContAssign:
        self.expect("assign")
        target = self.expect_id()
        self.expect("=")
        value = self.expression()
        self.expect(";")
        return ContAssign(target=target, value=value)

    def always(self):
        self.expect("always")
        self.expect("@")
        self.expect("(")
        tok = self.peek()
        assert tok is not None
        if tok.text == "posedge" or tok.text == "negedge":
            self.next()
            clock = self.expect_id()
            self.expect(")")
            return AlwaysSeq(clock=clock, body=self.statement())
        # combinational: '*' or sensitivity list 'a or b or c'
        if tok.text == "*":
            self.next()
        else:
            self.expect_id()
            while self.at("or"):
                self.next()
                self.expect_id()
        self.expect(")")
        return AlwaysComb(body=self.statement())

    def initial(self) -> InitialBlock:
        self.expect("initial")
        block = InitialBlock()
        stmt = self.statement()
        for assign in _flatten_assignments(stmt):
            block.assignments.append(assign)
        return block

    def instance(self) -> Instance:
        module = self.expect_id()
        name = self.expect_id()
        self.expect("(")
        connections: List[Tuple[Optional[str], str]] = []
        while not self.at(")"):
            if self.at("."):
                self.next()
                port = self.expect_id()
                self.expect("(")
                net = self.expect_id()
                self.expect(")")
                connections.append((port, net))
            else:
                connections.append((None, self.expect_id()))
            if self.at(","):
                self.next()
        self.expect(")")
        self.expect(";")
        return Instance(module=module, name=name, connections=connections)

    # -- statements ----------------------------------------------------------

    def statement(self) -> Stmt:
        tok = self.peek()
        assert tok is not None
        if tok.text == "begin":
            self.next()
            block = Block()
            while not self.at("end"):
                block.stmts.append(self.statement())
            self.expect("end")
            return block
        if tok.text == "if":
            self.next()
            self.expect("(")
            cond = self.expression()
            self.expect(")")
            then = self.statement()
            other = None
            if self.at("else"):
                self.next()
                other = self.statement()
            return IfStmt(cond=cond, then=then, other=other)
        if tok.text in ("case", "casex"):
            self.next()
            self.expect("(")
            subject = self.expression()
            self.expect(")")
            case = CaseStmt(subject=subject)
            while not self.at("endcase"):
                case.items.append(self.case_item())
            self.expect("endcase")
            return case
        # assignment
        target = self.expect_id()
        op = self.next()
        if op.text == "<=":
            nonblocking = True
        elif op.text == "=":
            nonblocking = False
        else:
            raise VerilogError(
                f"expected assignment operator, got {op.text!r}", op.line
            )
        value = self.expression()
        self.expect(";")
        return Assignment(target=target, value=value, nonblocking=nonblocking,
                          line=op.line)

    def case_item(self) -> CaseItem:
        if self.at("default"):
            self.next()
            if self.at(":"):
                self.next()
            return CaseItem(labels=None, stmt=self.statement())
        labels = [self.expression()]
        while self.at(","):
            self.next()
            labels.append(self.expression())
        self.expect(":")
        return CaseItem(labels=labels, stmt=self.statement())

    # -- expressions -----------------------------------------------------------

    def expression(self) -> Expr:
        return self.ternary()

    def ternary(self) -> Expr:
        cond = self.binary(0)
        if self.at("?"):
            self.next()
            then = self.ternary()
            self.expect(":")
            other = self.ternary()
            return Ternary(cond=cond, then=then, other=other)
        return cond

    def binary(self, level: int) -> Expr:
        if level >= len(_BINARY_LEVELS):
            return self.unary()
        ops = _BINARY_LEVELS[level]
        left = self.binary(level + 1)
        while True:
            tok = self.peek()
            if tok is None or tok.text not in ops:
                return left
            self.next()
            right = self.binary(level + 1)
            left = Binop(op=tok.text, left=left, right=right)

    def unary(self) -> Expr:
        tok = self.peek()
        assert tok is not None
        if tok.text in ("!", "~", "-", "&", "|"):
            self.next()
            return Unop(op=tok.text, operand=self.unary())
        return self.primary()

    def primary(self) -> Expr:
        tok = self.next()
        if tok.text == "(":
            inner = self.expression()
            self.expect(")")
            return inner
        if tok.kind == "number":
            return Num(value=int(tok.text))
        if tok.kind == "sized":
            value, width = parse_sized_literal(tok.text)
            return Num(value=value, width=width)
        if tok.kind == "system":
            if tok.text != "$ND":
                raise VerilogError(
                    f"unsupported system call {tok.text}", tok.line
                )
            self.expect("(")
            choices = [self.expression()]
            while self.at(","):
                self.next()
                choices.append(self.expression())
            self.expect(")")
            return NDChoice(choices=tuple(choices))
        if tok.kind == "id":
            base: Expr = Id(name=tok.text)
            if self.at("["):
                self.next()
                index = self.expression()
                self.expect("]")
                base = Index(base=base, index=index)
            return base
        raise VerilogError(f"unexpected token {tok.text!r}", tok.line)


def _flatten_assignments(stmt: Stmt) -> List[Assignment]:
    if isinstance(stmt, Assignment):
        return [stmt]
    if isinstance(stmt, Block):
        out: List[Assignment] = []
        for sub in stmt.stmts:
            out.extend(_flatten_assignments(sub))
        return out
    raise VerilogError("initial blocks may only contain plain assignments")


def parse_verilog(text: str) -> SourceFile:
    """Parse Verilog source text into a :class:`SourceFile`."""
    return _Parser(tokenize(text)).source()
