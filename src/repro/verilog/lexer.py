"""Lexer for the synthesizable Verilog subset accepted by vl2mv.

Handles identifiers (including escaped ``\\name`` and system names
``$ND``), decimal and sized literals (``4'b0101``, ``2'd3``), operators,
and both comment styles.  Produces a flat token list consumed by the
recursive-descent parser.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple


class VerilogError(Exception):
    """Raised on lexical/syntactic/semantic errors in Verilog input.

    ``line`` is the source line of a lexical or syntax error, which the
    message then starts with (``line N: ...``).
    """

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.message = message
        self.line = line


@dataclass(frozen=True)
class Token:
    kind: str  # 'id', 'number', 'sized', 'op', 'keyword', 'system'
    text: str
    line: int

    def __repr__(self) -> str:
        return f"{self.text!r}@{self.line}"


KEYWORDS = {
    "module", "endmodule", "input", "output", "inout", "wire", "reg",
    "assign", "always", "initial", "begin", "end", "if", "else", "case",
    "casex", "endcase", "default", "posedge", "negedge", "or", "parameter",
    "enum", "integer", "localparam",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<line_comment>//[^\n]*)
  | (?P<block_comment>/\*.*?\*/)
  | (?P<sized>[0-9]+'[bBdDhHoO][0-9a-fA-FxXzZ_]+)
  | (?P<number>[0-9][0-9_]*)
  | (?P<system>\$[A-Za-z_][A-Za-z0-9_]*)
  | (?P<id>[A-Za-z_][A-Za-z0-9_$]*)
  | (?P<op><=|>=|==|!=|&&|\|\||<<|>>|->|[-+*/%<>!~&|^?:=(){}\[\],;.#@])
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(text: str) -> List[Token]:
    """Lex Verilog source into tokens (comments and whitespace dropped)."""
    tokens: List[Token] = []
    pos = 0
    line = 1
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise VerilogError(f"unexpected character {text[pos]!r}", line)
        group = match.lastgroup
        value = match.group()
        line += value.count("\n")
        pos = match.end()
        if group in ("ws", "line_comment", "block_comment"):
            continue
        if group == "id" and value in KEYWORDS:
            tokens.append(Token("keyword", value, line))
        elif group == "id":
            tokens.append(Token("id", value, line))
        elif group == "system":
            tokens.append(Token("system", value, line))
        elif group == "sized":
            tokens.append(Token("sized", value, line))
        elif group == "number":
            tokens.append(Token("number", value, line))
        else:
            tokens.append(Token("op", value, line))
    return tokens


def parse_sized_literal(text: str) -> Tuple[int, int]:
    """Parse ``4'b0101`` style literals into ``(value, width)``."""
    width_text, rest = text.split("'", 1)
    base_char = rest[0].lower()
    digits = rest[1:].replace("_", "")
    base = {"b": 2, "d": 10, "h": 16, "o": 8}[base_char]
    if any(c in "xXzZ" for c in digits):
        raise VerilogError(f"x/z digits are not synthesizable: {text!r}")
    return int(digits, base), int(width_text)
