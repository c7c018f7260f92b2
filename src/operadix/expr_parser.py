"""Parser for composition programs.

A program declares operads and then composes them:

    # slot 2 of f takes g, then slot 4 of the result takes h
    f:4; g:3; h:3;
    (f o_2 g) o_4 h

The composition operator is ``o_N``; ``@N`` means the same thing and
the slot number may also stand apart (``o_ 2``, ``@ 2``).  Composition
is left associative, parentheses group, ``#`` comments run to the end
of the line.  Identifiers start with a letter or underscore; the forms
``o_`` and ``o_<digits>`` are reserved for the operator.

Parsing checks shape only, and caps nesting: parentheses or
compositions nested deeper than MAX_DEPTH are rejected, so that the
recursive walks over a parsed tree (elaboration, printing, evaluation)
stay within Python's stack.  Elaboration turns the tree into the event
sequence that builds it on the grafting machine, checking the declared
arities, slot bounds and single use of each atom along the way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .core import Config, ElaborationError, ParseError, _arities_ok
from .flat_machine import ComposeSeq, Event, NewOperad

# One alternative per token kind, tried in order.  o_ and o_<digits>
# are operators only when no id character follows, so o_12x is an id.
# A comment that runs to the end of input is part of the eof match,
# so end of input sits at the comment's column.
_TOKEN_RE = re.compile(
    r"""(?P<newline>\n)
      | (?P<eof>(?:\#[^\n]*)?\Z)
      | (?P<skip>[ \t\r]+|\#[^\n]*)
      | (?P<int>[0-9]+)
      | (?P<compose>o_[0-9]+(?![A-Za-z0-9_]))
      | (?P<at>@|o_(?![A-Za-z0-9_]))
      | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<colon>:) | (?P<semi>;) | (?P<lparen>\() | (?P<rparen>\))
      | (?P<bad>.)""",
    re.VERBOSE,
)

MAX_DEPTH = 200


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Compose:
    left: "ComposeExpr"
    pos: int
    right: "ComposeExpr"


ComposeExpr = Atom | Compose


@dataclass(frozen=True)
class Declaration:
    name: str
    arity: int


class _Token(NamedTuple):  # not a frozen dataclass: one is built per token
    kind: str
    value: str | int
    line: int
    col: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(source):
        kind, text = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line, col)
        elif kind == "eof":
            break
        elif kind != "skip":
            value = int(text.removeprefix("o_")) if kind in ("int", "compose") else text
            tokens.append(_Token(kind, value, line, col))
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.declared: dict[str, int] = {}

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def take(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, got {tok.value!r}" if tok.kind != "eof"
                             else f"expected {what}, got end of input", tok.line, tok.col)
        self.pos += 1
        return tok

    def parse_program(self) -> tuple[tuple[Declaration, ...], ComposeExpr]:
        decls: list[Declaration] = []
        while self.peek().kind == "id" and self.peek(1).kind == "colon":
            decls.append(self.parse_decl())
        expr, _ = self.parse_expr(0)
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected {tok.value!r} after expression", tok.line, tok.col)
        return tuple(decls), expr

    def parse_decl(self) -> Declaration:
        name_tok = self.take("id", "operad name")
        name = str(name_tok.value)
        if name in self.declared:
            raise ParseError(f"operad {name!r} declared twice", name_tok.line, name_tok.col)
        self.take("colon", "':'")
        arity = int(self.take("int", "arity").value)
        self.take("semi", "';'")
        self.declared[name] = arity
        return Declaration(name, arity)

    def parse_expr(self, parens: int) -> tuple[ComposeExpr, int]:
        """The expression and its height, the compositions on its longest path."""
        node, height = self.parse_term(parens)
        while self.peek().kind in ("compose", "at"):
            tok = self.peek()
            self.pos += 1
            if tok.kind == "compose":
                slot = int(tok.value)
            else:
                slot = int(self.take("int", "slot number").value)
            right, right_height = self.parse_term(parens)
            height = 1 + max(height, right_height)
            if height > MAX_DEPTH:
                raise ParseError(f"compositions nest deeper than {MAX_DEPTH}", tok.line, tok.col)
            node = Compose(node, slot, right)
        return node, height

    def parse_term(self, parens: int) -> tuple[ComposeExpr, int]:
        tok = self.peek()
        if tok.kind == "id":
            name = str(tok.value)
            if name not in self.declared:
                raise ParseError(f"undeclared operad {name!r}", tok.line, tok.col)
            self.pos += 1
            return Atom(name), 0
        if tok.kind == "lparen":
            if parens == MAX_DEPTH:
                raise ParseError(f"parentheses nest deeper than {MAX_DEPTH}", tok.line, tok.col)
            self.pos += 1
            term = self.parse_expr(parens + 1)
            self.take("rparen", "')'")
            return term
        if tok.kind == "eof":
            raise ParseError("expected an expression, got end of input", tok.line, tok.col)
        raise ParseError(f"expected an operad name or '(', got {tok.value!r}", tok.line, tok.col)


def parse(source: str) -> tuple[tuple[Declaration, ...], ComposeExpr]:
    """Parse a whole program into declarations and one expression."""
    return _Parser(_tokenize(source)).parse_program()


def print_expr(expr: ComposeExpr) -> str:
    if isinstance(expr, Atom):
        return expr.name
    return f"({print_expr(expr.left)} o_{expr.pos} {print_expr(expr.right)})"


def print_program(decls: tuple[Declaration, ...], expr: ComposeExpr) -> str:
    """Render a program that parses back to the same tree."""
    parts = [f"{d.name}:{d.arity};" for d in decls]
    parts.append(print_expr(expr))
    return " ".join(parts)


def elaborate(
    decls: tuple[Declaration, ...], expr: ComposeExpr, config: Config | None = None
) -> list[Event]:
    """The machine events that build the expression, in firing order.

    Every declaration is created first, used or not.  The composes
    follow in evaluation order, each addressed to the root operad of
    the subtree built so far.  An atom may appear only once in the
    expression, mirroring that an operad can be grafted only once.
    """
    arities = {d.name: d.arity for d in decls}
    cfg = config if config is not None else Config()
    if len(decls) > cfg.max_oprd:
        raise ElaborationError(f"{len(decls)} declarations exceed max_oprd = {cfg.max_oprd}")
    for decl in decls:
        if not _arities_ok((decl.arity,), cfg):
            raise ElaborationError(
                f"declared arity {decl.arity!r} of {decl.name!r} is not an int in 1..{cfg.max_args}"
            )
    events: list[Event] = [NewOperad(d.name, d.arity) for d in decls]
    used: set[str] = set()

    def walk(node: ComposeExpr) -> tuple[str, int]:
        if isinstance(node, Atom):
            if node.name not in arities:
                raise ElaborationError(f"operad {node.name!r} is not declared")
            if node.name in used:
                raise ElaborationError(f"operad {node.name!r} used twice in the expression")
            used.add(node.name)
            return node.name, arities[node.name]
        if not isinstance(node, Compose):
            raise ElaborationError(f"unknown expression node {node!r}")
        left_root, left_slots = walk(node.left)
        right_root, right_slots = walk(node.right)
        if type(node.pos) is not int or not 1 <= node.pos <= left_slots:
            raise ElaborationError(
                f"slot {node.pos!r} is out of range 1..{left_slots} in {print_expr(node)}"
            )
        events.append(ComposeSeq(left_root, node.pos, right_root))
        return left_root, left_slots + right_slots - 1

    walk(expr)
    return events
