"""Surface syntax for causal types: parser, printer, elaborator.

Grammar, loosest binding first::

    par     := seq ('@' seq)*            also accepts the symbol ⅋
    seq     := tensor ('<' tensor)*      also accepts ◁
    tensor  := postfix ('*' postfix)*    also accepts ⊗
    postfix := primary '^'*              dual, tightest
    primary := FO(d) | ANY(d) | CLA(n) | I | '[' par ',' par ']' | '(' par ')'

All infix operators associate to the left.  The precedence order
``^ > * > < > @`` follows the state-set containment of the three
products: tensor states sit inside seq states sit inside par states.
Dimension literals are ASCII digits and must be positive.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .causobj import (CausObject, dual_obj, hom_obj, mk_all_states,
                      mk_classical, mk_first_order, mk_unit, par_obj, seq_obj,
                      tensor_obj)
from .errors import ElaborationError, TypeSyntaxError

__all__ = [
    "Atom", "Dual", "Tensor", "Seq", "Par", "Hom", "TypeExpr",
    "parse_type", "print_type", "elaborate", "random_type_expr",
]


# ---------------------------------------------------------------------------
# syntax trees
# ---------------------------------------------------------------------------

class TypeExpr:
    """Base class for type-expression nodes."""

    def __str__(self) -> str:
        return print_type(self)


@dataclass(frozen=True)
class Atom(TypeExpr):
    kind: str        # "FO" | "ANY" | "CLA" | "I"
    dim: int = 1


@dataclass(frozen=True)
class Dual(TypeExpr):
    inner: TypeExpr


@dataclass(frozen=True)
class Tensor(TypeExpr):
    left: TypeExpr
    right: TypeExpr


@dataclass(frozen=True)
class Seq(TypeExpr):
    left: TypeExpr
    right: TypeExpr


@dataclass(frozen=True)
class Par(TypeExpr):
    left: TypeExpr
    right: TypeExpr


@dataclass(frozen=True)
class Hom(TypeExpr):
    source: TypeExpr
    target: TypeExpr


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_ALIASES = {"⊗": "*", "⅋": "@", "◁": "<"}
_SYMBOLS = set("*@<^()[],")
_DIGITS = set("0123456789")     # str.isdigit also takes other scripts' digits


@dataclass(frozen=True)
class _Token:
    kind: str         # "name" | "int" | symbol itself | "end"
    text: str
    position: int     # codepoint index


def _syntax_error(message: str, text: str, pos: int,
                  expected: tuple[str, ...]) -> TypeSyntaxError:
    return TypeSyntaxError(message, pos, len(text[:pos].encode("utf-8")),
                           expected=expected)


def _tokenize(text: str) -> list[_Token]:
    toks = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _ALIASES:
            toks.append(_Token(_ALIASES[ch], ch, pos))
            pos += 1
            continue
        if ch in _SYMBOLS:
            toks.append(_Token(ch, ch, pos))
            pos += 1
            continue
        if ch in _DIGITS:
            start = pos
            while pos < n and text[pos] in _DIGITS:
                pos += 1
            toks.append(_Token("int", text[start:pos], start))
            continue
        if ch.isalpha():
            start = pos
            while pos < n and text[pos].isalpha():
                pos += 1
            toks.append(_Token("name", text[start:pos], start))
            continue
        raise _syntax_error(f"unexpected character {ch!r}", text, pos,
                            expected=("FO", "ANY", "CLA", "I", "(", "["))
    toks.append(_Token("end", "", n))
    return toks


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def advance(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, expected: tuple[str, ...]) -> _Token:
        t = self.peek()
        if t.kind != kind:
            raise _syntax_error(
                f"unexpected {t.text!r}" if t.kind != "end" else "unexpected end of input",
                self.text, t.position, expected=expected)
        return self.advance()

    def parse(self) -> TypeExpr:
        e = self.par()
        t = self.peek()
        if t.kind != "end":
            raise _syntax_error(f"trailing input {t.text!r}", self.text, t.position,
                                expected=("*", "<", "@", "^", "end of input"))
        return e

    def par(self) -> TypeExpr:
        e = self.seq()
        while self.peek().kind == "@":
            self.advance()
            e = Par(e, self.seq())
        return e

    def seq(self) -> TypeExpr:
        e = self.tensor()
        while self.peek().kind == "<":
            self.advance()
            e = Seq(e, self.tensor())
        return e

    def tensor(self) -> TypeExpr:
        e = self.postfix()
        while self.peek().kind == "*":
            self.advance()
            e = Tensor(e, self.postfix())
        return e

    def postfix(self) -> TypeExpr:
        e = self.primary()
        while self.peek().kind == "^":
            self.advance()
            e = Dual(e)
        return e

    def primary(self) -> TypeExpr:
        t = self.peek()
        if t.kind == "(":
            self.advance()
            e = self.par()
            self.expect(")", expected=(")",))
            return e
        if t.kind == "[":
            self.advance()
            src = self.par()
            self.expect(",", expected=(",",))
            tgt = self.par()
            self.expect("]", expected=("]",))
            return Hom(src, tgt)
        if t.kind == "name":
            self.advance()
            if t.text == "I":
                return Atom("I")
            if t.text in ("FO", "ANY", "CLA"):
                self.expect("(", expected=("(",))
                num = self.expect("int", expected=("a dimension literal",))
                self.expect(")", expected=(")",))
                d = int(num.text)
                if d < 1:
                    raise ElaborationError(
                        f"{t.text}({d}) denotes no object; dimensions start at 1 "
                        f"(position {num.position})")
                return Atom(t.text, d)
            raise _syntax_error(f"unknown atom {t.text!r}", self.text, t.position,
                                expected=("FO", "ANY", "CLA", "I"))
        raise _syntax_error(
            f"unexpected {t.text!r}" if t.kind != "end" else "unexpected end of input",
            self.text, t.position, expected=("FO", "ANY", "CLA", "I", "(", "["))


def parse_type(text: str) -> TypeExpr:
    """Parse a type expression; see the module docstring for the grammar."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------

_PREC = {Par: 1, Seq: 2, Tensor: 3, Dual: 4, Atom: 5, Hom: 5}
_INFIX = {Par: "@", Seq: "<", Tensor: "*"}


def _prec(e: TypeExpr) -> int:
    return _PREC[type(e)]


def print_type(e: TypeExpr) -> str:
    """Render with the fewest parentheses that reparse to the same tree."""
    if isinstance(e, Atom):
        return "I" if e.kind == "I" else f"{e.kind}({e.dim})"
    if isinstance(e, Hom):
        return f"[{print_type(e.source)},{print_type(e.target)}]"
    if isinstance(e, Dual):
        inner = print_type(e.inner)
        if _prec(e.inner) < _PREC[Dual]:
            inner = f"({inner})"
        return inner + "^"
    op = _INFIX[type(e)]
    own = _prec(e)
    left = print_type(e.left)
    if _prec(e.left) < own:
        left = f"({left})"
    right = print_type(e.right)
    if _prec(e.right) <= own:   # left-associative: equal binding reparses left
        right = f"({right})"
    return left + op + right


# ---------------------------------------------------------------------------
# elaboration
# ---------------------------------------------------------------------------

@functools.cache
def elaborate(e: TypeExpr) -> CausObject:
    """Build the object a tree denotes, memoized on the (frozen) tree."""
    if isinstance(e, Atom):
        if e.kind == "I":
            obj = mk_unit()
        elif e.kind == "FO":
            obj = mk_first_order(e.dim)
        elif e.kind == "ANY":
            obj = mk_all_states(mk_first_order(e.dim))
        elif e.kind == "CLA":
            obj = mk_classical(e.dim)
        else:
            raise ElaborationError(f"unknown atom kind {e.kind!r}")
    elif isinstance(e, Dual):
        obj = dual_obj(elaborate(e.inner))
    elif isinstance(e, Tensor):
        obj = tensor_obj(elaborate(e.left), elaborate(e.right))
    elif isinstance(e, Seq):
        obj = seq_obj(elaborate(e.left), elaborate(e.right))
    elif isinstance(e, Par):
        obj = par_obj(elaborate(e.left), elaborate(e.right))
    elif isinstance(e, Hom):
        obj = hom_obj(elaborate(e.source), elaborate(e.target))
    else:
        raise ElaborationError(f"not a type expression: {e!r}")
    return obj


# ---------------------------------------------------------------------------
# corpus generation (round-trip testing)
# ---------------------------------------------------------------------------

def random_type_expr(rng, max_depth: int = 4) -> TypeExpr:
    """Random tree over the full grammar, dims kept small."""
    if max_depth <= 0 or rng.random() < 0.3:
        kind = ("FO", "ANY", "CLA", "I")[int(rng.integers(4))]
        if kind == "I":
            return Atom("I")
        return Atom(kind, int(rng.integers(1, 4)))
    roll = int(rng.integers(5))
    if roll == 0:
        return Dual(random_type_expr(rng, max_depth - 1))
    sub = lambda: random_type_expr(rng, max_depth - 1)
    if roll == 1:
        return Tensor(sub(), sub())
    if roll == 2:
        return Seq(sub(), sub())
    if roll == 3:
        return Par(sub(), sub())
    return Hom(sub(), sub())
