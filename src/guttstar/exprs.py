"""Expression grammar for algebra elements, and the canonical printer.

grammar:
    expr     :=  ['-'] term (('+' | '-') term)*
    term     :=  factor ('*'? factor)*          -- juxtaposition multiplies
    factor   :=  atom ('^' INT)?
    atom     :=  RATIONAL | 'z' | NAME | '(' expr ')'
    RATIONAL :=  INT ('/' INT)?

NAME resolves against the algebra's basis; ``z`` is reserved for the
deformation variable.  Parse errors carry the offending position.  An
optional degree bound refuses a power or product above it before building
it; an exponent counts against the bound even on a constant base.  The
printer emits one fully expanded term per (monomial, z-power) pair, ordered
by degree, multi-index and z-exponent, in a form the parser accepts again.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Union

from .liealg import LieAlgebra
from .sym import SymElement, sym_mul
from .zpoly import PolyZ


class ExprError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DegreeError(ExprError):
    """A power or product above the parser's degree bound."""


_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()])|\s+")
Token = tuple[str, Union[int, str], int]


def _tokenize(text: str) -> list[Token]:
    """(kind, value, position) of each token; an int token's value is its int."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ExprError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "int":
            try:
                tokens.append(("int", int(m.group()), pos))
            except ValueError:  # more digits than int() converts
                raise ExprError(f"{m.end() - pos}-digit literal is too long", pos) from None
        elif m.lastgroup:
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, algebra: LieAlgebra, text: str, max_degree: Optional[int] = None):
        self.algebra = algebra
        self.max_degree = max_degree
        self.tokens = _tokenize(text)
        self.index = 0
        self.end = len(text)
        self.names = {name: i for i, name in enumerate(algebra.basis_names)}
        if "z" in self.names:
            raise ExprError("basis name 'z' collides with the deformation variable", 0)

    def peek(self) -> Token:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return ("end", "", self.end)

    def take(self) -> Token:
        tok = self.peek()
        self.index += 1
        return tok

    def at_op(self, *ops: str) -> bool:
        kind, value, _ = self.peek()
        return kind == "op" and value in ops

    def parse(self) -> SymElement:
        value = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected token {text!r}", pos)
        return value

    def expr(self) -> SymElement:
        negate = False
        if self.at_op("+", "-"):
            negate = self.take()[1] == "-"
        total = self.term()
        if negate:
            total = -total
        while self.at_op("+", "-"):
            op = self.take()[1]
            nxt = self.term()
            total = total - nxt if op == "-" else total + nxt
        return total

    def bound(self, degree: int, pos: int) -> None:
        """Refuse a degree above the parser's bound, if it has one."""
        if self.max_degree is not None and degree > self.max_degree:
            raise DegreeError(f"degree {degree} above the limit {self.max_degree}", pos)

    def term(self) -> SymElement:
        total = self.factor()
        while True:
            if self.at_op("*"):
                self.take()
            elif not (self.peek()[0] in ("int", "name") or self.at_op("(")):
                return total
            pos = self.peek()[2]
            nxt = self.factor()
            self.bound(max(total.max_degree, 0) + max(nxt.max_degree, 0), pos)
            total = sym_mul(total, nxt)

    def factor(self) -> SymElement:
        base = self.atom()
        if self.at_op("^"):
            self.take()
            kind, value, pos = self.take()
            if kind != "int":
                raise ExprError("exponent must be a nonnegative integer", pos)
            self.bound(max(base.max_degree, 1) * value, pos)
            return base**value
        return base

    def atom(self) -> SymElement:
        kind, value, pos = self.take()
        if kind == "int":
            if self.at_op("/"):
                self.take()
                kind2, value2, pos2 = self.take()
                if kind2 != "int":
                    raise ExprError("denominator must be an integer", pos2)
                if value2 == 0:
                    raise ExprError("zero denominator", pos2)
                return SymElement.unit(self.algebra, Fraction(value, value2))
            return SymElement.unit(self.algebra, value)
        if kind == "name":
            if value == "z":
                return SymElement.unit(self.algebra, PolyZ.z())
            idx = self.names.get(value)
            if idx is None:
                raise ExprError(f"unknown basis name {value!r}", pos)
            return SymElement.basis(self.algebra, idx)
        if kind == "op" and value == "(":
            inner = self.expr()
            if not self.at_op(")"):
                raise ExprError("expected ')'", self.peek()[2])
            self.take()
            return inner
        raise ExprError(f"unexpected token {value!r}" if kind != "end" else "unexpected end", pos)


def parse_element(
    algebra: LieAlgebra, text: str, max_degree: Optional[int] = None
) -> SymElement:
    """The element the text denotes; ``DegreeError`` past ``max_degree``."""
    return _Parser(algebra, text, max_degree).parse()


def format_element(x: SymElement) -> str:
    """Canonical rendering; parse_element(format_element(x)) == x."""
    names = x.algebra.basis_names
    atoms: list[tuple[str, bool]] = []
    for alpha, coeff in sorted(x.items(), key=lambda t: (sum(t[0]), t[0])):
        for z_exp, c in sorted(coeff.items()):
            factors = []
            if abs(c) != 1 or (z_exp == 0 and sum(alpha) == 0):
                mag = abs(c)
                factors.append(str(mag) if mag.denominator == 1 else f"({mag})")
            if z_exp == 1:
                factors.append("z")
            elif z_exp > 1:
                factors.append(f"z^{z_exp}")
            for i, a in enumerate(alpha):
                if a == 1:
                    factors.append(names[i])
                elif a > 1:
                    factors.append(f"{names[i]}^{a}")
            atoms.append(("*".join(factors), c < 0))
    if not atoms:
        return "0"
    out = []
    for k, (text, negative) in enumerate(atoms):
        if k == 0:
            out.append(f"-{text}" if negative else text)
        else:
            out.append(f" - {text}" if negative else f" + {text}")
    return "".join(out)
