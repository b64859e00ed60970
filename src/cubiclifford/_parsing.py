"""Shared recursive-descent parser for the small expression grammar.

Tokens: identifiers, integer and ``p/q`` literals, ``+ - * ^`` and
parentheses; whitespace insignificant. The caller supplies two callables,
one making a value of a rational literal and one of a name; the operators
are Python's own ``+ - * **`` and unary ``-`` on those values, applied left
to right in the order the grammar reads them. So the same grammar serves
scalar literals (``Scalar`` values), the two term-map parsers
(``spoly.RawTerms`` values: one unnormalized raw map per value, normalized
once when the whole expression is read) and ``reduce_text`` in the generic
algebra (raw terms that become normal forms where a product or a power of
sums is cheaper in the algebra).
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import ParseError

_OPS = set("+-*^()/")


def tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdecimal():  # what int() reads; isdigit() also admits superscripts
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # past the interpreter's int<->str digit limit
                raise ParseError(
                    f"integer literal of {j - i} digits exceeds the limit of "
                    f"{sys.get_int_max_str_digits()}",
                    i,
                ) from None
            tokens.append(("int", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class ExprParser:
    """Grammar:  expr := term (('+'|'-') term)*
                 term := factor ('*' factor)*
                 factor := '-' factor | primary ('^' INT)*
                 primary := NAME | INT ['/' INT] | '(' expr ')'
    """

    def __init__(self, text, const, symbol):
        """``const(q)`` makes a value of the Fraction q, ``symbol(name, pos)``
        of a name found at offset pos (or raises)."""
        self.tokens = tokenize(text)
        self.pos = 0
        self.const = const
        self.symbol = symbol

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return value

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            value = value * self.factor()
        return value

    def factor(self):
        if self.peek()[0] == "-":
            self.advance()
            return -self.factor()
        value = self.primary()
        while self.peek()[0] == "^":
            self.advance()
            tok = self.expect("int")
            value = value ** tok[1]
        return value

    def primary(self):
        tok = self.advance()
        kind, val, pos = tok
        if kind == "int":
            if self.peek()[0] == "/":
                self.advance()
                den = self.expect("int")
                if den[1] == 0:
                    raise ParseError("zero denominator", den[2])
                return self.const(Fraction(val, den[1]))
            return self.const(Fraction(val))
        if kind == "name":
            return self.symbol(val, pos)
        if kind == "(":
            value = self.expr()
            self.expect(")")
            return value
        raise ParseError(f"unexpected token {val!r}", pos)
