"""The small expression grammar: one tokenizer, a flat scanner for plain
sums of monomial terms, and a recursive-descent parser for the rest.

Tokens: identifiers, integer and ``p/q`` literals, ``+ - * ^`` and
parentheses; whitespace insignificant.

``ExprParser`` reads the whole grammar. The caller supplies two callables,
one making a value of a rational literal and one of a name; the operators
are Python's own ``+ - * **`` and unary ``-`` on those values, applied left
to right in the order the grammar reads them. So the same grammar serves
scalar literals (``Scalar`` values), the general route of the two term-map
parsers (``spoly.RawTerms`` values, charged to a ``WorkBudget``: one
unnormalized raw map per value, normalized once when the whole expression
is read) and ``reduce_text`` in the generic algebra (raw terms that become
normal forms where a product or a power of sums is cheaper in the algebra).

``scan_sum`` reads, in one pass over the same tokens, the texts that are
plain sums of monomial terms, which is what ``Terms.__str__`` prints:

    sum    := ['-'] term (('+'|'-') ['-'] term)*
    term   := factor ('*' factor)*
    factor := INT ['/' INT] | NAME ['^' INT]
            | '(' ['-'] INT ['/' INT] ('+'|'-') [INT ['/' INT] '*'] 'w' ')'

The parenthesised factor is a coefficient a + b*w as ``Scalar.__str__``
prints it, such as ``(2+w)`` or ``(-1/2+3/4*w)``; there and as a NAME, ``w``
is the cube root of unity, w^2 = -1 - w. The scanner knows no ring and
raises nothing: it returns None for any other token list, and for a zero
denominator. The term-map parsers (``spoly.RawRing.parse``) then hand the
same tokens to ``ExprParser``, which raises as the text deserves.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import BudgetExceeded, ParseError

_OPS = set("+-*^()/")


def tokenize(text: str):
    """The tokens of ``text``: (kind, value, offset) triples, ending in one
    of kind "end". A run of decimal digits (what ``int`` reads;
    ``isdigit`` also admits superscripts) is one "int", and a run of
    letters, digits and underscores that starts with a letter or an
    underscore is one "name"; each run is cut where its first character
    of another class starts, in one pass over the characters."""
    tokens = []
    append = tokens.append
    start, digits = -1, False  # the offset of the run being read, and its class
    for i, ch in enumerate(text + " "):  # the space ends a run at the end of text
        if start >= 0:
            if ch.isdecimal() if digits else ch.isalnum() or ch == "_":
                continue
            if not digits:
                append(("name", text[start:i], start))
            else:
                try:
                    append(("int", int(text[start:i]), start))
                except ValueError:  # past the interpreter's int<->str digit limit
                    raise ParseError(
                        f"integer literal of {i - start} digits exceeds the limit of "
                        f"{sys.get_int_max_str_digits()}",
                        start,
                    ) from None
            start = -1
        if ch in _OPS:
            append((ch, ch, i))
        elif ch.isdecimal():
            start, digits = i, True
        elif ch.isalpha() or ch == "_":
            start, digits = i, False
        elif not ch.isspace():
            raise ParseError(f"unexpected character {ch!r}", i)
    append(("end", None, len(text)))
    return tokens


class ExprParser:
    """Grammar:  expr := term (('+'|'-') term)*
                 term := factor ('*' factor)*
                 factor := '-' factor | primary ('^' INT)*
                 primary := NAME | INT ['/' INT] | '(' expr ')'
    """

    def __init__(self, text, const, symbol):
        """``const(q)`` makes a value of the Fraction q, ``symbol(name, pos)``
        of a name found at offset pos (or raises). ``text`` is a string or
        the token list ``tokenize`` made of one."""
        self.tokens = tokenize(text) if isinstance(text, str) else text
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


def _fraction(tokens, i):
    """(numerator, denominator, next index) of the INT ['/' INT] at ``i``,
    or None when there is none or its denominator is 0."""
    kind, num, _ = tokens[i]
    if kind != "int":
        return None
    if tokens[i + 1][0] != "/":
        return num, 1, i + 1
    kind, den, _ = tokens[i + 2]
    if kind != "int" or not den:
        return None
    return num, den, i + 3


def _coefficient(tokens, i):
    """(A, B, D, next index) of the coefficient '(' ... ')' whose '(' is at
    ``i``, the value (A + B*w)/D, or None when it is not one."""
    sign = 1
    if tokens[i + 1][0] == "-":
        sign, i = -1, i + 1
    found = _fraction(tokens, i + 1)
    if found is None:
        return None
    an, ad, i = found
    op = tokens[i][0]
    if op != "+" and op != "-":
        return None
    found = _fraction(tokens, i + 1)
    if found is None:
        bn, bd, i = 1, 1, i + 1
    else:
        bn, bd, i = found
        if tokens[i][0] != "*":
            return None
        i += 1
    kind, name, _ = tokens[i]
    if kind != "name" or name != "w" or tokens[i + 1][0] != ")":
        return None
    return sign * an * bd, (bn if op == "+" else -bn) * ad, ad * bd, i + 2


def scan_sum(tokens):
    """The terms of the token list ``tokens`` if it spells a plain sum of
    monomial terms (the grammar above), else None.

    Each term is (a, b, d, w, names, exponents): its coefficient, the
    product of its sign, literals, parenthesised coefficients and powers
    of w, as (a + b*w)/d with w^2 = -1 - w; whether it names w; its other
    names as (name, exponent) in the order read, the exponent 1 where none
    is written; and the sum of those exponents."""
    terms = []
    i, sign = 0, 1
    while True:
        a, b, d, w, names, exponents = sign, 0, 1, False, [], 0
        if tokens[i][0] == "-":
            a, i = -a, i + 1
        while True:
            kind, val, _ = tokens[i]
            if kind == "name":
                n = 1
                if tokens[i + 1][0] == "^":
                    kind, n, _ = tokens[i + 2]
                    if kind != "int":
                        return None
                    i += 2
                i += 1
                if val == "w":
                    w = True
                    for _ in range(n % 3):  # (a + b*w)*w = -b + (a - b)*w
                        a, b = -b, a - b
                else:
                    names.append((val, n))
                    exponents += n
            elif kind == "(":
                found = _coefficient(tokens, i)
                if found is None:
                    return None
                c, e, cd, i = found
                be = b * e
                a, b, d, w = a * c - be, a * e + b * c - be, d * cd, True
            else:
                found = _fraction(tokens, i)
                if found is None:
                    return None
                n, nd, i = found
                a, b, d = a * n, b * n, d * nd
            if tokens[i][0] != "*":
                break
            i += 1
        terms.append((a, b, d, w, names, exponents))
        kind = tokens[i][0]
        if kind == "end":
            return terms
        if kind != "+" and kind != "-":
            return None
        sign, i = (1 if kind == "+" else -1), i + 1


class WorkBudget:
    """Work units charged against ``limit``: the count of the general parse
    route (``spoly.RawRing.parse``) and of ``reduce_text``. ``task`` names
    the work in the message of the ``BudgetExceeded`` that ends it."""

    __slots__ = ("task", "limit", "used")

    def __init__(self, task: str, limit: int):
        self.task = task
        self.limit = limit
        self.used = 0

    def charge(self, n: int):
        self.used += n
        if self.used > self.limit:
            raise BudgetExceeded(
                f"{self.task} needs more than its budget of {self.limit} work units "
                f"({self.used} used)"
            )
