"""Text format for polynomials.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('-' | '+') unary | power
    power  := atom ('^' INT)?
    atom   := INT | NAME | '(' expr ')'

Parentheses and unary signs nest at most ``_MAX_NESTING`` levels, counted
together; the first token past the bound is refused at its position.  A
power whose base has t terms expands to at most C(t + e - 1, e) terms;
one whose bound exceeds ``_MAX_POWER_TERMS``, or whose coefficients may
outgrow Python's integer string conversion limit, is refused at its ``^``
before anything is expanded.
``/`` is only legal when the divisor is a nonzero constant, so rational
literals like ``2/3`` parse while genuinely rational expressions such as
``y/x`` are rejected with a position-carrying error.  ``**`` is accepted
as a synonym for ``^``.  Printing (``str(poly)``) and :func:`parse_poly`
round-trip on canonical forms.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .errors import ParseError
from .poly import Poly, VarContext

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_']*)|(?P<op>\*\*|[-+*/^()]))"
)

# A nesting level costs at most five parser frames: 100 levels stay well
# inside Python's default recursion limit of 1000 at the CLI's call depth.
_MAX_NESTING = 100
# The most terms a power may expand to.  (t + 1)^199, the largest binomial
# power accepted, expands in about 0.1 s on a 2-vCPU Xeon host; the largest
# power in any fixture, demo, test or swept session has 6 terms.
_MAX_POWER_TERMS = 200


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_at]!r}", bad_at)
        if match.lastgroup == "op" and match.group("op") == "**":
            tokens.append(("op", "^", match.start("op")))
        else:
            kind = match.lastgroup
            tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, ctx: VarContext):
        self.text = text
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def nested(self, parse, pos: int) -> Poly:
        """``parse()`` one level deeper; the token at ``pos`` opens the level."""
        if self.depth == _MAX_NESTING:
            raise ParseError(f"nesting deeper than {_MAX_NESTING} levels", pos)
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    def parse(self) -> Poly:
        result = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r}", pos)
        return result

    def expr(self) -> Poly:
        result = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                result = result + rhs if value == "+" else result - rhs
            else:
                return result

    def term(self) -> Poly:
        result = self.unary()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.unary()
                if value == "*":
                    result = result * rhs
                else:
                    if not rhs.is_constant():
                        raise ParseError("division by a non-constant is not a polynomial", pos)
                    divisor = rhs.constant_value()
                    if divisor == 0:
                        raise ParseError("division by zero", pos)
                    result = result * (Fraction(1) / divisor)
            else:
                return result

    def unary(self) -> Poly:
        kind, value, pos = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            inner = self.nested(self.unary, pos)
            return -inner if value == "-" else inner
        return self.power()

    def power(self) -> Poly:
        base = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            ekind, evalue, epos = self.peek()
            if ekind != "int":
                raise ParseError("exponent must be a nonnegative integer literal", epos)
            self.advance()
            exponent = _literal(evalue, epos)
            if _power_terms_exceed(base.num_terms(), exponent):
                raise ParseError(f"power may expand to more than {_MAX_POWER_TERMS} terms", pos)
            if _power_digits_exceed(base, exponent):
                limit = sys.get_int_max_str_digits()
                raise ParseError(f"power's coefficient may exceed the limit of {limit} digits", pos)
            return base ** exponent
        return base

    def atom(self) -> Poly:
        kind, value, pos = self.advance()
        if kind == "int":
            return Poly.constant(self.ctx, _literal(value, pos))
        if kind == "name":
            if value not in self.ctx:
                raise ParseError(f"unknown variable {value!r}", pos)
            return Poly.variable(self.ctx, value)
        if kind == "op" and value == "(":
            inner = self.nested(self.expr, pos)
            self.expect_op(")")
            return inner
        raise ParseError(f"expected a number, variable or '(', got {value!r}" if value else "unexpected end of input", pos)


def _power_terms_exceed(terms: int, exponent: int) -> bool:
    """Whether C(terms + exponent - 1, exponent), the number of monomials of
    degree ``exponent`` in ``terms`` symbols and so a bound on the terms of
    a ``terms``-term polynomial to that power, exceeds ``_MAX_POWER_TERMS``.

    The binomial is built as C(n - k + i, i) for i = 1..k, which grows with
    i, and the loop stops as soon as it passes the bound, so a huge
    exponent costs one multiplication.
    """
    n, k = terms + exponent - 1, min(terms - 1, exponent)
    count = 1
    for i in range(1, k + 1):
        count = count * (n - k + i) // i
        if count > _MAX_POWER_TERMS:
            return True
    return False


def _power_digits_exceed(base: Poly, exponent: int) -> bool:
    """Whether a coefficient of ``base ** exponent`` may have more digits
    than Python's integer string conversion limit allows (a limit of 0 is
    none).  c^e has floor(e * log10(c)) + 1 digits, with c the largest
    numerator or denominator of ``base``; coefficients ±1 never grow."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    largest = max((max(abs(c.numerator), c.denominator) for _, c in base.terms()), default=0)
    return bool(limit) and largest > 1 and exponent * math.log10(largest) >= limit


def _literal(digits: str, pos: int) -> int:
    """An integer literal; one longer than Python's integer string
    conversion limit is refused at its position."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer literal exceeds the limit of {sys.get_int_max_str_digits()} digits", pos) from None


def parse_poly(text: str, ctx: VarContext) -> Poly:
    """Parse ``text`` into a canonical polynomial over ``ctx``."""
    return _Parser(text, ctx).parse()
