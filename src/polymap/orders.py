"""Monomial orders on exponent vectors.

An order has one representation: its compiled key.  ``key_function(arity)``
returns a plain callable on exponent tuples of that length, and ``m1`` is
smaller than ``m2`` exactly when ``key(m1) < key(m2)`` under tuple
comparison.  Every order here is a well-order compatible with
multiplication, so the constant monomial is minimal and division
algorithms terminate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import itemgetter, neg
from typing import Callable

Monomial = tuple[int, ...]


def _lex_key(exponents: Monomial) -> tuple:
    return exponents


def _grlex_key(exponents: Monomial) -> tuple:
    return (sum(exponents), exponents)


def _grevlex_key(exponents: Monomial) -> tuple:
    # Graded, ties broken by the smallest *last* difference: reverse and
    # negate so plain tuple comparison does the right thing.
    return (sum(exponents), tuple(map(neg, reversed(exponents))))


def _picker(indices: tuple[int, ...]) -> Callable[[Monomial], tuple]:
    """The entries of an exponent tuple at ``indices``, as a tuple."""
    if len(indices) >= 2:
        return itemgetter(*indices)
    return lambda exponents: tuple(exponents[i] for i in indices)


@dataclass(frozen=True)
class MonomialOrder:
    """Base class; subclasses are hashable and usable as cache keys."""

    def key_function(self, arity: int) -> Callable[[Monomial], tuple]:
        """The order compiled for exponent tuples of length ``arity``."""
        raise NotImplementedError


@dataclass(frozen=True)
class Lex(MonomialOrder):
    def key_function(self, arity: int):
        return _lex_key

    def __str__(self) -> str:
        return "lex"


@dataclass(frozen=True)
class GrLex(MonomialOrder):
    def key_function(self, arity: int):
        return _grlex_key

    def __str__(self) -> str:
        return "grlex"


@dataclass(frozen=True)
class GrevLex(MonomialOrder):
    def key_function(self, arity: int):
        return _grevlex_key

    def __str__(self) -> str:
        return "grevlex"


@dataclass(frozen=True)
class Block(MonomialOrder):
    """Elimination order: the head variables dominate the rest.

    Monomials are compared grevlex on the head block first, then grevlex
    on the remaining variables, so any monomial containing a head variable
    beats every head-free monomial.  ``head`` holds variable positions.
    The compiled key is one flat tuple, the two grevlex keys laid end to
    end: ``(sum(head), -head reversed..., sum(tail), -tail reversed...)``.
    The head part has a fixed length, so it orders exactly as the pair
    of grevlex keys would.
    """

    head: tuple[int, ...]

    @staticmethod
    def first(k: int) -> "Block":
        """The order whose head block is the first ``k`` context variables."""
        return Block(tuple(range(k)))

    @functools.cache
    def key_function(self, arity: int):
        head = _picker(self.head[::-1])
        tail = _picker(tuple(i for i in reversed(range(arity)) if i not in self.head))

        def key(exponents: Monomial) -> tuple:
            hd = head(exponents)
            tl = tail(exponents)
            return (sum(hd), *map(neg, hd), sum(tl), *map(neg, tl))

        return key

    def __str__(self) -> str:
        return f"block{list(self.head)}"


LEX = Lex()
GRLEX = GrLex()
GREVLEX = GrevLex()


def restriction(order: MonomialOrder, arity: int) -> MonomialOrder | None:
    """The order that ``order`` induces on the monomials in the first
    ``arity`` variables, or None when it is not known here.

    Those monomials are the longer exponent tuples with trailing zeros.
    Lex, grlex and grevlex each restrict to themselves.  A block order
    whose head lies inside the first ``arity`` variables restricts to
    the same block order; one whose head holds only later variables
    compares such monomials by its grevlex tail alone, that is by
    grevlex.  A block order with a head on both sides, or any other
    order, gets None.
    """
    if type(order) in (Lex, GrLex, GrevLex):
        return order
    if type(order) is Block:
        if all(i < arity for i in order.head):
            return order
        if all(i >= arity for i in order.head):
            return GREVLEX
    return None


ORDERS_BY_NAME = {"lex": LEX, "grlex": GRLEX, "grevlex": GREVLEX}
