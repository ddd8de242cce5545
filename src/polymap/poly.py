"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a map from monomials to nonzero Fraction coefficients,
where a monomial is an exponent tuple with one entry per variable of a
fixed :class:`VarContext`:

    x^2*y - 3   over (x, y)   ->   {(2, 1): 1, (0, 0): -3}

The zero polynomial is the empty map.  Storage is canonical and
independent of any monomial order, so equality is plain term-map
equality; orders only matter for leading terms and printing.  A
``Poly`` holds its context and its term map and nothing else, so it is
immutable and safe to share between threads.

Stored coefficients are always ``Fraction``.  Inside a routine that
multiplies (products, powers, substitution, and the division loop
of ``groebner``) a coefficient that is an integer travels as a
plain ``int`` instead (:func:`_integral`), so ``Fraction`` arithmetic is
paid only for the others, and the result goes back to ``Fraction`` once,
when its term map is stored (:func:`_stored`).  A :class:`Powers` keeps
the powers of one substitution's images in that working form, so that
many substitutions through the same images build each power once.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from operator import add, sub
from typing import Iterable, Mapping, Sequence, Union

from .errors import ContextMismatchError, PolymapError, UnknownVariableError
from .orders import GREVLEX, MonomialOrder
from .values import Value

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_']*\Z")


class VarContext(Value):
    """An ordered tuple of distinct variable names, fixing a polynomial ring.

    Two contexts are equal when their names are; a context never equals
    the bare tuple of its names."""

    __slots__ = ("names", "_index")
    _fields = ("names",)

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        seen = set()
        for name in names:
            if not _NAME_RE.match(name):
                raise UnknownVariableError(f"invalid variable name {name!r}")
            if name in seen:
                raise UnknownVariableError(f"duplicate variable name {name!r}")
            seen.add(name)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    @property
    def arity(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __iter__(self):
        return iter(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariableError(f"unknown variable {name!r} in context {self.names}") from None

    def fresh_name(self, base: str) -> str:
        """A name not present in this context, derived from ``base`` by priming."""
        name = base
        while name in self._index:
            name += "'"
        return name

    def extended(self, extra: Iterable[str]) -> "VarContext":
        return VarContext(self.names + tuple(extra))

    def __str__(self) -> str:
        return "(" + ", ".join(self.names) + ")"


def _scalar_text(value: Fraction) -> str:
    try:
        return str(value)
    except ValueError:  # more digits than Python's integer string conversion limit
        raise PolymapError(f"cannot print a coefficient of more than {sys.get_int_max_str_digits()} digits") from None


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("ctx", "_terms")

    def __init__(self, ctx: VarContext, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            arity = ctx.arity
            for mono, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff == 0:
                    continue
                if len(mono) != arity or any(e < 0 for e in mono):
                    raise ValueError(f"bad exponent tuple {mono!r} for context {ctx}")
                clean[tuple(mono)] = coeff
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return _raw, (self.ctx, self._terms)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ctx: VarContext) -> "Poly":
        return Poly(ctx)

    @staticmethod
    def one(ctx: VarContext) -> "Poly":
        return Poly.constant(ctx, 1)

    @staticmethod
    def constant(ctx: VarContext, value: Scalar) -> "Poly":
        return Poly(ctx, {(0,) * ctx.arity: Fraction(value)})

    @staticmethod
    def variable(ctx: VarContext, name: str) -> "Poly":
        exps = [0] * ctx.arity
        exps[ctx.index(name)] = 1
        return Poly(ctx, {tuple(exps): Fraction(1)})

    @staticmethod
    def variables(ctx: VarContext) -> list["Poly"]:
        return [Poly.variable(ctx, n) for n in ctx.names]

    # -- basic structure ---------------------------------------------------

    def terms(self) -> Iterable[tuple[Monomial, Fraction]]:
        return self._terms.items()

    def monomials(self) -> Iterable[Monomial]:
        return self._terms.keys()

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(tuple(mono), Fraction(0))

    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(not any(m) for m in self._terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (0 for the zero polynomial)."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self._terms.get((0,) * self.ctx.arity, Fraction(0))

    def total_degree(self) -> int:
        """Max total degree of a term; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(m) for m in self._terms)

    def degree_in(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        i = self.ctx.index(var)
        if not self._terms:
            return -1
        return max(m[i] for m in self._terms)

    def variables_used(self) -> set[str]:
        used: set[str] = set()
        for mono in self._terms:
            for i, e in enumerate(mono):
                if e:
                    used.add(self.ctx.names[i])
        return used

    # -- order-dependent views --------------------------------------------

    def leading_monomial(self, order: MonomialOrder = GREVLEX) -> Monomial:
        """The largest monomial under ``order``."""
        if not self._terms:
            raise ValueError("the zero polynomial has no leading monomial")
        return max(self._terms, key=order.key_function(self.ctx.arity))

    def leading_coefficient(self, order: MonomialOrder = GREVLEX) -> Fraction:
        return self._terms[self.leading_monomial(order)]

    def sorted_terms(self, order: MonomialOrder = GREVLEX) -> list[tuple[Monomial, Fraction]]:
        key = order.key_function(self.ctx.arity)
        return sorted(self._terms.items(), key=lambda t: key(t[0]), reverse=True)

    # -- ring arithmetic ----------------------------------------------------

    def _check_ctx(self, other: "Poly") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatchError(f"contexts differ: {self.ctx} vs {other.ctx}")

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        return self._plus(other, add)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _raw(self.ctx, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        return self._plus(other, sub)

    def _plus(self, other: "Poly | Scalar", op) -> "Poly":
        """``self + other`` when ``op`` is ``operator.add``, ``self - other``
        when it is ``operator.sub``: one loop, and a term of ``other`` is
        negated only where ``self`` has no term to subtract it from."""
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.ctx, other)
        self._check_ctx(other)
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc = out.get(mono)
            if acc is None:
                out[mono] = coeff if op is add else -coeff
            else:
                acc = op(acc, coeff)
                if acc:
                    out[mono] = acc
                else:
                    del out[mono]
        return _raw(self.ctx, out)

    def __rsub__(self, other: Scalar) -> "Poly":
        return Poly.constant(self.ctx, other) - self

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if other == 0:
                return Poly.zero(self.ctx)
            return _raw(self.ctx, {m: c * other for m, c in self._terms.items()})
        self._check_ctx(other)
        return _raw(self.ctx, _stored(_mul_terms(_integral_terms(self._terms), _integral_terms(other._terms))))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        return _raw(self.ctx, _stored(Powers(self.ctx, (self,)).power(0, exponent)))

    def monic(self, order: MonomialOrder = GREVLEX) -> "Poly":
        if not self._terms:
            return self
        lc = self.leading_coefficient(order)
        if lc == 1:
            return self
        inv = Fraction(1) / lc
        return _raw(self.ctx, {m: c * inv for m, c in self._terms.items()})

    # -- calculus / substitution -------------------------------------------

    def derivative(self, var: str) -> "Poly":
        """Formal partial derivative."""
        i = self.ctx.index(var)
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            e = mono[i]
            if e == 0:
                continue
            lowered = mono[:i] + (e - 1,) + mono[i + 1:]
            out[lowered] = out.get(lowered, Fraction(0)) + coeff * e
        return Poly(self.ctx, out)

    def substitute(self, assignment: "Mapping[str, Poly] | Powers") -> "Poly":
        """Ring morphism sending each context variable to a polynomial.

        ``assignment`` maps every variable of this context to an image,
        all images over one target context.  It may instead be a
        :class:`Powers`, whose i-th image is the i-th variable's, over the
        ``Powers``'s own ring; the powers it builds here serve every later
        substitution through it.
        """
        if isinstance(assignment, Powers):
            powers = assignment
            if len(powers) != self.ctx.arity:
                raise ContextMismatchError(f"{len(powers)} images for the {self.ctx.arity} variables of {self.ctx}")
        else:
            for name in self.ctx.names:
                if name not in assignment:
                    raise UnknownVariableError(f"missing assignment for variable {name!r}")
            images = [assignment[name] for name in self.ctx.names]
            powers = Powers(images[0].ctx if images else self.ctx, images)
        power = powers.power
        one = powers.one
        # Each term's power product is added, times its coefficient, into
        # one dict; the last factor is multiplied straight into it.
        out: dict[Monomial, Scalar] = {}
        for mono, coeff in self._terms.items():
            factors = [power(i, e) for i, e in enumerate(mono) if e] or [one]
            product = factors[0] if len(factors) > 1 else one
            for factor in factors[1:-1]:
                product = _mul_terms(product, factor)
            _add_product(out, product, factors[-1], _integral(coeff))
        return _raw(powers.ctx, _stored(out))

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """Exact value at a rational point (one value per context variable)."""
        if len(point) != self.ctx.arity:
            raise ValueError(f"point has {len(point)} coordinates, context needs {self.ctx.arity}")
        values = [Fraction(v) for v in point]
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            term = coeff
            for v, e in zip(values, mono):
                if e:
                    term *= v ** e
            total += term
        return total

    def coefficients_in(self, var: str) -> dict[int, "Poly"]:
        """View as univariate in ``var``: degree -> coefficient polynomial.

        Coefficients stay in the same context with the variable's exponent
        cleared, so they never involve ``var``.
        """
        i = self.ctx.index(var)
        buckets: dict[int, dict[Monomial, Fraction]] = {}
        for mono, coeff in self._terms.items():
            e = mono[i]
            stripped = mono[:i] + (0,) + mono[i + 1:]
            buckets.setdefault(e, {})[stripped] = coeff
        return {e: _raw(self.ctx, terms) for e, terms in buckets.items()}

    def transport(self, target: VarContext, rename: Mapping[str, str] | None = None) -> "Poly":
        """Re-express over another context, optionally renaming variables.

        Unmapped variables keep their names; a variable actually used by
        the polynomial must exist (after renaming) in the target context.
        """
        rename = rename or {}
        positions: list[int | None] = []
        for name in self.ctx.names:
            mapped = rename.get(name, name)
            positions.append(target.index(mapped) if mapped in target else None)
        out: dict[Monomial, Fraction] = {}
        merged = False
        zero = [0] * target.arity
        for mono, coeff in self._terms.items():
            exps = zero[:]
            for i, e in enumerate(mono):
                if not e:
                    continue
                j = positions[i]
                if j is None:
                    raise UnknownVariableError(
                        f"variable {self.ctx.names[i]!r} used by {self} has no image in {target}"
                    )
                exps[j] += e
            key = tuple(exps)
            if key in out:  # a rename merged two variables
                out[key] += coeff
                merged = True
            else:
                out[key] = coeff
        return _raw(target, {m: c for m, c in out.items() if c} if merged else out)

    # -- equality / printing -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            if isinstance(other, (int, Fraction)):
                return self == Poly.constant(self.ctx, other)
            return NotImplemented
        return self.ctx == other.ctx and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.ctx, frozenset(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        """Canonical form: descending grevlex, explicit ``*`` and ``^``."""
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for mono, coeff in self.sorted_terms(GREVLEX):
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.ctx.names, mono)
                if e
            ]
            magnitude = abs(coeff)
            if not factors:
                body = _scalar_text(magnitude)
            elif magnitude == 1:
                body = "*".join(factors)
            else:
                body = "*".join([_scalar_text(magnitude)] + factors)
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _raw(ctx: VarContext, terms: dict[Monomial, Fraction]) -> Poly:
    """Internal constructor for already-canonical term maps (no copies)."""
    p = object.__new__(Poly)
    object.__setattr__(p, "ctx", ctx)
    object.__setattr__(p, "_terms", terms)
    return p


# -- coefficients inside a routine ---------------------------------------------------


def _integral(c: Scalar) -> Scalar:
    """``c`` as a plain int when it is an integer, else unchanged."""
    return c.numerator if c.denominator == 1 else c


def _integral_terms(terms: Mapping[Monomial, Fraction]) -> dict[Monomial, Scalar]:
    return {m: _integral(c) for m, c in terms.items()}


def _stored(terms: Mapping[Monomial, Scalar]) -> dict[Monomial, Fraction]:
    """A working term map as ``Poly`` stores it: zero terms dropped and
    every coefficient a ``Fraction``.  Equal integers become one shared
    ``Fraction``."""
    shared: dict[int, Fraction] = {}
    out = {}
    for m, c in terms.items():
        if not c:
            continue
        if type(c) is int:
            f = shared.get(c)
            if f is None:
                f = shared[c] = Fraction(c)
            c = f
        out[m] = c
    return out


def _add_product(out: dict[Monomial, Scalar], a: Mapping[Monomial, Scalar],
                 b: Mapping[Monomial, Scalar], scale: Scalar = 1) -> None:
    """Add ``scale * a * b`` into ``out``; a term that cancels stays, as zero."""
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    for ma, ca in a.items():
        ca *= scale
        for mb, cb in b.items():
            mono = tuple(map(add, ma, mb))
            acc = get(mono)
            out[mono] = ca * cb if acc is None else acc + ca * cb


def _mul_terms(a: Mapping[Monomial, Scalar], b: Mapping[Monomial, Scalar]) -> dict[Monomial, Scalar]:
    out: dict[Monomial, Scalar] = {}
    _add_product(out, a, b)
    return out


class Powers:
    """The images of a substitution, with each image's powers built once.

    ``Powers(ctx, images)`` sends the i-th variable of a substituted
    polynomial's ring to ``images[i]``, a polynomial over ``ctx``.  Every
    power is a working term map (``int`` where integral, zero terms
    dropped), built on first use and kept for the life of this object.
    A stored power is never changed, and when two threads build the same
    power the first one stored is the one kept, so substitutions through
    one ``Powers`` may share it.
    """

    __slots__ = ("ctx", "one", "_cache")

    def __init__(self, ctx: VarContext, images: Sequence[Poly]):
        for img in images:
            if img.ctx != ctx:
                raise ContextMismatchError("assignment images live in different contexts")
        self.ctx = ctx
        self.one = {(0,) * ctx.arity: 1}
        self._cache = [{0: self.one, 1: _integral_terms(img._terms)} for img in images]

    def __len__(self) -> int:
        return len(self._cache)

    def power(self, i: int, e: int) -> dict[Monomial, Scalar]:
        """The ``e``-th power of image ``i``: the next power up from one
        already kept, else the square of the half power."""
        cache = self._cache[i]
        got = cache.get(e)
        if got is None:
            if e & 1 or e - 1 in cache:
                got = _mul_terms(self.power(i, e - 1), cache[1])
            else:
                half = self.power(i, e >> 1)
                got = _mul_terms(half, half)
            got = cache.setdefault(e, {m: c for m, c in got.items() if c})
        return got


def poly_matrix_det(rows: list[list[Poly]], ctx: VarContext) -> Poly:
    """Determinant of a square matrix of polynomials over ``ctx``, by
    division-free cofactor expansion along the first row: exact, and at
    the sizes of Jacobians of desk-scale maps (3x3 at most) no minor is
    met twice often enough for a memo to pay."""
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")

    def minor(cols: tuple[int, ...]) -> Poly:
        # Expand along row n - len(cols), over the still-available columns.
        if not cols:
            return Poly.one(ctx)
        i = n - len(cols)
        total = Poly.zero(ctx)
        for pos, j in enumerate(cols):
            entry = rows[i][j]
            if entry.is_zero():
                continue
            contribution = entry * minor(cols[:pos] + cols[pos + 1:])
            total = total + contribution if pos % 2 == 0 else total - contribution
        return total

    return minor(tuple(range(n)))
