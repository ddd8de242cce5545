"""Groebner-basis kernel: division, Buchberger, elimination, membership,
radical membership, saturation and Krull dimension.

The kernel is deliberately plain Buchberger with the two classical pair
criteria and a normal selection strategy; inputs here are desk scale
(few variables, small degrees) and determinism matters more than raw
speed.  Reduced bases are canonical for (ideal, order): every run, under
any selection strategy, returns the identical monic reduced basis.

Every division runs one loop, ``_reduce_terms``, on term maps: a work
dict and a list of monic prepared divisors ``(lm, tail)`` in, the
remainder dict out.  It keeps its pending terms ordered, as heap
division does (Monagan & Pearce, "Sparse polynomial division using a
heap", J. Symb. Comp. 2011), so each monomial's order key is computed
once per call, when the monomial first enters the work set, and an
integral coefficient travels as a plain ``int`` (``poly._integral``).
``normal_form`` wraps the loop for ``Poly``s.  ``buchberger`` calls it
directly and builds no ``Poly`` until it returns: its elements are
divisors, each made once, an S-pair is formed from their tails alone,
and the final minimization and tail reduction work on the same divisors.
It ranks each critical pair once, when the pair is formed.  It returns a
``Basis``, the ``Poly``s with the divisors it ended with, and an
``Ideal`` caches that one object per order: every later reader of the
basis reads the divisors, and no ``Poly`` is asked for its leading
monomial.

An ideal built from another one plus extra generators (``Ideal.extended``,
``+``), on the same ring or on one that appends variables, starts its
Buchberger run from the other ideal's cached reduced basis (Gebauer &
Moeller, "On the installation of Buchberger's algorithm", J. Symb.
Comp. 1988), taken for the order that the new one restricts to on the
old variables (``orders.restriction``) and padded with zero exponents
for appended variables; any other order, or a ring whose names do not
begin with the old ring's, starts from the generators.  Reduced bases
are unique, so the seeded start changes no basis.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from bisect import insort
from fractions import Fraction
from operator import add, le, sub
from typing import Iterable, Iterator, Sequence

from .errors import ContextMismatchError
from .orders import Block, GREVLEX, MonomialOrder, restriction
from .poly import Monomial, Poly, Scalar, VarContext, _integral, _integral_terms, _raw, _stored


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def _mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def _mono_sub(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(sub, a, b))


Divisor = tuple[Monomial, list[tuple[Monomial, Scalar]]]


def _monic(terms: Iterable[tuple[Monomial, Scalar]]) -> Divisor:
    """Nonzero ``terms``, the first leading, prepared for division as
    ``(lm, tail)``: made monic, coefficients integral where they can be.
    Division by it leaves the remainder that division by their sum would."""
    terms = iter(terms)
    lm, lc = next(terms)
    if lc == 1:
        return lm, [(m, _integral(c)) for m, c in terms]
    return lm, [(m, _integral(Fraction(c, lc))) for m, c in terms]


def _divisor(g: Poly, order: MonomialOrder) -> Divisor:
    """The nonzero ``g`` prepared for division under ``order``."""
    lm = g.leading_monomial(order)
    return _monic([(lm, g._terms[lm]), *((m, c) for m, c in g._terms.items() if m != lm)])


def _prepared(basis: Sequence[Poly], order: MonomialOrder) -> Basis:
    """``basis`` as a ``Basis`` under ``order``: itself when it is one."""
    return basis if isinstance(basis, Basis) and basis.order == order else Basis(basis, order)


def _reduce_terms(work: dict[Monomial, Scalar], divisors: Sequence[Divisor], key) -> dict[Monomial, Scalar]:
    """The remainder of the term map ``work``, which it consumes, on
    division by the prepared ``divisors`` under the order of ``key``.

    Terms are reduced largest first.  The divisor picked at each step is
    the first one whose leading monomial divides the current leading
    monomial.  The remainder has no zero term and lists its terms in
    descending order, so its first term is its leading one.

    The pending terms are kept ordered: ``pending`` is an ascending list
    of ``(key, monomial)`` with one entry per monomial of ``work``, so
    each monomial's order key is computed once per call, when it enters
    ``work``.  A term that cancels keeps its entry with coefficient zero
    and is dropped when popped.

    Coefficients are ``int`` where integral and ``Fraction`` otherwise.
    Every divisor is monic, so a step subtracts the current coefficient
    times the divisor's tail, and nothing is divided.
    """
    pending = sorted((key(m), m) for m in work)
    remainder: dict[Monomial, Scalar] = {}
    while pending:
        lm = pending.pop()[1]
        lc = work.pop(lm)
        if not lc:
            continue
        for glm, tail in divisors:
            if _divides(glm, lm):
                break
        else:
            remainder[lm] = lc
            continue
        shift = _mono_sub(lm, glm)
        # The leading term cancels lm exactly; only the tail is subtracted.
        for gm, gc in tail:
            mono = _mono_mul(gm, shift)
            if mono in work:
                work[mono] -= lc * gc
            else:
                work[mono] = -lc * gc
                insort(pending, (key(mono), mono))
    return remainder


def normal_form(f: Poly, basis: Sequence[Poly], order: MonomialOrder = GREVLEX) -> Poly:
    """Remainder of multivariate division of ``f`` by ``basis``
    (``_reduce_terms``).

    Deterministic for a fixed basis tuple; canonical whenever the basis
    is a Groebner basis for ``order``.  The remainder keeps ``Poly``'s
    all-``Fraction`` coefficients.
    """
    if not basis:
        return f
    if any(g.ctx != f.ctx for g in basis):
        raise ContextMismatchError("normal_form: mixed contexts")
    divisors = _prepared(basis, order).divisors
    remainder = _reduce_terms(_integral_terms(f._terms), divisors, order.key_function(f.ctx.arity))
    return _raw(f.ctx, _stored(remainder))


def _s_terms(f: Divisor, g: Divisor) -> dict[Monomial, Scalar]:
    """x^a*f_tail - x^b*g_tail for two divisors, with x^a*lm(f) =
    x^b*lm(g) their lcm: the S-polynomial, whose leading terms cancel, so
    are never formed.  A term that cancels stays, as zero."""
    lcm = _mono_lcm(f[0], g[0])
    a, b = _mono_sub(lcm, f[0]), _mono_sub(lcm, g[0])
    work = {_mono_mul(m, a): c for m, c in f[1]}
    for m, c in g[1]:
        mono = _mono_mul(m, b)
        acc = work.get(mono)
        work[mono] = -c if acc is None else acc - c
    return work


def s_polynomial(f: Poly, g: Poly, order: MonomialOrder) -> Poly:
    """lcm/lt(f)*f - lcm/lt(g)*g, with lcm that of the leading monomials."""
    f._check_ctx(g)
    return _raw(f.ctx, _stored(_s_terms(_divisor(f, order), _divisor(g, order))))


class Basis(tuple):
    """A tuple of polynomials with its nonzero elements, in sequence,
    prepared for division under ``order`` as ``divisors``, here unless
    given, and never changed.  A reduced basis from ``buchberger`` comes
    with the divisors its run ended with."""

    def __new__(cls, polys: Iterable[Poly], order: MonomialOrder, divisors: list[Divisor] | None = None):
        basis = super().__new__(cls, polys)
        basis.order = order
        basis.divisors = [_divisor(g, order) for g in basis if g] if divisors is None else divisors
        return basis

    def leading_monomials(self) -> list[Monomial]:
        """The leading monomial of each nonzero element, in sequence."""
        return [lm for lm, _ in self.divisors]

    def __reduce__(self):
        return Basis, (tuple(self), self.order, self.divisors)

    def s_polynomials(self) -> Iterator[Poly]:
        """``s_polynomial`` of each pair of nonzero elements, pairs in combination order."""
        for f, g in itertools.combinations(self.divisors, 2):
            yield _raw(self[0].ctx, _stored(_s_terms(f, g)))


def _basis(ctx: VarContext, order: MonomialOrder, divisors: list[Divisor]) -> Basis:
    """The ``Basis`` under ``order`` of the polynomials that ``divisors`` prepare."""
    return Basis([_raw(ctx, _stored(dict([(lm, 1), *tail]))) for lm, tail in divisors], order, divisors)


def _moved(divisors: Sequence[Divisor], move) -> list[Divisor]:
    """``divisors`` with every monomial mapped by ``move``, which must keep
    each leading monomial leading under the order they are read in."""
    return [(move(lm), [(move(m), c) for m, c in tail]) for lm, tail in divisors]


def buchberger(
    generators: Iterable[Poly],
    order: MonomialOrder = GREVLEX,
    strategy: str = "normal",
    seed: Sequence[Poly] = (),
) -> Basis:
    """The unique monic reduced Groebner basis of the generated ideal.

    ``strategy`` picks the next critical pair: "normal" selects a pair of
    minimal lcm degree (ties by lcm order key and insertion index),
    "first" works first-in first-out.  By uniqueness of reduced bases the
    returned tuple does not depend on the strategy; exposing it lets the
    determinism claim be tested rather than assumed.

    ``seed``, when given, is a monic reduced Groebner basis under
    ``order`` over the generators' ring, and the result is the reduced
    basis of the ideal that the seed and the generators generate
    together; with no nonzero generator it is the seed, as a ``Basis``.
    The generators are reduced by the seed first, and only pairs with at
    least one element outside the seed are formed: the seed's own pairs
    reduce to zero, so the chain criterion may count them as done.  With
    no seed this is plain Buchberger.

    Every element is kept as its divisor, made once when it joins the
    basis; an S-pair is x^a*f_tail - x^b*g_tail (``_s_terms``).  The last
    step drops every element whose leading monomial another's divides (of
    equal ones, all but the first), reduces each kept tail by the other
    kept elements and returns them as a ``Basis``.  A seed that is a
    ``Basis`` under ``order`` is read through its divisors.  An unknown
    ``strategy`` raises ``ValueError`` and inputs over different rings
    raise ``ContextMismatchError``, before any work.
    """
    if strategy not in ("normal", "first"):
        raise ValueError(f"unknown selection strategy {strategy!r}")
    given = list(generators)
    if any(p.ctx != q.ctx for p, q in itertools.pairwise([*seed, *given])):
        raise ContextMismatchError("buchberger: generators and seed over different contexts")
    gens = [g for g in given if not g.is_zero()]
    seed = _prepared(seed, order)
    if not gens:
        return seed
    ctx = gens[0].ctx
    key = order.key_function(ctx.arity)

    # Redundant generators are pruned once, by the final minimization.
    divisors = list(seed.divisors)
    old = len(divisors)
    reduced = [_reduce_terms(_integral_terms(g._terms), divisors, key) for g in gens]
    divisors += [_monic(h.items()) for h in reduced if h]
    lms = [d[0] for d in divisors]

    # Live pairs with their lcm, and a heap of (rank, pair).  A pair's rank
    # is computed once, when it is added; ranks are unique by ticket.
    pairs: dict[tuple[int, int], Monomial] = {}
    queue: list[tuple[tuple, tuple[int, int]]] = []
    counter = itertools.count()

    def ordered(i: int, j: int) -> tuple[int, int]:
        return (i, j) if i < j else (j, i)

    def add_pair(i: int, j: int) -> None:
        pair = ordered(i, j)
        lcm = _mono_lcm(lms[pair[0]], lms[pair[1]])
        pairs[pair] = lcm
        ticket = next(counter)
        rank = (ticket,) if strategy == "first" else (sum(lcm), key(lcm), ticket)
        heapq.heappush(queue, (rank, pair))

    for i in range(len(divisors)):
        for j in range(max(i + 1, old), len(divisors)):
            add_pair(i, j)

    while queue:
        i, j = heapq.heappop(queue)[1]
        lcm = pairs.pop((i, j))
        # Buchberger's first criterion: coprime leading monomials.
        if lcm == _mono_mul(lms[i], lms[j]):
            continue
        # Chain criterion: some k with LM(k) | lcm and both side pairs done
        # (a pair of two seed elements is never formed, so it counts as done).
        if any(_divides(lms[k], lcm) and ordered(i, k) not in pairs and ordered(j, k) not in pairs
               for k in range(len(divisors)) if k != i and k != j):
            continue
        h = _reduce_terms(_s_terms(divisors[i], divisors[j]), divisors, key)
        if not h:
            continue
        divisors.append(_monic(h.items()))
        lms.append(divisors[-1][0])
        new = len(divisors) - 1
        for k in range(new):
            add_pair(k, new)

    # Minimize, sort by descending leading monomial, then reduce each kept
    # tail by the other kept elements.
    minimal = [d for i, d in enumerate(divisors)
               if not any(_divides(other, d[0]) and (other != d[0] or j < i)
                          for j, other in enumerate(lms) if j != i)]
    minimal.sort(key=lambda d: key(d[0]), reverse=True)
    tails = [_reduce_terms(dict(tail), minimal[:i] + minimal[i + 1:], key) for i, (_, tail) in enumerate(minimal)]
    return _basis(ctx, order, [_monic([(lm, 1), *t.items()]) for (lm, _), t in zip(minimal, tails)])


class Ideal:
    """An ideal of a polynomial ring, with cached reduced Groebner bases.

    The generator list is immutable; the per-order cache of the ``Basis``
    that ``buchberger`` returns is lock-protected and idempotent, so
    instances are safe to share between threads.

    An ideal made by ``extended`` or ``+`` keeps the ideal it extends, as
    its parent, and its own extra generators.  Its basis for an order
    starts from the parent's cached reduced basis for the restricted
    order (``orders.restriction``), and ``buchberger`` then works only on
    the extras.
    """

    __slots__ = ("ctx", "_own", "_generators", "_cache", "_lock", "_parent")

    def __init__(self, ctx: VarContext, generators: Iterable[Poly] = ()):
        gens = []
        for g in generators:
            if g.ctx != ctx:
                raise ContextMismatchError("generator context differs from ideal context")
            if not g.is_zero():
                gens.append(g)
        self.ctx = ctx
        self._own = tuple(gens)
        self._cache: dict[MonomialOrder, Basis] = {}
        self._lock = threading.Lock()
        # Both set by ``extended``.
        self._parent: Ideal | None = None
        self._generators = self._own

    @property
    def generators(self) -> tuple[Poly, ...]:
        """The nonzero generators: for an extended ideal, the parent's moved
        to this ring and then the extras."""
        return self._generators

    @staticmethod
    def zero(ctx: VarContext) -> "Ideal":
        return Ideal(ctx, ())

    @staticmethod
    def unit(ctx: VarContext) -> "Ideal":
        return Ideal(ctx, (Poly.one(ctx),))

    # -- bases ---------------------------------------------------------------

    def groebner_basis(self, order: MonomialOrder = GREVLEX) -> Basis:
        with self._lock:
            got = self._cache.get(order)
        if got is not None:
            return got
        parent = self._parent
        restricted = None
        if parent is not None and self.ctx.names[:parent.ctx.arity] == parent.ctx.names:
            restricted = restriction(order, parent.ctx.arity)
        if restricted is None:
            basis = buchberger(self.generators, order)
        else:
            # The parent's basis, padded with zero exponents for the appended
            # variables, is reduced under ``order`` too, with the same leads.
            seed = parent.groebner_basis(restricted)
            pad = (0,) * (self.ctx.arity - parent.ctx.arity)
            if pad:
                seed = _basis(self.ctx, order, _moved(seed.divisors, lambda m: m + pad))
            basis = buchberger(self._own, order, seed=seed)
        with self._lock:
            return self._cache.setdefault(order, basis)

    def normal_form(self, f: Poly, order: MonomialOrder = GREVLEX) -> Poly:
        if f.ctx != self.ctx:
            raise ContextMismatchError("normal_form argument context differs from ideal context")
        return normal_form(f, self.groebner_basis(order), order)

    # -- predicates ------------------------------------------------------------

    def contains(self, f: Poly) -> bool:
        return self.normal_form(f).is_zero()

    def radical_contains(self, f: Poly) -> bool:
        """Membership in the radical, by the cheapest sound test first.

        ``f`` vanishes on the vanishing locus of this ideal (over an
        algebraically closed extension) exactly when it lies in the
        radical.  With B the reduced grevlex basis:

        1. the normal form of ``f`` by B is zero: f lies in I, so in its
           radical;
        2. every leading monomial of B is squarefree: then I is radical,
           so f, not in I, is not in its radical;
        3. otherwise f is in the radical exactly when I + <s*f - 1>
           (``_with_inverse``, seeded from B) is the unit ideal.

        Lemma for 2: if in(I) is squarefree, I is radical.  Let f lie in
        the radical and r be its normal form, so r lies in it too.  If
        r != 0, some r^k lies in I, so lm(r)^k lies in in(I); a squarefree
        monomial ideal is radical, so lm(r) lies in in(I), and r is not
        reduced.  So r = 0.  An empty basis is the case in(I) = 0: the
        zero ideal of the domain k[x] is radical.
        """
        if f.ctx != self.ctx:
            raise ContextMismatchError("radical membership argument context differs")
        basis = self.groebner_basis()
        if normal_form(f, basis).is_zero():
            return True
        if all(e <= 1 for lm in basis.leading_monomials() for e in lm):
            return False
        return self._with_inverse(f).is_unit()

    def is_unit(self) -> bool:
        basis = self.groebner_basis()
        return len(basis) == 1 and basis[0].is_constant()

    def same_ideal(self, other: "Ideal") -> bool:
        """Exact ideal equality via canonical reduced bases."""
        if self.ctx != other.ctx:
            raise ContextMismatchError("comparing ideals over different contexts")
        return self.groebner_basis() == other.groebner_basis()

    # -- constructions -----------------------------------------------------------

    def __add__(self, other: "Ideal | Iterable[Poly]") -> "Ideal":
        extra = other.generators if isinstance(other, Ideal) else tuple(other)
        return self.extended(self.ctx, extra)

    def extended(self, ctx: VarContext, extra: Iterable[Poly] = ()) -> "Ideal":
        """This ideal over ``ctx``, which holds its variables, plus ``extra``.

        Its generators are this ideal's, moved to ``ctx``, then ``extra``.
        Its bases start from this ideal's (see the class docstring) when
        ``ctx``'s names begin with this ideal's names.
        """
        ideal = Ideal(ctx, extra)
        same = self.ctx == ctx
        ideal._generators = tuple(g if same else g.transport(ctx) for g in self.generators) + ideal._own
        ideal._parent = self
        return ideal

    def eliminate(self, drop: Iterable[str]) -> "Ideal":
        """Intersection with the subring on the kept variables.

        Returns an ideal over the restricted context; its vanishing locus
        is the closure of the coordinate projection of this ideal's locus.
        """
        drop = list(dict.fromkeys(drop))
        if not drop:
            return self
        indices = tuple(sorted(self.ctx.index(name) for name in drop))
        basis = self.groebner_basis(Block(indices))
        kept = [i for i in range(self.ctx.arity) if i not in indices]
        # Under a block order an element is free of the head exactly when
        # its leading monomial is.  The head-free part of a reduced block
        # basis is itself the reduced grevlex basis of the elimination
        # ideal; seed the cache with it.
        free = [d for d in basis.divisors if not any(d[0][i] for i in indices)]
        small = VarContext([self.ctx.names[i] for i in kept])
        reduced = _basis(small, GREVLEX, _moved(free, lambda m: tuple(m[i] for i in kept)))
        result = Ideal(small, reduced)
        result._cache[GREVLEX] = reduced
        return result

    def reduced(self) -> "Ideal":
        """This ideal with its reduced grevlex basis as generators, the form
        ``eliminate`` returns; the basis is cached on the result."""
        basis = self.groebner_basis(GREVLEX)
        result = Ideal(self.ctx, basis)
        result._cache[GREVLEX] = basis
        return result

    def _with_inverse(self, f: Poly) -> "Ideal":
        """I + <s*f - 1> over this context extended by a fresh last variable s.

        Its points are those of V(I) off V(f), with s = 1/f there: it is
        the unit ideal exactly when f lies in the radical of I, and its
        intersection with the original ring is the saturation I : f^inf
        (Cox, Little & O'Shea, Ideals, Varieties, and Algorithms, 4.4).
        It extends this ideal, so its bases start from this ideal's grevlex
        basis, which every query on this ideal shares.
        """
        s = self.ctx.fresh_name("s")
        big = self.ctx.extended([s])
        return self.extended(big, [Poly.variable(big, s) * f.transport(big) - 1])

    def saturation(self, f: Poly) -> "Ideal":
        """The saturation I : f^inf = {g : g*f^k in I for some k}.

        It is (I + <s*f - 1>) meet k[x]: one elimination of s from the
        inverse-variable ideal (``_with_inverse``) that ``radical_contains``
        tests.  The result's generators are its reduced grevlex basis; for
        f = 0 it is the unit ideal.
        """
        if f.ctx != self.ctx:
            raise ContextMismatchError("saturation argument context differs")
        inverted = self._with_inverse(f)
        return inverted.eliminate(inverted.ctx.names[-1:])

    def intersect(self, other: "Ideal") -> "Ideal":
        """Ideal intersection via a scaling variable and elimination."""
        if self.ctx != other.ctx:
            raise ContextMismatchError("intersecting ideals over different contexts")
        t = self.ctx.fresh_name("t")
        big = self.ctx.extended([t])
        tv = Poly.variable(big, t)
        gens = [tv * g.transport(big) for g in self.generators]
        gens += [(Poly.one(big) - tv) * g.transport(big) for g in other.generators]
        return Ideal(big, gens).eliminate([t])

    # -- invariants -----------------------------------------------------------------

    def dimension(self) -> int:
        """Krull dimension of the quotient ring; -1 for the unit ideal.

        Computed combinatorially: the dimension equals the largest size of
        a variable subset that meets the support of no leading monomial of
        the reduced grevlex basis.
        """
        basis = self.groebner_basis(GREVLEX)
        if not basis:
            return self.ctx.arity
        if self.is_unit():
            return -1
        supports = [frozenset(i for i, e in enumerate(lm) if e) for lm in basis.leading_monomials()]
        n = self.ctx.arity
        for size in range(n, 0, -1):
            for subset in itertools.combinations(range(n), size):
                chosen = set(subset)
                if not any(s <= chosen for s in supports):
                    return size
        return 0

    def principal_generator(self) -> Poly | None:
        """The single reduced-basis element, when the basis is a singleton.

        Returns the zero polynomial for the zero ideal and None when the
        reduced grevlex basis has several elements (a sufficient but not
        necessary criterion for non-principality; exact for elimination
        ideals of polynomial rings, where height-one primes are principal).
        """
        basis = self.groebner_basis(GREVLEX)
        if not basis:
            return Poly.zero(self.ctx)
        return basis[0] if len(basis) == 1 else None

    def __str__(self) -> str:
        return "<" + ", ".join(str(g) for g in self.generators) + ">"

    def __repr__(self) -> str:
        return f"Ideal{self}"
