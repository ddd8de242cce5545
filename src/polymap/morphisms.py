"""Affine varieties, polynomial maps between them, and image analysis.

Everything here works with exact ideal arithmetic over the rationals and
interprets geometric statements over an algebraically closed extension:
vanishing questions go through radical membership, never through point
sampling.  A map is given by coordinate polynomials on the source; its
image, the functions it determines, interpolation of such functions by
regular functions on the target, injectivity and biregularity are all
decided by elimination orders on a combined context.

Verdict semantics worth pinning down:

* ``dominant``   - the image is dense in the target.
* ``almost surjective`` - the closure of the set of target points missed
  by the map has dimension at most dim(target) - 2, or is empty (the
  empty set has dimension -1, so surjective maps qualify whatever the
  dimension of the target).
* image descriptions are unions of pieces ``V(closed) - V(minus)``; when
  flagged inexact they under-approximate the image, with the image
  closure as their closure on a prime source ideal (on a reducible or
  non-reduced one it can be smaller; ``almost_surjective`` stays sound).
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

from .errors import (
    ContextMismatchError,
    DegenerateDivisorError,
    EngineInconsistencyError,
    MissingAssertionError,
    NotDominantError,
    PreconditionError,
    TargetNotAffineSpaceError,
)
from .groebner import Basis, Ideal, normal_form
from .orders import Block
from .poly import Poly, Powers, VarContext, poly_matrix_det
from .values import Value

if TYPE_CHECKING:
    from .reports import BiregularReport, ConstructibleSet, InterpolationResult, MinPolyResult, SurjectivityReport

# Rounds of leading-coefficient descent in ``constructible_image`` unless a
# session sets its own ``depth``.
DEFAULT_DEPTH = 8
_T = TypeVar("_T")


class AffineVariety(Value):
    """An ambient coordinate ring plus a defining ideal.

    ``assert_factorial`` vouches for factoriality of the coordinate ring
    where the engine cannot decide it: :func:`factorial` is its only
    reader, returns True on affine space whatever the flag, and refuses
    the flag where the Jacobian criterion refutes it.  Nothing reads
    ``assert_irreducible``.  A unit ideal is allowed and means the empty
    variety.
    """

    __slots__ = _fields = ("ctx", "ideal", "assert_irreducible", "assert_factorial")

    def __init__(self, ctx: VarContext, ideal: Ideal, assert_irreducible: bool = False,
                 assert_factorial: bool = False):
        if ideal.ctx != ctx:
            raise ContextMismatchError("variety ideal lives in a different context")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "assert_irreducible", assert_irreducible)
        object.__setattr__(self, "assert_factorial", assert_factorial)

    @staticmethod
    def affine_space(ctx: VarContext) -> "AffineVariety":
        return AffineVariety(ctx, Ideal.zero(ctx))


def factorial(variety: AffineVariety) -> bool:
    """Whether the coordinate ring is factorial: True on affine space (k[u]
    is a UFD), False where the Jacobian criterion shows V(I) singular in
    codimension one or not a domain, hence not normal (Eisenbud,
    Commutative Algebra, Thm 11.5 and 16.6), and the ``assert_factorial``
    flag elsewhere, as on the cone xy = z^2, normal but not factorial.  A
    factorial ring is never refuted, and a flag the criterion refutes is
    refused."""
    ideal, ctx = variety.ideal, variety.ctx
    if not ideal.generators:
        return True
    if not ideal.is_unit():
        # On a prime I of dimension d, I and the c x c minors of its
        # Jacobian, c = n - d, cut out the singular locus.
        d = ideal.dimension()
        c = ctx.arity - d
        jacobian = [[g.derivative(name) for name in ctx.names] for g in ideal.generators]
        singular = ideal + [poly_matrix_det([[jacobian[i][j] for j in cols] for i in rows], ctx)
                            for rows in combinations(range(len(jacobian)), c)
                            for cols in combinations(range(ctx.arity), c)]
        if not singular.is_unit() and singular.dimension() >= d - 1:
            if variety.assert_factorial:
                equations = ", ".join(str(g) for g in ideal.generators)
                raise PreconditionError(f"assert_factorial is refuted: V({equations}) is singular in codimension"
                                        " one or is not a domain, so its ring is not factorial")
            return False
    return variety.assert_factorial


def is_graph_relation(relation: Poly, var: str) -> bool:
    """Whether a graph-closure generator is a relation of g over the image:
    it has degree at least one in the line coordinate ``var``."""
    return relation.degree_in(var) >= 1


class _GraphData:
    """Combined context [renamed source | target] with the graph ideal."""

    __slots__ = ("ctx", "src_names", "rename", "block", "ideal")

    def __init__(self, morphism: "Morphism"):
        src = morphism.source.ctx
        tgt = morphism.target.ctx
        taken = tgt
        for name in src.names:
            taken = taken.extended([taken.fresh_name(name)])
        self.src_names = taken.names[tgt.arity:]
        self.rename = dict(zip(src.names, self.src_names))
        self.ctx = VarContext(self.src_names + tgt.names)
        self.block = Block.first(src.arity)
        gens = [g.transport(self.ctx, self.rename) for g in morphism.source.ideal.generators]
        gens += [Poly.variable(self.ctx, name) - coord.transport(self.ctx, self.rename)
                 for name, coord in zip(tgt.names, morphism.coords)]
        self.ideal = Ideal(self.ctx, gens)


class Morphism:
    """A polynomial map between affine varieties.

    ``coords`` are polynomials on the source ambient ring, one per target
    variable.  Construction checks well-definedness (target equations
    pull back into the source ideal) unless ``check=False``.
    """

    __slots__ = ("source", "target", "coords", "assert_etale", "_memo")

    def __init__(
        self,
        source: AffineVariety,
        target: AffineVariety,
        coords: Iterable[Poly],
        check: bool = True,
        assert_etale: bool = False,
    ):
        coords = tuple(coords)
        if len(coords) != target.ctx.arity:
            raise ValueError(f"need {target.ctx.arity} coordinates, got {len(coords)}")
        for c in coords:
            if c.ctx != source.ctx:
                raise ContextMismatchError("coordinate polynomial not over the source ring")
        self.source = source
        self.target = target
        self.coords = coords
        self.assert_etale = assert_etale
        self._memo: dict = {}
        if check:
            for g in target.ideal.generators:
                if not self.pulls_back_to(g, 0):
                    raise PreconditionError(
                        f"map is not well defined: target equation {g} does not pull back into the source ideal"
                    )

    # -- plumbing ------------------------------------------------------------

    def _derived(self, key: str, build: Callable[[], _T]) -> _T:
        """``build()``, computed on the first call for ``key`` and kept on the map."""
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = build()
        return got

    def _graph(self) -> _GraphData:
        return self._derived("graph", lambda: _GraphData(self))

    def _fiber(self) -> tuple[VarContext, Ideal, dict[str, str]]:
        """Doubled source context with the fiber-product ideal.

        Variables x and their primed copies x', the source equations in
        both copies, and the equations identifying the two images.  It
        extends the source ideal, so its bases start from that ideal's.
        """
        def build():
            src = self.source.ctx
            ctx2 = src
            for name in src.names:
                ctx2 = ctx2.extended([ctx2.fresh_name(name)])
            rename = dict(zip(src.names, ctx2.names[src.arity:]))
            gens = [g.transport(ctx2, rename) for g in self.source.ideal.generators]
            gens += [c.transport(ctx2) - c.transport(ctx2, rename) for c in self.coords]
            return ctx2, self.source.ideal.extended(ctx2, gens), rename

        return self._derived("fiber", build)

    # -- ring-level operations ---------------------------------------------------

    def _composite(self, f: Poly) -> Poly:
        """f o map over the source ring, not reduced by the source ideal."""
        if f.ctx != self.target.ctx:
            raise ContextMismatchError("pullback argument must live on the target ring")
        return f.substitute(Powers(self.source.ctx, self.coords))

    def pullback(self, f: Poly) -> Poly:
        """Canonical representative of f o map in the source coordinate ring."""
        return self.source.ideal.normal_form(self._composite(f))

    def pulls_back_to(self, f: Poly, g: Poly | int) -> bool:
        """Whether f o map = g modulo the source ideal: an interpolant's
        identity, and an inverse's "left" one coordinate at a time.  Each
        certificate identity has one such predicate: a composite
        (``Poly.substitute``) reduced modulo one ideal."""
        return self.source.ideal.contains(self._composite(f) - g)

    def relation_vanishes(self, relation: Poly, g: Poly) -> bool:
        """Whether ``relation`` vanishes along x -> (map(x), g(x)) modulo
        the source ideal; its last variable is the line coordinate."""
        return self.source.ideal.contains(relation.substitute(Powers(self.source.ctx, self.coords + (g,))))

    def is_section(self, inverse: Sequence[Poly]) -> bool:
        """Whether ``inverse`` maps the target into the source variety ("into")
        with map o inverse the identity ("right"), modulo the target ideal."""
        ideal, ctx = self.target.ideal, self.target.ctx
        powers = Powers(ctx, inverse)  # built once for all n + k identities
        expected = [(h, 0) for h in self.source.ideal.generators] + list(zip(self.coords, Poly.variables(ctx)))
        return all(ideal.contains(f.substitute(powers) - y) for f, y in expected)

    def image_closure(self) -> Ideal:
        """Ideal of the Zariski closure of the image."""
        graph = self._graph()
        return self._derived("image_closure", lambda: graph.ideal.eliminate(graph.src_names))

    def dominant(self) -> bool:
        """Whether the image is dense in the target variety."""
        target_ideal = self.target.ideal
        return all(target_ideal.radical_contains(g) for g in self.image_closure().generators)

    def _graph_remainder(self, g: Poly) -> tuple[Poly, Poly | None]:
        """(r, p): r is the normal form of g, moved to the graph ring, under
        the graph ideal's block basis (source block dominant), and p is r
        over the target ring when r uses no renamed source variable, else
        None.  Then g - p lies in the graph ideal, so p o map = g modulo the
        source ideal: p is the canonical interpolant, and g has one exactly
        when r is free of the source (Shannon & Sweedler, J. Symb. Comp. 5,
        1988)."""
        if g.ctx != self.source.ctx:
            raise ContextMismatchError("argument must live on the source ring")
        graph = self._graph()
        r = normal_form(g.transport(graph.ctx, graph.rename), graph.ideal.groebner_basis(graph.block), graph.block)
        return r, None if r.variables_used() & set(graph.src_names) else r.transport(self.target.ctx)

    def graph_closure(self, g: Poly) -> tuple[Ideal, str]:
        """Closure of {(map(x), g(x))} in target x line; returns (ideal, var).

        It is the image closure of the lifted map x -> (map(x), g(x)): with
        J the graph ideal, (J + <var - g>) meet k[u, var].  The line
        coordinate ``var`` is a fresh name next to the graph's variables,
        and the ideal lives on the target ring extended by it; its
        generators are its reduced grevlex basis.

        With r and p from :meth:`_graph_remainder`, J + <var - g> is
        J + <var - r>.  When g interpolates, g - p(u) lies in J, and then
        (J + <var - g>) meet k[u, var] = (J meet k[u]) + <var - p>: the
        image closure plus one generator, whose basis starts from the image
        closure's.  Otherwise the renamed source is eliminated from
        J + <var - r>, a basis that starts from the graph ideal's.
        """
        r, p = self._graph_remainder(g)
        graph = self._graph()
        w = graph.ctx.fresh_name("w")
        if p is None:
            ctx = graph.ctx.extended([w])
            lifted = graph.ideal.extended(ctx, [Poly.variable(ctx, w) - r.transport(ctx)])
            return lifted.eliminate(graph.src_names), w
        image = self.image_closure()
        ctx = image.ctx.extended([w])
        return image.extended(ctx, [Poly.variable(ctx, w) - p.transport(ctx)]).reduced(), w

    # -- determinacy and interpolation ----------------------------------------------

    def determined_by(self, g: Poly) -> bool:
        """Whether g is constant on every fiber (over the algebraic closure)."""
        if g.ctx != self.source.ctx:
            raise ContextMismatchError("argument must live on the source ring")
        ctx2, fiber, rename = self._fiber()
        return fiber.radical_contains(g.transport(ctx2) - g.transport(ctx2, rename))

    def interpolate(self, g: Poly) -> InterpolationResult:
        """Find a regular target function pulling back to g, if one exists.

        Reduces g by the graph ideal under an elimination order with the
        source block dominant; success means the normal form only uses
        target variables and is then the canonical interpolant.  The
        identity interpolant o map = g (mod source ideal) is re-checked
        on every success.
        """
        from .reports import InterpolationResult

        nf, interpolant = self._graph_remainder(g)
        if interpolant is None:
            status = "not_in_subalgebra" if self.determined_by(g) else "not_determined"
            return InterpolationResult(status, None, nf)
        if not self.pulls_back_to(interpolant, g):
            raise EngineInconsistencyError("interpolant certificate failed to verify")
        return InterpolationResult("interpolant", interpolant, nf)

    def extend(self, composite: Poly) -> InterpolationResult:
        """Regular extension to the target of the function induced on the image.

        The function is handed to the machine through its composite with
        the map; requires a dominant map so that the extension, when it
        exists, is unique (the canonical reduced interpolant).
        """
        if not self.dominant():
            raise NotDominantError("extension requires a dominant map (unique extensions otherwise unavailable)")
        return self.interpolate(composite)

    def minimal_polynomial(self, g: Poly) -> MinPolyResult:
        """Defining relation of g over the image, on an affine-space target.

        The graph closure in target x line is principal with a generator
        of degree at least one in the fresh variable (the relation), or
        with one free of it (no relation: zero, or the image's own equation,
        or 1 on an empty source), or not principal (not a hypersurface).
        Degree one plus dominance certifies g as a ratio of pulled-back functions.
        When g has an interpolant p the closure is the image closure, which
        dominance needs anyway, plus w - p (:meth:`graph_closure`), so no
        elimination runs; on every path the relation is re-checked along
        x -> (map(x), g(x)) (:meth:`relation_vanishes`).
        """
        from .reports import MinPolyResult

        if self.target.ideal.generators:
            raise TargetNotAffineSpaceError("minimal_polynomial needs a target with zero defining ideal")
        ideal, w = self.graph_closure(g)
        dominant = self.dominant()
        generator = ideal.principal_generator()
        if generator is None:
            return MinPolyResult("not_hypersurface", None, w, None, None, dominant, ideal)
        if not is_graph_relation(generator, w):
            return MinPolyResult("no_relation", None, w, None, None, dominant, ideal)
        degree = generator.degree_in(w)
        top = generator.coefficients_in(w).get(degree)
        if top is not None and top.leading_coefficient() < 0:
            # Present the relation with a positively-normalized top
            # coefficient in the graph variable (same principal ideal).
            generator = -generator
        if not self.relation_vanishes(generator, g):
            raise EngineInconsistencyError("graph relation certificate failed to verify")
        pair = None
        if degree == 1 and dominant:
            # The relation den*w - num, just checked along x -> (map(x), g(x)),
            # already says num o map = (den o map)*g.
            coeffs = generator.coefficients_in(w)
            den = coeffs.get(1, Poly.zero(ideal.ctx)).transport(self.target.ctx)
            num = (-coeffs.get(0, Poly.zero(ideal.ctx))).transport(self.target.ctx)
            pair = (num, den)
        return MinPolyResult("relation", generator, w, degree, pair, dominant, ideal)

    # -- divisibility transfer ----------------------------------------------------

    def divides_transfer(self, f: Poly, g: Poly) -> tuple[bool, bool]:
        """(f o map divides g o map on the source, f divides g on the target).

        On a factorial target a (True, False) outcome is a certified
        witness that the map misses a hypersurface worth of target points
        (:meth:`divisor_witness`).
        """
        if f.ctx != self.target.ctx or g.ctx != self.target.ctx:
            raise ContextMismatchError("divisibility arguments live on the target ring")
        if self.target.ideal.contains(f):
            raise PreconditionError("f vanishes on the target variety; divisibility is vacuous")
        f_src = self.pullback(f)
        g_src = self.pullback(g)
        if f_src.is_zero() and not g_src.is_zero():
            raise DegenerateDivisorError("f o map vanishes identically while g o map does not")
        source_divides = (self.source.ideal + (f_src,)).contains(g_src)
        target_divides = (self.target.ideal + (f,)).contains(g)
        return source_divides, target_divides

    def divisor_witness(self, source_divides, target_divides) -> bool | None:
        """Whether a :meth:`divides_transfer` outcome shows the map is not
        almost surjective.  By the paper's lemma a map almost surjective onto
        a factorial target has f o map | g o map only when f | g, so there
        (True, False) is a witness; off factorial targets it is None."""
        return source_divides and not target_divides if factorial(self.target) else None

    # -- injectivity / image ------------------------------------------------------

    def is_injective(self) -> bool:
        """Geometric injectivity: the fiber product lies in the diagonal,
        that is, every source coordinate is determined by the map."""
        return all(self.determined_by(x) for x in Poly.variables(self.source.ctx))

    def constructible_image(self, depth: int = DEFAULT_DEPTH) -> ConstructibleSet:
        """Piecewise description of the image, by leading-coefficient descent.

        Round 0 works on the graph ideal.  Each round adds the piece
        closure - V(L), where L is the product of its block basis's leading
        coefficients over the source block, and the next round adds L to
        the round's ideal: the map restricted to the points over V(L).
        The result is exact when a round's closure is empty or its L is a
        nonzero constant, so that its piece is all of the closed set, and
        inexact when ``depth`` rounds are spent or L already lies in the
        round's ideal, so that the next round would repeat this one.
        Each round's ideal contains the one before, so each piece's closed
        ideal contains those of all earlier pieces: the pieces are nested.
        """
        from .reports import ConstructibleSet

        if depth < 1:
            raise ValueError("depth must be at least 1")
        graph = self._graph()
        tgt_ctx = self.target.ctx
        pieces: list[tuple[Ideal, Ideal]] = []
        ideal = graph.ideal
        for _ in range(depth):
            closure = ideal.eliminate(graph.src_names)
            if closure.is_unit():
                return ConstructibleSet(tgt_ctx, tuple(pieces), True)
            basis = ideal.groebner_basis(graph.block)
            lc_product = _lc_product(basis, graph.block, tgt_ctx)
            # A nonzero constant L vanishes nowhere, so its piece is not empty.
            if lc_product.is_constant() or not closure.radical_contains(lc_product):
                pieces.append((closure, Ideal(tgt_ctx, (lc_product,))))
            if lc_product.is_constant():
                return ConstructibleSet(tgt_ctx, tuple(pieces), True)
            lc_product = lc_product.transport(graph.ctx)
            if normal_form(lc_product, basis, graph.block).is_zero():
                break
            ideal = ideal + (lc_product,)
        return ConstructibleSet(tgt_ctx, tuple(pieces), False)

    def almost_surjective(self, depth: int = DEFAULT_DEPTH) -> SurjectivityReport:
        """Classify how much of the target the image misses.

        dim(closure(missed set)) lies in [lower, upper]: upper is the
        dimension of the closure of the target minus the image description,
        lower that of the target minus the image closure, computed only for
        an inexact description (for an exact one they are equal).  Against
        max(dim(target) - 2, -1), so that an empty complement always
        qualifies, the map is almost surjective when upper <= threshold,
        not when lower > threshold, and unknown (None) otherwise; likewise
        surjective when upper == -1, not when lower >= 0.
        """
        from .reports import SurjectivityReport

        target_ideal = self.target.ideal
        target_dim = target_ideal.dimension()
        image = self.constructible_image(depth)
        # The pieces are nested (see constructible_image), so what piece i
        # misses is Y - V(closed_i) on the points that every earlier minus
        # set cuts out: k + 1 chain pieces instead of 2^k sign choices.
        missed: list[tuple[Ideal, Ideal]] = []
        ambient = target_ideal
        for closed, minus in image.pieces:
            missed.append((ambient, closed))
            ambient = ambient + minus
        missed.append((ambient, Ideal.unit(self.target.ctx)))
        closures = [_piece_closure(c, m) for c, m in missed]
        comp_closure = _intersect_many(self.target.ctx, [c for c in closures if not c.is_unit()])
        upper = comp_closure.dimension()
        lower = upper if image.exact else _piece_closure(target_ideal, self.image_closure()).dimension()
        threshold = max(target_dim - 2, -1)
        almost = True if upper <= threshold else False if lower > threshold else None
        surjective = True if upper == -1 else False if lower >= 0 else None
        return SurjectivityReport(image, comp_closure, upper, target_dim, almost, surjective)

    def biregular(self, depth: int = DEFAULT_DEPTH) -> BiregularReport:
        """Isomorphism test: injective and almost surjective, with the
        inverse constructed coordinate by coordinate as a certificate.

        Requires a factorial target (:func:`factorial`).  The set-theoretic
        verdict and the success of the inverse construction agree on
        radical source and target ideals and a factorial target, so a
        disagreement raises naming those hypotheses.
        """
        from .reports import BiregularReport

        if not factorial(self.target):
            raise MissingAssertionError(
                "biregularity test requires a factorial target: it is not affine space and assert_factorial is not set"
            )
        injective = self.is_injective()
        surj = self.almost_surjective(depth)
        if surj.almost_surjective is None:
            return BiregularReport(None, injective, surj, None, True)
        verdict = injective and surj.almost_surjective
        inverse, _ = self.construct_inverse()
        if verdict != (inverse is not None):
            raise EngineInconsistencyError(
                "set-theoretic biregularity verdict disagrees with inverse construction; it assumes radical"
                " source and target ideals and a factorial target, so one of these is likely false"
            )
        return BiregularReport(verdict, injective, surj, inverse, True)

    def construct_inverse(self) -> tuple[tuple[Poly, ...] | None, int | None]:
        """Interpolate every source coordinate and check the other composition.

        Returns ``(inverse, None)`` on success.  On failure the inverse is
        None and the second entry is the index of the first source
        coordinate that does not interpolate, or None when all of them do
        but the candidate fails "into" or "right" (:meth:`is_section`).
        ``interpolate`` has already checked inverse o map on the source.
        The pair is memoized on the map, so ``biregular``, ``invert`` and
        ``jc_criteria`` build and check it once between them.
        """
        return self._derived("inverse", self._inverse)

    def _inverse(self) -> tuple[tuple[Poly, ...] | None, int | None]:
        inverse: list[Poly] = []
        for j, name in enumerate(self.source.ctx.names):
            result = self.interpolate(Poly.variable(self.source.ctx, name))
            if not result.ok:
                return None, j
            inverse.append(result.interpolant)
        return (tuple(inverse), None) if self.is_section(inverse) else (None, None)

    def __str__(self) -> str:
        arrows = ", ".join(f"{n} = {c}" for n, c in zip(self.target.ctx.names, self.coords))
        return f"({arrows})"


# -- constructible-set helpers ------------------------------------------------------


def _lc_product(basis: Basis, block: Block, ctx: VarContext) -> Poly:
    """Product, over ``ctx``, of the leading coefficients over ``block``'s
    head of the basis elements that involve the head: away from its zeros
    every point of the eliminated variety lifts to the head variables."""
    head = block.head
    product = Poly.one(ctx)
    for g, lm in zip(basis, basis.leading_monomials()):
        head_part = tuple(lm[i] for i in head)
        if any(head_part):
            lead_coeff = Poly(g.ctx, {
                tuple(0 if i in head else e for i, e in enumerate(m)): c
                for m, c in g.terms()
                if tuple(m[i] for i in head) == head_part
            })
            product = product * lead_coeff.transport(ctx)
    return product


def _piece_closure(closed: Ideal, minus: Ideal) -> Ideal:
    """Ideal of the closure of V(closed) - V(minus): the unit ideal
    exactly when the piece is empty."""
    if closed.is_unit():
        return closed
    return _intersect_many(closed.ctx, [closed.saturation(g) for g in minus.generators])


def _intersect_many(ctx: VarContext, ideals: list[Ideal]) -> Ideal:
    result: Ideal | None = None
    for ideal in ideals:
        result = ideal if result is None else result.intersect(ideal)
    return result if result is not None else Ideal.unit(ctx)
