"""Polynomial self-maps of affine space: Jacobians, etale checks,
constructive inversion, and the Jacobian criteria for etale maps, where
injectivity (every coordinate determined on the fibers) is checked
against the constructed inverse.

The criteria hold for self-maps of affine space only, so the Jacobian,
inversion and the :class:`Endomorphism` constructor check that shape
(:func:`require_self_map`) for every caller, library or CLI, and refuse
any other map with a ``PreconditionError``.

Etaleness is machine-decided here, where it reduces to "the Jacobian
determinant is a nonzero constant" (:func:`require_etale`), and
:func:`etale_dichotomy` decides it so on every self-map of affine space.
For maps between other varieties it is the user assertion
``assert_etale``, read by that function alone, and a wrong assertion
voids its dichotomy guarantee.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (
    EngineInconsistencyError,
    MissingAssertionError,
    NotEtaleError,
    NotInjectiveError,
    PreconditionError,
)
from .morphisms import DEFAULT_DEPTH, AffineVariety, Morphism, SurjectivityReport
from .poly import Poly, VarContext, poly_matrix_det


class Endomorphism(Morphism):
    """A polynomial map from affine n-space to affine n-space.

    Source and target are full affine spaces of the same dimension; the
    target ring may use different variable names (handy for printing
    inverses).  The target has no equations, so the well-definedness
    check at construction has nothing to pull back.
    """

    def __init__(self, source_ctx: VarContext, target_ctx: VarContext, coords):
        super().__init__(AffineVariety.affine_space(source_ctx), AffineVariety.affine_space(target_ctx), coords)
        require_self_map(self)


@dataclass(frozen=True)
class InversionResult:
    inverse: Endomorphism | None
    failing_coordinate: int | None

    @property
    def ok(self) -> bool:
        return self.inverse is not None


@dataclass(frozen=True)
class JCReport:
    """Joint verdicts of the invertibility criteria for an etale map.

    ``injective`` is ``all(coords_determined)``: a map is injective
    exactly when every source coordinate is constant on its fibers.
    ``consistent`` records that this fiber verdict agreed with
    constructive invertibility, which works on the graph ideal instead;
    a False value is a potential engine defect, never a mathematical
    discovery.
    """

    etale: bool
    injective: bool | None
    coords_determined: tuple[bool, ...]
    invertible: bool
    inverse: tuple[Poly, ...] | None
    consistent: bool


@dataclass(frozen=True)
class DichotomyReport:
    branch: str | None  # "codim_one" | "biregular" | None (unknown image)
    surjectivity: SurjectivityReport
    complement_codim: int | None
    inverse: tuple[Poly, ...] | None


def _not_self_map(morphism: Morphism) -> str | None:
    """Why ``morphism`` is not a self-map of affine space, or None when it is."""
    source, target = morphism.source, morphism.target
    if source.ideal.generators or target.ideal.generators:
        return "source or target has equations"
    if source.ctx.arity != target.ctx.arity:
        return "source and target dimensions differ"
    return None


def require_self_map(endo: Morphism) -> None:
    """Refuse a map whose source or target ideal has a generator, or whose two rings differ in arity."""
    reason = _not_self_map(endo)
    if reason is not None:
        raise PreconditionError(f"map is not a self-map of affine space: {reason}")


def jacobian_determinant(endo: Morphism) -> Poly:
    """Determinant of the matrix of partial derivatives, exactly."""
    require_self_map(endo)
    names = endo.source.ctx.names
    return poly_matrix_det([[coord.derivative(name) for name in names] for coord in endo.coords], endo.source.ctx)


def is_nonzero_constant(det: Poly) -> bool:
    """The etale test on a Jacobian determinant: a nonzero constant."""
    return det.is_constant() and not det.is_zero()


def is_etale(endo: Morphism) -> bool:
    """For self-maps of affine space: Jacobian determinant is a nonzero constant."""
    return is_nonzero_constant(jacobian_determinant(endo))


def require_etale(endo: Morphism) -> None:
    """Refuse a self-map of affine space that is not etale, naming its Jacobian determinant."""
    det = jacobian_determinant(endo)
    if not is_nonzero_constant(det):
        raise NotEtaleError(f"Jacobian determinant {det} is not a nonzero constant")


def invert(endo: Morphism) -> InversionResult:
    """Constructive two-sided inverse, if one exists.

    The memoized pair of :meth:`Morphism.construct_inverse`, with the
    inverse made a map from the target back to the source.  On affine
    spaces "into" is vacuous, and "left" and "right" are plain polynomial
    identities.  On failure ``failing_coordinate`` is the first source
    coordinate that does not interpolate, or None when every coordinate
    does but the map is not onto.
    """
    require_self_map(endo)
    inverse, failing = endo.construct_inverse()
    return InversionResult(None if inverse is None else Endomorphism(endo.target.ctx, endo.source.ctx, inverse),
                           failing)


def jc_criteria(endo: Morphism) -> JCReport:
    """Evaluate the invertibility criteria and compare them.

    Requires an etale input (constant nonzero Jacobian determinant).
    Determinacy of each source coordinate is decided on the fiber ideal,
    and injectivity is their conjunction; constructive inversion
    interpolates on the graph ideal.  The two verdicts must agree.
    """
    require_etale(endo)
    determined = tuple(endo.determined_by(x) for x in Poly.variables(endo.source.ctx))
    injective = all(determined)
    inverse, _ = endo.construct_inverse()
    invertible = inverse is not None
    return JCReport(True, injective, determined, invertible, inverse, injective == invertible)


def etale_dichotomy(morphism: Morphism, depth: int = DEFAULT_DEPTH) -> DichotomyReport:
    """For an injective etale map into a factorial target: the missed
    locus is a hypersurface, or the map is an isomorphism.

    It is :meth:`Morphism.biregular`, which also refuses a target that is
    not factorial, plus a reading of the missed set's codimension.  On a
    self-map of affine space etaleness is decided (:func:`require_etale`);
    on any other map it is taken from the ``assert_etale`` flag, and the
    verdict is only as good as that assertion.
    """
    if _not_self_map(morphism) is None:
        require_etale(morphism)
    elif not morphism.assert_etale:
        raise MissingAssertionError("dichotomy requires the assert_etale flag on the map")
    rep = morphism.biregular(depth)
    if not rep.injective:
        raise NotInjectiveError("dichotomy requires an injective map")
    surj = rep.surjectivity
    if rep.verdict is None:
        return DichotomyReport(None, surj, None, None)
    codim = surj.target_dim - surj.complement_dim
    if rep.verdict:
        return DichotomyReport("biregular", surj, codim, rep.inverse)
    if codim != 1:
        raise EngineInconsistencyError(
            f"dichotomy violated (complement codimension {codim}); the etale assertion is likely wrong"
        )
    return DichotomyReport("codim_one", surj, codim, None)


# -- random certified-invertible maps ----------------------------------------------


_TAME_SOURCE = VarContext(("x", "y"))
_TAME_TARGET = VarContext(("u", "v"))
_TAME_MAX_MOVES = 3
_TAME_DEGREE_CAP = 4


def random_tame_automorphism(rng: random.Random) -> tuple[Endomorphism, Endomorphism]:
    """A random plane automorphism (x, y) -> (u, v) with its inverse, as a
    word in elementary shears and invertible integer linear maps.

    The pair is certified on construction: each inverse coordinate pulls
    back to its source coordinate exactly.  Degrees are capped so
    downstream Groebner computations stay desk scale.
    """
    src, tgt = _TAME_SOURCE, _TAME_TARGET
    sx, sy = Poly.variables(src)
    tu, tv = Poly.variables(tgt)
    forward: list[Poly] = [sx, sy]         # coords of the map, over src
    backward: list[Poly] = [tu, tv]        # coords of the inverse, over tgt

    def apply_move(move_src: list[Poly], move_inv_tgt: list[Poly]) -> bool:
        # New map = move o current; new inverse = current inverse o move^-1.
        move_assign = dict(zip(src.names, forward))
        new_forward = [m.substitute(move_assign) for m in move_src]
        inv_assign = dict(zip(tgt.names, move_inv_tgt))
        new_backward = [b.substitute(inv_assign) for b in backward]
        if max(p.total_degree() for p in new_forward + new_backward) > _TAME_DEGREE_CAP:
            return False
        forward[:] = new_forward
        backward[:] = new_backward
        return True

    def elementary() -> tuple[list[Poly], list[Poly]]:
        i = rng.randrange(2)
        other_src = [sy, sx][i]
        other_tgt = [tv, tu][i]
        coeffs = [rng.choice([-2, -1, 1, 2]) for _ in range(2)]
        exps = sorted({rng.randint(1, 2) for _ in range(2)})
        shift_src = sum((c * other_src ** e for c, e in zip(coeffs, exps)), Poly.zero(src))
        shift_tgt = sum((c * other_tgt ** e for c, e in zip(coeffs, exps)), Poly.zero(tgt))
        move = [sx, sy]
        move[i] = move[i] + shift_src
        inv = [tu, tv]
        inv[i] = inv[i] - shift_tgt
        return move, inv

    def linear() -> tuple[list[Poly], list[Poly]]:
        k = rng.choice([-2, -1, 1, 2])
        kind = rng.randrange(3)
        if kind == 0:      # x += k*y
            return [sx + k * sy, sy], [tu - k * tv, tv]
        if kind == 1:      # y += k*x
            return [sx, sy + k * sx], [tu, tv - k * tu]
        return [sy, sx], [tv, tu]  # swap

    moves = rng.randint(1, _TAME_MAX_MOVES)
    placed = 0
    for step in range(moves):
        want_elementary = step == 0 or rng.random() < 0.6
        move = elementary() if want_elementary else linear()
        if apply_move(*move):
            placed += 1
    if placed == 0:
        apply_move(*linear())

    endo = Endomorphism(src, tgt, forward)
    inverse = Endomorphism(tgt, src, backward)
    if not all(endo.pulls_back_to(coord, var) for coord, var in zip(backward, (sx, sy))):
        raise EngineInconsistencyError("tame generator produced an inconsistent pair")
    return endo, inverse
