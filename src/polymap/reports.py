"""The records that polymap's verdicts return.

Each verdict of :class:`~polymap.morphisms.Morphism` and of
:mod:`polymap.endos` returns one of these frozen dataclasses, so that
``dataclasses.replace`` works on them.  They live apart from the
verdicts, which import this module when they first build a record, so
that a command that builds none, such as ``dim``, never imports
``dataclasses``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

    from .endos import Endomorphism
    from .groebner import Ideal
    from .poly import Poly, VarContext


@dataclass(frozen=True)
class InterpolationResult:
    """Outcome of asking for a regular target function with given pullback.

    ``status`` is one of:

    * ``"interpolant"``       - ``interpolant`` pulls back to g on the source.
    * ``"not_in_subalgebra"`` - g is constant on fibers but no regular
      target function pulls back to it.
    * ``"not_determined"``    - g is not even constant on fibers.

    ``witness`` is the reduction of g by the elimination basis of the
    graph ideal; for failures it still contains source variables.
    """

    status: str
    interpolant: Poly | None
    witness: Poly

    @property
    def ok(self) -> bool:
        return self.status == "interpolant"


@dataclass(frozen=True)
class MinPolyResult:
    """Defining relation of a function over the image of a map.

    The relation lives in the target ring extended by ``var`` (the fresh
    graph coordinate) and has degree at least one in it
    (:func:`~polymap.morphisms.is_graph_relation`).  When that degree is one and the map is
    dominant, ``rational_pair = (num, den)`` certifies g = (num/den) o map.
    """

    status: str  # "relation" | "no_relation" | "not_hypersurface"
    relation: Poly | None
    var: str
    degree: int | None
    rational_pair: tuple[Poly, Poly] | None
    dominant: bool
    graph_ideal: Ideal


@dataclass(frozen=True)
class ConstructibleSet:
    """Finite union of pieces V(closed) - V(minus) inside an ambient ring.

    ``exact`` distinguishes a proven description of a map's image from a
    sound under-approximation: a subset of the image whose closure equals
    the image closure when the source ideal is prime (on a reducible or
    non-reduced source it may be smaller).  Membership of rational points
    is decided by evaluation.
    """

    ctx: VarContext
    pieces: tuple[tuple[Ideal, Ideal], ...]
    exact: bool

    def contains(self, point: Sequence[Fraction | int]) -> bool:
        for closed, minus in self.pieces:
            if all(g.evaluate(point) == 0 for g in closed.generators):
                if any(g.evaluate(point) != 0 for g in minus.generators):
                    return True
        return False

    def to_json_dict(self) -> dict:
        return {
            "pieces": [
                {
                    "closed": [str(g) for g in closed.generators],
                    "minus": [str(g) for g in minus.generators],
                }
                for closed, minus in self.pieces
            ],
            "exact": self.exact,
        }


@dataclass(frozen=True)
class SurjectivityReport:
    """Image description plus the dimension bookkeeping behind the verdict.

    ``complement_closure`` cuts out the closure of the target minus the
    image description (it need not be radical) and ``complement_dim`` is
    its dimension: the upper bound of the bracket in
    :meth:`~polymap.morphisms.Morphism.almost_surjective`, exact when the description is.
    ``almost_surjective`` / ``surjective`` are True, False, or None for
    "unknown" (only possible when the description is inexact and the
    bracket straddles the threshold).
    """

    image: ConstructibleSet
    complement_closure: Ideal
    complement_dim: int
    target_dim: int
    almost_surjective: bool | None
    surjective: bool | None


@dataclass(frozen=True)
class BiregularReport:
    verdict: bool | None
    injective: bool
    surjectivity: SurjectivityReport
    inverse: tuple[Poly, ...] | None
    consistent: bool


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
