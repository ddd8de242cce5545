"""Exact symbolic workbench for polynomial maps between affine varieties.

Decides, with checkable certificates: which functions a map determines,
whether they are interpolated by regular functions on the target, how
much of the target the image misses (almost surjectivity), injectivity
and biregularity, and the invertibility criteria for etale self-maps of
affine space.  All arithmetic is exact over the rationals; geometric
claims are certified over an algebraically closed extension through
radical membership.
"""

from .errors import (
    ContextMismatchError,
    DegenerateDivisorError,
    EngineInconsistencyError,
    MissingAssertionError,
    NotDominantError,
    NotEtaleError,
    NotInjectiveError,
    ParseError,
    PolymapError,
    PreconditionError,
    SessionFormatError,
    TargetNotAffineSpaceError,
    UnknownVariableError,
)
from .orders import Block, GREVLEX, GRLEX, LEX, GrevLex, GrLex, Lex, MonomialOrder
from .poly import Poly, VarContext
from .parsing import parse_poly
from .groebner import Ideal, buchberger, normal_form, s_polynomial
from .morphisms import (
    AffineVariety,
    BiregularReport,
    ConstructibleSet,
    InterpolationResult,
    MinPolyResult,
    Morphism,
    SurjectivityReport,
)
from .endos import (
    DichotomyReport,
    Endomorphism,
    InversionResult,
    JCReport,
    etale_dichotomy,
    invert,
    is_etale,
    jacobian_determinant,
    jc_criteria,
    poly_matrix_det,
    random_tame_automorphism,
)
from .session import Session, parse_session
from .fixtures import SNAPSHOTS, fixture_names, fixture_session_text, load_fixture

__version__ = "0.1.0"

__all__ = [
    "AffineVariety",
    "BiregularReport",
    "Block",
    "ConstructibleSet",
    "ContextMismatchError",
    "DegenerateDivisorError",
    "DichotomyReport",
    "Endomorphism",
    "EngineInconsistencyError",
    "GREVLEX",
    "GRLEX",
    "GrLex",
    "GrevLex",
    "Ideal",
    "InterpolationResult",
    "InversionResult",
    "JCReport",
    "LEX",
    "Lex",
    "MinPolyResult",
    "MissingAssertionError",
    "MonomialOrder",
    "Morphism",
    "NotDominantError",
    "NotEtaleError",
    "NotInjectiveError",
    "ParseError",
    "Poly",
    "PolymapError",
    "PreconditionError",
    "Session",
    "SessionFormatError",
    "SNAPSHOTS",
    "SurjectivityReport",
    "TargetNotAffineSpaceError",
    "UnknownVariableError",
    "VarContext",
    "buchberger",
    "etale_dichotomy",
    "fixture_names",
    "fixture_session_text",
    "invert",
    "is_etale",
    "jacobian_determinant",
    "jc_criteria",
    "load_fixture",
    "normal_form",
    "parse_poly",
    "parse_session",
    "poly_matrix_det",
    "random_tame_automorphism",
    "s_polynomial",
]
