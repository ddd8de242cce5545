"""Embedded fixture library: small named maps with known behavior.

Each fixture is a session text plus a snapshot of the headline verdicts
(expected image closure, dominance, injectivity, almost-surjectivity);
tests replay the snapshots against the engine.
"""

from __future__ import annotations

from .errors import PolymapError
from .session import Session, parse_session

_SESSIONS: dict[str, str] = {
    # t -> (t^2, t^3): injective parametrization of the cuspidal cubic.
    "cusp": """
        source_ring: t
        target_ring: u v
        map: u = t^2 ; v = t^3
    """,
    # (x, y) -> (x, x*y): dominant, misses the punctured line u = 0.
    "shear": """
        source_ring: x y
        target_ring: u v
        map: u = x ; v = x*y
    """,
    # First row of a determinant-one 2x2 matrix; image misses only the origin.
    "sl2row": """
        source_ring: a b c d
        source_ideal: a*d - b*c - 1
        target_ring: u v
        map: u = a ; v = b
    """,
    # x-projection of the hyperbola x*z = 1: an open immersion onto u != 0.
    "hyperbola": """
        source_ring: x z
        source_ideal: x*z - 1
        target_ring: u
        map: u = x
        assert_etale: true
    """,
    # Elementary symmetric functions of two variables: onto, two-to-one.
    "sym2": """
        source_ring: x y
        target_ring: u v
        map: u = x + y ; v = x*y
    """,
    # Squaring on the line: onto over an algebraically closed field.
    "square": """
        source_ring: t
        target_ring: u
        map: u = t^2
    """,
    # Triangular plane automorphism.
    "triangular": """
        source_ring: x y
        target_ring: u v
        map: u = x + y^2 ; v = y
    """,
    # Identity on the plane.
    "identity2": """
        source_ring: x y
        target_ring: u v
        map: u = x ; v = y
    """,
}

# Expected headline verdicts, frozen from independent derivations
# (substitution identities, fiber case analysis, point sampling).
SNAPSHOTS: dict[str, dict] = {
    "cusp": {
        "image_closure": ["u^3 - v^2"],
        "dominant": False,
        "injective": True,
        "almost_surjective": False,
        "surjective": False,
        "image_exact": False,
    },
    "shear": {
        "image_closure": [],
        "dominant": True,
        "injective": False,
        "almost_surjective": False,
        "surjective": False,
        "image_exact": True,
        "complement_closure": ["u"],
    },
    "sl2row": {
        "image_closure": [],
        "dominant": True,
        "injective": False,
        "almost_surjective": True,
        "surjective": False,
        "image_exact": True,
        "complement_closure": ["u", "v"],
    },
    "hyperbola": {
        "image_closure": [],
        "dominant": True,
        "injective": True,
        "almost_surjective": False,
        "surjective": False,
        "image_exact": True,
        "complement_closure": ["u"],
    },
    "sym2": {
        "image_closure": [],
        "dominant": True,
        "injective": False,
        "almost_surjective": True,
        "surjective": True,
        "image_exact": True,
    },
    "square": {
        "image_closure": [],
        "dominant": True,
        "injective": False,
        "almost_surjective": True,
        "surjective": True,
        "image_exact": True,
    },
    "triangular": {
        "image_closure": [],
        "dominant": True,
        "injective": True,
        "almost_surjective": True,
        "surjective": True,
        "image_exact": True,
        "inverse": ["-v^2 + u", "v"],
    },
    "identity2": {
        "image_closure": [],
        "dominant": True,
        "injective": True,
        "almost_surjective": True,
        "surjective": True,
        "image_exact": True,
        "inverse": ["u", "v"],
    },
}


def fixture_names() -> list[str]:
    return sorted(_SESSIONS)


def fixture_session_text(name: str) -> str:
    try:
        raw = _SESSIONS[name]
    except KeyError:
        raise PolymapError(f"unknown fixture {name!r}; available: {', '.join(fixture_names())}") from None
    return "\n".join(line.strip() for line in raw.strip().splitlines()) + "\n"


def load_fixture(name: str) -> Session:
    return parse_session(fixture_session_text(name))
