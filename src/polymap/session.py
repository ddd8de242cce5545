"""Line-oriented session files describing a map between two varieties.

Format (keys in any order, ``#`` starts a comment, blank lines ignored)::

    source_ring: x y
    source_ideal: x*y - 1          # ';'-separated generators, optional
    target_ring: u v
    target_ideal:                  # optional, same syntax
    map: u = x ; v = x*y
    assert_factorial: true         # flags default to false
    assert_irreducible: false
    assert_etale: false
    depth: 8                       # image-recursion depth
    order: grevlex                 # default report order

Every target variable must get exactly one map entry.  Parsing builds a
well-defined :class:`~polymap.morphisms.Morphism` (the membership checks
run on load).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SessionFormatError
from .morphisms import AffineVariety, Morphism
from .endos import Endomorphism
from .groebner import Ideal
from .orders import ORDERS_BY_NAME
from .parsing import parse_poly
from .poly import Poly, VarContext

_FLAGS = ("assert_factorial", "assert_irreducible", "assert_etale")
_KEYS = ("source_ring", "source_ideal", "target_ring", "target_ideal", "map", "depth", "order") + _FLAGS


@dataclass
class Session:
    source_ring: tuple[str, ...]
    target_ring: tuple[str, ...]
    source_ideal: tuple[Poly, ...]
    target_ideal: tuple[Poly, ...]
    map_coords: tuple[Poly, ...]  # ordered like target_ring
    assert_factorial: bool = False
    assert_irreducible: bool = False
    assert_etale: bool = False
    depth: int = 8
    order: str = "grevlex"
    _morphism: Morphism | None = field(default=None, repr=False, compare=False)

    @property
    def source_ctx(self) -> VarContext:
        return VarContext(self.source_ring)

    @property
    def target_ctx(self) -> VarContext:
        return VarContext(self.target_ring)

    def morphism(self) -> Morphism:
        if self._morphism is None:
            src = AffineVariety(
                self.source_ctx,
                Ideal(self.source_ctx, self.source_ideal),
                assert_irreducible=self.assert_irreducible,
            )
            tgt = AffineVariety(
                self.target_ctx,
                Ideal(self.target_ctx, self.target_ideal),
                assert_irreducible=self.assert_irreducible,
                assert_factorial=self.assert_factorial,
            )
            self._morphism = Morphism(src, tgt, self.map_coords, assert_etale=self.assert_etale)
        return self._morphism

    def endomorphism(self) -> Endomorphism:
        if self.source_ideal or self.target_ideal:
            raise SessionFormatError("endomorphism commands need affine-space source and target")
        if len(self.source_ring) != len(self.target_ring):
            raise SessionFormatError("endomorphism commands need equal source and target dimension")
        return Endomorphism(self.source_ctx, self.target_ctx, self.map_coords)

    def to_json_dict(self) -> dict:
        return {
            "source_ring": list(self.source_ring),
            "source_ideal": [str(g) for g in self.source_ideal],
            "target_ring": list(self.target_ring),
            "target_ideal": [str(g) for g in self.target_ideal],
            "map": [f"{n} = {c}" for n, c in zip(self.target_ring, self.map_coords)],
            "assert_factorial": self.assert_factorial,
            "assert_irreducible": self.assert_irreducible,
            "assert_etale": self.assert_etale,
            "depth": self.depth,
            "order": self.order,
        }


def _parse_bool(value: str, key: str) -> bool:
    if value.lower() in ("true", "yes", "1"):
        return True
    if value.lower() in ("false", "no", "0"):
        return False
    raise SessionFormatError(f"{key} expects true/false, got {value!r}")


def parse_session(text: str) -> Session:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if ":" not in body:
            raise SessionFormatError(f"line {lineno}: expected 'key: value', got {line!r}")
        key, value = body.split(":", 1)
        key = key.strip()
        if key not in _KEYS:
            raise SessionFormatError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise SessionFormatError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()

    for required in ("source_ring", "target_ring", "map"):
        if required not in raw:
            raise SessionFormatError(f"missing required key {required!r}")

    source_ring = tuple(raw["source_ring"].split())
    target_ring = tuple(raw["target_ring"].split())
    src_ctx = VarContext(source_ring)
    tgt_ctx = VarContext(target_ring)

    def parse_ideal(key: str, ctx: VarContext) -> tuple[Poly, ...]:
        value = raw.get(key, "")
        gens = []
        for chunk in value.split(";"):
            chunk = chunk.strip()
            if chunk:
                gens.append(parse_poly(chunk, ctx))
        return tuple(gens)

    assignments: dict[str, Poly] = {}
    for chunk in raw["map"].split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise SessionFormatError(f"map entry {chunk!r} is not of the form 'var = polynomial'")
        name, expr = chunk.split("=", 1)
        name = name.strip()
        if name not in tgt_ctx:
            raise SessionFormatError(f"map assigns unknown target variable {name!r}")
        if name in assignments:
            raise SessionFormatError(f"map assigns target variable {name!r} twice")
        assignments[name] = parse_poly(expr.strip(), src_ctx)
    missing = [n for n in target_ring if n not in assignments]
    if missing:
        raise SessionFormatError(f"map misses target variables {missing}")

    try:
        depth = int(raw.get("depth", "8"))
    except ValueError:
        raise SessionFormatError(f"depth must be an integer, got {raw['depth']!r}") from None
    if depth < 1:
        raise SessionFormatError("depth must be at least 1")
    order = raw.get("order", "grevlex")
    if order not in ORDERS_BY_NAME:
        raise SessionFormatError(f"unknown order {order!r}")

    return Session(
        source_ring=source_ring,
        target_ring=target_ring,
        source_ideal=parse_ideal("source_ideal", src_ctx),
        target_ideal=parse_ideal("target_ideal", tgt_ctx),
        map_coords=tuple(assignments[n] for n in target_ring),
        assert_factorial=_parse_bool(raw["assert_factorial"], "assert_factorial") if "assert_factorial" in raw else False,
        assert_irreducible=_parse_bool(raw["assert_irreducible"], "assert_irreducible") if "assert_irreducible" in raw else False,
        assert_etale=_parse_bool(raw["assert_etale"], "assert_etale") if "assert_etale" in raw else False,
        depth=depth,
        order=order,
    )
