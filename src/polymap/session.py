"""Sessions: a map between two varieties, with the settings the
commands read.

A session holds one model, the :class:`~polymap.morphisms.Morphism`, with
its flags.  :meth:`Session.from_json_dict` builds it from the JSON object
that :meth:`Session.to_json_dict` reads back from it, field by field: one
variable per ring entry, one polynomial per ideal entry, one
``name = polynomial`` per map entry.  Session files spell the same object
line by line; :func:`parse_session` only splits each value into its JSON
shape and calls the builder.

File format (keys in any order, ``#`` starts a comment, blank lines ignored)::

    source_ring: x y
    source_ideal: x*y - 1          # ';'-separated generators, optional
    target_ring: u v
    target_ideal:                  # optional, same syntax
    map: u = x ; v = x*y
    assert_factorial: true         # flags default to false; each is read
    assert_etale: false            # only where the engine cannot decide
    depth: 8                       # image-recursion depth

Every target variable must get exactly one map entry.  The map is built
and checked on load: each target equation must pull back into the source
ideal.  The echo prints the ideals' nonzero generators, so a ``0``
generator is dropped.
"""

from __future__ import annotations

from .errors import SessionFormatError
from .morphisms import DEFAULT_DEPTH, AffineVariety, Morphism
from .groebner import Ideal
from .parsing import parse_poly
from .poly import Poly, VarContext
from .values import Value

_FLAGS = ("assert_factorial", "assert_etale")
_KEYS = ("source_ring", "source_ideal", "target_ring", "target_ideal", "map", "depth") + _FLAGS
_KIND_NAMES = {str: "string", list: "JSON array", bool: "boolean", dict: "JSON object"}


def _entry(data, key: str, where: str, kind: type = object, required: bool = True):
    """``data[key]`` of a JSON object; refuses a non-object, a missing
    required entry, or an entry that is not a ``kind`` (an optional one
    may be null) with a SessionFormatError naming it."""
    if not isinstance(data, dict):
        raise SessionFormatError(f"{where} is not a JSON object")
    if required and key not in data:
        raise SessionFormatError(f"{where} has no {key!r} entry")
    value = data.get(key)
    if not isinstance(value, kind) and (required or value is not None):
        raise SessionFormatError(f"{where} entry {key!r} is not a {_KIND_NAMES[kind]}")
    return value


def _texts(data, key: str, where: str, required: bool = True, length: int | None = None) -> list[str] | None:
    """A JSON array of polynomial or variable texts (exactly ``length``
    of them, when given), read through ``_entry``.  A line break is
    refused, so every accepted session stays writable as a session file."""
    texts = _entry(data, key, where, list, required)
    if texts is not None and (not all(isinstance(t, str) for t in texts) or length not in (None, len(texts))):
        size = f"{length} " if length else ""
        raise SessionFormatError(f"{where} entry {key!r} is not an array of {size}strings")
    # A line break is any that ``str.splitlines`` splits at.
    if texts is not None and not all("".join(t.splitlines()) == t for t in texts):
        raise SessionFormatError(f"{where} entry {key!r} contains a line break")
    return texts


class Session(Value):
    """A map and the one setting that the commands read: the image
    descent's ``depth``."""

    __slots__ = _fields = ("map", "depth")

    def __init__(self, map: Morphism, depth: int = DEFAULT_DEPTH):
        object.__setattr__(self, "map", map)
        object.__setattr__(self, "depth", depth)

    def morphism(self) -> Morphism:
        return self.map

    @classmethod
    def from_json_dict(cls, data) -> Session:
        """The session that :meth:`to_json_dict` wrote as ``data``.  Each
        field is read with its JSON type and checked once: variable names,
        one polynomial per ideal entry, one assignment per map entry with
        every target variable assigned once and ``depth >= 1``.  The map
        is then built, which checks that it is well defined.  Keys it does
        not read are ignored."""
        where = "session"
        source_ring = tuple(_texts(data, "source_ring", where))
        target_ring = tuple(_texts(data, "target_ring", where))
        src, tgt = VarContext(source_ring), VarContext(target_ring)
        assignments: dict[str, Poly] = {}
        for entry in _texts(data, "map", where):
            name, equals, expr = entry.partition("=")
            name = name.strip()
            if not equals:
                raise SessionFormatError(f"map entry {entry!r} is not of the form 'var = polynomial'")
            if name not in tgt:
                raise SessionFormatError(f"map assigns unknown target variable {name!r}")
            if name in assignments:
                raise SessionFormatError(f"map assigns target variable {name!r} twice")
            assignments[name] = parse_poly(expr.strip(), src)
        missing = [n for n in target_ring if n not in assignments]
        if missing:
            raise SessionFormatError(f"map misses target variables {missing}")
        depth = data.get("depth", DEFAULT_DEPTH)
        if type(depth) is not int or depth < 1:
            raise SessionFormatError(f"{where} entry 'depth' is not a positive integer")

        def ideal(key: str, ctx: VarContext) -> Ideal:
            return Ideal(ctx, (parse_poly(text, ctx) for text in _texts(data, key, where, required=False) or ()))

        source_ideal, target_ideal = ideal("source_ideal", src), ideal("target_ideal", tgt)
        factorial, etale = (bool(_entry(data, flag, where, bool, required=False)) for flag in _FLAGS)
        morphism = Morphism(
            AffineVariety(src, source_ideal),
            AffineVariety(tgt, target_ideal, assert_factorial=factorial),
            (assignments[n] for n in target_ring),
            assert_etale=etale,
        )
        return cls(morphism, depth)

    def to_json_dict(self) -> dict:
        source, target = self.map.source, self.map.target
        return {
            "source_ring": list(source.ctx.names),
            "source_ideal": [str(g) for g in source.ideal.generators],
            "target_ring": list(target.ctx.names),
            "target_ideal": [str(g) for g in target.ideal.generators],
            "map": [f"{n} = {c}" for n, c in zip(target.ctx.names, self.map.coords)],
            "assert_factorial": target.assert_factorial,
            "assert_etale": self.map.assert_etale,
            "depth": self.depth,
        }


def _parse_bool(value: str, key: str) -> bool:
    if value.lower() in ("true", "yes", "1"):
        return True
    if value.lower() in ("false", "no", "0"):
        return False
    raise SessionFormatError(f"{key} expects true/false, got {value!r}")


def _json_value(key: str, value: str):
    """A session-file value in the JSON shape of its key."""
    if key in _FLAGS:
        return _parse_bool(value, key)
    if key == "depth":
        try:
            return int(value)
        except ValueError:
            raise SessionFormatError(f"depth must be an integer, got {value!r}") from None
    if key.endswith("_ring"):
        return value.split()
    return [chunk.strip() for chunk in value.split(";") if chunk.strip()]


def parse_session(text: str) -> Session:
    data: dict = {}
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
        if key in data:
            raise SessionFormatError(f"line {lineno}: duplicate key {key!r}")
        data[key] = _json_value(key, value.strip())
    return Session.from_json_dict(data)
