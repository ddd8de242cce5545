"""Per-layer counters and times, recorded from outside the program.

``Tracer`` wraps public functions of polymap at every module binding
that holds them (``from .groebner import normal_form`` in ``morphisms``
and ``cli`` included) and class methods in place, and restores them on
exit.  Each wrapped function records calls, total time (outermost
activation only, so recursion is not counted twice) and self time (total
minus the time of wrapped functions it called).  Values accumulate over
every ``with tracer:`` block until ``reset``.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

from polymap import cli, endos, groebner, morphisms, orders, parsing, poly, session

# (metric prefix, owner, attribute)
METHODS = (
    ("poly.mul", poly.Poly, "__mul__"),
    ("poly.substitute", poly.Poly, "substitute"),
    ("poly.leading_monomial", poly.Poly, "leading_monomial"),
    ("groebner.eliminate", groebner.Ideal, "eliminate"),
    ("groebner.radical_contains", groebner.Ideal, "radical_contains"),
    ("groebner.saturation", groebner.Ideal, "saturation"),
    ("groebner.intersect", groebner.Ideal, "intersect"),
    ("groebner.groebner_basis", groebner.Ideal, "groebner_basis"),
    ("morphisms.interpolate", morphisms.Morphism, "interpolate"),
    ("morphisms.determined_by", morphisms.Morphism, "determined_by"),
    ("morphisms.minimal_polynomial", morphisms.Morphism, "minimal_polynomial"),
    ("morphisms.constructible_image", morphisms.Morphism, "constructible_image"),
    ("morphisms.almost_surjective", morphisms.Morphism, "almost_surjective"),
    ("morphisms.is_injective", morphisms.Morphism, "is_injective"),
    ("morphisms.biregular", morphisms.Morphism, "biregular"),
)
# (metric prefix, defining module, function name); every polymap module
# binding that holds the same function object is wrapped.
FUNCTIONS = (
    ("groebner.normal_form", groebner, "normal_form"),
    ("groebner.buchberger", groebner, "buchberger"),
    ("endos.invert", endos, "invert"),
    ("endos.jc_criteria", endos, "jc_criteria"),
    ("endos.jacobian_determinant", endos, "jacobian_determinant"),
    ("parsing.parse_poly", parsing, "parse_poly"),
    ("session.parse_session", session, "parse_session"),
    ("cli.run_command", cli, "run_command"),
    ("cli.main", cli, "main"),
)
ORDER_CLASSES = (orders.Lex, orders.GrLex, orders.GrevLex, orders.Block)


@dataclass
class Layer:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    active: int = 0


@dataclass
class Frame:
    child_s: float = 0.0


@dataclass
class Tracer:
    layers: dict[str, Layer] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    _stack: list[Frame] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    def reset(self) -> None:
        for layer in self.layers.values():
            layer.calls, layer.total_s, layer.self_s = 0, 0.0, 0.0
        for name in self.counts:
            self.counts[name] = 0

    def snapshot(self) -> dict[str, float]:
        """Every per-layer value recorded since the last reset, by metric name."""
        out: dict[str, float] = {}
        for name, layer in self.layers.items():
            if name == "cli.main":
                out["cli.main.self_s"] = layer.self_s
                continue
            out[f"{name}.calls"] = layer.calls
            out[f"{name}.total_s"] = layer.total_s
            out[f"{name}.self_s"] = layer.self_s
        out.update(self.counts)
        return out

    # -- wrapping ------------------------------------------------------------------

    def _wrap(self, name: str, original, before=None):
        layer = self.layers.setdefault(name, Layer())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            layer.calls += 1
            layer.active += 1
            frame = Frame()
            stack.append(frame)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                layer.active -= 1
                layer.self_s += elapsed - frame.child_s
                if layer.active == 0:
                    layer.total_s += elapsed
                if stack:
                    stack[-1].child_s += elapsed

        wrapper.__wrapped__ = original
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        counts = self.counts
        for name in ("groebner.normal_form.terms_in", "groebner.basis.computed",
                     "groebner.basis.cache_hits", "orders.key.calls"):
            counts.setdefault(name, 0)

        def count_terms(args):
            counts["groebner.normal_form.terms_in"] += args[0].num_terms()

        modules = [m for n, m in sys.modules.items() if n == "polymap" or n.startswith("polymap.")]
        for name, module, attr in FUNCTIONS:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, count_terms if name == "groebner.normal_form" else None)
            for m in modules:
                if m.__dict__.get(attr) is original:
                    self._set(m, attr, wrapper)
        for name, owner, attr in METHODS:
            wrapper = self._wrap(name, owner.__dict__[attr])
            self._set(owner, attr, wrapper)
            if attr == "__mul__":
                self._set(owner, "__rmul__", wrapper)
        self._split_basis_calls()
        self._count_keys()
        return self

    def _split_basis_calls(self) -> None:
        """A groebner_basis call that ran buchberger computed a basis; one that
        did not was served from the ideal's cache."""
        counts = self.counts
        buchberger = self.layers["groebner.buchberger"]
        traced = groebner.Ideal.groebner_basis

        def groebner_basis(ideal, *args, **kwargs):
            before = buchberger.calls
            try:
                return traced(ideal, *args, **kwargs)
            finally:
                counts["groebner.basis.computed" if buchberger.calls > before else "groebner.basis.cache_hits"] += 1

        self._set(groebner.Ideal, "groebner_basis", groebner_basis)

    def _count_keys(self) -> None:
        """Count evaluations of the key callables that ``key`` and
        ``key_function`` hand out."""
        counts = self.counts

        def counting(key):
            def counted(*args):
                counts["orders.key.calls"] += 1
                return key(*args)
            return counted

        for cls in ORDER_CLASSES:
            if "key" in cls.__dict__:
                self._set(cls, "key", counting(cls.__dict__["key"]))
            if "key_function" in cls.__dict__:
                original = cls.__dict__["key_function"]
                self._set(cls, "key_function", lambda self_, arity, original=original: counting(original(self_, arity)))

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
