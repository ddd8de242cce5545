"""Value semantics of the immutable value types, the verdict records that
load on first use, and the modules the command path imports."""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import polymap
from polymap import (
    GREVLEX,
    GRLEX,
    LEX,
    AffineVariety,
    Block,
    ContextMismatchError,
    Ideal,
    MonomialOrder,
    Poly,
    VarContext,
    etale_dichotomy,
    invert,
    jc_criteria,
    load_fixture,
    parse_poly,
)
from polymap.cli import _COMMANDS

ROOT = Path(__file__).resolve().parent.parent
XY = VarContext(("x", "y"))

# Runs in a fresh interpreter: which of the watched modules each command
# leaves loaded, one stderr line per command.
COMMAND_PATH = """
import sys

import polymap
from polymap import cli

for argv in (["--fixture", "square", "dim"], ["--fixture", "triangular", "interpolate", "-g", "x"]):
    cli.main(argv)
    print(",".join(m for m in ("dataclasses", "inspect", "polymap.reports") if m in sys.modules), file=sys.stderr)
"""


def test_command_path_imports_no_dataclasses():
    # -S keeps site hooks (a .pth file may import anything) out of the count.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-S", "-c", COMMAND_PATH], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    after_dim, after_interpolate = done.stderr.splitlines()
    assert after_dim == ""
    assert "polymap.reports" in after_interpolate.split(",")


def test_orders_of_different_classes_stay_apart():
    orders = [LEX, GRLEX, GREVLEX, Block((0,)), Block((1,))]
    for i, a in enumerate(orders):
        for b in orders[i + 1:]:
            assert a != b and not a == b, (a, b)
    assert len({order: i for i, order in enumerate(orders)}) == 5


def test_equal_fields_make_equal_values():
    assert Block((0, 1)) == Block((0, 1)) and Block((0, 1)) is not Block((0, 1))
    assert hash(Block((0, 1))) == hash(Block((0, 1)))
    ctx = VarContext(("x", "y"))
    assert ctx == VarContext(("x", "y")) and hash(ctx) == hash(VarContext(("x", "y")))
    assert ctx != ("x", "y") and not ctx == ("x", "y")
    assert ctx != VarContext(("y", "x"))


def test_reprs_name_the_fields():
    assert repr(VarContext(("x", "y"))) == "VarContext(names=('x', 'y'))"
    assert repr(Block((0, 2))) == "Block(head=(0, 2))"
    assert repr(LEX) == "Lex()"


SHEAR = load_fixture("shear")


@pytest.mark.parametrize("value, field", [
    (XY, "names"), (MonomialOrder(), "extra"), (LEX, "extra"), (GRLEX, "extra"), (GREVLEX, "extra"),
    (Block((0,)), "head"), (SHEAR.map.source, "ideal"), (SHEAR, "depth"), (_COMMANDS["dim"], "run"),
], ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_values_are_immutable(value, field):
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_values_copy_and_pickle():
    monomials = [(0, 1, 1), (2, 0, 0), (1, 0, 1), (0, 0, 3)]
    for value in (XY, Block((0, 2)), LEX, GRLEX, GREVLEX):
        for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert copied == value and type(copied) is type(value), copied
            if isinstance(value, VarContext):
                assert (copied.index("x"), copied.index("y")) == (0, 1)
            else:
                assert sorted(monomials, key=copied.key_function(3)) == sorted(monomials, key=value.key_function(3))


def test_affine_variety_refuses_an_ideal_over_another_ring():
    uv = VarContext(("u", "v"))
    with pytest.raises(ContextMismatchError):
        AffineVariety(XY, Ideal(uv, (parse_poly("u*v", uv),)))
    variety = AffineVariety(XY, Ideal(XY, (parse_poly("x*y", XY),)), assert_factorial=True)
    assert (variety.assert_irreducible, variety.assert_factorial) == (False, True)


def test_every_exported_name_resolves():
    for name in polymap.__all__:
        assert getattr(polymap, name) is not None, name
    with pytest.raises(AttributeError):
        polymap.NoSuchName  # noqa: B018


def test_records_are_dataclasses():
    shear = SHEAR.map
    triangular = load_fixture("triangular").map
    x = Poly.variable(triangular.source.ctx, "x")
    records = {
        "InterpolationResult": triangular.interpolate(x),
        "MinPolyResult": shear.minimal_polynomial(Poly.variable(shear.source.ctx, "y")),
        "ConstructibleSet": shear.constructible_image(),
        "SurjectivityReport": shear.almost_surjective(),
        "BiregularReport": triangular.biregular(),
        "InversionResult": invert(triangular),
        "JCReport": jc_criteria(triangular),
        "DichotomyReport": etale_dichotomy(triangular),
    }
    for name, record in records.items():
        assert type(record) is getattr(polymap, name), name
        assert dataclasses.is_dataclass(record), name
        assert dataclasses.replace(record) == record, name
