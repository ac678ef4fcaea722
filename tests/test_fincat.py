import itertools

import pytest

from relmonad.errors import SlotMismatchError
from relmonad.fincat import (
    FinCategory,
    FunctorTable,
    NatTransTable,
    compose_functor,
    validate_category,
    validate_functor,
    validate_nat_trans,
)


def test_fixtures_are_categories(arrow, z2, lz3, square):
    for c in (arrow, z2, lz3, square):
        assert validate_category(c).ok, c.name


def test_hom_and_compose(arrow):
    assert arrow.hom(0, 1) == (2,)
    assert arrow.hom(1, 0) == ()
    assert arrow.compose(1, 2) == 2
    with pytest.raises(KeyError):
        arrow.compose(2, 1)  # a o id1 is not composable in this direction


def test_validation_catches_broken_associativity(lz3):
    bad = FinCategory(
        "bad", 1, lz3.mor_src, lz3.mor_tgt, lz3.identity,
        {**lz3.comp, (1, 2): 0},  # p o q = id breaks (p o q) o q = p o (q o q)
    )
    report = validate_category(bad)
    assert not report.ok
    assert any(f.law == "broken-associativity" for f in report.failures)


def test_validation_catches_missing_and_spurious(arrow):
    missing = dict(arrow.comp)
    del missing[(1, 2)]
    report = validate_category(
        FinCategory("m", 2, arrow.mor_src, arrow.mor_tgt, arrow.identity, missing)
    )
    assert {f.law for f in report.failures} == {"missing-composite"}

    spurious = dict(arrow.comp)
    spurious[(2, 1)] = 2
    report = validate_category(
        FinCategory("s", 2, arrow.mor_src, arrow.mor_tgt, arrow.identity, spurious)
    )
    assert {f.law for f in report.failures} == {"spurious-composite"}


def test_validation_catches_bad_identity(arrow):
    report = validate_category(
        FinCategory("i", 2, arrow.mor_src, arrow.mor_tgt, [0, 2], arrow.comp)
    )
    assert any(f.law == "bad-identity" for f in report.failures)


def test_functor_identity_and_validation(arrow, square):
    f = FunctorTable.unary(arrow, square, [0, 1], [0, 1, 4], name="corner")
    assert validate_functor(f).ok
    assert f.evaluate((1,)) == 1
    assert f.apply_mor((2,)) == 4
    assert validate_functor(FunctorTable.identity(square)).ok


def test_functor_validation_catches_non_functoriality(lz3):
    # id/p -> id but q -> q: then F(p o q) = id while F(p) o F(q) = q
    g = FunctorTable.unary(lz3, lz3, [0], [0, 0, 2])
    report = validate_functor(g)
    assert not report.ok
    assert any(f.law == "functor-composition" for f in report.failures)


def test_functor_validation_catches_bad_typing(arrow, square):
    g = FunctorTable.unary(arrow, square, [0, 1], [0, 1, 8])  # 8 lands at 3, not 1
    report = validate_functor(g)
    assert any(f.law == "functor-typing" for f in report.failures)


def test_compose_functor_substitutes(arrow, square):
    f = FunctorTable.unary(arrow, square, [0, 1], [0, 1, 4], name="corner")
    h = FunctorTable.unary(square, square, [3, 3, 3, 3], [3] * 9, name="const3")
    hf = compose_functor(h, 0, f)
    assert hf.evaluate((0,)) == 3
    assert validate_functor(hf).ok
    with pytest.raises(SlotMismatchError):
        compose_functor(f, 1, h)


def test_binary_functor_from_product(arrow, z2):
    # project to the first factor, as a 2-slot table
    obj_map = {t: t[0] for t in itertools.product(arrow.objects, z2.objects)}
    mor_map = {t: t[0] for t in itertools.product(arrow.morphisms, z2.morphisms)}
    pr = FunctorTable((arrow, z2), arrow, obj_map, mor_map, name="pr0")
    assert validate_functor(pr).ok


def test_nat_trans_validation(arrow, square):
    f = FunctorTable.unary(arrow, square, [0, 1], [0, 1, 4], name="corner")
    g = FunctorTable.unary(arrow, square, [0, 3], [0, 3, 8], name="diag")
    eta = NatTransTable(f, g, {(0,): 0, (1,): 6})
    assert validate_nat_trans(eta).ok
    bad = NatTransTable(f, g, {(0,): 0, (1,): 7})  # 7: 2 -> 3 has wrong source
    report = validate_nat_trans(bad)
    assert any(f.law == "nat-typing" for f in report.failures)


def test_nat_trans_naturality_failure(lz3):
    # p is not central in the left-zero monoid, so it is no natural endo-map
    ident = FunctorTable.identity(lz3)
    bad = NatTransTable(ident, ident, {(0,): 1})
    report = validate_nat_trans(bad)
    assert any(f.law == "naturality" for f in report.failures)
    ok = NatTransTable(ident, ident, {(0,): 0})
    assert validate_nat_trans(ok).ok
