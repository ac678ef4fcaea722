import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import codiscrete, cyclic_group, isomorphic_pair
from relmonad import gen
from relmonad.checker import CheckConfig, _poset_category, _wide_poset_category
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
        assert validate_category(c) is None, c.name


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
    assert validate_category(bad) == ("broken-associativity", "(h=1, g=2, f=1)")


def test_validation_catches_missing_and_spurious(arrow):
    missing = dict(arrow.comp)
    del missing[(1, 2)]
    bad = validate_category(
        FinCategory("m", 2, arrow.mor_src, arrow.mor_tgt, arrow.identity, missing)
    )
    assert bad[0] == "missing-composite"

    spurious = dict(arrow.comp)
    spurious[(2, 1)] = 2
    bad = validate_category(
        FinCategory("s", 2, arrow.mor_src, arrow.mor_tgt, arrow.identity, spurious)
    )
    assert bad[0] == "spurious-composite"


def test_validation_catches_bad_identity(arrow):
    bad = validate_category(
        FinCategory("i", 2, arrow.mor_src, arrow.mor_tgt, [0, 2], arrow.comp)
    )
    assert bad[0] == "bad-identity"


def test_functor_identity_and_validation(arrow, square):
    f = FunctorTable.unary(arrow, square, [0, 1], [0, 1, 4], name="corner")
    assert validate_functor(f) is None
    assert f.evaluate((1,)) == 1
    assert f.apply_mor((2,)) == 4
    assert validate_functor(FunctorTable.identity(square)) is None


def test_functor_validation_catches_non_functoriality(lz3):
    # id/p -> id but q -> q: then F(p o q) = id while F(p) o F(q) = q
    g = FunctorTable.unary(lz3, lz3, [0], [0, 0, 2])
    assert validate_functor(g)[0] == "functor-composition"


def test_functor_validation_catches_bad_typing(arrow, square):
    g = FunctorTable.unary(arrow, square, [0, 1], [0, 1, 8])  # 8 lands at 3, not 1
    assert validate_functor(g)[0] == "functor-typing"


def test_compose_functor_substitutes(arrow, square):
    f = FunctorTable.unary(arrow, square, [0, 1], [0, 1, 4], name="corner")
    h = FunctorTable.unary(square, square, [3, 3, 3, 3], [3] * 9, name="const3")
    hf = compose_functor(h, 0, f)
    assert hf.evaluate((0,)) == 3
    assert validate_functor(hf) is None
    with pytest.raises(SlotMismatchError):
        compose_functor(f, 1, h)


def test_binary_functor_from_product(arrow, z2):
    # project to the first factor, as a 2-slot table
    obj_map = {t: t[0] for t in itertools.product(arrow.objects, z2.objects)}
    mor_map = {t: t[0] for t in itertools.product(arrow.morphisms, z2.morphisms)}
    pr = FunctorTable((arrow, z2), arrow, obj_map, mor_map, name="pr0")
    assert validate_functor(pr) is None


def test_nat_trans_validation(arrow, square):
    f = FunctorTable.unary(arrow, square, [0, 1], [0, 1, 4], name="corner")
    g = FunctorTable.unary(arrow, square, [0, 3], [0, 3, 8], name="diag")
    eta = NatTransTable(f, g, {(0,): 0, (1,): 6})
    assert validate_nat_trans(eta) is None
    bad = NatTransTable(f, g, {(0,): 0, (1,): 7})  # 7: 2 -> 3 has wrong source
    assert validate_nat_trans(bad)[0] == "nat-typing"


def test_nat_trans_naturality_failure(lz3):
    # p is not central in the left-zero monoid, so it is no natural endo-map
    ident = FunctorTable.identity(lz3)
    bad = NatTransTable(ident, ident, {(0,): 1})
    assert validate_nat_trans(bad)[0] == "naturality"
    ok = NatTransTable(ident, ident, {(0,): 0})
    assert validate_nat_trans(ok) is None


# -- generating arrows ----------------------------------------------------------


def assert_generation_sound(c):
    """Every non-identity is a generator or derived, exactly once; each
    derivation m = g after f has non-identity factors below m; and the
    generators close under composition to every morphism, with the record's
    graph listing their endpoints."""
    assert validate_category(c) is None, c.name
    record = c.generation
    derived = [m for m, _, _ in record.derivations]
    assert sorted(record.generators + tuple(derived)) == list(c.non_identities)
    assert list(record.generators) == sorted(record.generators)
    assert derived == sorted(derived)
    for m, g, f in record.derivations:
        assert not c.is_identity(g) and not c.is_identity(f)
        assert g < m and f < m
        assert c.comp[g, f] == m
    assert record.mor_src == tuple(c.mor_src[m] for m in record.generators)
    assert record.mor_tgt == tuple(c.mor_tgt[m] for m in record.generators)
    assert record.n_objects == c.n_objects
    reached = set(c.identity) | set(record.generators)
    grown = True
    while grown:
        new = {c.comp[g, f] for g in record.generators for f in reached
               if c.mor_tgt[f] == c.mor_src[g]} - reached
        reached |= new
        grown = bool(new)
    assert reached == set(c.morphisms)


def test_generators_of_small_shapes(arrow, z2, lz3, square):
    assert arrow.generation.generators == (2,) and not arrow.generation.derivations
    assert z2.generation.generators == (1,)
    assert lz3.generation.generators == (1, 2)  # p = p q: but q is not below p
    assert square.generation.generators == (4, 5, 6, 7)
    assert square.generation.derivations == ((8, 6, 4),)
    z3 = cyclic_group(3)
    assert z3.generation.generators == (1,)
    assert z3.generation.derivations == ((2, 1, 1),)
    assert isomorphic_pair().generation.generators == (2, 3)
    # ids need not put identities first: s s = id derives no identity
    late_identity = FinCategory("Z2'", 1, [0, 0], [0, 0], [1],
                                {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1})
    assert late_identity.generation.generators == (0,)
    assert not late_identity.generation.derivations
    builtins = [gen.builtin_category(name) for name in ("arrow", "z2", "leftzero3", "square")]
    for c in builtins + [z3, isomorphic_pair(), codiscrete(3), late_identity]:
        assert_generation_sound(c)


def test_generation_is_cached(square):
    assert square.generation is square.generation


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 6), st.integers(0, 9))
def test_free_dag_generators_are_its_edges(seed, max_objects, max_edges):
    c = gen.free_dag_category(random.Random(seed), max_objects, max_edges)
    assert_generation_sound(c)
    edges = [m for m in c.non_identities if all(
        c.comp[g, f] != m for g in c.non_identities for f in c.non_identities
        if c.mor_tgt[f] == c.mor_src[g])]
    assert list(c.generation.generators) == edges


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_generation_of_checker_shapes(seed):
    rng = random.Random(seed)
    for c in (gen.gen_category(rng, 3, 3), _poset_category(rng, CheckConfig()),
              _wide_poset_category(rng)):
        assert_generation_sound(c)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 7), st.integers(1, 4))
def test_generation_of_groups_and_codiscrete_categories(n, k):
    assert_generation_sound(cyclic_group(n))
    assert cyclic_group(n).generation.generators == (1,)
    assert_generation_sound(codiscrete(k))
