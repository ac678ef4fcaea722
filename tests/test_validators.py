"""The six validators return None or their first violation as a (law,
witness) pair: they report malformed tables as typing violations, never
raise on one, and check their phases in a fixed order."""

import itertools
import random
import re

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import flat_rows, hom_sum_map, set_row
from relmonad import gen
from relmonad.errors import BudgetExceededError
from relmonad.fincat import (
    FinCategory,
    FunctorTable,
    NatTransTable,
    _table_gap,
    validate_category,
    validate_functor,
    validate_nat_trans,
)
from relmonad.multimap import TableMap, validate_multimap
from relmonad.presheaf import (
    Presheaf,
    PresheafMorphism,
    representable,
    validate_presheaf,
    validate_presheaf_morphism,
)

# -- malformed tables ------------------------------------------------------------


def test_malformed_categories_are_typing_violations():
    point = {(0, 0): 0}
    assert validate_category(FinCategory("c", 1, [0], [0], [0], {**point, (5, 0): 0})) == (
        "bad-typing", "comp(5,0) names an unknown morphism")
    assert validate_category(FinCategory("c", 1, [0], [0], [0], {**point, (-1, 0): 0})) == (
        "bad-typing", "comp(-1,0) names an unknown morphism")
    # one identity for two objects; two targets for one morphism
    assert validate_category(FinCategory("c", 2, [0, 1], [0, 1], [0], point)) == (
        "bad-typing", "2 targets for 2 morphisms, 1 identities for 2 objects")
    assert validate_category(FinCategory("c", 1, [0], [0, 0], [0], point)) == (
        "bad-typing", "2 targets for 1 morphisms, 1 identities for 1 objects")
    assert validate_category(FinCategory("c", 1, [0, 0], [0, 2], [0], {**point, (1, 0): 1})) == (
        "bad-typing", "mor 1 : 0 -> 2 leaves the objects")


def test_partial_or_overfull_functor_tables_are_typing_violations(arrow):
    # no image for morphism 2; no image for object 1; an image for a morphism 3
    # that arrow lacks
    assert validate_functor(FunctorTable.unary(arrow, arrow, [0, 1], [0, 1])) == (
        "functor-typing", "at (2,)")
    assert validate_functor(FunctorTable.unary(arrow, arrow, [0], [0, 1, 2])) == (
        "functor-typing", "at (1,)")
    assert validate_functor(FunctorTable.unary(arrow, arrow, [0, 1], [0, 1, 2, 2])) == (
        "functor-typing", "at (3,)")


def test_malformed_presheaf_morphisms_are_typing_violations(arrow, z2):
    y0 = representable(arrow, 0)
    for phi in (
        PresheafMorphism(y0, y0, [(0,)]),  # no row for object 1
        PresheafMorphism(y0, representable(z2, 0), [(0,), ()]),  # ends over other bases
        PresheafMorphism(y0, y0, [(0,), (), ()]),  # a row for an object arrow lacks
    ):
        assert validate_presheaf_morphism(phi)[0] == "morphism-typing"


def test_malformed_transformations_are_typing_violations(arrow, square):
    f = FunctorTable.identity(arrow)
    corner = FunctorTable.unary(arrow, square, [0, 1], [0, 1, 4], name="corner")
    for t in (
        NatTransTable(f, f, {(0,): 0}),  # no component at object 1
        NatTransTable(f, f, {(0,): 0, (1,): 1, (2,): 2}),  # a component at no object
        NatTransTable(f, corner, {(0,): 0, (1,): 1}),  # arrow -> arrow vs arrow -> square
    ):
        assert validate_nat_trans(t)[0] == "nat-typing"


# -- first-violation order -------------------------------------------------------
# each table breaks two phases; repairing the earlier one shows the later one


def test_category_checks_identities_before_totality(arrow):
    missing = dict(arrow.comp)
    del missing[(1, 2)]
    both = FinCategory("m", 2, arrow.mor_src, arrow.mor_tgt, [0, 2], missing)
    assert validate_category(both) == ("bad-identity", "obj 1 has identity 2")
    only = FinCategory("m", 2, arrow.mor_src, arrow.mor_tgt, arrow.identity, missing)
    assert validate_category(only) == ("missing-composite", "comp(1,2) undefined")


def test_functor_checks_totality_before_functoriality(lz3):
    assert validate_functor(FunctorTable.unary(lz3, lz3, [0], [0, 0])) == (
        "functor-typing", "at (2,)")
    assert validate_functor(FunctorTable.unary(lz3, lz3, [0], [0, 0, 2])) == (
        "functor-composition", "g=(1,) f=(2,)")


def test_nat_trans_checks_typing_before_naturality(lz3, z2):
    ident = FunctorTable.identity(lz3)
    elsewhere = FunctorTable.unary(lz3, z2, [0], [0, 0, 0], name="pt")
    assert validate_nat_trans(NatTransTable(ident, elsewhere, {(0,): 1})) == (
        "nat-typing", "1_LZ3 and pt are not parallel")
    assert validate_nat_trans(NatTransTable(ident, ident, {(0,): 1})) == (
        "naturality", "at morphism tuple (2,)")


def test_presheaf_checks_typing_before_contravariance(lz3):
    p = representable(lz3, 0)
    act = list(p.act)
    act[1] = (2, 1, 1)  # breaks contravariance
    act[2] = (0, 1, 5)  # 5 is out of range
    assert validate_presheaf(Presheaf(lz3, p.at, act)) == ("presheaf-typing", "act[2]")
    act[2] = p.act[2]
    assert validate_presheaf(Presheaf(lz3, p.at, act)) == ("broken-contravariance", "g=1 f=1")


def test_presheaf_morphism_checks_typing_before_naturality(lz3):
    p = representable(lz3, 0)
    swap = (0, 2, 1)  # swaps p and q, which precomposition does not commute with
    assert validate_presheaf_morphism(PresheafMorphism(p, p, [swap, ()])) == (
        "morphism-typing", "2 rows from LZ3 to LZ3")
    assert validate_presheaf_morphism(PresheafMorphism(p, p, [swap])) == (
        "broken-naturality", "morphism 1")


def test_multimap_checks_values_before_slot_actions(arrow):
    good = hom_sum_map(arrow, 2, name="sum2")
    cod_act, slot_act = dict(good.cod_act), dict(good.slot_act)
    set_row(cod_act, (1, 1, 0), (1, 0))  # the identity of object 0 swaps y_1 + y_1 at 0
    set_row(slot_act, (0, 2, 1, 0), (1, 0))  # slot 0's arrow lands in the wrong summand
    both = TableMap([arrow, arrow], arrow, good.sets, cod_act, slot_act)
    assert validate_multimap(both) == ("broken-identity-action", "args=(1, 1): act[id_0]")
    only = TableMap([arrow, arrow], arrow, good.sets, good.cod_act, slot_act)
    assert validate_multimap(only) == ("broken-naturality", "slot 0 mor 2 args=(0, 1)")


# -- gen's draws, intact and with one entry tampered -----------------------------


def _names_a_law(law, *validators):
    # the law appears as a whole word in one of the validators' docstrings
    docs = " ".join(v.__doc__ for v in validators)
    return re.search(rf"(?<![\w-]){re.escape(law)}(?![\w-])", docs) is not None


def _tampered_value(rng, size, out_of_range):
    return rng.choice([-1, size, 10**6]) if out_of_range else rng.randrange(max(size, 1))


def _category(rng, out_of_range):
    # one entry of mor_src, mor_tgt or identity, or one composite's value or
    # one of its key's factors; an out-of-range identity is a bad-identity
    c = gen.gen_category(rng, 3, 4)
    ends, identity, comp = [list(c.mor_src), list(c.mor_tgt)], list(c.identity), dict(c.comp)
    which = rng.randrange(5)
    if which < 2:
        ends[which][rng.randrange(c.n_morphisms)] = _tampered_value(rng, c.n_objects, out_of_range)
    elif which == 2:
        identity[rng.randrange(c.n_objects)] = _tampered_value(rng, c.n_morphisms, out_of_range)
    else:
        key = rng.choice(sorted(comp))
        value = comp.pop(key)
        if which == 3:
            value = _tampered_value(rng, c.n_morphisms, out_of_range)
        else:
            k = rng.randrange(2)
            key = key[:k] + (_tampered_value(rng, c.n_morphisms, out_of_range),) + key[k + 1:]
        comp[key] = value
    bad = FinCategory(c.name, c.n_objects, *ends, identity, comp)
    return c, bad, (validate_category,), "bad-identity" if which == 2 else "bad-typing"


def _functor(rng, out_of_range):
    c, d = gen.gen_category(rng, 3, 4), gen.gen_category(rng, 3, 4)
    f = gen.gen_functor(rng, (c,), d)
    obj_map, mor_map = dict(f.obj_map), dict(f.mor_map)
    table, size = rng.choice([(obj_map, d.n_objects), (mor_map, d.n_morphisms)])
    table[rng.choice(sorted(table))] = _tampered_value(rng, size, out_of_range)
    return f, FunctorTable(f.slots, d, obj_map, mor_map), (validate_functor,), "functor-typing"


def _nat_trans(rng, out_of_range):
    c, d = gen.gen_category(rng, 3, 4), gen.gen_category(rng, 3, 4)
    f, g = gen.gen_functor(rng, (c,), d), gen.gen_functor(rng, (c,), d)
    t = gen.gen_nat_trans(rng, f, g) or gen.gen_nat_trans(rng, f, f)
    comps = dict(t.components)
    comps[rng.choice(sorted(comps))] = _tampered_value(rng, d.n_morphisms, out_of_range)
    return t, NatTransTable(t.src, t.dst, comps), (validate_nat_trans,), "nat-typing"


def _presheaf(rng, out_of_range):
    c = gen.gen_category(rng, 3, 4)
    p = gen.gen_presheaf(rng, c, 24)
    m = rng.choice([m for m in c.morphisms if p.act[m]])
    row = list(p.act[m])
    row[rng.randrange(len(row))] = _tampered_value(rng, len(p.at[c.src(m)]), out_of_range)
    act = p.act[:m] + (tuple(row),) + p.act[m + 1:]
    return p, Presheaf(c, p.at, act), (validate_presheaf,), "presheaf-typing"


def _one_slot_map(rng, out_of_range):
    c, d = gen.gen_category(rng, 3, 4), gen.gen_category(rng, 3, 4)
    m = gen.gen_multimap(rng, (c,), d, 24, n_generators=1)
    cod_act, slot_act = dict(m.cod_act), dict(m.slot_act)
    table, typing = rng.choice([(cod_act, "presheaf-typing"), (slot_act, "morphism-typing")])
    flat = flat_rows(table)
    key = rng.choice(sorted(k for k, row in flat.items() if row))
    row = list(flat[key])
    # every fiber has at most 24 elements, so 24 is out of range
    row[rng.randrange(len(row))] = _tampered_value(rng, 24, out_of_range)
    set_row(table, key, tuple(row))
    bad = TableMap((c,), d, m.sets, cod_act, slot_act)
    return m, bad, (validate_multimap, validate_presheaf, validate_presheaf_morphism), typing


DRAWS = {"category": _category, "functor": _functor, "nat-trans": _nat_trans,
         "presheaf": _presheaf, "one-slot-map": _one_slot_map}


@pytest.mark.parametrize("kind", sorted(DRAWS))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), out_of_range=st.booleans())
def test_tampered_draws_report_a_documented_law(kind, seed, out_of_range):
    try:
        good, bad, validators, typing = DRAWS[kind](random.Random(seed), out_of_range)
    except BudgetExceededError:
        reject()  # a one-slot map with a fiber over 24 elements, or too many transformations
    assert validators[0](good) is None
    found = validators[0](bad)
    assert found is None or _names_a_law(found[0], *validators), found
    if out_of_range:
        assert found is not None and found[0] == typing, found


# -- functoriality on composable pairs only ---------------------------------------


def _functor_by_all_pairs(F):
    """validate_functor as it was written before it bucketed the morphism
    tuples by source: every pair of entries is scanned for composability."""
    for table, factors, size in ((F.obj_map, [s.objects for s in F.slots], F.dst.n_objects),
                                 (F.mor_map, [s.morphisms for s in F.slots], F.dst.n_morphisms)):
        gap = _table_gap(table, factors, size)
        if gap is not None:
            return "functor-typing", f"at {gap}"
    for objs in itertools.product(*(s.objects for s in F.slots)):
        ids = tuple(s.id_of(a) for s, a in zip(F.slots, objs))
        if F.mor_map[ids] != F.dst.id_of(F.obj_map[objs]):
            return "functor-identity", f"at {objs}"
    for ms, m_img in F.mor_map.items():
        srcs = tuple(s.src(m) for s, m in zip(F.slots, ms))
        tgts = tuple(s.tgt(m) for s, m in zip(F.slots, ms))
        if F.dst.src(m_img) != F.obj_map[srcs] or F.dst.tgt(m_img) != F.obj_map[tgts]:
            return "functor-typing", f"at {ms}"
    for fs in F.mor_map:
        for gs in F.mor_map:
            if all(s.tgt(f) == s.src(g) for s, g, f in zip(F.slots, gs, fs)):
                comp = tuple(s.compose(g, f) for s, g, f in zip(F.slots, gs, fs))
                if F.mor_map[comp] != F.dst.compose(F.mor_map[gs], F.mor_map[fs]):
                    return "functor-composition", f"g={gs} f={fs}"
    return None


def _retargeted_functor(rng):
    """A functor out of one or two slots with up to three entries of mor_map
    moved, mostly at non-identity tuples, to a parallel morphism or to any
    morphism; a parallel move keeps the typing and breaks identities or
    composites, when the hom allows."""
    slots = tuple(gen.gen_category(rng, 3, 4) for _ in range(rng.randint(1, 2)))
    d = gen.gen_category(rng, 3, 4)
    f = gen.gen_functor(rng, slots, d)
    mor_map = dict(f.mor_map)
    keys = sorted(mor_map)
    moving = [k for k in keys if not all(s.is_identity(m) for s, m in zip(slots, k))] or keys
    for _ in range(rng.randint(1, 3)):
        key = rng.choice(moving if rng.random() < 0.8 else keys)
        m = mor_map[key]
        parallel = d.hom(d.src(m), d.tgt(m))
        mor_map[key] = rng.choice(parallel if rng.random() < 0.8 else d.morphisms)
    return f, FunctorTable(f.slots, d, f.obj_map, mor_map)


def test_functoriality_walks_composable_pairs_like_the_all_pairs_scan():
    # same verdict and same witness as the quadratic scan, on draws that
    # reach every phase of the check
    laws = []
    for seed in range(300):
        good, bad = _retargeted_functor(random.Random(f"functor-pairs:{seed}"))
        assert validate_functor(good) is _functor_by_all_pairs(good) is None
        found = validate_functor(bad)
        assert found == _functor_by_all_pairs(bad), seed
        laws.append(found and found[0])
    assert {"functor-composition", "functor-identity", "functor-typing", None} <= set(laws)
    assert laws.count("functor-composition") >= 30
