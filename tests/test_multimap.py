import pytest

from conftest import flat_rows, set_row
from relmonad.errors import SlotMismatchError
from relmonad.fincat import FunctorTable, NatTransTable, session
from relmonad.multimap import (
    ComposeMap,
    IdentityMap,
    TableMap,
    TwoCell,
    identity_cell,
    inverse_cell,
    plug,
    two_cell_equal,
    unit_map,
    validate_multimap,
    vcomp,
    whisker_inner,
    whisker_outer,
)
from relmonad.presheaf import representable, validate_presheaf, validate_presheaf_morphism


def test_hand_maps_validate(sum1_arrow, sum2_arrow, sum2_z2):
    for m in (sum1_arrow, sum2_arrow, sum2_z2):
        assert validate_multimap(m) is None, m.name


def test_validation_catches_tampered_slot_action(arrow, sum2_arrow):
    bad_slot = dict(sum2_arrow.slot_act)
    key = (0, 2, 1, 0)  # slot 0 acting by the arrow, other argument 1, at object 0
    row = flat_rows(bad_slot)[key]
    assert len(row) >= 2
    set_row(bad_slot, key, (row[1], row[0]) + row[2:])
    bad = TableMap([arrow, arrow], arrow, sum2_arrow.sets, sum2_arrow.cod_act, bad_slot)
    assert validate_multimap(bad) is not None


def test_unit_map_is_representable(arrow):
    u = unit_map(arrow)
    for a in arrow.objects:
        assert u.evaluate((a,)).content_key() == representable(arrow, a).content_key()
    assert u.evaluate((1,)) is u.evaluate((1,))  # memo returns stable instances
    act = u.morphism_at((0,), 0, 2)
    assert validate_presheaf_morphism(act) is None
    assert u.element_of_identity(1) == 0


def test_unit_map_interned(arrow):
    with session():
        assert unit_map(arrow) is unit_map(arrow)


def test_identity_map_passes_through(arrow):
    one = IdentityMap(arrow)
    p = representable(arrow, 1)
    assert one.evaluate((p,)) is p


def test_compose_fin_with_identity_is_transparent(arrow, sum1_arrow):
    ident = FunctorTable.identity(arrow)
    c = ComposeMap(sum1_arrow, 0, ident)
    for x in arrow.objects:
        assert c.evaluate((x,)) is sum1_arrow.evaluate((x,))
    for m in arrow.morphisms:
        got = c.morphism_at((arrow.src(m),), 0, m)
        want = sum1_arrow.morphism_at((arrow.src(m),), 0, m)
        assert got is want


def test_compose_fin_substitutes(arrow, square, sum1_arrow, sum2_arrow):
    # plug the corner inclusion square -> arrow? direction: functor into the slot
    f = FunctorTable.unary(square, arrow, [0, 0, 1, 1], [0, 0, 1, 1, 0, 2, 2, 1, 2])
    from relmonad.fincat import validate_functor

    assert validate_functor(f) is None
    c = ComposeMap(sum1_arrow, 0, f)
    assert c.arity == 1 and c.slots[0].cat == square
    assert c.evaluate((3,)).content_key() == sum1_arrow.evaluate((1,)).content_key()
    assert validate_multimap(c) is None
    # a binary table in a fin slot: its two slots take that slot's place
    from relmonad.kan import strengthen

    proj = FunctorTable(
        (arrow, arrow), arrow,
        {(a, b): a for a in arrow.objects for b in arrow.objects},
        {(m, n): m for m in arrow.morphisms for n in arrow.morphisms},
        name="proj",
    )
    plugged = ComposeMap(strengthen(sum2_arrow, 1), 0, proj)
    assert [s.kind for s in plugged.slots] == ["fin", "fin", "psh"]


def test_compose_fin_slot_mismatch(arrow, square, sum1_arrow):
    g = FunctorTable.identity(square)
    with pytest.raises(SlotMismatchError):
        ComposeMap(sum1_arrow, 0, g)


def test_plug_interns_per_slot_and_inner(arrow, sum1_arrow):
    from relmonad.kan import strengthen

    ident = FunctorTable.identity(arrow)  # outside the session: not its identity functor
    with session():
        ext = strengthen(sum1_arrow, 0)  # psh slot 0 over arrow
        u = unit_map(arrow)
        assert plug(ext, 0, u) is plug(ext, 0, u)
        assert plug(sum1_arrow, 0, ident) is plug(sum1_arrow, 0, ident)
        # the inner object is keyed by identity, not by content
        assert plug(sum1_arrow, 0, FunctorTable.identity(arrow)) is not plug(sum1_arrow, 0, ident)


def test_lifted_functor_is_one_chain(arrow, square):
    from relmonad.monad import apply_functor, base_map

    f = FunctorTable.unary(square, arrow, [0, 0, 1, 1], [0, 0, 1, 1, 0, 2, 2, 1, 2], name="f")
    with session():
        assert base_map(f) is base_map(f)
        assert apply_functor(f) is apply_functor(f)


def test_bad_plug_raises_every_time_and_stores_nothing(arrow, square, sum1_arrow):
    with session() as s:
        wrong_kind = unit_map(arrow)  # a map, but slot 0 of sum1 is a fin slot
        wrong_cod = FunctorTable.identity(square)  # lands in square, not arrow
        stored = dict(s.cells)
        for g in (wrong_kind, wrong_cod):
            for _ in range(2):
                with pytest.raises(SlotMismatchError):
                    plug(sum1_arrow, 0, g)
        assert s.cells == stored


def test_whiskered_cells_share_endpoints(arrow, sum1_arrow):
    from relmonad.kan import strengthen

    with session():
        ext = strengthen(sum1_arrow, 0)
        u = unit_map(arrow)
        # two cells on the same map: the session shares whisker_inner per cell
        a = whisker_inner(identity_cell(ext), 0, u)
        b = whisker_inner(identity_cell(ext), 0, u)
        assert a is not b
        assert a.src is b.src and a.dst is b.dst


def test_two_cell_requires_parallel(arrow, sum1_arrow):
    # a fin-slot map and a psh-slot map are never parallel
    with pytest.raises(SlotMismatchError):
        TwoCell(sum1_arrow, IdentityMap(arrow), lambda args: None)


def test_identity_cell_and_equality(arrow, sum1_arrow):
    a = identity_cell(sum1_arrow)
    b = identity_cell(sum1_arrow)
    cmp = two_cell_equal(a, b)
    assert cmp.equal and cmp.policy == "transpose" and cmp.checked == 2
    assert cmp.witness is None


def test_two_cell_inequality_has_witness(arrow, plus0_arrow):
    a = identity_cell(plus0_arrow)

    def swapped(args):
        p = plus0_arrow.evaluate(args)
        comps = []
        for y in arrow.objects:
            n = len(p.at[y])
            row = list(range(n))
            if n >= 2:
                row[0], row[1] = row[1], row[0]
            comps.append(tuple(row))
        from relmonad.presheaf import PresheafMorphism

        return PresheafMorphism(p, p, comps)

    b = TwoCell(plus0_arrow, plus0_arrow, swapped)
    cmp = two_cell_equal(a, b)
    assert not cmp.equal
    args, y, e, lhs, rhs = cmp.witness
    assert lhs != rhs


def test_vcomp_and_inverse(arrow, sum1_arrow):
    a = identity_cell(sum1_arrow)
    assert two_cell_equal(vcomp(a, a), a).equal
    assert two_cell_equal(inverse_cell(a), a).equal


def test_whisker_outer_nat_table(arrow, square, sum1_arrow):
    f = FunctorTable.unary(square, arrow, [0, 0, 1, 1], [0, 0, 1, 1, 0, 2, 2, 1, 2], name="f")
    g = FunctorTable.unary(square, arrow, [0, 1, 1, 1], [0, 1, 1, 1, 2, 2, 1, 1, 2], name="g")
    from relmonad.fincat import validate_functor, validate_nat_trans

    assert validate_functor(g) is None
    eta = NatTransTable(f, g, {(0,): 0, (1,): 2, (2,): 1, (3,): 1})
    assert validate_nat_trans(eta) is None
    cell = whisker_outer(sum1_arrow, 0, eta)
    for o in square.objects:
        assert validate_presheaf_morphism(cell.component((o,))) is None
