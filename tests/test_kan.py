import gc
import hashlib
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import codiscrete, cyclic_group, hom_sum_map, isomorphic_pair, members, walking_arrow

from relmonad import checker, cli, gen, kan
from relmonad.errors import BudgetExceededError, SlotMismatchError
from relmonad.fincat import FinCategory, FunctorTable, session
from relmonad.kan import (
    counit_cell,
    extend,
    extend_cell,
    mult_cell,
    strengthen,
    strengthen_cell,
    theta_cell,
    transpose,
    unit_cell,
    untranspose,
)
from relmonad.multimap import (
    ComposeMap,
    IdentityMap,
    TableMap,
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
from relmonad.presheaf import (
    ColimitResult,
    Presheaf,
    PresheafMorphism,
    category_of_elements,
    classifying_morphism,
    coproduct_presheaves,
    enumerate_nat_trans,
    merge_counter,
    pointwise_colimit,
    representable,
    sample_presheaves,
    validate_presheaf,
    validate_presheaf_morphism,
)


def el_components(el):
    parent = list(range(el.n_objects))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for m in range(el.n_morphisms):
        a, b = find(el.src(m)), find(el.tgt(m))
        if a != b:
            parent[max(a, b)] = min(a, b)
    return len({find(i) for i in range(el.n_objects)})


def test_strengthen_interned(plus0_arrow):
    with session():
        assert strengthen(plus0_arrow, 0) is strengthen(plus0_arrow, 0)


def test_extend_strengthens_each_slot_in_turn_first_slot_innermost(sum2_arrow):
    c = identity_cell(sum2_arrow)
    with session():
        assert extend(sum2_arrow, (1, 0)) is strengthen(strengthen(sum2_arrow, 1), 0)
        assert extend(sum2_arrow, ()) is sum2_arrow
        assert extend_cell(c, ()) is c
        assert extend_cell(c, (0, 1)) is strengthen_cell(strengthen_cell(c, 0), 1)


# -- sessions -------------------------------------------------------------------


def test_a_session_shares_cells_built_from_the_same_objects(arrow):
    f = hom_sum_map(arrow, 1)
    with session():
        assert unit_cell(f, 0) is unit_cell(f, 0)
        assert strengthen(f, 0) is strengthen(f, 0)
        assert theta_cell(arrow) is theta_cell(arrow)
        # keyed by identity: a content-equal category gets its own cell
        assert theta_cell(walking_arrow()) is not theta_cell(arrow)


def test_a_session_keeps_one_identity_functor_per_category(arrow):
    # so monad.functor_unit_cell's lift of the identity is the one that
    # lift-identity's functor_comp_cell builds, not a fresh chain per call
    with session():
        assert FunctorTable.identity(arrow) is FunctorTable.identity(arrow)
    assert FunctorTable.identity(arrow) is not FunctorTable.identity(arrow)


def test_closing_a_session_empties_its_owners_memos():
    with session() as s:
        c = walking_arrow()
        f = hom_sum_map(c, 1)
        unit_cell(f, 0).component((1,))
        strengthen_cell(identity_cell(f), 0).component((representable(c, 1),))
        assert s.owners == [c]
        assert strengthen(f, 0) is strengthen(f, 0)
        assert s.cells and c.colimits and c.cocones and c.representables
        assert unit_map(c) is unit_map(c)
    assert s.owners == [] and s.cells == {}
    assert c.colimits == {} and c.cocones == {} and c.representables == {}
    assert unit_map(c) is not unit_map(c)


def test_a_cell_whose_endpoints_share_categories_builds_no_content_key():
    # signatures hold the categories themselves, which compare by identity
    # before content, so theta_cell's endpoint check leaves no key on c
    c = walking_arrow()
    theta_cell(c).component((representable(c, 1),))
    assert c._key is None
    # content-equal copies still give equal signatures
    assert unit_map(c).signature() == unit_map(walking_arrow()).signature()


def test_a_closed_sessions_graph_dies_by_reference_count():
    enabled = gc.isenabled()
    gc.disable()
    try:
        with session():
            c = walking_arrow()
            f = hom_sum_map(c, 1)
            cell = unit_cell(f, 0)
            cell.component((1,))
            theta_cell(c).component((representable(c, 1),))
            refs = [weakref.ref(x) for x in (c, f, unit_map(c), strengthen(f, 0), cell)]
        del c, f, cell
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()


def test_a_nested_session_restores_the_outer_one(arrow):
    f = hom_sum_map(arrow, 1)
    with session() as outer:
        cell = unit_cell(f, 0)
        with session() as inner:
            assert unit_cell(f, 0) is not cell
            c = walking_arrow()
            assert inner.owners == [c]
            g = hom_sum_map(c, 1)
            strengthen(g, 0).evaluate((representable(c, 1),))
            assert inner.cells and c.colimits
        assert inner.cells == {} and c.colimits == {}
        assert unit_cell(f, 0) is cell
        d = walking_arrow()
        assert outer.owners[-1] is d and all(o is not c for o in outer.owners)


def test_without_a_session_cells_are_built_afresh_and_memos_persist():
    # no map or cell keeps a memo that points back at it, so outside a
    # session they die by reference count; only their categories keep memos
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        rng = random.Random(5)
        c, cod = gen.builtin_category("arrow"), gen.builtin_category("square")
        f = gen.gen_multimap(rng, [c], cod)
        assert unit_cell(f, 0) is not unit_cell(f, 0)
        assert strengthen(f, 0) is not strengthen(f, 0) and unit_map(c) is not unit_map(c)
        ext = strengthen(f, 0)
        ext.evaluate((representable(c, 1),))
        phi = unit_cell(f, 0).component((1,))
        refs = [weakref.ref(x) for x in (f, ext, phi)]
        del f, ext, phi
        assert [r() for r in refs] == [None] * len(refs)
        assert cod.colimits == {} and c.representables
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_a_session_empties_the_memos_it_fills_on_older_categories():
    # the categories are born before the session opens, so it does not own
    # them at birth; it still empties the content memos it filled
    rng = random.Random(5)
    c, cod = gen.builtin_category("arrow"), gen.builtin_category("square")
    f = gen.gen_multimap(rng, [c], cod)
    p = representable(c, 1)
    with session() as s:
        strengthen(f, 0).evaluate((p,))
        phi = classifying_morphism(p, 0, 0)
        strengthen(f, 0).morphism_at((phi.src,), 0, phi)
        assert len(cod.colimits) == 2 and len(cod.cocones) == 1
        assert any(o is cod for o in s.owners)
    assert cod.colimits == {} and cod.cocones == {}


def test_extension_sizes_on_sum_map(arrow, plus0_arrow):
    # value at x is y_x + y_0, so the extension at p is p + c(El p) * y_0
    from relmonad.presheaf import category_of_elements

    ext = strengthen(plus0_arrow, 0)
    for p in sample_presheaves(arrow):
        c = el_components(category_of_elements(p))
        v = ext.evaluate((p,))
        assert validate_presheaf(v) is None
        for y in arrow.objects:
            assert len(v.at[y]) == len(p.at[y]) + c * len(arrow.hom(y, 0))


def test_extension_action_is_natural(arrow, plus0_arrow):
    ext = strengthen(plus0_arrow, 0)
    samples = sample_presheaves(arrow)
    p, q = samples[2], samples[4]
    from relmonad.presheaf import enumerate_nat_trans

    for phi in enumerate_nat_trans(p, q):
        big = ext.morphism_at((p,), 0, phi)
        assert validate_presheaf_morphism(big) is None


def test_extension_actions_are_functorial(arrow, sum2_arrow):
    ext = strengthen(sum2_arrow, 0)
    samples = sample_presheaves(arrow)
    composable = [(m2, m1) for m1 in arrow.morphisms for m2 in arrow.morphisms
                  if arrow.src(m2) == arrow.tgt(m1)]
    for p in samples:
        for x in arrow.objects:
            ident = ext.morphism_at((p, x), 0, PresheafMorphism.identity(p))
            assert ident.components == PresheafMorphism.identity(ext.evaluate((p, x))).components
            for q, r in itertools.product(samples, repeat=2):
                for phi in enumerate_nat_trans(p, q):
                    for psi in enumerate_nat_trans(q, r):
                        both = ext.morphism_at((p, x), 0, phi.then(psi))
                        steps = ext.morphism_at((p, x), 0, phi).then(
                            ext.morphism_at((q, x), 0, psi))
                        assert both.components == steps.components
        for m2, m1 in composable:
            a, b = arrow.src(m1), arrow.tgt(m1)
            both = ext.morphism_at((p, a), 1, arrow.compose(m2, m1))
            steps = ext.morphism_at((p, a), 1, m1).then(ext.morphism_at((p, b), 1, m2))
            assert both.components == steps.components


def test_unit_cell_components_are_invertible(arrow, plus0_arrow):
    t = unit_cell(plus0_arrow, 0)
    for x in arrow.objects:
        phi = t.component((x,))
        assert validate_presheaf_morphism(phi) is None
        assert phi.is_bijection()


def test_theta_is_invertible_and_natural(arrow, square):
    for c in (arrow, square):
        th = theta_cell(c)
        for p in sample_presheaves(c):
            phi = th.component((p,))
            assert validate_presheaf_morphism(phi) is None
            assert phi.is_bijection()


def test_theta_equals_counit_at_identity(arrow):
    th = theta_cell(arrow)
    sg = counit_cell(IdentityMap(arrow), 0)
    cmp = two_cell_equal(th, sg)
    assert cmp.equal and cmp.policy == "transpose"


def test_counit_triangle_on_extension(arrow, plus0_arrow):
    # counit after extended unit is the identity of the extension
    ext = strengthen(plus0_arrow, 0)
    left = vcomp(strengthen_cell(unit_cell(plus0_arrow, 0), 0), counit_cell(ext, 0))
    cmp = two_cell_equal(left, identity_cell(ext))
    assert cmp.equal
    cmp = two_cell_equal(identity_cell(ext), identity_cell(ext), policy="sample")
    assert cmp.equal and cmp.checked == len(sample_presheaves(arrow))


def test_counit_triangle_on_units(arrow, plus0_arrow):
    # whiskered counit after the unit of the composite is the identity
    ext = strengthen(plus0_arrow, 0)
    u = unit_map(arrow)
    h_unit = ComposeMap(ext, 0, u)
    left = vcomp(unit_cell(h_unit, 0), whisker_inner(counit_cell(ext, 0), 0, u))
    cmp = two_cell_equal(left, identity_cell(h_unit))
    assert cmp.equal


@pytest.mark.parametrize("j", [1, 5])
def test_counit_rejects_a_slot_past_the_maps_arity(arrow, j):
    # h has one slot; a cell with j + 1 fin slots strengthens at j, so
    # untranspose reaches the counit's own check
    h = strengthen(hom_sum_map(arrow, 1), 0)
    with pytest.raises(SlotMismatchError):
        counit_cell(h, j)
    with pytest.raises(SlotMismatchError):
        untranspose(identity_cell(hom_sum_map(arrow, j + 1)), j, h)


def test_transpose_of_identity_is_unit(arrow, plus0_arrow):
    ext = strengthen(plus0_arrow, 0)
    cmp = two_cell_equal(transpose(identity_cell(ext)), unit_cell(plus0_arrow, 0))
    assert cmp.equal


def test_untranspose_inverts_transpose(arrow, plus0_arrow):
    ext = strengthen(plus0_arrow, 0)
    u = unit_map(arrow)
    # any cell out of the extension is recovered from its restriction
    for beta in (identity_cell(ext),):
        restricted = transpose(beta)
        back = untranspose(restricted, 0, ext)
        assert two_cell_equal(back, beta).equal


def test_mult_cell_is_invertible(arrow, plus0_arrow, sum2_arrow):
    for g in (unit_map(arrow), plus0_arrow):
        that = mult_cell(plus0_arrow, 0, g, 0)
        for p in sample_presheaves(arrow):
            phi = that.component((p,))
            assert validate_presheaf_morphism(phi) is None
            assert phi.is_bijection()


def test_mult_cell_transposes_to_whiskered_unit(arrow, plus0_arrow):
    # the defining property: restricting the interchange cell along the unit
    # gives the outer map acting on the inner unit
    g = plus0_arrow
    ft = strengthen(plus0_arrow, 0)
    that = mult_cell(plus0_arrow, 0, g, 0)
    cmp = two_cell_equal(transpose(that), whisker_outer(ft, 0, unit_cell(g, 0)))
    assert cmp.equal


def test_seam_mismatch_detected(arrow):
    th = theta_cell(arrow)
    bad = vcomp(th, th)  # signatures agree but evaluations do not meet
    with pytest.raises(SlotMismatchError):
        bad.component((sample_presheaves(arrow)[1],))


def test_strengthen_compose_normalization(arrow, plus0_arrow, sum2_arrow):
    # extending after plugging equals plugging into the extension, bit for bit
    from relmonad.fincat import FunctorTable
    from relmonad.multimap import ComposeMap

    f = FunctorTable.unary(arrow, arrow, [1, 1], [1, 1, 1], name="const1")
    a = strengthen(ComposeMap(sum2_arrow, 1, f), 0)
    b = ComposeMap(strengthen(sum2_arrow, 0), 1, f)
    for p in sample_presheaves(arrow):
        for x in arrow.objects:
            va = a.evaluate((p, x))
            vb = b.evaluate((p, x))
            assert va.content_key() == vb.content_key()


# -- the colimit memo on the codomain category ----------------------------------


def uncached_extension(f, j, args):
    """strengthen(f, j) at args, straight from pointwise_colimit over El(p):
    one shape node per El(p) node and one arrow per El(p) arrow."""
    p = args[j]
    c, el = p.base, category_of_elements(p)

    def at(x):
        return args[:j] + (x,) + args[j + 1:]

    return pointwise_colimit(
        el,
        [f.evaluate(at(x)) for x, _ in el.el_objs],
        {ai: f.morphism_at(at(c.src(m)), j, m) for ai, (m, _) in enumerate(el.el_arrows)},
        f.cod,
    )


def by_element(p, colim):
    """A ColimitResult over El(p) read in an extension record's (x, e, t)
    coordinates: El(p)'s node (x, e) is copy e of object x.  El(p) lists its
    nodes in (x, e) order, so both enumerate the elements alike: the classes
    and the flat representatives carry over, and only the layout changes
    its names."""
    el = category_of_elements(p)
    sizes = [0] * p.base.n_objects
    for (x, _), n in zip(el.el_objs, colim.sizes):
        sizes[x] = n
    offsets, total = [], 0
    for x, n in enumerate(sizes):
        offsets.append(total)
        total += n * len(p.at[x])
    return ColimitResult(colim.set, colim.classes, tuple(offsets), tuple(sizes), colim.reps)


def assert_matches_uncached(ext, args):
    """ext.data(args) equals the El(p) route: its value, every ColimitResult
    read through El(p)'s el_objs, each class's decoded representative, and
    the merges it counts when the record is computed, not looked up."""
    args = tuple(args)
    uncached_extension(ext.inner, ext.j, args)  # evaluate f's values first
    before = merge_counter.value
    uncached = uncached_extension(ext.inner, ext.j, args)
    el_merges = merge_counter.value - before
    memoized = len(ext.cod.colimits)
    before = merge_counter.value
    data = ext.data(args)
    computed = len(ext.cod.colimits) > memoized
    assert merge_counter.value - before == (el_merges if computed else 0)
    assert data.content_key() == uncached.content_key()
    assert data.colims == tuple(by_element(args[ext.j], r) for r in uncached.colims)
    el_objs = category_of_elements(args[ext.j]).el_objs
    for r, colim in zip(data.colims, uncached.colims):
        assert members(r) == [el_objs[n] + (t,) for n, _, t in members(colim)]


def test_content_equal_maps_share_one_colimit(arrow, sum1_arrow):
    with session():
        twin = TableMap([arrow], arrow, sum1_arrow.sets, sum1_arrow.cod_act,
                        sum1_arrow.slot_act, name="twin")
        p = representable(arrow, 1)
        before = merge_counter.value
        first = strengthen(sum1_arrow, 0).evaluate((p,))
        merged = merge_counter.value
        assert merged > before
        assert strengthen(twin, 0).evaluate((p,)) is first
        assert merge_counter.value == merged
        assert strengthen(twin, 0).data((p,)) is strengthen(sum1_arrow, 0).data((p,))


def test_equal_actions_on_reversed_arrows_stay_apart():
    # 0 -> 1 and 1 -> 0: one act tuple is a presheaf on both, with El shapes
    # that quotient differently, over the same codomain
    with session():
        point = FinCategory("pt", 1, [0], [0], [0], {(0, 0): 0})
        act = ((0, 1), (0, 1), (0, 0))
        for src, tgt in ((0, 1), (1, 0)):
            c = FinCategory("c", 2, [0, 1, src], [0, 1, tgt], [0, 1],
                            {(0, 0): 0, (1, 1): 1, (2, src): 2, (tgt, 2): 2})
            const = TableMap(
                [c], point,
                {(x,): (("u",),) for x in c.objects},
                {(x,): ((0,),) for x in c.objects},
                {(0, m): ((0,),) for m in c.morphisms},
            )
            assert_matches_uncached(strengthen(const, 0), (Presheaf(c, [("a", "b")] * 2, act),))
        assert len(point.colimits) == 2


def test_labels_stay_out_of_the_colimit_key(arrow, sum1_arrow):
    with session():
        ext = strengthen(sum1_arrow, 0)
        p = sample_presheaves(arrow)[3]
        q = Presheaf(arrow, [[f"other{l}" for l in at] for at in p.at], p.act)
        assert ext.evaluate((q,)) is ext.evaluate((p,))
        assert len(arrow.colimits) == 1
        assert_matches_uncached(ext, (q,))


# -- the coend layout against the El(p) route ----------------------------------


def _gen_map(rng, slot_cats, cod, max_values, n_generators=None):
    """gen_multimap, drawn again until its fibers fit max_values."""
    while True:
        try:
            return gen.gen_multimap(rng, slot_cats, cod, max_values, n_generators)
        except BudgetExceededError:
            continue


def _small_categories(rng):
    for name in ("arrow", "z2", "leftzero3", "square"):
        yield gen.builtin_category(name)
    for _ in range(8):
        yield gen.free_dag_category(rng, 4, 4)


def _small_presheaves(rng, c):
    """Coproducts of one to three representables, each also quotiented."""
    for k in (1, 2, 3):
        p, _ = coproduct_presheaves([representable(c, rng.randrange(c.n_objects))
                                     for _ in range(k)])
        yield p
        sized = [x for x in c.objects if len(p.at[x]) >= 2]
        if sized:
            x = rng.choice(sized)
            yield gen.presheaf_quotient(p, [(x, *rng.sample(range(len(p.at[x])), 2))])


def test_extension_matches_the_el_route():
    # one-slot maps, the unit behind theta_cell, and a two-slot map extended
    # in either slot, over builtin shapes and free dags
    with session():
        rng = random.Random("coend-vs-el")
        empty_fibers = empty_values = 0
        for c in _small_categories(rng):
            d = gen.free_dag_category(rng, 3, 3)
            f = _gen_map(rng, (c,), d, 24)
            f2 = _gen_map(rng, (c, d), c, 24)
            ps = list(_small_presheaves(rng, c))
            qs = list(_small_presheaves(rng, d))
            for p in ps:
                assert_matches_uncached(strengthen(f, 0), (p,))
                assert_matches_uncached(strengthen(unit_map(c), 0), (p,))
                for w in d.objects:
                    assert_matches_uncached(strengthen(f2, 0), (p, w))
                empty_fibers += not all(p.at)
                empty_values += any(p.at[x] and not f.evaluate((x,)).at[y]
                                    for x in c.objects for y in d.objects)
            for x in c.objects:
                for q in qs:
                    assert_matches_uncached(strengthen(f2, 1), (x, q))
        assert empty_fibers and empty_values


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_generated_extensions_match_every_el_arrow(seed):
    # the record's diagram has an arrow per generator of the slot category;
    # the reference has one per El(p) arrow, derived arrows included
    with session():
        rng = random.Random(seed)
        c = rng.choice([gen.gen_category(rng, 4, 5), cyclic_group(3), isomorphic_pair(),
                        codiscrete(3)])
        f = _gen_map(rng, (c,), gen.gen_category(rng, 3, 3), 24)
        assert_matches_uncached(strengthen(f, 0), (gen.gen_presheaf(rng, c),))


def test_an_extension_missing_a_generator_is_caught(monkeypatch, capsys):
    # the extension-universal oracle walks every El(p) arrow, so a record
    # whose diagram loses the slot category's last generator fails it
    honest = kan.pointwise_colimit

    def dropping(shape, ps, maps, base, copies, lifts):
        last = shape.n_morphisms - 1
        return honest(shape, ps, {i: phi for i, phi in maps.items() if i != last},
                      base, copies, lifts)

    monkeypatch.setattr(kan, "pointwise_colimit", dropping)
    assert cli.main(["verify", "--seed", "42", "--laws", "extension-universal",
                     "--format", "machine"]) == 1
    out = capsys.readouterr().out
    assert "instance extension-universal 0 FAIL" in out
    assert out.splitlines()[-1] == "summary pass 4 fail 6"


# -- extensions at inputs of benchmark size -------------------------------------


def _large_dag(rng):
    while True:
        c = gen.free_dag_category(rng, 6, 6)
        if c.n_objects >= 4 and c.n_morphisms - c.n_objects >= 4:
            return c


def _large_presheaf(rng, c, target):
    """A coproduct of representables with at least `target` elements,
    quotiented by up to three random identifications."""
    summands, total = [], 0
    while total < target:
        summands.append(representable(c, rng.randrange(c.n_objects)))
        total += sum(len(s) for s in summands[-1].at)
    p, _ = coproduct_presheaves(summands)
    pairs = []
    for _ in range(rng.randint(0, 3)):
        x = rng.choice([x for x in c.objects if len(p.at[x]) >= 2])
        pairs.append((x, *rng.sample(range(len(p.at[x])), 2)))
    return gen.presheaf_quotient(p, pairs) if pairs else p


def test_large_extensions_are_pinned():
    # 40 one-slot extensions at presheaves of about 20-150 elements: the
    # value and the collapse cell, hashed by content
    rng = random.Random("pinned-extensions")
    digest = hashlib.sha256()
    for i in range(40):
        c = _large_dag(rng)
        f = _gen_map(rng, (c,), _large_dag(rng), 64, 1 + i % 6)
        p = _large_presheaf(rng, c, 20 + 130 * i // 39)
        value = strengthen(f, 0).evaluate((p,))
        collapse = theta_cell(c).component((p,))
        assert collapse.is_bijection()
        digest.update(repr((value.content_key(), collapse.content_key())).encode())
    assert digest.hexdigest() == (
        "67d2a9f73c650a97327c3b7d2db1a39ed18d3b8cddc21eba317e08b2f0f4346f")


def test_evaluating_outside_a_session_retains_nothing():
    # no key is built and no memo filled: each record lives on the map that
    # asked for it, so dropping the map and the cell frees both records by
    # reference count, with nothing left on either category
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        rng = random.Random("outside-a-session")
        c = _large_dag(rng)
        f = _gen_map(rng, (c,), _large_dag(rng), 64, 3)
        p = _large_presheaf(rng, c, 120)
        ext, collapse = strengthen(f, 0), theta_cell(c)
        value = ext.evaluate((p,))
        phi = collapse.component((p,))
        assert phi.is_bijection()
        records = [weakref.ref(value), weakref.ref(phi.src)]
        for cat in (f.cod, c):
            assert cat.colimits == {} and cat.cocones == {}
        del ext, collapse, value, phi
        assert [r() for r in records] == [None, None]
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _session_agreement_keys(f, f2, p):
    """Content keys of what evaluating f and f2 at p builds: the value, the
    collapse cell, f2's action in its fin slot 1 (a map between records by
    _inside) and the strengthened unit cell of f2."""
    c, d = p.base, f2.slots[1].cat
    keys = [strengthen(f, 0).evaluate((p,)).content_key(),
            theta_cell(c).component((p,)).content_key()]
    for m in d.morphisms:
        keys.append(strengthen(f2, 0).morphism_at((p, d.src(m)), 1, m).content_key())
    for w in d.objects:
        keys.append(strengthen_cell(unit_cell(f2, 0), 0).component((p, w)).content_key())
    return keys


def test_evaluation_agrees_inside_and_outside_a_session():
    # outside a session every record and map between records is built
    # afresh; inside one they come from the content memos, read twice
    rng = random.Random("session-agreement")
    for i in range(30):
        c = _large_dag(rng) if i % 3 else gen.builtin_category("square")
        d = gen.free_dag_category(rng, 3, 3)
        f = _gen_map(rng, (c,), _large_dag(rng), 24, 1 + i % 4)
        f2 = _gen_map(rng, (c, d), d, 24)
        p = _large_presheaf(rng, c, 10 + 2 * i)
        outside = _session_agreement_keys(f, f2, p)
        assert d.colimits == {} and d.cocones == {}
        with session():
            assert _session_agreement_keys(f, f2, p) == outside
            assert d.colimits and d.cocones
            assert _session_agreement_keys(f, f2, p) == outside


def test_budget_counts_every_copy(monkeypatch):
    # the largest colimit of an extension takes sum_x |p(x)| * |f(x)(y)|
    # elements at some y, every copy counted, not one per object
    rng = random.Random("coend-budget")
    c = _large_dag(rng)
    f = _gen_map(rng, (c,), _large_dag(rng), 64, 3)
    p = _large_presheaf(rng, c, 80)
    values = [f.evaluate((x,)) for x in c.objects]
    largest = max(sum(len(p.at[x]) * len(values[x].at[y]) for x in c.objects)
                  for y in f.cod.objects)
    blocks = max(sum(len(values[x].at[y]) for x in c.objects if p.at[x])
                 for y in f.cod.objects)
    assert blocks < largest - 1
    monkeypatch.setenv("RELMONAD_BUDGET", str(largest - 1))
    with pytest.raises(BudgetExceededError,
                       match=f"over {largest} elements exceeds budget {largest - 1}"):
        strengthen(f, 0).evaluate((p,))
    monkeypatch.setenv("RELMONAD_BUDGET", str(largest))
    strengthen(f, 0).evaluate((p,))


def test_an_extension_builds_no_elements_category(monkeypatch):
    # the value and the collapse cell read their colimits in (x, e, t)
    # coordinates, so neither builds El(p)
    from relmonad import presheaf

    built = []
    init = presheaf.ElementsCategory.__init__

    def counting(self, p):
        built.append(p)
        init(self, p)

    monkeypatch.setattr(presheaf.ElementsCategory, "__init__", counting)
    rng = random.Random("no-elements")
    c = _large_dag(rng)
    f = _gen_map(rng, (c,), _large_dag(rng), 64, 2)
    p = _large_presheaf(rng, c, 30)
    strengthen(f, 0).evaluate((p,))
    assert theta_cell(c).component((p,)).is_bijection()
    assert built == []


# -- block readers against a per-class reference ---------------------------------


def _per_class(data, leg):
    """A cocone map's rows read a class at a time: leg at each class's
    representative, decoded one class at a time."""
    return tuple(
        tuple(leg(y, *rep) for rep in members(colim))
        for y, colim in enumerate(data.colims)
    )


def _per_class_action(ext, args):
    """An extension's action at the generators of its codomain, read a class
    at a time: generator m : a -> b sends class c at b, represented by
    (x, e, t), to the class at a of f's action on t inside copy e of f(x)."""
    j, data = ext.j, ext.data(args)
    generation = ext.cod.generation
    rows = {}
    for m, a, b in zip(generation.generators, generation.mor_src, generation.mor_tgt):
        r = data.colims[a]

        def leg(y, x, e, t):
            act = ext.inner.evaluate(args[:j] + (x,) + args[j + 1:]).act[m]
            return r.classes[r.offsets[x] + e * r.sizes[x] + act[t]]

        rows[m] = tuple(leg(b, *rep) for rep in members(data.colims[b]))
    return rows


def _assert_action_per_class(ext, args):
    act = ext.data(args).act
    for m, row in _per_class_action(ext, args).items():
        assert act[m] == row


def _assert_mor_at_per_class(ext, args, k, m):
    """ext.morphism_at against the legs of both of _mor_at's branches."""
    j, f = ext.j, ext.inner
    if k == j:
        dst = ext.data(args[:j] + (m.dst,) + args[j + 1:])

        def leg(y, x, e, t):
            r = dst.colims[y]
            return r.classes[r.offsets[x] + m.components[x][e] * r.sizes[x] + t]
    else:
        dst = ext.data(args[:k] + (f.slots[k].cat.tgt(m),) + args[k + 1:])

        def leg(y, x, e, t):
            step = f.morphism_at(args[:j] + (x,) + args[j + 1:], k, m)
            r = dst.colims[y]
            return r.classes[r.offsets[x] + e * r.sizes[x] + step.components[y][t]]

    got = ext.morphism_at(args, k, m)
    assert got.components == _per_class(ext.data(args), leg)


def _assert_strengthen_cell_per_class(cell, j, args):
    sdata = strengthen(cell.src, j).data(args)
    ddata = strengthen(cell.dst, j).data(args)

    def leg(y, x, e, t):
        phi = cell.component(args[:j] + (x,) + args[j + 1:])
        r = ddata.colims[y]
        return r.classes[r.offsets[x] + e * r.sizes[x] + phi.components[y][t]]

    assert strengthen_cell(cell, j).component(args).components == _per_class(sdata, leg)


def _assert_counit_per_class(h, j, args):
    p = args[j]
    data = strengthen(plug(h, j, unit_map(h.slots[j].cat)), j).data(args)

    def leg(y, x, e, t):
        chi = classifying_morphism(p, x, e)
        psi = h.morphism_at(args[:j] + (chi.src,) + args[j + 1:], j, chi)
        return psi.components[y][t]

    assert counit_cell(h, j).component(args).components == _per_class(data, leg)


def _opposite(c):
    """c^op: its arrows run the other way, so a free dag's run from higher
    objects to lower ones, and an extension's classes have least members
    over more than one object."""
    return FinCategory(f"{c.name}^op", c.n_objects, c.mor_tgt, c.mor_src, c.identity,
                       {(f, g): h for (g, f), h in c.comp.items()})


@pytest.mark.parametrize("seed", range(4))
def test_block_readers_match_a_per_class_reference(seed):
    # every cocone map and every generator row of an extension's action,
    # read a node block at a time, against the legs applied class by class
    rng = random.Random(f"block-readers:{seed}")
    c = _opposite(_large_dag(rng) if seed % 2 else gen.builtin_category("square"))
    d = _opposite(gen.free_dag_category(rng, 4, 4))
    f = _gen_map(rng, (c,), d, 24)
    f2 = _gen_map(rng, (c, d), d, 24)
    u = unit_map(c)
    ps = list(_small_presheaves(rng, c))
    blocks = [len(r.blocks()) for p in ps for ext in (strengthen(f, 0), strengthen(u, 0))
              for r in ext.data((p,)).colims]
    assert max(blocks) >= 2 and min(blocks) == 0
    for p in ps:
        for ext, args in ((strengthen(f, 0), (p,)), (strengthen(u, 0), (p,))):
            _assert_action_per_class(ext, args)
        homs = c.homs
        assert theta_cell(c).component((p,)).components == _per_class(
            strengthen(u, 0).data((p,)), lambda y, x, e, t: p.act[homs[y, x][t]][e])
        _assert_counit_per_class(strengthen(f, 0), 0, (p,))
        _assert_counit_per_class(IdentityMap(c), 0, (p,))
        _assert_strengthen_cell_per_class(unit_cell(f, 0), 0, (p,))
        for x in c.objects:
            for e in range(len(p.at[x])):
                _assert_mor_at_per_class(strengthen(f, 0), (representable(c, x),), 0,
                                         classifying_morphism(p, x, e))
        for w in d.objects:
            _assert_action_per_class(strengthen(f2, 0), (p, w))
            _assert_strengthen_cell_per_class(unit_cell(f2, 0), 0, (p, w))
        for m in d.morphisms:
            _assert_mor_at_per_class(strengthen(f2, 0), (p, d.src(m)), 1, m)
    qs = list(_small_presheaves(rng, d))
    for x in c.objects:
        for q in qs:
            _assert_action_per_class(strengthen(f2, 1), (x, q))
            _assert_strengthen_cell_per_class(unit_cell(f2, 1), 1, (x, q))
            _assert_counit_per_class(strengthen(f2, 1), 1, (x, q))
            for m in c.morphisms:
                if c.src(m) == x:
                    _assert_mor_at_per_class(strengthen(f2, 1), (x, q), 0, m)


def _crossed_map():
    """A two-slot map on two points and the walking arrow whose value at
    (x, w) is one element over the other point, 1 - x: so the classes of its
    extension in slot 0 lie over node 1 at codomain object 0 and over node 0
    at object 1, and a class-by-class walk meets node 1 first."""
    pts = FinCategory("pts", 2, [0, 1], [0, 1], [0, 1], {(0, 0): 0, (1, 1): 1})
    arrow = walking_arrow()

    def row(x, y):
        return (0,) if y == 1 - x else ()

    sets, cod_act, slot_act = {}, {}, {}
    for x, w in itertools.product(pts.objects, arrow.objects):
        rows = tuple(row(x, y) for y in pts.objects)
        sets[x, w] = tuple(("*",) * len(r) for r in rows)
        cod_act[x, w] = rows  # pts's morphism y is the identity on y
        slot_act[0, x, w] = rows
        for m in arrow.morphisms:
            slot_act[1, x, m] = rows
    f = TableMap([pts, arrow], pts, sets, cod_act, slot_act, name="crossed")
    assert validate_multimap(f) is None
    p, _ = coproduct_presheaves([representable(pts, 0), representable(pts, 1)])
    return f, [p]


def test_inside_reads_the_source_nodes_in_first_touch_order(monkeypatch):
    # both callers of kan._inside, the action in a non-extended slot and a
    # strengthen_cell component, read the inner map at exactly the source
    # record's nodes, once each, in the order a class-by-class walk first
    # meets them, so never at a copy that holds no class; the maps still
    # match their per-class references
    reads = []
    inside = kan._inside

    def recording(src, dst, at):
        seen = []

        def reading(x):
            seen.append(x)
            return at(x)

        reads.append((at.__qualname__.split(".")[0], src, seen))
        return inside(src, dst, reading)

    monkeypatch.setattr(kan, "_inside", recording)
    cases = [_crossed_map()]
    for seed in range(4):
        rng = random.Random(f"inside-reads:{seed}")
        c = _opposite(_large_dag(rng) if seed % 2 else gen.builtin_category("square"))
        d = _opposite(gen.free_dag_category(rng, 4, 4))
        cases.append((_gen_map(rng, (c, d), d, 24), list(_small_presheaves(rng, c))))
    skipped = unsorted = 0
    for f, ps in cases:
        d = f.slots[1].cat
        for p in ps:
            del reads[:]
            for m in d.morphisms:
                _assert_mor_at_per_class(strengthen(f, 0), (p, d.src(m)), 1, m)
            for w in d.objects:
                _assert_strengthen_cell_per_class(unit_cell(f, 0), 0, (p, w))
            assert {caller for caller, _, _ in reads} == {"StrengthenMap", "strengthen_cell"}
            for _, src, seen in reads:
                walk = dict.fromkeys(x for colim in src.colims for x, _, _ in members(colim))
                assert seen == list(walk) == list(src.nodes)
                copies = [x for x in p.base.objects if p.at[x]]
                assert set(seen) <= set(copies)
                skipped += len(seen) < len(copies)
                unsorted += seen != sorted(seen)
    assert skipped and unsorted


def test_content_equal_requests_share_one_map_between_records(arrow, sum1_arrow):
    # two map objects with one content meet the same records, so the map
    # between them is built once, on the codomain
    with session():
        p = representable(arrow, 1)
        phi = classifying_morphism(p, 1, 0)
        a, b = strengthen(sum1_arrow, 0), strengthen(hom_sum_map(arrow, 1), 0)
        assert a.data((p,)) is b.data((p,))
        assert a.morphism_at((phi.src,), 0, phi) is b.morphism_at((phi.src,), 0, phi)
        assert len(arrow.cocones) == 1


def test_a_damaged_cell_after_its_honest_twin_gets_its_own_map():
    # the twins meet the same records, and only the inner components they
    # read tell their strengthened maps apart: the damaged one must not be
    # handed the honest map built first
    with session():
        rng = random.Random("damaged-twin")
        c = gen.builtin_category("z2")
        honest = unit_cell(hom_sum_map(c, 1), 0)
        damaged = checker._damaged(checker._swap_first_wide_row)(lambda: honest)
        differing = 0
        for p in _small_presheaves(rng, c):
            before = strengthen_cell(honest, 0).component((p,))
            assert strengthen(honest.src, 0).data((p,)) is strengthen(damaged.src, 0).data((p,))
            _assert_strengthen_cell_per_class(damaged, 0, (p,))
            differing += strengthen_cell(damaged, 0).component((p,)).components != before.components
            _assert_strengthen_cell_per_class(honest, 0, (p,))
        assert differing


def test_extension_records_take_weak_references(arrow, sum1_arrow):
    # the benchmark's memo counters hold what StrengthenMap.data returns weakly
    data = strengthen(sum1_arrow, 0).data((representable(arrow, 1),))
    assert weakref.ref(data)() is data
