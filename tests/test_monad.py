"""Structure cells: functor lifting, comparison cells, interchange.

The interchange cell is checked against relmonad.fubini, which routes every
element of f over El(p) x El(q) through both iterated extensions' records
and reads the bijection off the class pairs, without touching the cell
machinery.
"""

import itertools

import pytest
from conftest import hom_sum_map

from relmonad import monad
from relmonad.fincat import FunctorTable, NatTransTable, compose_functor, session
from relmonad.fubini import gamma_tables
from relmonad.kan import mult_cell, strengthen, theta_cell, unit_cell
from relmonad.monad import (
    apply_functor,
    base_map,
    extend_square,
    functor_comp_cell,
    functor_on_nat,
    functor_unit_cell,
    interchange,
    interchange_perm,
    unit_naturality_square,
)
from relmonad.multimap import (
    ComposeMap,
    TwoCell,
    identity_cell,
    inverse_cell,
    plug_many,
    retree,
    two_cell_equal,
    unit_map,
    vcomp,
    whisker_inner,
    whisker_outer,
)
from relmonad.presheaf import PresheafMorphism, sample_presheaves, validate_presheaf_morphism


def meet_functor(arrow):
    # binary minimum on the walking arrow, a genuine two-slot functor
    return FunctorTable(
        (arrow, arrow),
        arrow,
        {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1},
        {
            (0, 0): 0, (0, 1): 0, (0, 2): 0,
            (1, 0): 0, (1, 1): 1, (1, 2): 2,
            (2, 0): 0, (2, 1): 2, (2, 2): 2,
        },
        name="meet",
    )


def square_to_arrow(square, arrow):
    return FunctorTable.unary(
        square, arrow, [0, 0, 1, 1], [0, 0, 1, 1, 0, 2, 2, 1, 2], name="fold"
    )


def arrow_to_square(arrow, square):
    return FunctorTable.unary(arrow, square, [0, 3], [0, 3, 8], name="diag")


def test_interchange_matches_oracle_binary(arrow, sum2_arrow):
    cell = interchange(sum2_arrow, 0, 1)
    samples = sample_presheaves(arrow)
    for p, q in itertools.product(samples, samples):
        phi = cell.component((p, q))
        assert phi.is_bijection()
        assert validate_presheaf_morphism(phi) is None
        assert tuple(phi.components) == tuple(gamma_tables(sum2_arrow, 0, 1, (p, q)))


def test_interchange_matches_oracle_three_slots(arrow):
    # the slot not being extended keeps a plain object of the base
    sum3 = hom_sum_map(arrow, 3)
    s = sample_presheaves(arrow)
    pairs = [(s[0], s[4]), (s[4], s[2]), (s[3], s[1])]
    for j, k in [(0, 1), (0, 2), (1, 2)]:
        other = next(i for i in range(3) if i not in (j, k))
        cell = interchange(sum3, j, k)
        for (p, q), x in zip(pairs, (0, 1, 0)):
            args = [None] * 3
            args[j], args[k], args[other] = p, q, x
            args = tuple(args)
            phi = cell.component(args)
            assert tuple(phi.components) == tuple(gamma_tables(sum3, j, k, args))


def test_interchange_inverse_is_reverse_order(arrow, sum2_arrow):
    fwd = interchange(sum2_arrow, 0, 1)
    bwd = interchange(sum2_arrow, 1, 0)
    src = strengthen(strengthen(sum2_arrow, 1), 0)
    assert two_cell_equal(vcomp(fwd, bwd), identity_cell(src)).equal
    other = strengthen(strengthen(sum2_arrow, 0), 1)
    assert two_cell_equal(vcomp(bwd, fwd), identity_cell(other)).equal


def test_shared_cells_keep_the_names_they_were_built_with(sum1_arrow, sum2_arrow, monkeypatch):
    # a shared cell reaches every later caller, so none may be renamed
    def name_once(cell, attr, value):
        if attr == "name" and "name" in vars(cell):
            raise AssertionError(f"cell {cell.name!r} renamed {value!r}")
        object.__setattr__(cell, attr, value)

    monkeypatch.setattr(TwoCell, "__setattr__", name_once)
    with session() as s:
        that = mult_cell(sum1_arrow, 0, sum2_arrow, 0)
        built = [(cell, cell.name) for cell, _ in s.cells.values()]
        sw = interchange(sum2_arrow, 0, 1)
        assert [cell.name for cell, _ in built] == [name for _, name in built]
        assert unit_cell(sum2_arrow, 0) in [cell for cell, _ in built]
        assert that.name == "m^[sum1;0;sum2;0]"
        assert sw.name == "sw[sum2;0,1]"
        assert mult_cell(sum1_arrow, 0, sum2_arrow, 0) is that
        assert interchange(sum2_arrow, 0, 1) is sw


def test_faults_reach_the_node_constructors(sum1_arrow, sum2_arrow):
    # strengthen and plug are shared constructors, so a session's fault
    # table reaches them, once per identity of their arguments
    fired = {"strengthen": [], "plug": []}

    def counting(calls):
        def fault(build, *args):
            calls.append(tuple(map(id, args)))
            return build(*args)
        return fault

    def build():
        interchange(sum2_arrow, 0, 1)
        mult_cell(sum1_arrow, 0, sum2_arrow, 1)
        strengthen(strengthen(sum2_arrow, 1), 0)

    with session({name: counting(calls) for name, calls in fired.items()}):
        build()
        for name, calls in fired.items():
            assert calls and len(set(calls)) == len(calls), name
        seen = {name: list(calls) for name, calls in fired.items()}
        build()
        assert fired == seen
    build()
    assert fired == seen


def test_transpose_compares_at_representables_without_new_cells(arrow, sum2_arrow,
                                                                monkeypatch):
    cell = interchange(sum2_arrow, 0, 1)

    def swap_first_wide_row(args):
        phi = cell.component(args)
        rows = [list(r) for r in phi.components]
        wide = next(r for r in rows if len(r) >= 2)
        wide[0], wide[1] = wide[1], wide[0]
        return PresheafMorphism(phi.src, phi.dst, rows)

    bad = TwoCell(cell.src, cell.dst, swap_first_wide_row, name="bad")

    def whiskered(c):
        for i in range(c.src.arity):
            c = whisker_inner(c, i, unit_map(arrow))
        return c

    want = two_cell_equal(whiskered(cell), whiskered(bad))
    assert not want.equal
    built = []
    for cls in (TwoCell, ComposeMap):
        def init(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    assert two_cell_equal(cell, cell).equal
    got = two_cell_equal(cell, bad)
    assert built == []
    assert (got.equal, got.checked, got.witness) == (False, want.checked, want.witness)


def test_swap_cells_keep_their_own_endpoints(arrow, sum2_arrow, monkeypatch):
    def no_retree(*args, **kwargs):
        raise AssertionError("a swap cell re-declared its endpoints")

    monkeypatch.setattr(monad, "retree", no_retree)
    with session():
        for j, k in ((0, 1), (1, 0)):
            cell = interchange(sum2_arrow, j, k)
            assert cell.src is strengthen(strengthen(sum2_arrow, k), j)
            assert cell.dst is strengthen(strengthen(sum2_arrow, j), k)
        sum3 = hom_sum_map(arrow, 3)
        for strategy in ("left", "right"):
            cell = interchange_perm(sum3, (0, 1, 2), (2, 1, 0), strategy)
            assert cell.src is strengthen(strengthen(strengthen(sum3, 0), 1), 2)
            assert cell.dst is strengthen(strengthen(strengthen(sum3, 2), 1), 0)


def test_reorder_factorisations_agree(arrow):
    sum3 = hom_sum_map(arrow, 3)
    for dst_order in [(1, 0, 2), (2, 0, 1), (2, 1, 0)]:
        left = interchange_perm(sum3, (0, 1, 2), dst_order, "left")
        right = interchange_perm(sum3, (0, 1, 2), dst_order, "right")
        verdict = two_cell_equal(left, right)
        assert verdict.equal, (dst_order, verdict.witness)


def test_reorder_trivial_word(arrow, sum2_arrow):
    cell = interchange_perm(sum2_arrow, (1, 0), (1, 0))
    target = strengthen(strengthen(sum2_arrow, 1), 0)
    assert two_cell_equal(cell, identity_cell(target)).equal


def test_lifted_identity_collapses(arrow):
    cell = functor_unit_cell(theta_cell(arrow))
    for p in sample_presheaves(arrow):
        phi = cell.component((p,))
        assert phi.is_bijection()
        assert validate_presheaf_morphism(phi) is None
    roundtrip = vcomp(cell, inverse_cell(cell))
    assert two_cell_equal(roundtrip, identity_cell(cell.src)).equal


def test_lifted_composition_comparison(arrow, square):
    f = square_to_arrow(square, arrow)
    g = arrow_to_square(arrow, square)
    cell = functor_comp_cell(f, 0, g)
    for p in sample_presheaves(arrow):
        phi = cell.component((p,))
        assert phi.is_bijection()
        assert validate_presheaf_morphism(phi) is None


def test_lifted_unit_laws(arrow, square):
    g = arrow_to_square(arrow, square)
    tg = apply_functor(g)

    left = vcomp(
        functor_comp_cell(FunctorTable.identity(square), 0, g),
        whisker_inner(functor_unit_cell(theta_cell(square)), 0, tg),
    )
    want = retree(identity_cell(tg), left.src, left.dst)
    assert two_cell_equal(left, want).equal

    right = vcomp(
        functor_comp_cell(g, 0, FunctorTable.identity(arrow)),
        whisker_outer(tg, 0, functor_unit_cell(theta_cell(arrow))),
    )
    want = retree(identity_cell(tg), right.src, right.dst)
    assert two_cell_equal(right, want).equal


def test_lifted_composition_associates(arrow, square):
    f = square_to_arrow(square, arrow)
    g = arrow_to_square(arrow, square)
    fg = compose_functor(f, 0, g)
    gf = compose_functor(g, 0, f)

    lhs = vcomp(
        functor_comp_cell(fg, 0, f),
        whisker_inner(functor_comp_cell(f, 0, g), 0, apply_functor(f)),
    )
    rhs = vcomp(
        functor_comp_cell(f, 0, gf),
        whisker_outer(apply_functor(f), 0, functor_comp_cell(g, 0, f)),
    )
    verdict = two_cell_equal(lhs, rhs)
    assert verdict.equal, verdict.witness


def test_unit_naturality_square_binary(arrow):
    meet = meet_functor(arrow)
    cell = unit_naturality_square(meet)
    for a in arrow.objects:
        for b in arrow.objects:
            phi = cell.component((a, b))
            assert phi.is_bijection()
            assert validate_presheaf_morphism(phi) is None
    roundtrip = vcomp(cell, inverse_cell(cell))
    assert two_cell_equal(roundtrip, identity_cell(cell.src)).equal


def test_lift_of_identity_transformation(arrow, square):
    f = square_to_arrow(square, arrow)
    psi = NatTransTable(f, f, {(x,): arrow.id_of(f.evaluate((x,))) for x in square.objects})
    cell = functor_on_nat(psi)
    assert two_cell_equal(cell, identity_cell(apply_functor(f))).equal


def test_lift_of_nontrivial_transformation(arrow, square):
    f = square_to_arrow(square, arrow)
    g = FunctorTable.unary(square, arrow, [0, 1, 1, 1], [0, 1, 1, 1, 2, 2, 1, 1, 2], name="g")
    psi = NatTransTable(f, g, {(0,): 0, (1,): 2, (2,): 1, (3,): 1})
    cell = functor_on_nat(psi)
    for p in sample_presheaves(square):
        assert validate_presheaf_morphism(cell.component((p,))) is None


def test_extend_square_unary(arrow):
    # h the graph of the constant functor at 1, f a constant functor,
    # and the extended square must stay invertible because the input is
    k = FunctorTable.unary(arrow, arrow, [1, 1], [1, 1, 1], name="c1")
    h = base_map(k)
    f = FunctorTable.unary(arrow, arrow, [0, 0], [0, 0, 0], name="c0")
    fprime = compose_functor(k, 0, f)
    g = ComposeMap(unit_map(arrow), 0, f)

    alpha = retree(
        unit_naturality_square(fprime),
        ComposeMap(h, 0, f),
        ComposeMap(apply_functor(fprime), 0, g),
    )
    beta = extend_square(alpha, h, f, fprime, [g])
    for p in sample_presheaves(arrow):
        phi = beta.component((p,))
        assert phi.is_bijection()
        assert validate_presheaf_morphism(phi) is None


def test_extend_square_binary(arrow):
    meet = meet_functor(arrow)
    k = FunctorTable.unary(arrow, arrow, [1, 1], [1, 1, 1], name="c1")
    h = base_map(k)
    fprime = compose_functor(k, 0, meet)
    gs = [unit_map(arrow), unit_map(arrow)]

    alpha = retree(
        unit_naturality_square(fprime),
        ComposeMap(h, 0, meet),
        plug_many(apply_functor(fprime), {0: gs[0], 1: gs[1]}),
    )
    beta = extend_square(alpha, h, meet, fprime, gs)
    s = sample_presheaves(arrow)
    for p, q in [(s[0], s[1]), (s[4], s[2]), (s[3], s[3])]:
        phi = beta.component((p, q))
        assert phi.is_bijection()
        assert validate_presheaf_morphism(phi) is None
