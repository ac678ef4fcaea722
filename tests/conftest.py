"""Shared small categories and hand-built maps used across the test suite."""

import pytest

from relmonad.fincat import FinCategory
from relmonad.multimap import TableMap
from relmonad.presheaf import PresheafMorphism


def walking_arrow() -> FinCategory:
    # objects 0, 1; morphisms: id0, id1, a: 0 -> 1
    return FinCategory(
        "arrow",
        2,
        [0, 1, 0],
        [0, 1, 1],
        [0, 1],
        {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2},
    )


def two_group() -> FinCategory:
    # one object, morphisms e, s with s*s = e
    return FinCategory(
        "Z2",
        1,
        [0, 0],
        [0, 0],
        [0],
        {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
    )


def left_zero_monoid() -> FinCategory:
    # one object; id, p, q with xy = x for non-identity x, y
    comp = {}
    for g in range(3):
        for f in range(3):
            if g == 0:
                comp[(g, f)] = f
            elif f == 0:
                comp[(g, f)] = g
            else:
                comp[(g, f)] = g
    return FinCategory("LZ3", 1, [0, 0, 0], [0, 0, 0], [0], comp)


def square_poset() -> FinCategory:
    # 0 <= 1 <= 3 and 0 <= 2 <= 3; morphisms 4: 0->1, 5: 0->2, 6: 1->3, 7: 2->3, 8: 0->3
    src = [0, 1, 2, 3, 0, 0, 1, 2, 0]
    tgt = [0, 1, 2, 3, 1, 2, 3, 3, 3]
    comp = {}
    for m in range(9):
        comp[(m, src[m])] = m  # m o id_src
        comp[(tgt[m], m)] = m  # id_tgt o m
    comp[(6, 4)] = 8
    comp[(7, 5)] = 8
    return FinCategory("square", 4, src, tgt, [0, 1, 2, 3], comp)


def cyclic_group(n) -> FinCategory:
    # one object; morphism k is g^k, so g^0 is the identity
    comp = {(a, b): (a + b) % n for a in range(n) for b in range(n)}
    return FinCategory(f"Z{n}", 1, [0] * n, [0] * n, [0], comp)


def isomorphic_pair() -> FinCategory:
    # objects 0, 1; a = 2: 0 -> 1 and b = 3: 1 -> 0 inverse to each other
    comp = {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2, (3, 1): 3, (0, 3): 3,
            (3, 2): 0, (2, 3): 1}
    return FinCategory("iso", 2, [0, 1, 0, 1], [0, 1, 1, 0], [0, 1], comp)


def codiscrete(n) -> FinCategory:
    # one arrow a -> b for every pair: identities first, then the others in lex order
    pairs = [(a, a) for a in range(n)] + [(a, b) for a in range(n) for b in range(n) if a != b]
    index = {ab: m for m, ab in enumerate(pairs)}
    comp = {(g, f): index[pairs[f][0], pairs[g][1]]
            for g, (b, _) in enumerate(pairs) for f, (_, b2) in enumerate(pairs) if b2 == b}
    return FinCategory(f"K{n}", n, [a for a, _ in pairs], [b for _, b in pairs],
                       list(range(n)), comp)


def hom_sum_map(c: FinCategory, n_slots: int, name="sum") -> TableMap:
    """The n-slot map whose value at (b1,...,bn) is the coproduct of the
    representables of the arguments: elements at y are tagged pairs (i, h)
    with h in hom(y, b_i).  Covariant by postcomposition in each slot,
    contravariant by precomposition in y.  Hand-rolled table used as the
    known-good anchor instance throughout the tests."""

    def elems(bs, y):
        return [(i, h) for i, b in enumerate(bs) for h in c.hom(y, b)]

    def index(bs, y):
        return {e: k for k, e in enumerate(elems(bs, y))}

    import itertools

    sets = {}
    cod_act = {}
    slot_act = {}
    for bs in itertools.product(c.objects, repeat=n_slots):
        sets[bs] = tuple(tuple(f"{i}:m{h}" for i, h in elems(bs, y)) for y in c.objects)
        rows = []
        for u in c.morphisms:
            yy, y2 = c.src(u), c.tgt(u)
            ix = index(bs, yy)
            rows.append(tuple(ix[(i, c.compose(h, u))] for i, h in elems(bs, y2)))
        cod_act[bs] = tuple(rows)
        for j in range(n_slots):
            for m in c.morphisms:
                marked = bs[:j] + (m,) + bs[j + 1 :]
                dst = bs[:j] + (c.tgt(m),) + bs[j + 1 :]
                src = bs[:j] + (c.src(m),) + bs[j + 1 :]
                comps = []
                for y in c.objects:
                    ix = index(dst, y)
                    comps.append(tuple(
                        ix[(i, c.compose(m, h) if i == j else h)]
                        for i, h in elems(src, y)
                    ))
                slot_act[(j,) + marked] = tuple(comps)
    return TableMap([c] * n_slots, c, sets, cod_act, slot_act, name=name)


def flat_rows(table) -> dict:
    """A TableMap table with one entry per fiber or row, in the table's
    order: item i of entry key under key + (i,), so args + (y,) in sets,
    args + (u,) in cod_act and (j,) + marked + (y,) in slot_act."""
    return {key + (i,): row for key, rows in table.items() for i, row in enumerate(rows)}


def set_row(table, flat_key, row):
    """Replace the row that flat_rows(table) keys flat_key."""
    key, i = flat_key[:-1], flat_key[-1]
    table[key] = table[key][:i] + (row,) + table[key][i + 1 :]


def coproduct_injections(ps, total, offsets) -> tuple:
    """The injections of ps into their sum total, built from the offsets that
    coproduct_presheaves returns: summand i goes onto the range from
    offsets[x][i] at every object x."""
    return tuple(
        PresheafMorphism(p, total, [tuple(range(off[i], off[i] + len(s)))
                                    for off, s in zip(offsets, p.at)])
        for i, p in enumerate(ps)
    )


def members(r) -> list:
    """Each class's least member in a ColimitResult as (node, copy, element),
    in class order: a reference decoding, one class at a time by linear
    search, independent of ColimitResult.blocks.  The node holding a flat
    index is the last one starting at or below it, since a node with no
    element shares its offset with the next one."""
    out = []
    for i in r.reps:
        k = max(k for k, start in enumerate(r.offsets) if start <= i)
        out.append((k, *divmod(i - r.offsets[k], r.sizes[k])))
    return out


@pytest.fixture
def arrow():
    return walking_arrow()


@pytest.fixture
def z2():
    return two_group()


@pytest.fixture
def lz3():
    return left_zero_monoid()


@pytest.fixture
def square():
    return square_poset()


@pytest.fixture
def sum1_arrow(arrow):
    return hom_sum_map(arrow, 1, name="sum1")


@pytest.fixture
def sum2_arrow(arrow):
    return hom_sum_map(arrow, 2, name="sum2")


@pytest.fixture
def sum2_z2(z2):
    return hom_sum_map(z2, 2, name="sum2g")


@pytest.fixture
def plus0_arrow(arrow, sum2_arrow):
    # unary map x |-> y_x + y_0: the second slot of the binary sum pinned at 0
    from relmonad.fincat import FunctorTable
    from relmonad.multimap import ComposeMap

    pt0 = FunctorTable((), arrow, {(): 0}, {(): arrow.id_of(0)}, name="pt0")
    return ComposeMap(sum2_arrow, 1, pt0)
