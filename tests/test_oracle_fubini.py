"""Anchors and power of the interchange reference, which routes every triple
(x, e; w, e2; t) through both iterated extensions' records.

The anchors are worked out by hand for the hom-sum map on the walking arrow
0 -> 1: its value at (x, w) is y_x + y_w, so both iterated extensions at
(p, q) come out isomorphic to a sum of copies of p and of q, and with the
least-member rule every class number is forced.
"""

import random

import pytest

from relmonad import checker, fubini
from relmonad.checker import CheckConfig
from relmonad.fincat import session
from relmonad.fubini import flat_double_extension, gamma_tables
from relmonad.gen import derive_seed
from relmonad.kan import strengthen
from relmonad.multimap import unit_map
from relmonad.presheaf import PresheafMorphism, category_of_elements, sample_presheaves

# at codomain object 0 every f(x, w)(0) is {first summand, second summand},
# and both extensions keep the two summands as classes 0 and 1
BOTH_SUMMANDS = ((0, 0), (1, 1))


def test_flat_anchor_on_arrow(arrow, sum2_arrow):
    y1 = unit_map(arrow).evaluate((1,))
    flat = flat_double_extension(sum2_arrow, 0, 1, (y1, y1))
    # y1 has one element over each object, so the triples are keyed by
    # (x, 0, w, 0).  At object 1, f(0, 0) is empty, f(0, 1) holds only the
    # second summand and f(1, 0) only the first.  In ext_0(ext_1 f) the
    # second summand's class is born first (at x = 0), in ext_1(ext_0 f)
    # the first summand's (at w = 0), so the swap crosses them.
    assert flat.coproj == {
        (0, 0, 0, 0): (BOTH_SUMMANDS, ()),
        (0, 0, 1, 0): (BOTH_SUMMANDS, ((0, 1),)),
        (1, 0, 0, 0): (BOTH_SUMMANDS, ((1, 0),)),
        (1, 0, 1, 0): (BOTH_SUMMANDS, ((1, 0), (0, 1))),
    }
    assert gamma_tables(sum2_arrow, 0, 1, (y1, y1)) == [(0, 1), (1, 0)]


def test_flat_anchor_degenerate(arrow, sum2_arrow):
    # y0 is empty over object 1: one triple node, and nothing at object 1
    y0 = unit_map(arrow).evaluate((0,))
    flat = flat_double_extension(sum2_arrow, 0, 1, (y0, y0))
    assert flat.coproj == {(0, 0, 0, 0): (BOTH_SUMMANDS, ())}
    assert gamma_tables(sum2_arrow, 0, 1, (y0, y0)) == [(0, 1), ()]


def _components(el):
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


def test_flat_respects_sum_sizes(arrow, sum2_arrow):
    # For the hom-sum map, extending in both slots multiplies each summand by
    # the number of connected components of the other argument's category of
    # elements, in either order: |ext(p, q)(y)| = c(q)|p(y)| + c(p)|q(y)|.
    # The routed table is then a bijection between the two.
    both = (strengthen(strengthen(sum2_arrow, 1), 0), strengthen(strengthen(sum2_arrow, 0), 1))
    for p in sample_presheaves(arrow):
        for q in sample_presheaves(arrow):
            cp = _components(category_of_elements(p))
            cq = _components(category_of_elements(q))
            for ext in both:
                value = ext.evaluate((p, q))
                for y in arrow.objects:
                    assert len(value.at[y]) == cq * len(p.at[y]) + cp * len(q.at[y])
            for row in gamma_tables(sum2_arrow, 0, 1, (p, q)):
                assert sorted(row) == list(range(len(row)))


def test_a_class_routed_two_ways_or_not_at_all_reads_none(monkeypatch, arrow, sum2_arrow):
    y1 = unit_map(arrow).evaluate((1,))
    coproj = dict(flat_double_extension(sum2_arrow, 0, 1, (y1, y1)).coproj)
    # at object 1, class 0 of ext_0(ext_1 f) now also goes to class 0 ...
    at0, _ = coproj[1, 0, 1, 0]
    coproj[1, 0, 1, 0] = (at0, ((1, 0), (0, 0)))
    # ... and at object 0 no triple reaches class 1
    for key, (rows0, rows1) in coproj.items():
        coproj[key] = (rows0[:1], rows1)
    monkeypatch.setattr(fubini, "flat_double_extension",
                        lambda *args: fubini.FlatExtension(coproj))
    assert gamma_tables(sum2_arrow, 0, 1, (y1, y1)) == [(0, None), (None, 0)]


class _Swapped:
    """A swap cell whose every component has the first two entries of its
    first row of two or more entries swapped; damaged[i] says whether the
    i-th component asked for had such a row."""

    def __init__(self, cell, damaged):
        self.cell, self.damaged = cell, damaged

    def component(self, args):
        phi = self.cell.component(args)
        rows = [list(row) for row in phi.components]
        wide = next((row for row in rows if len(row) >= 2), None)
        self.damaged.append(wide is not None)
        if wide:
            wide[0], wide[1] = wide[1], wide[0]
        return PresheafMorphism(phi.src, phi.dst, rows)


@pytest.mark.parametrize("seed", [42, 1])
@pytest.mark.parametrize("damage", [False, True])
def test_the_oracle_catches_a_swapped_row_at_every_tuple(monkeypatch, seed, damage):
    # every check of every interchange-oracle instance, not only each
    # instance's first failure: the honest swap matches the routed table at
    # every tuple, and a swap with two entries of a wide row exchanged
    # disagrees with it at every tuple that has such a row
    damaged = []
    if damage:
        interchange = checker.interchange
        monkeypatch.setattr(checker, "interchange",
                            lambda *args: _Swapped(interchange(*args), damaged))
    law, n = checker.LAW_FAMILIES["interchange-oracle"][:2]
    cfg = CheckConfig(seed=seed)
    verdicts = []
    for i in range(n):
        rng = random.Random(derive_seed(seed, "interchange-oracle", i))
        with session():
            verdicts += [v.equal for v in law(rng, cfg)]
    assert len(verdicts) > n
    if damage:
        assert verdicts == [not d for d in damaged] and any(damaged)
    else:
        assert all(verdicts)
