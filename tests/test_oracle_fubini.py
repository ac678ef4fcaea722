"""Anchors for the flat two-variable extension oracle.

The expected tables below are worked out by hand for the hom-sum map on the
walking arrow: its value at (x, w) is y_x + y_w, so the flat extension at
(p, q) must come out isomorphic to p + q, and with the least-index
representative rule the exact class order and action tables are forced.
"""

from relmonad.fubini import flat_double_extension
from relmonad.multimap import unit_map
from relmonad.presheaf import validate_presheaf


def test_flat_anchor_on_arrow(arrow, sum2_arrow):
    y1 = unit_map(arrow).evaluate((1,))
    flat = flat_double_extension(sum2_arrow, 0, 1, (y1, y1))
    assert tuple(len(s) for s in flat.presheaf.at) == (2, 2)
    # classes at object 0 are (first summand glued, second summand glued)
    assert flat.reps[0] == ((0, 0, 0), (0, 0, 1))
    # at object 1 the q-side class is born first (the x-side fiber is empty
    # at the earliest node), so restriction swaps the class order
    assert flat.reps[1] == ((0, 1, 0), (1, 0, 0))
    assert flat.presheaf.act[2] == (1, 0)
    assert flat.coproj[(0, 0)][0] == (0, 1)
    assert flat.coproj[(1, 1)][0] == (0, 1)
    assert validate_presheaf(flat.presheaf) is None


def test_flat_anchor_degenerate(arrow, sum2_arrow):
    y0 = unit_map(arrow).evaluate((0,))
    flat = flat_double_extension(sum2_arrow, 0, 1, (y0, y0))
    assert tuple(len(s) for s in flat.presheaf.at) == (2, 0)
    assert flat.presheaf.act[2] == ()
    assert validate_presheaf(flat.presheaf) is None


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
    # elements: |flat(p,q)(y)| = c(q)|p(y)| + c(p)|q(y)|.
    from relmonad.presheaf import category_of_elements, sample_presheaves

    for p in sample_presheaves(arrow):
        for q in sample_presheaves(arrow):
            cp = _components(category_of_elements(p))
            cq = _components(category_of_elements(q))
            flat = flat_double_extension(sum2_arrow, 0, 1, (p, q))
            for y in arrow.objects:
                assert len(flat.presheaf.at[y]) == cq * len(p.at[y]) + cp * len(q.at[y])
            assert validate_presheaf(flat.presheaf) is None
