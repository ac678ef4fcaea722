import gc
import random
import weakref
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import codiscrete, coproduct_injections, cyclic_group, isomorphic_pair, members
from relmonad.errors import BudgetExceededError
from relmonad.fincat import FinCategory, session, validate_category
from relmonad.gen import builtin_category, free_dag_category, gen_presheaf
from relmonad.presheaf import (
    FinSetDiagram,
    Graph,
    Presheaf,
    PresheafMorphism,
    category_of_elements,
    classifying_morphism,
    colimit_finset,
    coproduct_presheaves,
    enumerate_nat_trans,
    merge_counter,
    pointwise_colimit,
    representable,
    sample_presheaves,
    validate_presheaf,
    validate_presheaf_morphism,
    yoneda_action,
)


def test_representable_sizes_on_arrow(arrow):
    y0 = representable(arrow, 0)
    y1 = representable(arrow, 1)
    assert tuple(len(s) for s in y0.at) == (1, 0)
    assert tuple(len(s) for s in y1.at) == (1, 1)
    assert y1.at[0] == ("m2",)
    assert y1.act[2] == (0,)  # precompose id1 with a
    assert validate_presheaf(y0) is None and validate_presheaf(y1) is None


def test_representable_built_once_per_category(arrow):
    y0, y1 = representable(arrow, 0), representable(arrow, 1)
    assert representable(arrow, 1) is y1
    act = yoneda_action(arrow, 2)
    assert act.src is y0 and act.dst is y1
    assert classifying_morphism(y1, 0, 0).src is y0
    copy = FinCategory("arrow", 2, arrow.mor_src, arrow.mor_tgt, arrow.identity, arrow.comp)
    assert representable(copy, 1) is not y1  # the memo lives on each instance
    assert representable(copy, 1).content_key() == y1.content_key()


def test_representables_validate_everywhere(arrow, z2, lz3, square):
    for c in (arrow, z2, lz3, square):
        for a in c.objects:
            assert validate_presheaf(representable(c, a)) is None


def test_presheaf_validation_catches_tampering(lz3):
    p = representable(lz3, 0)
    assert p.act[1] == (1, 1, 2)  # precomposition with the left-zero element p
    bad_act = list(p.act)
    bad_act[1] = (2, 1, 1)
    bad = Presheaf(lz3, p.at, bad_act)
    assert validate_presheaf(bad)[0] == "broken-contravariance"


def test_yoneda_action_and_classifying(arrow):
    act = yoneda_action(arrow, 2)
    assert validate_presheaf_morphism(act) is None
    y1 = representable(arrow, 1)
    chi = classifying_morphism(y1, 0, 0)  # classify the element a of y1(0)
    assert chi.components == act.components


def test_classifying_morphism_is_natural(square):
    p = representable(square, 3)
    for x in square.objects:
        for e in range(len(p.at[x])):
            assert validate_presheaf_morphism(classifying_morphism(p, x, e)) is None


def test_morphism_compose_and_inverse(arrow):
    y1 = representable(arrow, 1)
    ident = PresheafMorphism.identity(y1)
    assert ident.is_bijection()
    assert ident.then(ident).components == ident.components
    assert ident.inverse().components == ident.components
    act = yoneda_action(arrow, 2)
    assert not act.is_bijection()  # empty fiber over object 1 of y0
    with pytest.raises(ValueError):
        act.inverse()


def test_coproduct_sizes_and_labels(arrow):
    y0, y1 = representable(arrow, 0), representable(arrow, 1)
    s, offsets = coproduct_presheaves([y0, y1])
    i0, i1 = coproduct_injections([y0, y1], s, offsets)
    assert tuple(len(x) for x in s.at) == (2, 1)
    assert s.at[0] == ("0:m0", "1:m2")
    assert validate_presheaf(s) is None
    assert validate_presheaf_morphism(i0) is None and validate_presheaf_morphism(i1) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.lists(st.integers(0, 10**3), min_size=1, max_size=12))
def test_coproduct_injections_partition_the_sum(seed, picks):
    # summands: representables and sample presheaves (sums and a pushout)
    # of a random free dag, so fibers of every size, empty ones included
    c = free_dag_category(random.Random(seed), 5, 6)
    family = sample_presheaves(c)
    ps = [family[i % len(family)] for i in picks]
    s, offsets = coproduct_presheaves(ps)
    injections = coproduct_injections(ps, s, offsets)
    assert validate_presheaf(s) is None
    assert len(injections) == len(ps)
    for p, inj in zip(ps, injections):
        assert inj.src is p and inj.dst is s
        assert validate_presheaf_morphism(inj) is None
    for x in c.objects:
        images = [v for inj in injections for v in inj.components[x]]
        assert sorted(images) == list(range(len(s.at[x])))


def test_coproduct_builds_no_morphism(arrow, square, monkeypatch):
    # the sum is built from offsets: no injection, nor any other presheaf
    # morphism, is constructed, however many summands there are
    built = []
    honest = PresheafMorphism.__init__

    def counting(self, *args):
        built.append(self)
        honest(self, *args)

    monkeypatch.setattr(PresheafMorphism, "__init__", counting)
    PresheafMorphism.identity(representable(arrow, 1))
    assert len(built) == 1  # the counter sees a construction
    for c in (arrow, square):
        ps = [representable(c, a) for a in c.objects] * 3
        s, offsets = coproduct_presheaves(ps)
        assert validate_presheaf(s) is None
        assert len(offsets) == c.n_objects and all(len(off) == len(ps) for off in offsets)
    assert len(built) == 1


def test_pushout_of_arrow_codomain(arrow):
    # glue two copies of y1 along y0 over the arrow a
    span = FinCategory(
        "span", 3, [0, 1, 2, 0, 0], [0, 1, 2, 1, 2], [0, 1, 2],
        {(0, 0): 0, (1, 1): 1, (2, 2): 2, (3, 0): 3, (4, 0): 4, (1, 3): 3, (2, 4): 4},
    )
    assert validate_category(span) is None
    y0, y1 = representable(arrow, 0), representable(arrow, 1)
    leg = yoneda_action(arrow, 2)
    ps = [y0, y1, y1]
    colim = pointwise_colimit(
        span,
        ps,
        {0: PresheafMorphism.identity(y0), 1: PresheafMorphism.identity(y1),
         2: PresheafMorphism.identity(y1), 3: leg, 4: leg},
        arrow,
    )
    assert tuple(len(x) for x in colim.at) == (1, 2)
    assert colim.act[2] == (0, 0)  # both glued points restrict to the same element
    assert validate_presheaf(colim) is None
    for i, p in enumerate(ps):
        copr = PresheafMorphism(p, colim, [r.row(i, 0) for r in colim.colims])
        assert validate_presheaf_morphism(copr) is None


def test_colimit_reps_are_least(arrow):
    shape = FinCategory("pair", 2, [0, 1], [0, 1], [0, 1], {(0, 0): 0, (1, 1): 1})
    d = FinSetDiagram(shape, (tuple("ab"), tuple("cd")), {0: (0, 1), 1: (0, 1)})
    r = colimit_finset(d)
    assert r.reps == (0, 1, 2, 3)
    assert members(r) == [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)]
    assert len(r.classes) - len(r.reps) == 0
    assert r.set == ("q0", "q1", "q2", "q3")


def test_colimit_budget(arrow):
    shape = FinCategory("one", 1, [0], [0], [0], {(0, 0): 0})
    d = FinSetDiagram(shape, (tuple(f"x{i}" for i in range(10)),), {0: tuple(range(10))})
    with pytest.raises(BudgetExceededError):
        colimit_finset(d, budget=5)


span_maps = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
)


@settings(max_examples=60, deadline=None)
@given(span_maps)
def test_colimit_partitions_random_spans(vals):
    # random span of 3-element sets: classes partition all 9 elements and
    # the nodes' rows hit every class; leaving the identity maps out changes
    # nothing, since they merge nothing
    shape = FinCategory(
        "span", 3, [0, 1, 2, 0, 0], [0, 1, 2, 1, 2], [0, 1, 2],
        {(0, 0): 0, (1, 1): 1, (2, 2): 2, (3, 0): 3, (4, 0): 4, (1, 3): 3, (2, 4): 4},
    )
    sets = tuple(tuple(f"e{i}{j}" for j in range(3)) for i in range(3))
    legs = {3: vals[:3], 4: vals[3:]}
    d = FinSetDiagram(shape, sets, {0: (0, 1, 2), 1: (0, 1, 2), 2: (0, 1, 2), **legs})
    before = merge_counter.value
    r = colimit_finset(d)
    assert merge_counter.value - before == len(r.classes) - len(r.reps)
    assert (r.offsets, r.sizes, len(r.classes)) == ((0, 3, 6), (3, 3, 3), 9)
    seen = set()
    for i in range(3):
        seen.update(r.row(i, 0))
    assert seen == set(range(len(r.set)))
    for k, (i, e, t) in enumerate(members(r)):
        assert e == 0 and r.row(i, e)[t] == k
        assert r.reps[k] == r.offsets[i] + t
    generated = colimit_finset(FinSetDiagram(shape, sets, legs))
    assert generated.reps == r.reps
    assert generated.classes == r.classes


@st.composite
def finset_diagrams(draw):
    """Random diagrams of finite sets: empty nodes, self-loops, parallel
    arrows, shape arrows with no map, and maps keyed in shuffled order."""
    sizes = draw(st.lists(st.integers(0, 4), max_size=5))
    n = len(sizes)
    node = st.integers(0, n - 1) if n else st.nothing()
    arrows = draw(st.lists(st.tuples(node, node), max_size=8)) if n else []
    maps = {}
    for m, (a, b) in enumerate(arrows):
        if (sizes[a] and not sizes[b]) or draw(st.integers(0, 4)) == 0:
            continue  # no map exists, or this arrow is left out
        maps[m] = tuple(draw(st.integers(0, sizes[b] - 1)) for _ in range(sizes[a]))
    order = draw(st.permutations(sorted(maps)))
    shape = Graph(n, [a for a, _ in arrows], [b for _, b in arrows])
    sets = tuple(tuple(f"{a}.{e}" for e in range(k)) for a, k in enumerate(sizes))
    return FinSetDiagram(shape, sets, {m: maps[m] for m in order})


def reference_colimit(d):
    """Connected components of the element graph by breadth-first search,
    numbered in the order of their least member: the representatives in a
    plain diagram's (node, 0, element) coordinates, and each element's
    class, node by node."""
    nodes = [(a, e) for a, s in enumerate(d.sets) for e in range(len(s))]
    adj = {v: [] for v in nodes}
    for m, row in d.maps.items():
        a, b = d.shape.mor_src[m], d.shape.mor_tgt[m]
        for e, t in enumerate(row):
            adj[(a, e)].append((b, t))
            adj[(b, t)].append((a, e))
    cls, reps = {}, []
    for v in nodes:  # ascending, so the first member met is the least
        if v in cls:
            continue
        cls[v] = len(reps)
        reps.append(v)
        queue = deque([v])
        while queue:
            for w in adj[queue.popleft()]:
                if w not in cls:
                    cls[w] = cls[v]
                    queue.append(w)
    return tuple((a, 0, e) for a, e in reps), tuple(cls[v] for v in nodes)


def layout(d):
    """The offsets and sizes of a diagram's nodes in the flat enumeration."""
    copies = d.copies or (1,) * len(d.sets)
    sizes = tuple(len(s) for s in d.sets)
    offsets = tuple(sum(n * c for n, c in zip(sizes[:k], copies)) for k in range(len(sizes)))
    return offsets, sizes


@settings(max_examples=200, deadline=None)
@given(finset_diagrams())
def test_colimit_matches_component_reference(d):
    before = merge_counter.value
    r = colimit_finset(d)
    reps, classes = reference_colimit(d)
    assert tuple(members(r)) == reps
    assert r.classes == classes
    assert (r.offsets, r.sizes) == layout(d)
    assert r.reps == tuple(r.offsets[a] + t for a, _, t in reps)
    assert r.set == tuple(f"q{k}" for k in range(len(reps)))
    assert merge_counter.value - before == sum(len(s) for s in d.sets) - len(reps)



@st.composite
def copied_diagrams(draw):
    """A random diagram with 0-3 copies of each node's set, and a source copy
    drawn for every target copy of every arrow."""
    d = draw(finset_diagrams())
    n = d.shape.n_objects
    copies = tuple(draw(st.integers(0, 3)) for _ in range(n))
    lifts = tuple(
        tuple(draw(st.integers(0, copies[a] - 1)) for _ in range(copies[b]))
        if copies[a] else ()
        for a, b in zip(d.shape.mor_src, d.shape.mor_tgt)
    )
    maps = {m: row for m, row in d.maps.items() if lifts[m] or not copies[d.shape.mor_tgt[m]]}
    return FinSetDiagram(d.shape, d.sets, maps, copies, lifts)


def expand_copies(d):
    """The one-copy diagram a copied diagram stands for: a node per copy, in
    order, and an arrow per target copy of each arrow."""
    first = [sum(d.copies[:k]) for k in range(len(d.copies))]
    sets = tuple(s for s, k in zip(d.sets, d.copies) for _ in range(k))
    src, tgt, maps = [], [], {}
    for m, row in d.maps.items():
        a, b = d.shape.mor_src[m], d.shape.mor_tgt[m]
        for e2, e1 in enumerate(d.lifts[m]):
            maps[len(src)] = row
            src.append(first[a] + e1)
            tgt.append(first[b] + e2)
    return FinSetDiagram(Graph(len(sets), src, tgt), sets, maps)


def regroup(reps, copies):
    """Representatives of the one-copy expansion of a diagram with these
    copies, read in the copied diagram's (node, copy, element) coordinates.
    The expansion enumerates its elements in the same order, node per copy,
    so the classes and the flat representatives carry over, and only the
    decoded representatives change their names."""
    nodes = [(k, e) for k, c in enumerate(copies) for e in range(c)]
    return tuple(nodes[n] + (t,) for n, _, t in reps)


@settings(max_examples=200, deadline=None)
@given(copied_diagrams())
def test_copies_match_their_expansion(d):
    total = sum(len(s) * k for s, k in zip(d.sets, d.copies))
    with pytest.raises(BudgetExceededError):
        colimit_finset(d, budget=total - 1)
    before = merge_counter.value
    r = colimit_finset(d)
    assert merge_counter.value - before == len(r.classes) - len(r.reps)
    expanded = colimit_finset(expand_copies(d))
    assert r.set == expanded.set
    assert (r.offsets, r.sizes) == layout(d)
    assert (r.reps, r.classes) == (expanded.reps, expanded.classes)
    assert tuple(members(r)) == regroup(members(expanded), d.copies)
    reps, classes = reference_colimit(expand_copies(d))
    assert (tuple(members(r)), r.classes) == (regroup(reps, d.copies), classes)


@settings(max_examples=200, deadline=None)
@given(st.one_of(finset_diagrams(), copied_diagrams()))
def test_flat_classes_follow_the_enumeration(d):
    # one class per element, in (node, copy, element) order; each class
    # first appears at its representative, and classes first appear in
    # ascending order; row(k, e) is copy e of node k's slice
    r = colimit_finset(d)
    copies = d.copies or (1,) * len(d.sets)
    assert len(r.classes) == sum(len(s) * c for s, c in zip(d.sets, copies))
    first = {}
    for i, c in enumerate(r.classes):
        first.setdefault(c, i)
    assert list(first) == list(range(len(r.reps)))
    assert list(r.reps) == list(first.values())
    assert [r.offsets[k] + e * r.sizes[k] + t for k, e, t in members(r)] == list(first.values())
    for k, c in enumerate(copies):
        for e in range(c):
            start = r.offsets[k] + e * r.sizes[k]
            assert r.row(k, e) == r.classes[start:start + r.sizes[k]]


@st.composite
def hollow_diagrams(draw):
    """A copied diagram with nodes that hold no element put in among its
    nodes, at least one and up to two before each node and at the end:
    each has an empty set or no copies of a nonempty one, and no arrow
    touches it."""
    d = draw(copied_diagrams())
    n = d.shape.n_objects
    hollow = draw(st.lists(st.integers(0, 2), min_size=n + 1, max_size=n + 1))
    hollow[-1] = hollow[-1] or 1  # at least one, at the end if nowhere else
    sets, copies, new = [], [], []
    for k in range(n + 1):
        for _ in range(hollow[k]):
            if draw(st.booleans()):
                sets.append(())
                copies.append(draw(st.integers(0, 2)))
            else:
                sets.append(tuple(f"h.{e}" for e in range(draw(st.integers(1, 3)))))
                copies.append(0)
        if k < n:
            new.append(len(sets))
            sets.append(d.sets[k])
            copies.append(d.copies[k])
    shape = Graph(len(sets), [new[a] for a in d.shape.mor_src], [new[b] for b in d.shape.mor_tgt])
    return FinSetDiagram(shape, tuple(sets), d.maps, tuple(copies), d.lifts)


@settings(max_examples=200, deadline=None)
@given(st.one_of(hollow_diagrams(), copied_diagrams(), finset_diagrams()))
def test_members_decode_the_flat_reps(d):
    # the reference decoding skips the nodes with no element, and each
    # decoded (node, copy, element) indexes back to reps[c]
    r = colimit_finset(d)
    copies = d.copies or (1,) * len(d.sets)
    decoded = members(r)
    assert len(decoded) == len(r.set)
    for c, (k, e, t) in enumerate(decoded):
        assert 0 <= e < copies[k] and 0 <= t < r.sizes[k]
        assert r.offsets[k] + e * r.sizes[k] + t == r.reps[c]
        assert r.row(k, e)[t] == c


def no_classes():
    """Diagrams whose colimit has no class: no node, or only empty nodes and
    nodes with no copies."""
    return st.sampled_from([
        FinSetDiagram(Graph(0, [], []), (), {}),
        FinSetDiagram(Graph(2, [0], [1]), ((), ()), {0: ()}),
        FinSetDiagram(Graph(2, [], []), (("a",), ()), {}, (0, 3), ()),
    ])


@settings(max_examples=200, deadline=None)
@given(st.one_of(hollow_diagrams(), copied_diagrams(), finset_diagrams(), no_classes()))
def test_blocks_split_the_reps_by_node(d):
    # one block per node holding a class, in ascending node order; each
    # block's reps lie in its node's range of flat indices, the blocks'
    # reps concatenate to reps, and decoding them gives the reference
    # decoding, one class at a time
    r = colimit_finset(d)
    blocks = r.blocks()
    nodes = [k for k, _, _, _ in blocks]
    assert nodes == sorted(set(nodes))
    ends = r.offsets[1:] + (len(r.classes),)
    for k, off, n, reps in blocks:
        assert (off, n) == (r.offsets[k], r.sizes[k])
        assert reps and all(off <= i < ends[k] for i in reps)
    assert tuple(i for _, _, _, reps in blocks for i in reps) == r.reps
    decoded = [(k, *divmod(i - off, n)) for k, off, n, reps in blocks for i in reps]
    assert decoded == members(r)
    assert bool(blocks) == bool(r.reps)


def test_colimits_share_labels_and_identity_rows(arrow):
    # two colimits with the same class count share one label tuple, and
    # every identity row of one size is one tuple, within a colimit
    # presheaf and across colimit presheaves
    def diagram(n):
        return FinSetDiagram(Graph(1, [], []), (tuple(range(n)),), {})

    first, second = colimit_finset(diagram(7)), colimit_finset(diagram(7))
    assert first.set is second.set and first.set == tuple(f"q{k}" for k in range(7))
    assert colimit_finset(diagram(6)).set == first.set[:6]
    y1 = representable(arrow, 1)  # one element at each object
    one = pointwise_colimit(Graph(1, [], []), [y1], {}, arrow)
    other = pointwise_colimit(Graph(2, [], []), [y1, y1], {}, arrow)
    id0, id1 = arrow.identity
    assert one.act[id0] is one.act[id1] and one.act[id0] == (0,)
    assert other.act[id0] is other.act[id1] and other.act[id0] == (0, 1)
    assert one.act[id0] is pointwise_colimit(Graph(1, [], []), [y1], {}, arrow).act[id1]


def test_representables_share_their_labels(arrow, square):
    # every representable names its elements m0, m1, ... by morphism id,
    # and equal labels are one string across objects and categories
    labels = {}
    for c in (arrow, square):
        for a in c.objects:
            for x, at in enumerate(representable(c, a).at):
                for m, label in zip(c.hom(x, a), at):
                    assert label == f"m{m}"
                    assert labels.setdefault(m, label) is label


def test_presheaf_values_have_slots(arrow):
    # no per-instance __dict__, and a weak reference still works: the
    # benchmark's memo counters hold results weakly
    y1 = representable(arrow, 1)
    phi = PresheafMorphism.identity(y1)
    for obj in (y1, phi):
        assert not hasattr(obj, "__dict__")
        assert weakref.ref(obj)() is obj


def test_colimit_allocates_no_tuple_per_class():
    # the net count of gc-tracked allocations in one colimit_finset call is
    # the same at 10 classes and at 100: no container is built per class
    # or per element.  The class labels, one shared tuple per class count,
    # are made before counting.  A full collection empties the free lists,
    # whose reused tuples the count misses, and the padding keeps the count
    # clear of 0, below which a free is not counted
    def diagram(n):
        shape = Graph(2, [0], [1])
        sets = (tuple(range(n)), tuple(range(n)))
        return FinSetDiagram(shape, sets, {0: tuple(range(n))}, (2, 2), ((0, 1),))

    def tracked_delta(d):
        gc.collect()
        pad = [[] for _ in range(100)]
        before = gc.get_count()[0]
        r = colimit_finset(d)
        delta = gc.get_count()[0] - before
        del pad
        return r, delta

    small, large = diagram(5), diagram(50)
    colimit_finset(small)
    colimit_finset(large)
    enabled = gc.isenabled()
    gc.disable()
    try:
        r_small, d_small = tracked_delta(small)
        r_large, d_large = tracked_delta(large)
    finally:
        if enabled:
            gc.enable()
    assert (len(r_small.set), len(r_large.set)) == (10, 100)
    assert d_small == d_large

def test_pointwise_colimit_budget_bounds_each_object(arrow, monkeypatch):
    # two copies of y0 + y1 + y1 glued along the identity: the colimit at
    # object 0 takes 6 elements and the one at object 1 takes 4, so the
    # budget bounds each object's colimit, never their sum of 10
    s, _ = coproduct_presheaves([representable(arrow, a) for a in (0, 1, 1)])
    assert tuple(len(x) for x in s.at) == (3, 2)
    args = (Graph(2, [0], [1]), [s, s], {0: PresheafMorphism.identity(s)}, arrow)
    monkeypatch.setenv("RELMONAD_BUDGET", "8")
    colim = pointwise_colimit(*args)
    assert tuple(len(x) for x in colim.at) == (3, 2)
    monkeypatch.setenv("RELMONAD_BUDGET", "5")
    with pytest.raises(BudgetExceededError, match="6 elements exceeds budget 5"):
        pointwise_colimit(*args)


def test_category_of_elements(arrow):
    # y1 on the walking arrow a : 0 -> 1 has one element a at 0 and one, id1,
    # at 1; the only non-identity arrow of El(y1) is a : (0, a) -> (1, id1)
    y1 = representable(arrow, 1)
    el = category_of_elements(y1)
    assert el.el_objs == ((0, 0), (1, 0))
    assert el.el_index == {(0, 0): 0, (1, 0): 1}
    assert el.el_arrows == ((2, 0),)
    assert (el.n_objects, el.n_morphisms) == (2, 1)
    assert (el.src(0), el.tgt(0)) == (0, 1)
    assert category_of_elements(Presheaf(arrow, y1.at, y1.act)) is not el  # distinct instances


def test_category_of_elements_cached(arrow):
    p = representable(arrow, 1)
    with session():
        assert category_of_elements(p) is category_of_elements(p)


def test_elements_of_square_corner(square):
    p = representable(square, 3)
    el = category_of_elements(p)
    # one element per object of the poset below 3, so El(y3) is the square
    # again: one arrow per non-identity morphism 4..8, in morphism order
    assert el.el_objs == ((0, 0), (1, 0), (2, 0), (3, 0))
    assert el.el_arrows == ((4, 0), (5, 0), (6, 0), (7, 0), (8, 0))
    assert [el.src(i) for i in range(el.n_morphisms)] == [0, 0, 1, 2, 0]
    assert [el.tgt(i) for i in range(el.n_morphisms)] == [1, 2, 3, 3, 3]


def test_enumerate_nat_trans_matches_yoneda(arrow, square):
    for c in (arrow, square):
        ys = {a: representable(c, a) for a in c.objects}
        for a in c.objects:
            for b in c.objects:
                found = enumerate_nat_trans(ys[a], ys[b])
                assert len(found) == len(c.hom(a, b))
                for t in found:
                    assert validate_presheaf_morphism(t) is None


def test_enumerate_nat_trans_budget(square):
    p = representable(square, 3)
    s, _ = coproduct_presheaves([p, p, p])
    with pytest.raises(BudgetExceededError):
        enumerate_nat_trans(s, s, budget=3)


def test_sample_family(arrow, z2):
    fam = sample_presheaves(arrow)
    assert len(fam) == 5
    for p in fam:
        assert validate_presheaf(p) is None
    # singleton object category still yields representable + coproduct + quotient
    fam2 = sample_presheaves(z2)
    assert len(fam2) == 3
    for p in fam2:
        assert validate_presheaf(p) is None


def _direct_action(base, ps, results):
    """A colimit's action read through the nodes at every morphism,
    identities and derived arrows included."""
    return tuple(
        tuple(results[base.src(m)].row(k, e)[ps[k].act[m][t]]
              for k, e, t in members(results[base.tgt(m)]))
        for m in base.morphisms
    )


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_colimit_action_matches_the_rows_read_through_the_nodes(seed):
    # pointwise_colimit reads its action at the generators and composes the
    # derived rows; both must equal the rows read through the nodes, on
    # coproducts (no arrows) and on quotients (presheaf_quotient's diagram)
    rng = random.Random(seed)
    shapes = [builtin_category(n) for n in ("arrow", "z2", "leftzero3", "square")]
    shapes += [cyclic_group(3), isomorphic_pair(), codiscrete(3), free_dag_category(rng, 5, 6)]
    c = rng.choice(shapes)
    ps = [gen_presheaf(rng, c) for _ in range(rng.randint(1, 3))]
    colim = pointwise_colimit(Graph(len(ps), [], []), ps, {}, c)
    assert colim.act == _direct_action(c, ps, colim.colims)
    total, _ = coproduct_presheaves(ps)
    nodes, maps = [total], {}
    for _ in range(rng.randint(1, 3)):
        sized = [x for x in c.objects if len(total.at[x]) >= 2]
        if not sized:
            break
        x = rng.choice(sized)
        a, b = rng.sample(range(len(total.at[x])), 2)
        nodes.append(representable(c, x))
        maps[len(maps)] = classifying_morphism(total, x, a)
        maps[len(maps)] = classifying_morphism(total, x, b)
    shape = Graph(len(nodes), [1 + m // 2 for m in maps], [0] * len(maps))
    quotient = pointwise_colimit(shape, nodes, maps, c)
    assert quotient.act == _direct_action(c, nodes, quotient.colims)
    assert validate_presheaf(quotient) is None
