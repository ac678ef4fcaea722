"""Pointwise extension of a map along the unit in one slot, and its cells.

strengthen(f, j) turns a fin slot into a psh slot by a colimit over the
category of elements of the argument: the value at a presheaf p is the
colimit, taken objectwise in the codomain, of f's values over El(p).

That colimit is the coend (p * f)(y) = coend over x of p(x) x f(x)(y), and
it is computed in that layout.  Every El(p) node over x carries the same set
f(x)(y) and every El(p) arrow over m the same map f(m)_y, so the diagram at
y has one node per object x, standing for |p(x)| copies of f(x)(y), and one
arrow per generating arrow m of the base (FinCategory.generation), whose
copies p.act[m] wires up.  A derived m = g after f merges nothing that g
and f have not, since f(m) = f(g) after f(f) and p.act[m] composes p.act[g]
and p.act[f]; so the generators give El(p)'s colimit exactly.  The
colimit's loops run over the base category's objects and generators and
over the elements, and it names each element (x, e, t): element t of
f(x)(y) at p's element e over x.  Its class is classes[offsets[x] +
e * sizes[x] + t] in the ColimitResult at y, one flat table per colimit,
and each class is named by that flat index of its least member.  A cocone
map reads those a node block at a time (ColimitResult.blocks): each cell
first looks up what depends only on (y, x), such as a component at x or
the rows of p's action along hom(y, x), then fills the block in one
comprehension, decoding each index to (e, t) by divmod.  Classes are read
in class order, so memo fills and faults come in the order a class-by-class
walk would meet them.  Every cell below reads classes in those
coordinates, so no extension builds El(p).  The oracle that does build it,
checker._colimit_certificate, keeps every non-identity, so it stays
independent of this shortcut.  The interchange reference (fubini) builds
none: it routes elements through the iterated extensions' records.

All quotients go through pointwise_colimit, so representatives are canonical
and reruns are bit-identical.

The cells defined here are the generators of everything the checker verifies:

  unit_cell(f, j)        f  =>  strengthen(f, j) o_j unit          (invertible)
  counit_cell(h, j)      strengthen(h o_j unit, j)  =>  h
  theta_cell(X)          strengthen(unit, 0)  =>  identity         (invertible)
  mult_cell(f, j, g, l)  strengthen(f^ o_j g, j+l)  =>  f^ o_j g^  (invertible)
  strengthen_cell(a, j)  functorial action on cells
  transpose/untranspose  the bijection the unit/counit pair induces

mult_cell is not postulated: it is the untranspose of the whiskered unit,
which is the shape every uniqueness argument downstream leans on.

An extension's value is its record, a Colimit holding its ColimitResult at
each codomain object, and data names that memoized evaluation.  While a
fincat.session() is open, two memos keyed by content are kept on the
codomain category, each read through fincat.content_memo: cod.colimits
holds one record per colimit input, and cod.cocones one map between two
records per (source record, destination record, kind, what the blocks
read).  Two kinds of map go through it: the action in the extended slot,
and _inside, which applies the inner map's action (the action in another
slot) or the inner cell's components (strengthen_cell) in every copy.
_inside reads them only at the nodes the source record's blocks first
touch, in that order, so map objects and cells that meet the same records
share one map.  counit_cell and theta_cell build theirs afresh: the first's
key would cost more than it saves, and the second's maps out of fresh
records never repeat.  Outside a session neither memo is read or filled:
no key is built, a record lives only in its map's evaluation memo, and a
map between records only in the memo of the map or cell that asked for it,
so both die with their owner by reference count.

Those memos point back at their owner: a record on cod.colimits and a map
on cod.cocones hold presheaves whose base is cod.  The session that owns
cod empties them when it closes: the one cod was born in, or else the one
that first filled them.  So what was built inside dies by reference count.
While one is open, strengthen and the cell constructors above (all but
transpose and untranspose) hand back one shared node or cell per identity
of their arguments, its memos warm; outside one they build afresh.
untranspose therefore names its composite when building it.
"""

from __future__ import annotations

from .errors import SlotMismatchError
from .fincat import FinCategory, content_memo, shared
from .presheaf import (
    Colimit,
    Presheaf,
    PresheafMorphism,
    classifying_morphism,
    pointwise_colimit,
)
from .multimap import (
    IdentityMap,
    MultiMap,
    Slot,
    TwoCell,
    plug,
    unit_map,
    vcomp,
    whisker_inner,
    whisker_outer,
)


def _cocone_map(src: Colimit, dst: Presheaf, block) -> PresheafMorphism:
    """The map out of an extension's value fixed by a cocone into dst, read
    a node block at a time (ColimitResult.blocks): block(y, x, off, n, reps)
    lists where the classes whose least members lie over x go, in order.
    Each i in reps is element t of f(x)(y) at the argument's element e over
    x, for e, t = divmod(i - off, n)."""
    comps = []
    for y, colim in enumerate(src.colims):
        row = []
        for x, off, n, reps in colim.blocks():
            row += block(y, x, off, n, reps)
        comps.append(row)
    return PresheafMorphism(src, dst, comps)


def _record_map(src: Colimit, dst: Colimit, kind: str, reads, block) -> PresheafMorphism:
    """_cocone_map between two records, shared on their codomain by content
    while a session is open.

    block may read only reads, which with the two records and the kind of
    block fixes the map; so cod.cocones keeps one map per (src, dst, kind,
    reads), and map objects that meet the same records share it.
    """
    memo = content_memo(src.base, "cocones")
    if memo is None:
        return _cocone_map(src, dst, block)
    key = (src, dst, kind, reads)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = _cocone_map(src, dst, block)
    return hit


def _inside(src: Colimit, dst: Colimit, at) -> PresheafMorphism:
    """The map between two records that applies at(x), a component tuple
    per codomain object, inside every copy of node x.

    at is read at src.nodes alone, in the order the blocks first touch them,
    as a class-by-class walk would evaluate it; so what it reads is a
    function of the map, whoever asks.
    """
    inside = {x: at(x) for x in src.nodes}

    def block(y, x, off, n, reps):
        r = dst.colims[y]
        classes, o, s, to = r.classes, r.offsets[x], r.sizes[x], inside[x][y]
        return [classes[o + e * s + to[t]] for i in reps for e, t in (divmod(i - off, n),)]

    return _record_map(src, dst, "inside", tuple(inside.values()), block)


class StrengthenMap(MultiMap):
    """The pointwise extension of f along the unit in fin slot j."""

    def __init__(self, inner: MultiMap, j: int):
        if not (0 <= j < inner.arity) or inner.slots[j].kind != "fin":
            raise SlotMismatchError(f"{inner.name}: slot {j} is not a fin slot")
        slots = list(inner.slots)
        slots[j] = Slot("psh", inner.slots[j].cat)
        super().__init__(slots, inner.cod, f"ext{j}[{inner.name}]")
        self.inner = inner
        self.j = j

    data = MultiMap.evaluate

    def _value(self, args) -> Colimit:
        j, inner = self.j, self.inner
        p = args[j]
        c = p.base
        pre, post = args[:j], args[j + 1 :]
        inner_vals = {x: inner.evaluate(pre + (x,) + post) for x in c.objects if p.at[x]}
        shape = c.generation
        arrow_mor = {}  # arrow i of shape, if its target fiber is non-empty -> f(generators[i])
        for i, m in enumerate(shape.generators):
            if p.at[c.mor_tgt[m]]:
                arrow_mor[i] = inner.morphism_at(pre + (c.mor_src[m],) + post, j, m)
        # Distinct map objects often meet content-equal inputs, so inside a
        # session the record is memoized on the codomain by its whole input,
        # by content.  The colimit's shape depends only on the slot category
        # and p.act (the identity rows fix each fiber's size), and p.act
        # fixes the order in which inner_vals and arrow_mor are filled.
        # pointwise_colimit reads only the sizes and actions of the node
        # presheaves and the components of the arrow maps, and labels its
        # classes q0, q1, ...; so labels stay out of the key, and so do f's
        # values at derived arrows, which functoriality fixes from the
        # generators'.  p.base stays in: equal act tuples on two categories
        # can still give the colimit different shapes.
        memo = content_memo(self.cod, "colimits")
        if memo is not None:
            key = (
                c,
                p.act,
                tuple(v.act for v in inner_vals.values()),
                tuple(phi.components for phi in arrow_mor.values()),
            )
            record = memo.get(key)
            if record is not None:
                return record
        # the coend layout over p's base's generating graph: object x stands
        # for |p(x)| copies of f(x), copy e for p's element e, and generator m
        # for |p(tgt m)| copies of f(m), copy e2 at its target fed from copy
        # p.act[m][e2] at its source
        record = pointwise_colimit(
            shape,
            [inner_vals.get(x) for x in c.objects],
            arrow_mor,
            self.cod,
            tuple(len(s) for s in p.at),
            [p.act[m] for m in shape.generators],
        )
        if memo is not None:
            memo[key] = record
        return record

    def _mor_at(self, args, k, m):
        j = self.j
        src = self.data(args)
        if k == j:
            # action on a presheaf morphism phi: move each copy along phi
            dst = self.data(args[:j] + (m.dst,) + args[j + 1 :])
            along = m.components

            def block(y, x, off, n, reps):
                r = dst.colims[y]
                classes, o, s, to = r.classes, r.offsets[x], r.sizes[x], along[x]
                return [classes[o + to[e] * s + t] for i in reps for e, t in (divmod(i - off, n),)]

            return _record_map(src, dst, "along", along, block)
        # action in another slot: apply inner's action in every copy
        slot = self.slots[k]
        tgt_k = slot.cat.mor_tgt[m] if slot.kind == "fin" else m.dst
        pre, post, inner = args[:j], args[j + 1 :], self.inner
        return _inside(src, self.data(args[:k] + (tgt_k,) + args[k + 1 :]),
                       lambda x: inner.morphism_at(pre + (x,) + post, k, m).components)


@shared
def strengthen(f: MultiMap, j: int) -> StrengthenMap:
    """Extend f along the unit in slot j; a session keeps one node per (f, j)."""
    return StrengthenMap(f, j)


# -- generating cells ---------------------------------------------------------


@shared
def unit_cell(f: MultiMap, j: int) -> TwoCell:
    """f => strengthen(f, j) o_j unit: include each value at its own element."""
    ext = strengthen(f, j)
    u = unit_map(f.slots[j].cat)
    dst = plug(ext, j, u)

    def fn(args):
        x = args[j]
        p = u.evaluate((x,))
        record = ext.data(args[:j] + (p,) + args[j + 1 :])
        e = u.element_of_identity(x)
        return PresheafMorphism(f.evaluate(args), record,
                                [colim.row(x, e) for colim in record.colims])

    return TwoCell(f, dst, fn, name=f"u~[{f.name};{j}]")


@shared
def counit_cell(h: MultiMap, j: int) -> TwoCell:
    """strengthen(h o_j unit, j) => h: evaluate along classifying morphisms."""
    if h.slots[j].kind != "psh":
        raise SlotMismatchError(f"{h.name}: slot {j} is not a psh slot")
    u = unit_map(h.slots[j].cat)
    src = strengthen(plug(h, j, u), j)
    classify = {}  # (p, x, e) -> classifying map out of u's y_x

    def fn(args):
        p = args[j]

        def along(x, e):
            chi = classify.get((p, x, e))
            if chi is None:
                chi = classify[(p, x, e)] = classifying_morphism(p, x, e)
            return h.morphism_at(args[:j] + (chi.src,) + args[j + 1 :], j, chi)

        def block(y, x, off, n, reps):
            # h's action along each element's classifying map, once per
            # element, in the order the classes first reach it
            elements = dict.fromkeys((i - off) // n for i in reps)
            to = {e: along(x, e).components[y] for e in elements}
            return [to[e][t] for i in reps for e, t in (divmod(i - off, n),)]

        return _cocone_map(src.data(args), h.evaluate(args), block)

    return TwoCell(src, h, fn, name=f"sg[{h.name};{j}]")


@shared
def theta_cell(cat: FinCategory) -> TwoCell:
    """strengthen(unit, 0) => identity: collapse hom-indexed classes by acting.

    This is the counit at the identity map, written out directly: the counit
    would build a classifying map and look up its action for every class.
    """
    u = unit_map(cat)
    src = strengthen(u, 0)
    dst = IdentityMap(cat)
    homs = cat.homs

    def fn(args):
        (p,) = args
        act = p.act

        def block(y, x, off, n, reps):
            rows = [act[h] for h in homs[y, x]]
            return [rows[t][e] for i in reps for e, t in (divmod(i - off, n),)]

        return _cocone_map(src.data(args), p, block)

    return TwoCell(src, dst, fn, name=f"th[{cat.name}]")


@shared
def strengthen_cell(cell: TwoCell, j: int) -> TwoCell:
    """Functorial action of strengthening at fin slot j on a cell."""
    src = strengthen(cell.src, j)
    dst = strengthen(cell.dst, j)

    def fn(args):
        pre, post = args[:j], args[j + 1 :]
        return _inside(src.data(args), dst.data(args),
                       lambda x: cell.component(pre + (x,) + post).components)

    return TwoCell(src, dst, fn, name=f"ext{j}[{cell.name}]")


def transpose(cell: TwoCell) -> TwoCell:
    """Restrict a cell out of a strengthened map along the unit."""
    if not isinstance(cell.src, StrengthenMap):
        raise SlotMismatchError("transpose needs a strengthened source")
    f, j = cell.src.inner, cell.src.j
    u = unit_map(f.slots[j].cat)
    return vcomp(unit_cell(f, j), whisker_inner(cell, j, u))


def untranspose(cell: TwoCell, pos: int, target: MultiMap, name=None) -> TwoCell:
    """The unique extension of cell along the unit at slot pos.

    cell must land in something that evaluates like target o_pos unit; the
    result is counit(target) after the strengthened cell, named name if
    given, and satisfies transpose(untranspose(cell)) == cell.
    """
    return vcomp(strengthen_cell(cell, pos), counit_cell(target, pos), name=name)


@shared
def mult_cell(f: MultiMap, j: int, g: MultiMap, l: int) -> TwoCell:
    """strengthen(f^ o_j g, j+l) => f^ o_j strengthen(g, l).

    Defined as the untranspose of the whiskered unit of g, never postulated.
    """
    ft = strengthen(f, j)
    beta = whisker_outer(ft, j, unit_cell(g, l))
    target = plug(ft, j, strengthen(g, l))
    return untranspose(beta, j + l, target, name=f"m^[{f.name};{j};{g.name};{l}]")
