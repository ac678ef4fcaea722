"""Maps with several input slots landing in presheaves, and cells between them.

A MultiMap takes one argument per slot and evaluates to a presheaf on its
codomain category.  A slot is either 'fin' (the argument is an object of a
finite category, acted on by its morphisms) or 'psh' (the argument is itself a
presheaf on a finite category, acted on by presheaf morphisms).  Maps form a
substitution algebra with one node: ComposeMap plugs a map into a psh slot
and a functor table into a fin slot.  Inside a fincat.session(), plug,
unit_map and kan.strengthen hand back one node per identity of their
arguments (fincat.shared), so every cell whiskered by the same inner object
shares its endpoints' memos; outside one they build afresh.  No map keeps a
memo of the nodes built from it, so a map holds no reference cycle and dies
by reference count.

A TwoCell is a family of presheaf morphisms between the evaluations of two
parallel maps, one per argument tuple, built lazily and memoized.  Vertical
composition asserts at every seam that the adjacent evaluations agree table
for table; that assertion is what backs the convention of treating the
reassociation isomorphisms of substitution as identities.  Inside a session,
whisker_inner, whisker_outer and inverse_cell return one shared cell per
identity of their arguments (fincat.shared), as the kan generators and
monad.interchange do; so no cell is changed once built, and vcomp takes the
composite's name as an argument.

two_cell_equal decides equality of parallel cells.  The 'transpose' policy
feeds every psh slot the representables and compares at every object tuple.
A cell out of a left extension along the unit is fixed by its restriction
along the unit, and in a psh slot that restriction is evaluation at the
representables.  Psh slots are made only by StrengthenMap.__init__ (an
extension along the unit) and IdentityMap.__init__ (the identity, which is
the extension of the unit), and ComposeMap only copies slots; so every map
is, in each psh slot, a composite of pointwise extensions along the unit,
hence cocontinuous there, and the check is complete.  tests/test_source.py
holds src/ to that.  The 'sample' policy compares on the documented family
of probe presheaves instead, as an independent cross-check.
"""

from __future__ import annotations

import itertools

from .errors import NotInvertibleError, SlotMismatchError
from .fincat import FinCategory, FunctorTable, shared
from .presheaf import (
    Presheaf,
    PresheafMorphism,
    representable,
    sample_presheaves,
    validate_presheaf,
    validate_presheaf_morphism,
    yoneda_action,
)


class Slot:
    """A map's slot: its kind and its category.  Slots compare and hash by
    value."""

    __slots__ = ("kind", "cat")

    def __init__(self, kind: str, cat: FinCategory):
        self.kind = kind  # 'fin' or 'psh'
        self.cat = cat

    def __eq__(self, other):
        if type(other) is not Slot:
            return NotImplemented
        return self.kind == other.kind and self.cat == other.cat

    def __hash__(self):
        return hash((self.kind, self.cat))


class MultiMap:
    """Base class: memoized evaluation at objects and one-slot morphisms.

    Subclasses implement _value(args) and _mor_at(args, j, m).  Memos are
    keyed by the arguments themselves, presheaves and their morphisms hashing
    by identity; returning the same instance per key keeps those keys warm
    all the way up a tree of maps.
    """

    def __init__(self, slots, cod: FinCategory, name: str):
        self.slots = tuple(slots)
        self.arity = len(self.slots)
        self.cod = cod
        self.name = name
        self._val_memo = {}
        self._mor_memo = {}

    def signature(self):
        """The slots' (kind, category) pairs and the codomain.  Categories
        compare by identity before content, so endpoints that share their
        categories build no content key."""
        return self.slots, self.cod

    def check_arity(self, args):
        if len(args) != self.arity:
            raise SlotMismatchError(
                f"{self.name}: got {len(args)} arguments for arity {self.arity}"
            )

    def evaluate(self, args) -> Presheaf:
        if type(args) is not tuple:
            args = tuple(args)
        hit = self._val_memo.get(args)
        if hit is None:
            if len(args) != self.arity:
                self.check_arity(args)
            hit = self._val_memo[args] = self._value(args)
        return hit

    def morphism_at(self, args, j, m) -> PresheafMorphism:
        """Functorial action of one morphism in slot j, objects elsewhere.

        args[j] is normalized to the source of m, so callers may pass either
        endpoint there.
        """
        if type(args) is not tuple:
            args = tuple(args)
        slot = self.slots[j]
        src = slot.cat.mor_src[m] if slot.kind == "fin" else m.src
        if j >= len(args) or args[j] != src:
            args = args[:j] + (src,) + args[j + 1 :]
        key = (args, j, m)
        hit = self._mor_memo.get(key)
        if hit is None:
            if len(args) != self.arity:
                self.check_arity(args)
            hit = self._mor_memo[key] = self._mor_at(args, j, m)
        return hit

    def _value(self, args) -> Presheaf:
        raise NotImplementedError

    def _mor_at(self, args, j, m) -> PresheafMorphism:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"


class TableMap(MultiMap):
    """A map given by explicit tables; every slot is 'fin'.

    Each table keeps one entry per argument tuple.  sets[(b1,...,bn)] is the
    value's tuple of fibers, one tuple of labels per codomain object;
    cod_act[(b1,...,bn)] is its tuple of action rows, one per codomain
    morphism, each acting contravariantly by element index;
    slot_act[(j, args-with-m-at-slot-j)] is the covariant action of slot
    morphism m, one component per codomain object.
    """

    def __init__(self, slot_cats, cod, sets, cod_act, slot_act, name="F"):
        super().__init__([Slot("fin", c) for c in slot_cats], cod, name)
        self.sets = sets
        self.cod_act = cod_act
        self.slot_act = slot_act

    def _value(self, args):
        return Presheaf(self.cod, self.sets[args], self.cod_act[args])

    def _mor_at(self, args, j, m):
        cat = self.slots[j].cat
        dst_args = args[:j] + (cat.tgt(m),) + args[j + 1 :]
        marked = args[:j] + (m,) + args[j + 1 :]
        return PresheafMorphism(self.evaluate(args), self.evaluate(dst_args),
                                self.slot_act[(j,) + marked])


class UnitMap(MultiMap):
    """The unary map sending an object to its representable presheaf."""

    def __init__(self, cat: FinCategory):
        super().__init__([Slot("fin", cat)], cat, f"unit_{cat.name}")
        self.cat = cat

    def _value(self, args):
        return representable(self.cat, args[0])

    def _mor_at(self, args, j, m):
        return yoneda_action(self.cat, m)

    def element_of_identity(self, a) -> int:
        """Index of id_a inside the value at (a,), at object a."""
        return self.cat.hom_position[self.cat.id_of(a)]


class IdentityMap(MultiMap):
    """The unary map on a single psh slot that returns its argument."""

    def __init__(self, cat: FinCategory):
        super().__init__([Slot("psh", cat)], cat, f"1_{cat.name}")
        self.cat = cat

    def _value(self, args):
        return args[0]

    def _mor_at(self, args, j, m):
        return m


@shared
def unit_map(cat: FinCategory) -> UnitMap:
    """The unit on cat; a session keeps one per category, so memo keys stay
    warm across cells."""
    return UnitMap(cat)


class ComposeMap(MultiMap):
    """Plug g into slot j of f: a map into a psh slot, a functor table into a fin slot.

    Evaluation reads g only through arity, evaluate and morphism_at, which a
    FunctorTable offers on objects and morphisms of its source factors.
    """

    def __init__(self, f: MultiMap, j: int, g):
        if isinstance(g, FunctorTable):
            kind, cod, inner = "fin", g.dst, tuple(Slot("fin", s) for s in g.slots)
        else:
            kind, cod, inner = "psh", g.cod, g.slots
        if not (0 <= j < f.arity) or f.slots[j].kind != kind:
            raise SlotMismatchError(f"{f.name}: slot {j} is not a {kind} slot")
        if cod != f.slots[j].cat:
            raise SlotMismatchError(
                f"codomain of {g.name} does not match slot {j} of {f.name}"
            )
        slots = f.slots[:j] + inner + f.slots[j + 1 :]
        super().__init__(slots, f.cod, f"({f.name} o{j} {g.name})")
        self.f, self.j, self.g = f, j, g

    def _f_args(self, args):
        j, n = self.j, self.g.arity
        inner = self.g.evaluate(args[j : j + n])
        return args[:j] + (inner,) + args[j + n :]

    def _value(self, args):
        return self.f.evaluate(self._f_args(args))

    def _mor_at(self, args, k, m):
        j, n = self.j, self.g.arity
        if k < j:
            return self.f.morphism_at(self._f_args(args), k, m)
        if k < j + n:
            psi = self.g.morphism_at(args[j : j + n], k - j, m)
            return self.f.morphism_at(self._f_args(args), j, psi)
        return self.f.morphism_at(self._f_args(args), k - n + 1, m)


@shared
def plug(f: MultiMap, j: int, g) -> ComposeMap:
    """Substitute g into slot j of f; a session keeps one node per (f, j, g).

    ComposeMap checks the slot before the session stores the node, so a bad
    plug raises every time.
    """
    return ComposeMap(f, j, g)


def validate_multimap(m: MultiMap) -> tuple[str, str] | None:
    """Exhaustive law check for a map whose slots are all 'fin'.

    Checks every evaluation is a presheaf, every slot action is natural,
    slot actions are functorial, and actions in distinct slots commute.
    Returns None, or the first violation as a (law, witness) pair, out of
    validate_presheaf's and validate_presheaf_morphism's laws, slot-identity,
    slot-composition and slot-commutation.
    """
    if any(s.kind != "fin" for s in m.slots):
        raise SlotMismatchError("validate_multimap requires all-fin slots")

    def moved(args, j, x):
        return args[:j] + (x,) + args[j + 1 :]

    def acts(args, j, f, k, g):
        # slot j's action by f at args, then slot k's action by g
        after = moved(args, j, m.slots[j].cat.tgt(f))
        return m.morphism_at(args, j, f).then(m.morphism_at(after, k, g)).components

    spaces = [list(s.cat.objects) for s in m.slots]
    for args in itertools.product(*spaces):
        bad = validate_presheaf(m.evaluate(args))
        if bad:
            return bad[0], f"args={args}: {bad[1]}"
    for j, s in enumerate(m.slots):
        others = spaces[:j] + [[None]] + spaces[j + 1 :]
        for pre in itertools.product(*others):
            for mor in s.cat.morphisms:
                args = moved(pre, j, s.cat.src(mor))
                bad = validate_presheaf_morphism(m.morphism_at(args, j, mor))
                if bad:
                    return bad[0], f"slot {j} mor {mor} args={args}"
            for a in s.cat.objects:
                args = moved(pre, j, a)
                ida = m.morphism_at(args, j, s.cat.id_of(a))
                if ida.components != PresheafMorphism.identity(m.evaluate(args)).components:
                    return "slot-identity", f"slot {j} args={args}"
            for f1 in s.cat.morphisms:
                for f2 in s.cat.morphisms:
                    if s.cat.tgt(f1) != s.cat.src(f2):
                        continue
                    args = moved(pre, j, s.cat.src(f1))
                    both = m.morphism_at(args, j, s.cat.compose(f2, f1))
                    if acts(args, j, f1, j, f2) != both.components:
                        return "slot-composition", f"slot {j} {f2} o {f1} args={args}"
    for j in range(m.arity):
        for k in range(j + 1, m.arity):
            cj, ck = m.slots[j].cat, m.slots[k].cat
            others = [[None] if i in (j, k) else sp for i, sp in enumerate(spaces)]
            for pre in itertools.product(*others):
                for mj in cj.morphisms:
                    for mk in ck.morphisms:
                        base = moved(moved(pre, j, cj.src(mj)), k, ck.src(mk))
                        if acts(base, j, mj, k, mk) != acts(base, k, mk, j, mj):
                            return "slot-commutation", f"slots {j},{k} mors {mj},{mk} args={base}"
    return None


# -- two-cells ----------------------------------------------------------------


class TwoCell:
    """A family of presheaf morphisms src.evaluate(args) -> dst.evaluate(args)."""

    def __init__(self, src: MultiMap, dst: MultiMap, fn, name="cell"):
        if src.signature() != dst.signature():
            raise SlotMismatchError(f"cell {name}: endpoint signatures differ")
        self.src = src
        self.dst = dst
        self._fn = fn
        self.name = name
        self._memo = {}

    def component(self, args) -> PresheafMorphism:
        if type(args) is not tuple:
            args = tuple(args)
        hit = self._memo.get(args)
        if hit is None:
            if len(args) != self.src.arity:
                self.src.check_arity(args)
            hit = self._memo[args] = self._fn(args)
        return hit

    def __repr__(self):
        return f"TwoCell({self.name!r}: {self.src.name} => {self.dst.name})"


def identity_cell(f: MultiMap) -> TwoCell:
    return TwoCell(
        f, f, lambda args: PresheafMorphism.identity(f.evaluate(args)), name=f"1[{f.name}]"
    )


def vcomp(*cells, name=None) -> TwoCell:
    """Vertical composite, left to right; asserts seams agree bit for bit.

    name, if given, names the composite instead of the dotted list of its
    factors' names; a single cell comes back as it is only when unnamed.
    """
    if not cells:
        raise SlotMismatchError("vcomp of no cells")
    if len(cells) == 1 and name is None:
        return cells[0]

    def fn(args):
        cur = cells[0].component(args)
        for c in cells[1:]:
            nxt = c.component(args)
            if cur.dst.content_key() != nxt.src.content_key():
                raise SlotMismatchError(
                    f"seam mismatch composing {c.name} after previous cell"
                )
            cur = cur.then(nxt)
        return cur

    return TwoCell(cells[0].src, cells[-1].dst, fn,
                   name=name or ".".join(c.name for c in cells))


@shared
def inverse_cell(cell: TwoCell) -> TwoCell:
    def fn(args):
        phi = cell.component(args)
        if not phi.is_bijection():
            raise NotInvertibleError(f"{cell.name} is not invertible at {args}")
        return phi.inverse()

    return TwoCell(cell.dst, cell.src, fn, name=f"inv[{cell.name}]")


@shared
def whisker_inner(cell: TwoCell, j: int, g) -> TwoCell:
    """Plug a map (or functor table) into slot j of both endpoints of a cell."""
    src = plug(cell.src, j, g)
    dst = plug(cell.dst, j, g)
    n = g.arity

    def fn(args):
        inner = g.evaluate(args[j : j + n])
        return cell.component(args[:j] + (inner,) + args[j + n :])

    return TwoCell(src, dst, fn, name=f"({cell.name} o{j} {g.name})")


@shared
def whisker_outer(f: MultiMap, j: int, cell) -> TwoCell:
    """Apply f's action in slot j to a cell between the maps plugged there:
    a TwoCell in a psh slot, a NatTransTable in a fin slot."""
    src = plug(f, j, cell.src)
    dst = plug(f, j, cell.dst)
    n = cell.src.arity

    def fn(args):
        psi = cell.component(args[j : j + n])
        inner = cell.src.evaluate(args[j : j + n])
        return f.morphism_at(args[:j] + (inner,) + args[j + n :], j, psi)

    return TwoCell(src, dst, fn, name=f"({f.name} o{j} {cell.name})")


def retree(cell: TwoCell, src: MultiMap, dst: MultiMap, name=None) -> TwoCell:
    """Re-declare a cell's endpoint trees.

    Substitution and extension commute at distinct slots table-for-table, so
    differently bracketed trees evaluate identically; this swaps in the
    bracketing a caller wants to compose against.  Every component is checked
    against the declared endpoints, so an unequal retree cannot slip through.
    """

    def fn(args):
        phi = cell.component(args)
        s, d = src.evaluate(args), dst.evaluate(args)
        if (
            phi.src.content_key() != s.content_key()
            or phi.dst.content_key() != d.content_key()
        ):
            raise SlotMismatchError(f"retree of {cell.name}: evaluation disagrees")
        return PresheafMorphism(s, d, phi.components)

    return TwoCell(src, dst, fn, name=name or cell.name)


def whisker_outer_many(f: MultiMap, cells: dict) -> TwoCell:
    """Plug a cell into each of several psh slots of f, one slot at a time.

    Only unary inner maps are supported, which keeps slot indices stable.
    """
    slots = sorted(cells)
    for s in slots:
        if cells[s].src.arity != 1:
            raise SlotMismatchError("whisker_outer_many needs unary inner cells")
    steps = []
    for s in slots:
        step = whisker_outer(f, s, cells[s])
        for s2 in slots:
            if s2 == s:
                continue
            inner = cells[s2].dst if s2 < s else cells[s2].src
            step = whisker_inner(step, s2, inner)
        steps.append(step)
    return vcomp(*steps)


def plug_many(f: MultiMap, inners: dict) -> MultiMap:
    """Substitute a unary map into each listed psh slot, ascending."""
    out = f
    for s in sorted(inners):
        out = plug(out, s, inners[s])
    return out


# -- deciding equality of parallel cells --------------------------------------


class CellComparison:
    """One comparison's verdict: whether the cells are equal, the policy,
    how many argument tuples were compared, and on failure a witness,
    (args, object, element, lhs, rhs)."""

    __slots__ = ("equal", "policy", "checked", "witness")

    def __init__(self, equal: bool, policy: str, checked: int, witness: tuple | None):
        self.equal = equal
        self.policy = policy
        self.checked = checked
        self.witness = witness

    def with_witness(self, witness) -> CellComparison:
        """The same verdict with its witness replaced."""
        return CellComparison(self.equal, self.policy, self.checked, witness)


def _compare_exhaustive(a: TwoCell, b: TwoCell, spaces, policy, feed) -> CellComparison:
    """Compare at feed(t) for every tuple t of spaces; witnesses name t."""
    checked = 0
    for args in itertools.product(*spaces):
        fed = feed(args)
        pa = a.component(fed)
        pb = b.component(fed)
        checked += 1
        if pa.components != pb.components:
            for y, (ra, rb) in enumerate(zip(pa.components, pb.components)):
                for e, (va, vb) in enumerate(zip(ra, rb)):
                    if va != vb:
                        return CellComparison(False, policy, checked, (args, y, e, va, vb))
            # differing shapes with no pointwise witness: report the tuple
            return CellComparison(False, policy, checked, (args, None, None, None, None))
    return CellComparison(True, policy, checked, None)


def two_cell_equal(a: TwoCell, b: TwoCell, policy: str = "transpose") -> CellComparison:
    """Decide whether two parallel cells are equal.

    'transpose': compare at every object tuple, each psh slot fed the
    representable at its object, which is the cells' restriction along the
    unit.  Every psh slot of every map is an extension slot (made only by
    StrengthenMap and IdentityMap, and copied by ComposeMap), where the
    source is cocontinuous, so this restriction decides equality.

    'sample': compare at every object tuple for fin slots and at the
    documented probe family for psh slots.
    """
    # TwoCell holds each cell's src and dst to one signature, so the sources decide
    if a.src.signature() != b.src.signature():
        raise SlotMismatchError("two_cell_equal on non-parallel cells")
    slots = a.src.slots
    if policy == "transpose":
        spaces = [list(s.cat.objects) for s in slots]

        def feed(objs):
            return tuple(representable(s.cat, x) if s.kind == "psh" else x
                         for s, x in zip(slots, objs))

        return _compare_exhaustive(a, b, spaces, "transpose", feed)
    if policy == "sample":
        spaces = [
            list(s.cat.objects) if s.kind == "fin" else sample_presheaves(s.cat)
            for s in slots
        ]
        return _compare_exhaustive(a, b, spaces, "sample", tuple)
    raise ValueError(f"unknown policy {policy!r}")
