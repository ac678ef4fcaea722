"""Finite categories, functors, and natural transformations as integer tables.

Objects and morphisms are dense integer ids.  A category is given by source
and target arrays, an identity id per object, and a total composition table
on exactly the composable pairs.  Everything is immutable after construction
and all derived orderings (hom lists, slot enumeration) are deterministic
functions of the tables, which the rest of the package relies on for
bit-identical reruns.

Categories are the only memo owners: a category's representables,
extension records and the cocone maps between them point back at it, so its
graph is cyclic while they are full.  A session (session() below) frees them
by reference count: when it closes it empties the memos of every category
born while it was open, and of every category whose content memos it handed
out (content_memo) while no open session owned it, whenever that category
was born.  The content memos, the extension records and the maps between
them, are filled and read only while a session is open; outside one,
content_memo hands out no memo and its callers build afresh, as shared
does, so what an evaluation builds lives on the map that asked for it and
dies with that map.  Only representables stay on their category outside a
session.  While open a session also interns every shared constructor (the
structural maps and cells, and categories of elements) by the identity of
its arguments; outside any session those build afresh, so maps and cells
hold no memo that points back at them and die by reference count.  It
also holds the one fault table of the package: a fault named after a shared
constructor replaces that constructor's build at every call site, so a defect
injected there reaches the cells built inside other cells too.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from functools import cached_property, wraps

from .errors import SlotMismatchError


# -- sessions -----------------------------------------------------------------

_sessions = []  # the open sessions, innermost last


class Session:
    """The memo owners of a session, its shared cells, and its faults.

    owners lists, in order, every FinCategory built inside and every one
    whose content memos content_memo handed out inside while no open
    session owned it; each points back at the session (FinCategory.session).
    Closing empties their back-pointing memos (release_memos) and drops
    that pointer, after which their graph is acyclic and dies by reference
    count.  cells maps a shared constructor and the identity of each of its
    arguments to what it built from them, kept with those arguments so that
    no id is reused while its entry lives: it is the package's one
    identity-keyed memo.  Identity, not content: FinCategory hashes by
    content, and content-equal categories can carry different names.  faults maps the name of a shared constructor to
    a fault: fault(build, *args) returns what the session holds in place of
    build(*args), build being the honest, unshared constructor.
    """

    def __init__(self, faults=None):
        self.owners = []
        self.cells = {}
        self.faults = faults or {}

    def own(self, owner):
        owner.session = self
        self.owners.append(owner)

    def close(self):
        for owner in self.owners:
            owner.release_memos()
            owner.session = None
        self.owners.clear()
        self.cells.clear()


@contextmanager
def session(faults=None):
    """Open a session for the block; it closes, and the outer one resumes,
    on exit.

    Library callers that build many maps and cells should wrap that work in
    `with session():`, as checker.run_single does per law instance: content
    memos and shared cells are kept only while a session is open, and it
    frees them by reference count when it closes.  Outside any session
    content memos and shared constructors build afresh, and only a
    category's representables stay on it, until the cyclic collector frees
    it.

    faults (see Session) holds for this session only: a nested session has
    its own table, and once the block exits, by return or by exception,
    every constructor is honest again.
    """
    s = Session(faults)
    _sessions.append(s)
    try:
        yield s
    finally:
        _sessions.pop()
        s.close()


def shared(build):
    """A constructor interned in the innermost open session, keyed by the
    identity of every argument; with no session open it builds afresh.

    On a miss the session's fault named build.__name__, if any, builds in
    place of build, and its result is interned like an honest one.  A
    shared cell comes back with its component memo warm, so cells must not
    be changed after they are built.
    """
    name = build.__name__

    @wraps(build)
    def constructor(*args):
        if not _sessions:
            return build(*args)
        s = _sessions[-1]
        key = (build, *map(id, args))
        hit = s.cells.get(key)
        if hit is None:
            fault = s.faults.get(name)
            hit = s.cells[key] = (build(*args) if fault is None else fault(build, *args), args)
        return hit[0]

    return constructor


def content_memo(owner, name):
    """owner's content memo `name` while a session is open; with no session
    open, None, and the caller builds afresh and keys nothing.

    This is the one reader of the content memos (FinCategory.colimits and
    .cocones).  If no open session owns owner, the innermost one takes it as
    one of its owners, so a session empties every memo it hands out when it
    closes, whenever owner was born.  Outside a session nothing would empty
    the memo, and it would keep every value on its category.
    """
    if owner.session is None:
        if not _sessions:
            return None
        _sessions[-1].own(owner)
    return getattr(owner, name)


class Graph:
    """A finite directed graph: a colimit's shape, given by its generating arrows.

    A colimit only needs arrows that generate the shape category; identities
    and composites merge nothing the generators do not.  A FinCategory is a
    Graph, so a category also serves as its own (redundant) shape.
    """

    def __init__(self, n_objects, mor_src, mor_tgt):
        self.n_objects = n_objects
        self.mor_src = tuple(mor_src)
        self.mor_tgt = tuple(mor_tgt)
        self.n_morphisms = len(self.mor_src)

    def src(self, m):
        return self.mor_src[m]

    def tgt(self, m):
        return self.mor_tgt[m]


class Generation(Graph):
    """A category's generating arrows, as a graph on its objects whose arrow
    i is the non-identity generators[i], and how every other non-identity
    derives from them.

    A non-identity m is derived when m = g after f for non-identities g and
    f whose ids are both below m's.  derivations lists each derived m once,
    as (m, g, f) with the least such (g, f), by ascending m, so both factors
    of each come before it.  Every other non-identity is a generator, and
    generators lists them ascending.  By induction on ids every non-identity
    is a composite of generators.  So a colimit over the category is the
    colimit over this graph, and a presheaf's action is fixed by its rows at
    the generators: the derivations give the other rows in order.  A free
    dag's generators are its edges, since its paths are ordered by length.
    """

    def __init__(self, c: FinCategory):
        ident = set(c.identity)
        factors = {}  # derived m -> its least (g, f)
        for (g, f), m in c.comp.items():
            if (g < m and f < m and g not in ident and f not in ident and m not in ident
                    and (m not in factors or (g, f) < factors[m])):
                factors[m] = (g, f)
        self.generators = tuple(m for m in c.non_identities if m not in factors)
        self.derivations = tuple((m, *factors[m]) for m in sorted(factors))
        super().__init__(c.n_objects, [c.mor_src[m] for m in self.generators],
                         [c.mor_tgt[m] for m in self.generators])


class FinCategory(Graph):
    """A finite category as dense integer tables.

    comp maps (g, f) -> g after f, defined exactly when tgt(f) == src(g).
    """

    def __init__(self, name, n_objects, mor_src, mor_tgt, identity, comp):
        super().__init__(n_objects, mor_src, mor_tgt)
        self.name = name
        self.identity = tuple(identity)
        self.comp = dict(comp)
        self.objects = range(self.n_objects)
        self.morphisms = range(self.n_morphisms)
        self._key = None
        self._hash = None
        self.representables = {}  # object -> Presheaf, filled by presheaf.representable
        # content memos, read only through content_memo, inside a session
        self.colimits = {}  # extension input -> its value, a presheaf.Colimit, filled by kan
        self.cocones = {}  # (record, record, kind, reads) -> map between them, filled by kan
        self.session = None  # the open session that empties these memos, if any
        if _sessions:  # the innermost session empties these memos when it closes
            _sessions[-1].own(self)

    def release_memos(self):
        """Drop the memos that point back at this category (Session.close)."""
        self.representables.clear()
        self.colimits.clear()
        self.cocones.clear()

    # -- accessors ---------------------------------------------------------

    def id_of(self, a):
        return self.identity[a]

    def is_identity(self, m):
        return self.identity[self.mor_src[m]] == m and self.mor_src[m] == self.mor_tgt[m]

    @cached_property
    def non_identities(self):
        """The non-identity morphisms, in order: the arrows of El(p), which
        the oracles that walk El(p) read.  A colimit needs only
        generation.generators."""
        return tuple(m for m in self.morphisms if not self.is_identity(m))

    @cached_property
    def generation(self) -> Generation:
        """The generating arrows as a graph, and how the others derive from
        them: see Generation."""
        return Generation(self)

    @cached_property
    def homs(self):
        """(a, b) -> hom(a, b) in id order, for every nonempty hom; built on
        first use, so a category nobody queries never pays for it."""
        hom = {}
        for m, ab in enumerate(zip(self.mor_src, self.mor_tgt)):
            hom.setdefault(ab, []).append(m)
        return {ab: tuple(ms) for ab, ms in hom.items()}

    def hom(self, a, b):
        return self.homs.get((a, b), ())

    @cached_property
    def hom_position(self):
        """hom_position[m] is the index of m in hom(src m, tgt m), which is
        m's element index in the representable y_(tgt m) at src m."""
        pos = [0] * self.n_morphisms
        for h in self.homs.values():
            for i, m in enumerate(h):
                pos[m] = i
        return tuple(pos)

    def compose(self, g, f):
        """g after f; raises KeyError on non-composable pairs."""
        return self.comp[(g, f)]

    # -- structural identity -------------------------------------------------

    def content_key(self):
        if self._key is None:
            self._key = (
                self.n_objects,
                self.mor_src,
                self.mor_tgt,
                self.identity,
                tuple(sorted(self.comp.items())),
            )
        return self._key

    def __eq__(self, other):
        return other is self or (isinstance(other, FinCategory)
                                 and self.content_key() == other.content_key())

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.content_key())
        return self._hash

    def __repr__(self):
        return f"FinCategory({self.name!r}, obj={self.n_objects}, mor={self.n_morphisms})"


def validate_category(c: FinCategory) -> tuple[str, str] | None:
    """Typing, then an exhaustive check of the category laws: None, or the
    first violation as a (law, witness) pair, out of bad-typing (table
    lengths, a morphism's endpoint outside the objects, a composite keyed by
    an unknown morphism), bad-identity, spurious-composite, bad-typing (a
    composite with the wrong endpoints), missing-composite, broken-identity
    and broken-associativity.
    """
    if len(c.mor_tgt) != c.n_morphisms or len(c.identity) != c.n_objects:
        return "bad-typing", (f"{len(c.mor_tgt)} targets for {c.n_morphisms} morphisms, "
                              f"{len(c.identity)} identities for {c.n_objects} objects")
    for m in c.morphisms:
        if c.mor_src[m] not in c.objects or c.mor_tgt[m] not in c.objects:
            return "bad-typing", f"mor {m} : {c.mor_src[m]} -> {c.mor_tgt[m]} leaves the objects"
    for g, f in c.comp:
        if g not in c.morphisms or f not in c.morphisms:
            return "bad-typing", f"comp({g},{f}) names an unknown morphism"
    for a in c.objects:
        i = c.identity[a]
        if not (0 <= i < c.n_morphisms and c.mor_src[i] == a and c.mor_tgt[i] == a):
            return "bad-identity", f"obj {a} has identity {i}"
    for (g, f), gf in c.comp.items():
        if c.mor_tgt[f] != c.mor_src[g]:
            return "spurious-composite", f"comp({g},{f}) defined but not composable"
        if not (0 <= gf < c.n_morphisms and c.mor_src[gf] == c.mor_src[f]
                and c.mor_tgt[gf] == c.mor_tgt[g]):
            return "bad-typing", f"comp({g},{f})={gf} has wrong endpoints"
    for f in c.morphisms:
        for g in c.morphisms:
            if c.mor_tgt[f] == c.mor_src[g] and (g, f) not in c.comp:
                return "missing-composite", f"comp({g},{f}) undefined"
    for f in c.morphisms:
        if c.comp[(f, c.identity[c.mor_src[f]])] != f:
            return "broken-identity", f"{f} o id != {f}"
        if c.comp[(c.identity[c.mor_tgt[f]], f)] != f:
            return "broken-identity", f"id o {f} != {f}"
    for f in c.morphisms:
        for g in c.morphisms:
            if c.mor_tgt[f] != c.mor_src[g]:
                continue
            gf = c.comp[(g, f)]
            for h in c.morphisms:
                if c.mor_tgt[g] != c.mor_src[h]:
                    continue
                if c.comp[(h, gf)] != c.comp[(c.comp[(h, g)], f)]:
                    return "broken-associativity", f"(h={h}, g={g}, f={f})"
    return None


class FunctorTable:
    """A functor from a finite product of finite categories to a finite category.

    slots is the list of source factors (possibly empty: a point of dst, or a
    single factor: an ordinary functor).  obj_map/mor_map are keyed by tuples
    of per-factor ids and are total.
    """

    def __init__(self, slots, dst, obj_map, mor_map, name="F"):
        self.slots = tuple(slots)
        self.dst = dst
        self.obj_map = dict(obj_map)
        self.mor_map = dict(mor_map)
        self.name = name

    @property
    def arity(self):
        return len(self.slots)

    def evaluate(self, objs):
        return self.obj_map[tuple(objs)]

    def apply_mor(self, mors):
        return self.mor_map[tuple(mors)]

    def morphism_at(self, objs, i, m):
        """The image of m in slot i, with identities at objs elsewhere."""
        ids = (s.id_of(a) for s, a in zip(self.slots, objs))
        return self.mor_map[tuple(m if k == i else x for k, x in enumerate(ids))]

    @staticmethod
    def unary(src, dst, obj_list, mor_list, name="F"):
        return FunctorTable(
            (src,),
            dst,
            {(a,): o for a, o in enumerate(obj_list)},
            {(m,): x for m, x in enumerate(mor_list)},
            name,
        )

    @staticmethod
    @shared
    def identity(c):
        """The identity functor on c; a session keeps one per category."""
        return FunctorTable.unary(c, c, list(c.objects), list(c.morphisms), name=f"1_{c.name}")

    def content_key(self):
        return (
            tuple(s.content_key() for s in self.slots),
            self.dst.content_key(),
            tuple(sorted(self.obj_map.items())),
            tuple(sorted(self.mor_map.items())),
        )

    def __repr__(self):
        return f"FunctorTable({self.name!r}, arity={self.arity}, dst={self.dst.name!r})"


def _table_gap(table, factors, size):
    """The first tuple over factors that table lacks or sends outside
    range(size), else the first key of table that is no such tuple, else None."""
    keys = list(itertools.product(*factors))
    known = set(keys)
    return next(itertools.chain((k for k in keys if table.get(k) not in range(size)),
                                (k for k in table if k not in known)), None)


def validate_functor(F: FunctorTable) -> tuple[str, str] | None:
    """Totality, identities, typing, and functoriality on all composable
    morphism tuples, in that order: None, or the first violation as a (law,
    witness) pair, out of functor-typing (also for a missing, extra or
    out-of-range entry), functor-identity and functor-composition."""
    for table, factors, size in ((F.obj_map, [s.objects for s in F.slots], F.dst.n_objects),
                                 (F.mor_map, [s.morphisms for s in F.slots], F.dst.n_morphisms)):
        gap = _table_gap(table, factors, size)
        if gap is not None:
            return "functor-typing", f"at {gap}"
    for objs in itertools.product(*(s.objects for s in F.slots)):
        ids = tuple(s.id_of(a) for s, a in zip(F.slots, objs))
        if F.mor_map[ids] != F.dst.id_of(F.obj_map[objs]):
            return "functor-identity", f"at {objs}"
    srcs = {ms: tuple(s.src(m) for s, m in zip(F.slots, ms)) for ms in F.mor_map}
    tgts = {ms: tuple(s.tgt(m) for s, m in zip(F.slots, ms)) for ms in F.mor_map}
    for ms, m_img in F.mor_map.items():
        if F.dst.src(m_img) != F.obj_map[srcs[ms]] or F.dst.tgt(m_img) != F.obj_map[tgts[ms]]:
            return "functor-typing", f"at {ms}"
    # the tuples leaving each source tuple, in mor_map order (sorted is
    # stable); each fs meets the gs composable after it in that order, as a
    # scan of every pair would
    leaving = {a: tuple(gs) for a, gs in itertools.groupby(sorted(F.mor_map, key=srcs.get),
                                                           key=srcs.get)}
    for fs in F.mor_map:
        for gs in leaving.get(tgts[fs], ()):
            comp = tuple(s.compose(g, f) for s, g, f in zip(F.slots, gs, fs))
            if F.mor_map[comp] != F.dst.compose(F.mor_map[gs], F.mor_map[fs]):
                return "functor-composition", f"g={gs} f={fs}"
    return None


def compose_functor(f: FunctorTable, i: int, g: FunctorTable) -> FunctorTable:
    """Substitute g into slot i of f (functor tables compose strictly)."""
    if not (0 <= i < f.arity):
        raise SlotMismatchError(f"slot {i} out of range for arity {f.arity}")
    if g.dst != f.slots[i]:
        raise SlotMismatchError("codomain of g does not match slot i of f")
    slots = f.slots[:i] + g.slots + f.slots[i + 1 :]
    obj_map = {}
    for objs in itertools.product(*(s.objects for s in slots)):
        inner = g.evaluate(objs[i : i + g.arity])
        obj_map[objs] = f.evaluate(objs[:i] + (inner,) + objs[i + g.arity :])
    mor_map = {}
    for ms in itertools.product(*(s.morphisms for s in slots)):
        inner = g.apply_mor(ms[i : i + g.arity])
        mor_map[ms] = f.apply_mor(ms[:i] + (inner,) + ms[i + g.arity :])
    return FunctorTable(slots, f.dst, obj_map, mor_map, name=f"{f.name}o_{i}{g.name}")


class NatTransTable:
    """A natural transformation between parallel functor tables."""

    def __init__(self, src: FunctorTable, dst: FunctorTable, components):
        self.src = src
        self.dst = dst
        self.components = dict(components)  # object tuple -> morphism id of dst
        self.name = f"{src.name}=>{dst.name}"

    def component(self, objs):
        return self.components[tuple(objs)]


def validate_nat_trans(t: NatTransTable) -> tuple[str, str] | None:
    """Typing, then naturality at every morphism tuple: None, or the first
    violation as a (law, witness) pair, out of nat-typing (also for functors
    that are not parallel and a missing, extra or out-of-range component)
    and naturality."""
    F, G = t.src, t.dst
    if F.slots != G.slots or F.dst != G.dst:
        return "nat-typing", f"{F.name} and {G.name} are not parallel"
    gap = _table_gap(t.components, [s.objects for s in F.slots], F.dst.n_morphisms)
    if gap is not None:
        return "nat-typing", f"at {gap}"
    for objs, m in t.components.items():
        if F.dst.src(m) != F.evaluate(objs) or F.dst.tgt(m) != G.evaluate(objs):
            return "nat-typing", f"at {objs}"
    for ms in F.mor_map:
        srcs = tuple(s.src(m) for s, m in zip(F.slots, ms))
        tgts = tuple(s.tgt(m) for s, m in zip(F.slots, ms))
        left = F.dst.compose(t.component(tgts), F.apply_mor(ms))
        right = F.dst.compose(G.apply_mor(ms), t.component(srcs))
        if left != right:
            return "naturality", f"at morphism tuple {ms}"
    return None
