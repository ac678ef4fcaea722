"""Presheaves of finite sets, colimits by union-find, categories of elements.

A presheaf on a FinCategory assigns a finite labelled set to every object and
a contravariant action to every morphism.  Colimits are taken over a graph of
generating arrows and computed by a union-find pass whose canonical class
representative is its least member in the (node, copy, element)
enumeration; every construction that quotients anything funnels through
pointwise_colimit and that single pass, which is what makes
nominally-isomorphic evaluations come out bit-identical.

A diagram node may stand for several copies of one set, and an arrow for a
family of copies of one map, each target copy fed from a chosen source copy.
That is the coend layout an extension uses: one node per object x of p's
base with |p(x)| copies, and one arrow per generating arrow of the base
wired by p's action, describe the colimit over El(p) with far fewer nodes
and arrows.  A result names every element by (node, copy, element), so copy
e of node x is El(p)'s node (x, e), and no caller needs El(p) to read it.
It keeps one flat class table per colimit, indexed by that enumeration:
element (k, e, t) sits at offsets[k] + e * sizes[k] + t, with no tuple per
copy.  A class is named by the flat index of its least member, one int per
class.  Readers take the classes a node block at a time
(ColimitResult.blocks): the slice of those indices that lies over one node,
each decoded to (e, t) by one divmod inside the reader's own loop, or a
whole copy at a time (ColimitResult.row).  Those two are the only readers
of a colimit's classes; pointwise_colimit returns them in its Colimit.
A colimit presheaf's action is read through the nodes only at the base's
generators, block by block; its identity rows are the identity, and each
derived row composes its factors' rows (FinCategory.generation).  Every
colimit with n classes shares one tuple of class labels q0 .. q{n-1}, every
identity row on n elements is one tuple, and representables share their
m{id} labels, so a kept value holds no copy of any of them.  Presheaf and
PresheafMorphism are slotted.  ElementsCategory keeps an arrow for every
non-identity, because the oracle that walks it (the Kan certificate in the
checker) checks the generator shortcut and must not share it.
"""

from __future__ import annotations

import itertools
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache

from .errors import BudgetExceededError, SlotMismatchError
from .fincat import FinCategory, Graph, shared

DEFAULT_BUDGET = 10**5


def element_budget() -> int:
    """Cap on elements entering a single colimit; RELMONAD_BUDGET overrides.

    Raises ValueError unless RELMONAD_BUDGET is unset, empty or a positive
    integer.
    """
    raw = os.environ.get("RELMONAD_BUDGET", "")
    if not raw:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"RELMONAD_BUDGET must be a positive integer, got {raw!r}")
    return budget


class MergeCounter:
    """Instrumentation: counts union-find merges that join distinct classes."""

    def __init__(self):
        self.value = 0


merge_counter = MergeCounter()


class Presheaf:
    """at[x] is the tuple of element labels at object x; act[m] maps
    at(tgt m) -> at(src m) by element index.

    No __eq__ or __hash__: it hashes by identity, so memos key on the instance.
    """

    __slots__ = ("base", "at", "act", "__weakref__")

    def __init__(self, base: FinCategory, at, act):
        self.base = base
        self.at = tuple(map(tuple, at))
        self.act = tuple(map(tuple, act))

    def content_key(self):
        return (self.at, self.act)

    def __repr__(self):
        sizes = tuple(len(s) for s in self.at)
        return f"Presheaf(base={self.base.name!r}, sizes={sizes})"


def validate_presheaf(p: Presheaf) -> tuple[str, str] | None:
    """Shape, typing, identity action, and contravariant functoriality,
    exhaustively: None, or the first violation as a (law, witness) pair, out
    of presheaf-shape, presheaf-typing, broken-identity-action and
    broken-contravariance."""
    c = p.base
    if len(p.at) != c.n_objects or len(p.act) != c.n_morphisms:
        return "presheaf-shape", "table sizes"
    for m in c.morphisms:
        row = p.act[m]
        if len(row) != len(p.at[c.tgt(m)]) or not all(0 <= v < len(p.at[c.src(m)]) for v in row):
            return "presheaf-typing", f"act[{m}]"
    for a in c.objects:
        if p.act[c.id_of(a)] != tuple(range(len(p.at[a]))):
            return "broken-identity-action", f"act[id_{a}]"
    for f in c.morphisms:
        for g in c.morphisms:
            if c.tgt(f) != c.src(g):
                continue
            gf = c.compose(g, f)
            composed = tuple(p.act[f][p.act[g][e]] for e in range(len(p.at[c.tgt(g)])))
            if composed != p.act[gf]:
                return "broken-contravariance", f"g={g} f={f}"
    return None


class PresheafMorphism:
    """Natural transformation between presheaves on the same base; hashes by identity."""

    __slots__ = ("src", "dst", "components", "__weakref__")

    def __init__(self, src: Presheaf, dst: Presheaf, components):
        self.src = src
        self.dst = dst
        self.components = tuple(map(tuple, components))

    def then(self, other: "PresheafMorphism") -> "PresheafMorphism":
        """self followed by other."""
        comps = tuple(
            tuple(other.components[x][v] for v in self.components[x])
            for x in range(len(self.components))
        )
        return PresheafMorphism(self.src, other.dst, comps)

    @staticmethod
    def identity(p: Presheaf) -> "PresheafMorphism":
        return PresheafMorphism(p, p, tuple(tuple(range(len(s))) for s in p.at))

    def is_bijection(self) -> bool:
        return all(
            len(set(row)) == len(row) == len(self.dst.at[x])
            for x, row in enumerate(self.components)
        )

    def inverse(self) -> "PresheafMorphism":
        comps = []
        for x, row in enumerate(self.components):
            inv = [None] * len(self.dst.at[x])
            for e, v in enumerate(row):
                inv[v] = e
            if any(v is None for v in inv):
                raise ValueError(f"component at object {x} is not a bijection")
            comps.append(tuple(inv))
        return PresheafMorphism(self.dst, self.src, comps)

    def content_key(self):
        return self.components

    def __repr__(self):
        return f"PresheafMorphism({self.components!r})"


def validate_presheaf_morphism(phi: PresheafMorphism) -> tuple[str, str] | None:
    """Typing, then naturality at every morphism of the base: None, or the
    first violation as a (law, witness) pair, out of morphism-typing (also
    for ends over different bases and a wrong row count) and
    broken-naturality."""
    p, q = phi.src, phi.dst
    c = p.base
    if q.base != c or len(phi.components) != c.n_objects:
        return "morphism-typing", f"{len(phi.components)} rows from {c.name} to {q.base.name}"
    for x, row in enumerate(phi.components):
        if len(row) != len(p.at[x]) or not all(0 <= v < len(q.at[x]) for v in row):
            return "morphism-typing", f"at object {x}"
    for m in c.morphisms:
        a, b = c.src(m), c.tgt(m)
        left = tuple(phi.components[a][p.act[m][e]] for e in range(len(p.at[b])))
        right = tuple(q.act[m][phi.components[b][e]] for e in range(len(p.at[b])))
        if left != right:
            return "broken-naturality", f"morphism {m}"
    return None


# -- shared labels and rows ---------------------------------------------------


_NUMBERED = {}  # prefix -> [prefix0, prefix1, ...]: each label string made once


@lru_cache(maxsize=1024)
def numbered_labels(prefix: str, n: int) -> tuple:
    """prefix0 .. prefix{n-1}: one tuple shared by every caller that asks for
    n labels with that prefix, over strings made once per prefix."""
    labels = _NUMBERED.setdefault(prefix, [])
    if len(labels) < n:
        labels.extend(map(f"{prefix}{{}}".format, range(len(labels), n)))
    return tuple(labels[:n])


@lru_cache(maxsize=1024)
def _identity_row(n: int) -> tuple:
    """(0, .., n-1): one tuple shared by every identity action on n elements."""
    return tuple(range(n))


# -- representables ----------------------------------------------------------


def representable(c: FinCategory, a: int) -> Presheaf:
    """hom(-, a), with morphism ids as element labels.

    Built once per (category, object) and kept in c.representables.
    """
    y = c.representables.get(a)
    if y is None:
        homs = [c.hom(x, a) for x in c.objects]
        comp, pos = c.comp, c.hom_position
        act = [tuple(pos[comp[h, m]] for h in homs[b]) for m, b in enumerate(c.mor_tgt)]
        labels = numbered_labels("m", c.n_morphisms)
        y = c.representables[a] = Presheaf(c, [[labels[m] for m in h] for h in homs], act)
    return y


def yoneda_action(c: FinCategory, f: int) -> PresheafMorphism:
    """The map hom(-, src f) -> hom(-, tgt f) given by postcomposition."""
    a, b = c.src(f), c.tgt(f)
    comp, pos = c.comp, c.hom_position
    comps = [tuple(pos[comp[f, h]] for h in c.hom(x, a)) for x in c.objects]
    return PresheafMorphism(representable(c, a), representable(c, b), comps)


def classifying_morphism(p: Presheaf, x: int, e: int) -> PresheafMorphism:
    """The unique map hom(-, x) -> p sending id_x to e."""
    c = p.base
    comps = [tuple(p.act[m][e] for m in c.hom(w, x)) for w in c.objects]
    return PresheafMorphism(representable(c, x), p, comps)


# -- colimits ----------------------------------------------------------------


@dataclass
class FinSetDiagram:
    """Diagram of finite sets in which a shape node may stand for copies of one set.

    Node k stands for copies[k] copies of sets[k], and arrow m for a family
    of copies of maps[m] : sets[src m] -> sets[tgt m]: copy e2 at the
    arrow's target is fed from copy lifts[m][e2] at its source.  Leaving
    copies and lifts out gives one copy of everything, a plain diagram over
    shape.  The colimit reads only the lengths of the sets, never their
    labels.

    maps may leave out any shape arrow, identities in particular; the
    colimit is taken over the arrows it names.
    """

    shape: Graph
    sets: tuple  # per shape node: a tuple of labels
    maps: dict  # per named shape arrow: element at its source -> element at its target
    copies: tuple | None = None  # per shape node: how many copies of its set; None: one each
    lifts: tuple | None = None  # per shape arrow: target copy -> source copy


@dataclass
class ColimitResult:
    """A colimit's classes, flat over the (node, copy, element) enumeration.

    Element (k, e, t), element t of copy e of node k, has index
    offsets[k] + e * sizes[k] + t, and classes[index] is its class.  A class
    is named by the index of its least member, reps[class], one int per
    class.  blocks() hands those out a node at a time, for readers that
    decode them in their own loop, and row(k, e) slices out one whole copy;
    no other reader decodes a class.  The labels in set are shared with
    every colimit of as many classes.
    """

    set: tuple  # labels of the classes
    classes: tuple  # per element, in enumeration order: its class index
    offsets: tuple  # per node: the index of its first element
    sizes: tuple  # per node: the size of its set, so of each copy
    reps: tuple  # per class, ascending: the index of its least member

    def row(self, k: int, e: int) -> tuple:
        """Copy e of node k: its element -> class map."""
        n = self.sizes[k]
        i = self.offsets[k] + e * n
        return self.classes[i:i + n]

    def blocks(self) -> list:
        """The classes a node at a time: (k, offsets[k], sizes[k], reps_k)
        for each node k holding a class, in ascending node order, where
        reps_k is the slice of reps inside node k's range of flat indices.
        The slices concatenate to reps, and i in reps_k is element t of
        copy e of node k for e, t = divmod(i - offsets[k], sizes[k]).
        """
        reps, offsets = self.reps, self.offsets
        last, total = len(offsets) - 1, len(reps)
        out, lo = [], 0
        while lo < total:
            # the node holding reps[lo] is the last one starting at or below
            # it (a node with no element shares its offset with the next
            # one), and it ends where the next node starts
            k = bisect_right(offsets, reps[lo]) - 1
            hi = bisect_left(reps, offsets[k + 1], lo) if k < last else total
            out.append((k, offsets[k], self.sizes[k], reps[lo:hi]))
            lo = hi
        return out


def colimit_finset(d: FinSetDiagram, budget: int | None = None) -> ColimitResult:
    """Colimit of a finite-set diagram by union-find.

    Every element is named (k, e, t): element t of copy e of node k, and a
    plain diagram is the case e = 0.  The global enumeration runs node by
    node, copy by copy within a node, and element by element within a copy,
    so (k, e, t) has index offsets[k] + e * sizes[k] + t, and the result's
    classes are indexed by it.  Classes are ordered, and represented, by
    their least member in that enumeration, kept as its index, one int per
    class.  This is the canonicalization every higher construction
    inherits.  The budget bounds the number of elements, counting every
    copy.

    The union pass goes arrow by arrow, then element by element of the
    arrow's row, then copy by copy.  It keeps parent[i] <= i for every
    element: a union attaches the larger root under the smaller, and path
    halving only moves a pointer further down.  So every root is its
    class's least member, whatever order the unions come in, and one
    ascending pass numbers the classes in place: a root opens the next
    class and is its representative, and any other element joins the
    class of parent[i], which it has already passed.  The pass builds no
    container per class or per element.
    """
    sizes = tuple(len(s) for s in d.sets)
    copies = d.copies or (1,) * len(sizes)
    offsets = []
    total = 0
    for n, k in zip(sizes, copies):
        offsets.append(total)
        total += n * k
    cap = element_budget() if budget is None else budget
    if total > cap:
        raise BudgetExceededError(f"colimit over {total} elements exceeds budget {cap}")

    parent = list(range(total))
    mor_src, mor_tgt = d.shape.mor_src, d.shape.mor_tgt
    lifts = d.lifts
    for m, row in d.maps.items():
        a, b = mor_src[m], mor_tgt[m]
        n_a, n_b = sizes[a], sizes[b]
        # per target copy e2, the start of its source copy
        starts = (offsets[a],) if lifts is None else [offsets[a] + e1 * n_a for e1 in lifts[m]]
        span = len(starts) * n_b
        for t, u in enumerate(row):
            u += offsets[b]
            for i, j in zip(starts, range(u, u + span, n_b)):
                i += t
                while parent[i] != i:
                    parent[i] = i = parent[parent[i]]
                while parent[j] != j:
                    parent[j] = j = parent[parent[j]]
                if i != j:
                    if i < j:
                        parent[j] = i
                    else:
                        parent[i] = j

    # parent[i] becomes the class of element i, in one ascending pass
    reps = []
    for i, p in enumerate(parent):
        if p == i:
            parent[i] = len(reps)
            reps.append(i)
        else:
            parent[i] = parent[p]
    merge_counter.value += total - len(reps)  # each merge joined two classes into one
    return ColimitResult(numbered_labels("q", len(reps)), tuple(parent), tuple(offsets), sizes,
                         tuple(reps))


class Colimit(Presheaf):
    """A colimit presheaf with its ColimitResult at each base object, flat
    over the diagram's (node, copy, element) order; it hashes by identity."""

    __slots__ = ("colims", "_nodes")

    def __init__(self, base: FinCategory, at, act, colims: tuple):
        super().__init__(base, at, act)
        self.colims = colims
        self._nodes = None

    @property
    def nodes(self) -> tuple:
        """The nodes holding a class at some base object, in the order the
        blocks first meet them: base object ascending, then node ascending."""
        if self._nodes is None:
            self._nodes = tuple(dict.fromkeys(k for colim in self.colims
                                              for k, _, _, _ in colim.blocks()))
        return self._nodes


def coproduct_presheaves(ps) -> tuple[Presheaf, tuple]:
    """Pointwise disjoint union; returns the sum and its offsets.

    offsets[x][i] is where summand i starts in the sum's fiber at x, the
    total size of the summands before it there, and summand i's labels get
    the prefix "i:".  So each label column is one pass over the prefixed
    labels, each act row one pass over the summands' rows shifted by their
    offsets at the morphism's source, and injection i, which is not built,
    is the range from offsets[x][i] at every object x.
    """
    ps = list(ps)
    base = ps[0].base
    if any(p.base != base for p in ps):
        raise SlotMismatchError("coproduct of presheaves on different bases")
    prefixes = [f"{i}:" for i in range(len(ps))]
    ats = [p.at for p in ps]
    acts = [p.act for p in ps]
    at, offs = [], []
    for x in base.objects:
        off, n = [], 0
        for p_at in ats:
            off.append(n)
            n += len(p_at[x])
        offs.append(tuple(off))
        at.append(tuple([pre + l for pre, p_at in zip(prefixes, ats) for l in p_at[x]]))
    act = tuple(
        tuple([off + v for off, p_act in zip(offs[a], acts) for v in p_act[m]])
        for m, a in enumerate(base.mor_src)
    )
    return Presheaf(base, at, act), tuple(offs)


def pointwise_colimit(shape: Graph, ps, maps, base: FinCategory,
                      copies=None, lifts=None) -> Colimit:
    """Colimit of a diagram of presheaves on base, computed objectwise.

    This is the one route to a quotient.  ps: a presheaf per shape node;
    maps: a PresheafMorphism per shape arrow, keyed by arrow (identities
    may be left out).  copies and lifts, when given, make node k stand for
    copies[k] copies of ps[k] and arrow m for copies of maps[m], as in
    FinSetDiagram; ps[k] may then be None where copies[k] is 0.  base is
    given because ps may be empty.  An arrow whose row is empty at an
    object (its source set is empty there) merges nothing, so it is left
    out of that object's maps.  Returns a Colimit, the colimit presheaf with
    its ColimitResult at each base object.  The budget is read once and
    bounds each object's colimit on its own.  The result's action is read
    through the nodes at base's generators and composed at its derived
    arrows (FinCategory.generation), which needs ps and maps to be
    functorial.
    """
    budget = element_budget()
    nothing = ((),) * base.n_objects
    ats = [nothing if p is None else p.at for p in ps]
    comps = [(m, phi.components) for m, phi in maps.items()]
    results = tuple(
        colimit_finset(FinSetDiagram(
            shape,
            tuple(at[x] for at in ats),
            {m: c[x] for m, c in comps if c[x]},
            copies,
            lifts,
        ), budget)
        for x in base.objects
    )
    # the action: read through the nodes at the generators only, a node
    # block of classes at a time; an identity acts as itself, and a
    # derived m = g after f as f's row after g's
    acts = [None if p is None else p.act for p in ps]
    act = [None] * base.n_morphisms
    for x, i in enumerate(base.identity):
        act[i] = _identity_row(len(results[x].reps))
    generation = base.generation
    blocks = {b: results[b].blocks() for b in set(generation.mor_tgt)}
    for m, a, b in zip(generation.generators, generation.mor_src, generation.mor_tgt):
        r = results[a]
        classes, offsets, sizes = r.classes, r.offsets, r.sizes
        row = []
        for k, off, n, reps in blocks[b]:
            o, s, act_k = offsets[k], sizes[k], acts[k][m]
            row += [classes[o + e * s + act_k[t]] for i in reps for e, t in (divmod(i - off, n),)]
        act[m] = tuple(row)
    for m, g, f in generation.derivations:
        act[m] = tuple(map(act[f].__getitem__, act[g]))
    return Colimit(base, [r.set for r in results], act, results)


# -- category of elements ----------------------------------------------------


class ElementsCategory(Graph):
    """Category of elements of a presheaf, given by its generating arrows.

    Nodes are (object, element) pairs in lex order; there is an arrow
    (x, e) -> (x', e') for every non-identity base morphism m : x -> x'
    with act(m)(e') = e, listed by (m, e') in lex order.  A colimit over
    El(p) needs only these arrows, never their composition.
    """

    def __init__(self, p: Presheaf):
        c = p.base
        self.el_objs = tuple((x, e) for x in c.objects for e in range(len(p.at[x])))
        self.el_index = {t: i for i, t in enumerate(self.el_objs)}
        self.el_arrows = tuple(
            (m, e2)
            for m in c.non_identities
            for e2 in range(len(p.at[c.tgt(m)]))
        )
        super().__init__(
            len(self.el_objs),
            [self.el_index[(c.src(m), p.act[m][e2])] for m, e2 in self.el_arrows],
            [self.el_index[(c.tgt(m), e2)] for m, e2 in self.el_arrows],
        )


@shared
def category_of_elements(p: Presheaf) -> ElementsCategory:
    """El(p); a session keeps one per presheaf."""
    return ElementsCategory(p)


# -- enumeration of natural transformations -----------------------------------


def enumerate_nat_trans(p: Presheaf, q: Presheaf, budget: int = 10**6):
    """All presheaf morphisms p -> q, by exhaustive search.

    Fails loudly (BudgetExceededError) if the candidate space outgrows the
    budget; this function is used as an oracle and must never sample.
    """
    c = p.base
    count = 1
    for x in c.objects:
        sp, sq = len(p.at[x]), len(q.at[x])
        if sp > 0 and sq == 0:
            return []
        count *= sq**sp
        if count > budget:
            raise BudgetExceededError(
                f"enumerate_nat_trans candidate space exceeds budget {budget}"
            )
    per_object = [
        list(itertools.product(range(len(q.at[x])), repeat=len(p.at[x])))
        for x in c.objects
    ]
    found = []
    for comps in itertools.product(*per_object):
        phi = PresheafMorphism(p, q, comps)
        if validate_presheaf_morphism(phi) is None:
            found.append(phi)
    return found


# -- the fixed sampling family -------------------------------------------------


def sample_presheaves(c: FinCategory):
    """The documented SAMPLE family on a base category.

    In order: every representable; the binary coproducts of the first two
    object pairs (lex, with repetition); one union-find quotient, namely the
    pushout of two copies of y_(tgt m) along y_(src m) for the least
    non-identity morphism m (or along y_0 with identities if none exists).
    """
    family = [representable(c, a) for a in c.objects]
    pairs = list(itertools.combinations_with_replacement(range(c.n_objects), 2))[:2]
    for a, b in pairs:
        s, _ = coproduct_presheaves([representable(c, a), representable(c, b)])
        family.append(s)
    m = next((m for m in c.morphisms if not c.is_identity(m)), None)
    if m is None:
        mid = left = right = representable(c, 0)
        l = r = PresheafMorphism.identity(mid)
    else:
        mid = representable(c, c.src(m))
        left = right = representable(c, c.tgt(m))
        l = r = yoneda_action(c, m)
    span = Graph(3, [0, 0], [1, 2])
    family.append(pointwise_colimit(span, [mid, left, right], {0: l, 1: r}, c))
    return family
