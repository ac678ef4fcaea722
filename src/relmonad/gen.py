"""Seeded generation of finite instances: categories, presheaves, maps.

Everything is driven by a single integer seed.  Per-instance seeds are
derived by hashing `seed:law:index`, so adding a law or changing an
instance count never shifts the streams of the others, and a report can
name the exact seed that rebuilds any instance.
"""

import hashlib
import itertools
import random

from .errors import BudgetExceededError
from .fincat import (
    FinCategory,
    FunctorTable,
    NatTransTable,
    validate_functor,
    validate_nat_trans,
)
from .multimap import TableMap
from .presheaf import (
    Graph,
    Presheaf,
    classifying_morphism,
    coproduct_presheaves,
    numbered_labels,
    pointwise_colimit,
    representable,
)

__all__ = [
    "derive_seed",
    "builtin_category",
    "free_dag_category",
    "gen_category",
    "gen_presheaf",
    "presheaf_quotient",
    "gen_multimap",
    "gen_functor",
    "enumerate_functor_nats",
    "gen_nat_trans",
]


def derive_seed(seed: int, law: str, index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{law}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# -- categories ----------------------------------------------------------------

def _walking_arrow():
    return FinCategory("arrow", 2, [0, 1, 0], [0, 1, 1], [0, 1],
                       {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2})


def _two_group():
    return FinCategory("z2", 1, [0, 0], [0, 0], [0],
                       {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0})


def _left_zero():
    # one object, two non-identity arrows absorbing on the left
    comp = {}
    for g in range(3):
        for f in range(3):
            comp[(g, f)] = f if g == 0 else g
    return FinCategory("lz3", 1, [0, 0, 0], [0, 0, 0], [0], comp)


def _square_poset():
    src = [0, 1, 2, 3, 0, 0, 1, 2, 0]
    tgt = [0, 1, 2, 3, 1, 2, 3, 3, 3]
    comp = {}
    for m in range(9):
        comp[(m, src[m])] = m
        comp[(tgt[m], m)] = m
    comp[(6, 4)] = 8
    comp[(7, 5)] = 8
    return FinCategory("square", 4, src, tgt, [0, 1, 2, 3], comp)


_BUILTINS = {
    "arrow": _walking_arrow,
    "z2": _two_group,
    "leftzero3": _left_zero,
    "square": _square_poset,
}


def builtin_category(name: str) -> FinCategory:
    return _BUILTINS[name]()


def free_dag_category(rng: random.Random, max_objects: int, max_edges: int) -> FinCategory:
    """The free category on a random acyclic graph.

    Edges run from lower to higher vertex index, so paths never cycle and
    the morphism list is identities first, then paths ordered by length
    and edge tuple.  The breadth-first search yields the paths in that
    order as they are, with no sort: each level extends the level before
    it, already in order, by the edges leaving its end in ascending
    order.  Composition is path concatenation, tabled only on the
    composable pairs: for each g, the f ending where g starts, in
    ascending order.
    """
    n = rng.randint(1, max_objects)
    pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
    rng.shuffle(pool)
    edges = sorted(pool[: rng.randint(0, min(max_edges, len(pool)))])

    out = [[] for _ in range(n)]  # per vertex: the edges leaving it, ascending
    for ei, (a, _) in enumerate(edges):
        out[a].append(ei)
    paths = []
    frontier = [(ei,) for ei in range(len(edges))]
    while frontier:
        paths.extend(frontier)
        frontier = [p + (ei,) for p in frontier for ei in out[edges[p[-1]][1]]]

    mor_src = list(range(n)) + [edges[p[0]][0] for p in paths]
    mor_tgt = list(range(n)) + [edges[p[-1]][1] for p in paths]
    index_of = {p: n + i for i, p in enumerate(paths)}
    ending_at = [[] for _ in range(n)]  # per vertex: the morphisms into it, ascending
    for f, b in enumerate(mor_tgt):
        ending_at[b].append(f)

    comp = {}
    for g, a in enumerate(mor_src):
        for f in ending_at[a]:
            if g < n:
                comp[g, f] = f
            elif f < n:
                comp[g, f] = g
            else:
                comp[g, f] = index_of[paths[f - n] + paths[g - n]]
    return FinCategory("dag", n, mor_src, mor_tgt, list(range(n)), comp)


def gen_category(rng: random.Random, max_objects: int, max_edges: int) -> FinCategory:
    kind = rng.choice(["dag", "dag", "dag", "arrow", "square", "z2", "leftzero3"])
    if kind == "dag":
        return free_dag_category(rng, max_objects, max_edges)
    return builtin_category(kind)


# -- presheaves ----------------------------------------------------------------

def presheaf_quotient(p: Presheaf, pairs) -> Presheaf:
    """Quotient by the congruence generated by (object, elem, elem) pairs.

    This is the pointwise coequalizer of each pair's two classifying maps
    y_x => p, with p as shape node 0, so every class keeps its least-index
    member of p as representative.  A fiber of n classes is labelled
    c0 .. c{n-1}, one tuple shared by every such fiber.
    """
    ps, maps = [p], {}
    for k, (x, a, b) in enumerate(pairs):
        ps.append(representable(p.base, x))  # shape node k + 1
        maps[2 * k] = classifying_morphism(p, x, a)
        maps[2 * k + 1] = classifying_morphism(p, x, b)
    shape = Graph(len(ps), [1 + m // 2 for m in maps], [0] * len(maps))
    q = pointwise_colimit(shape, ps, maps, p.base)
    return Presheaf(p.base, [numbered_labels("c", len(s)) for s in q.at], q.act)


def gen_presheaf(rng: random.Random, c: FinCategory, max_values: int = 24) -> Presheaf:
    """A random finite presheaf: a small sum of representables, sometimes
    quotiented by a few random identifications (every finite presheaf is
    such a quotient, so nothing is out of reach in principle).  A sum of
    more than max_values elements falls back to its first summand, and is
    never built."""
    k = rng.randint(1, 2)
    summands = [representable(c, rng.randrange(c.n_objects)) for _ in range(k)]
    if sum(len(s) for y in summands for s in y.at) > max_values:
        return summands[0]
    total, _ = coproduct_presheaves(summands)
    if rng.random() < 0.5:
        pairs = []
        for _ in range(rng.randint(1, 2)):
            sized = [x for x in c.objects if len(total.at[x]) >= 2]
            if not sized:
                break
            x = rng.choice(sized)
            a, b = rng.sample(range(len(total.at[x])), 2)
            pairs.append((x, a, b))
        if pairs:
            return presheaf_quotient(total, pairs)
    return total


# -- multimaps -----------------------------------------------------------------

def gen_multimap(rng: random.Random, slot_cats, cod: FinCategory,
                 max_values: int = 24, n_generators: int = None) -> TableMap:
    """A random map covariant in each slot and contravariant in the target.

    Sum of `generator` summands: a generator is a choice of one object per
    slot and one of the target; its fiber at (b1..bn; y) is the product
    hom(c1,b1) x ... x hom(cn,bn) x hom(y,d), acted on by post- and
    pre-composition.  Degenerate hom sets just make empty summands.  There
    are n_generators of them, or 1-2 drawn when it is None; 0 gives the
    empty map.

    So the value at args = (b1..bn) is a sum of representables of cod: one
    y_d per generator (c1..cn; d) and tuple (h1..hn) in hom(c1,b1) x ... x
    hom(cn,bn), in that lex order, with element h of y_d labelled
    str((generator, h1, ..., hn, h)).  Each label is built as its summand's
    prefix "(generator, h1, .., hn, ", made once per summand, followed by
    h's end "h)", made once per morphism of cod.  The tables are offset
    arithmetic on those summands, with the sum's offsets kept as
    coproduct_presheaves keeps them.  cod acts inside each summand as on
    y_d, by hom positions, so the fibers' offsets and the cod_act rows
    depend only on the summands' d's, and are built once per such list:
    every args with that list shares one tuple of rows as its cod_act
    entry.  A slot morphism m at slot j moves each summand (.., hj, ..) to
    the one labelled (.., m hj, ..), and each element keeps its place in
    it; its slot_act entry holds one component per object of cod, built in
    one pass.  An args with no summand has only empty fibers and rows.
    """
    k = rng.randint(1, 2) if n_generators is None else n_generators
    gens = []
    for _ in range(k):
        cs = tuple(rng.randrange(s.n_objects) for s in slot_cats)
        d = rng.randrange(cod.n_objects)
        gens.append((cs, d))

    homs_to = [[cod.hom(y, d) for d in cod.objects] for y in cod.objects]
    pos = cod.hom_position
    # y_act[d][u]: the action of u on y_d, hom(tgt u, d) -> hom(src u, d)
    y_act = {
        d: [tuple([pos[cod.comp[h, u]] for h in homs_to[b][d]]) for u, b in enumerate(cod.mor_tgt)]
        for d in {d for _, d in gens}
    }
    # ends[d][y]: the label ends of y_d's elements at y, "h)" for h in hom(y, d)
    end = [f"{h})" for h in cod.morphisms]
    ends = {d: [tuple([end[h] for h in homs[d]]) for homs in homs_to] for d in y_act}

    # per args: its summands' label prefixes (generator, h1, .., hn), each
    # mapped to its index, and its layout, shared by every args whose
    # summands have the same d's: the summands' sizes and starts in each
    # fiber, and the cod_act rows, stored as cod_act[args] itself
    place, layouts, by_ds = {}, {}, {}
    sets, cod_act, slot_act = {}, {}, {}
    grids = list(itertools.product(*(s.objects for s in slot_cats)))
    for args in grids:
        keys = [key for gi, (cs, _) in enumerate(gens)
                for key in itertools.product((gi,), *map(FinCategory.hom, slot_cats, cs, args))]
        ds = tuple([gens[key[0]][1] for key in keys])
        layout = by_ds.get(ds)
        if layout is None:
            sizes = [[len(homs_to[y][d]) for d in ds] for y in cod.objects]
            starts = [list(itertools.accumulate(n_y, initial=0)) for n_y in sizes]
            if any(offs[-1] > max_values for offs in starts):
                raise BudgetExceededError("generated fiber too large")
            rows = tuple([tuple([o + t for o, d in zip(starts[a], ds) for t in y_act[d][u]])
                          for u, a in enumerate(cod.mor_src)])
            layout = by_ds[ds] = sizes, starts, rows
        place[args] = {key: i for i, key in enumerate(keys)}
        layouts[args] = layout
        cod_act[args] = layout[2]
        prefixes = [f"({', '.join(map(str, key))}, " for key in keys]
        sets[args] = tuple([tuple([pre + e for pre, d in zip(prefixes, ds) for e in ends[d][y]])
                            for y in cod.objects])

    # per slot, per object: the morphisms leaving it, ascending
    leaving = []
    for cj in slot_cats:
        out = [[] for _ in cj.objects]
        for m, a in enumerate(cj.mor_src):
            out[a].append(m)
        leaving.append(out)
    for args in grids:
        sizes = layouts[args][0]
        here = place[args]
        for j, cj in enumerate(slot_cats):
            comp = cj.comp
            for m in leaving[j][args[j]]:
                tgt_args = args[:j] + (cj.mor_tgt[m],) + args[j + 1:]
                where = place[tgt_args]
                moved = [where[key[:1 + j] + (comp[m, key[1 + j]],) + key[2 + j:]] for key in here]
                slot_act[(j,) + args[:j] + (m,) + args[j + 1:]] = tuple([
                    tuple([t for i, n in zip(moved, n_y) for t in range(offs[i], offs[i] + n)])
                    for n_y, offs in zip(sizes, layouts[tgt_args][1])
                ])

    return TableMap(slot_cats, cod, sets, cod_act, slot_act, name="gen")


# -- functors and transformations ----------------------------------------------

def gen_functor(rng: random.Random, slot_cats, dst: FinCategory) -> FunctorTable:
    """A random functor table out of a product of finite categories.

    Picks object images, then hunts for morphism images hom by hom; when a
    hom is empty the draw is retried, and after 20 draws it falls
    back to the constant functor, which always exists.
    """
    slots = tuple(slot_cats)
    prod_objs = list(itertools.product(*(s.objects for s in slots)))
    prod_mors = list(itertools.product(*(s.morphisms for s in slots)))

    def mor_src(mt):
        return tuple(s.src(m) for s, m in zip(slots, mt))

    def mor_tgt(mt):
        return tuple(s.tgt(m) for s, m in zip(slots, mt))

    for _ in range(20):
        obj_map = {t: rng.randrange(dst.n_objects) for t in prod_objs}
        mor_map = {}
        ok = True
        # draw an image for every morphism tuple, identities and composites
        # included, and keep the draw only if it validates as a functor
        for mt in prod_mors:
            a, b = obj_map[mor_src(mt)], obj_map[mor_tgt(mt)]
            choices = dst.hom(a, b)
            if not choices:
                ok = False
                break
            mor_map[mt] = rng.choice(choices)
        if not ok:
            continue
        cand = FunctorTable(slots, dst, obj_map, mor_map, name="genF")
        if validate_functor(cand) is None:
            return cand
    o = rng.randrange(dst.n_objects)
    return FunctorTable(
        slots,
        dst,
        {t: o for t in prod_objs},
        {mt: dst.id_of(o) for mt in prod_mors},
        name="constF",
    )


def enumerate_functor_nats(f: FunctorTable, g: FunctorTable):
    """All natural transformations between parallel functor tables, out of
    at most 10**5 candidates."""
    prod_objs = list(itertools.product(*(s.objects for s in f.slots)))
    dst = f.dst
    per_obj = []
    space = 1
    for t in prod_objs:
        row = dst.hom(f.evaluate(t), g.evaluate(t))
        if not row:
            return []
        space *= len(row)
        if space > 10 ** 5:
            raise BudgetExceededError("transformation space too large")
        per_obj.append(row)
    found = []
    for combo in itertools.product(*per_obj):
        comp = dict(zip(prod_objs, combo))
        if validate_nat_trans(NatTransTable(f, g, comp)) is None:
            found.append(comp)
    return found


def gen_nat_trans(rng: random.Random, f: FunctorTable, g: FunctorTable):
    all_nats = enumerate_functor_nats(f, g)
    if not all_nats:
        return None
    return NatTransTable(f, g, rng.choice(all_nats))
