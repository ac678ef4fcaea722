"""Seeded generation of finite instances: categories, presheaves, maps.

Everything is driven by a single integer seed.  Per-instance seeds are
derived by hashing `seed:law:index`, so adding a law or changing an
instance count never shifts the streams of the others, and a report can
name the exact seed that rebuilds any instance.
"""

import hashlib
import itertools
import random
from dataclasses import dataclass

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
    pointwise_colimit,
    representable,
)

__all__ = [
    "GenConfig",
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


@dataclass
class GenConfig:
    max_objects: int = 3
    max_edges: int = 3


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
    and edge tuple.  Composition is path concatenation.
    """
    n = rng.randint(1, max_objects)
    pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
    rng.shuffle(pool)
    edges = sorted(pool[: rng.randint(0, min(max_edges, len(pool)))])

    paths = []
    frontier = [(ei,) for ei in range(len(edges))]
    while frontier:
        paths.extend(frontier)
        nxt = []
        for p in frontier:
            end = edges[p[-1]][1]
            for ei, (a, _) in enumerate(edges):
                if a == end:
                    nxt.append(p + (ei,))
        frontier = nxt
    paths.sort(key=lambda p: (len(p), p))

    mor_src = list(range(n)) + [edges[p[0]][0] for p in paths]
    mor_tgt = list(range(n)) + [edges[p[-1]][1] for p in paths]
    index_of = {p: n + i for i, p in enumerate(paths)}

    def path_of(m):
        return () if m < n else paths[m - n]

    comp = {}
    for g in range(len(mor_src)):
        for f in range(len(mor_src)):
            if mor_src[g] != mor_tgt[f]:
                continue
            joined = path_of(f) + path_of(g)
            comp[(g, f)] = mor_src[f] if not joined else index_of[joined]
    return FinCategory("dag", n, mor_src, mor_tgt, list(range(n)), comp)


def gen_category(rng: random.Random, cfg: GenConfig) -> FinCategory:
    kind = rng.choice(["dag", "dag", "dag", "arrow", "square", "z2", "leftzero3"])
    if kind == "dag":
        return free_dag_category(rng, cfg.max_objects, cfg.max_edges)
    return builtin_category(kind)


# -- presheaves ----------------------------------------------------------------

def presheaf_quotient(p: Presheaf, pairs) -> Presheaf:
    """Quotient by the congruence generated by (object, elem, elem) pairs.

    This is the pointwise coequalizer of each pair's two classifying maps
    y_x => p, with p as shape node 0, so every class keeps its least-index
    member of p as representative.
    """
    ps, maps = [p], {}
    for k, (x, a, b) in enumerate(pairs):
        ps.append(representable(p.base, x))  # shape node k + 1
        maps[2 * k] = classifying_morphism(p, x, a)
        maps[2 * k + 1] = classifying_morphism(p, x, b)
    shape = Graph(len(ps), [1 + m // 2 for m in maps], [0] * len(maps))
    q, _ = pointwise_colimit(shape, ps, maps, p.base)
    return Presheaf(p.base, [[f"c{c}" for c in range(len(s))] for s in q.at], q.act)


def gen_presheaf(rng: random.Random, c: FinCategory, max_values: int = 24) -> Presheaf:
    """A random finite presheaf: a small sum of representables, sometimes
    quotiented by a few random identifications (every finite presheaf is
    such a quotient, so nothing is out of reach in principle)."""
    k = rng.randint(1, 2)
    gens = [rng.randrange(c.n_objects) for _ in range(k)]
    total, _ = coproduct_presheaves([representable(c, a) for a in gens])
    if sum(len(s) for s in total.at) > max_values:
        return representable(c, gens[0])
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
    pre-composition.  Degenerate hom sets just make empty summands.
    """
    n = len(slot_cats)
    k = n_generators or rng.randint(1, 2)
    gens = []
    for _ in range(k):
        cs = tuple(rng.randrange(s.n_objects) for s in slot_cats)
        d = rng.randrange(cod.n_objects)
        gens.append((cs, d))

    def fiber(args, y):
        out = []
        for gi, (cs, d) in enumerate(gens):
            rows = [slot_cats[j].hom(cs[j], args[j]) for j in range(n)]
            rows.append(cod.hom(y, d))
            for combo in itertools.product(*rows):
                out.append((gi,) + combo)
        return out

    # fibers[args, y] maps each element to its index; iterating it walks
    # the fiber in order
    sets, fibers, cod_act, slot_act = {}, {}, {}, {}
    grids = list(itertools.product(*(s.objects for s in slot_cats)))
    for args in grids:
        for y in cod.objects:
            elems = fiber(args, y)
            if len(elems) > max_values:
                raise BudgetExceededError("generated fiber too large")
            sets[args + (y,)] = tuple(str(e) for e in elems)
            fibers[args, y] = {e: i for i, e in enumerate(elems)}

    for args in grids:
        for u in cod.morphisms:
            a, b = cod.src(u), cod.tgt(u)
            pos = fibers[args, a]
            cod_act[args + (u,)] = tuple(
                pos[e[:-1] + (cod.compose(e[-1], u),)] for e in fibers[args, b]
            )
        for j in range(n):
            cj = slot_cats[j]
            for m in cj.morphisms:
                if cj.src(m) != args[j]:
                    continue
                tgt_args = args[:j] + (cj.tgt(m),) + args[j + 1:]
                for y in cod.objects:
                    pos = fibers[tgt_args, y]
                    row = []
                    for e in fibers[args, y]:
                        new = list(e)
                        new[1 + j] = cj.compose(m, e[1 + j])
                        row.append(pos[tuple(new)])
                    slot_act[(j,) + args[:j] + (m,) + args[j + 1:] + (y,)] = tuple(row)

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
        if validate_functor(cand).ok:
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
        if validate_nat_trans(NatTransTable(f, g, comp)).ok:
            found.append(comp)
    return found


def gen_nat_trans(rng: random.Random, f: FunctorTable, g: FunctorTable):
    all_nats = enumerate_functor_nats(f, g)
    if not all_nats:
        return None
    return NatTransTable(f, g, rng.choice(all_nats))
