"""Presheaf-construction structure built from unit and extension.

Everything here is assembled from four generators: the unit map of a
category, pointwise left extension of a map along the unit in one slot
(`strengthen`), the invertible restriction cell (`unit_cell`), and the
extension counit (`counit_cell`).  No comparison cell is postulated; each
is a composite of those generators, so the law checks downstream are
checks of the construction, not of hand-filled tables.

Conventions that the composites below rely on:

  * `apply_functor` extends over slots in ascending order (`kan.extend`,
    first slot innermost), so the highest slot's extension is outermost in
    the resulting tree.
  * substitution and extension at distinct slots commute table-for-table,
    as do two substitutions at distinct slots; `retree` converts between
    such bracketings and re-checks every component against the declared
    endpoints.
"""

from .fincat import FunctorTable, compose_functor, shared
from .kan import (
    extend,
    extend_cell,
    mult_cell,
    strengthen,
    strengthen_cell,
    unit_cell,
    untranspose,
)
from .multimap import (
    MultiMap,
    TwoCell,
    identity_cell,
    inverse_cell,
    plug,
    plug_many,
    retree,
    unit_map,
    vcomp,
    whisker_inner,
    whisker_outer,
)

__all__ = [
    "apply_functor",
    "functor_on_nat",
    "functor_unit_cell",
    "functor_comp_cell",
    "unit_naturality_square",
    "extend_square",
    "interchange",
    "interchange_perm",
]


def base_map(f: FunctorTable) -> MultiMap:
    """The map sending objects x1..xn to the representable at f(x1..xn)."""
    return plug(unit_map(f.dst), 0, f)


@shared
def apply_functor(f: FunctorTable) -> MultiMap:
    """Lift a functor between index categories to a map on presheaves.

    Extend the representable-valued base map at every slot, ascending.
    The result takes one presheaf per source factor and returns a presheaf
    on the target.
    """
    return extend(base_map(f), range(f.arity))


def functor_on_nat(psi) -> TwoCell:
    """Lift a natural transformation to a cell between lifted functors."""
    cell = extend_cell(whisker_outer(unit_map(psi.dst.dst), 0, psi), range(psi.src.arity))
    return retree(
        cell,
        apply_functor(psi.src),
        apply_functor(psi.dst),
        name=f"lift[{cell.name}]",
    )


def functor_unit_cell(th: TwoCell) -> TwoCell:
    """Invertible comparison between the lift of an identity functor and
    the identity map: th, the collapse of one redundant extension
    (theta_cell of th.dst.cat), declared out of the lifted identity."""
    return retree(th, apply_functor(FunctorTable.identity(th.dst.cat)), th.dst)


def functor_comp_cell(f: FunctorTable, i: int, g: FunctorTable) -> TwoCell:
    """Invertible comparison  lift(f o_i g)  =>  lift(f) o_i lift(g).

    Built by splitting the inner functor's slots out of the joint
    extension chain: one restriction cell turns the plugged functor into
    the inner base map, then one extension-vs-substitution interchange per
    inner slot walks its extension across the outer map.
    """
    n, m = f.arity, g.arity
    total = n + m - 1

    a = extend(base_map(f), range(i))
    # restriction of the outer chain at slot i, under the inner functor:
    # turns  (chain o_i unit) o_i g  into  chain o_i base(g)
    steps = [extend_cell(whisker_inner(unit_cell(a, i), i, g), range(i, total))]

    b = base_map(g)
    for r in range(m):
        steps.append(extend_cell(mult_cell(a, i, b, r), range(i + r + 1, total)))
        b = strengthen(b, r)

    src = apply_functor(compose_functor(f, i, g))
    dst = plug(apply_functor(f), i, apply_functor(g))
    return retree(vcomp(*steps), src, dst, name=f"comp^[{f.name};{i};{g.name}]")


def unit_naturality_square(f: FunctorTable) -> TwoCell:
    """Invertible cell  base(f)  =>  lift(f) o (units).

    Witnesses that the unit is natural up to isomorphism: mapping first and
    then taking the representable agrees with lifting f and feeding it
    representables.  One restriction cell per slot, whiskered by the units
    already in place.
    """
    a = base_map(f)
    steps = []
    cur = a
    for r in range(f.arity):
        c = unit_cell(cur, r)
        for s in range(r):
            c = whisker_inner(c, s, unit_map(f.slots[s]))
        steps.append(c)
        cur = strengthen(cur, r)
    if not steps:
        return identity_cell(a)
    dst = plug_many(apply_functor(f), {s: unit_map(c) for s, c in enumerate(f.slots)})
    return retree(vcomp(*steps), a, dst, name=f"i~[{f.name}]")


@shared
def interchange(g: MultiMap, j: int, k: int) -> TwoCell:
    """The swap  ext_j(ext_k(g))  =>  ext_k(ext_j(g))  for j != k.

    Defined through the adjunction at slot j: transpose the k-extended
    restriction cell of the target.  Its inverse in the other order,
    interchange(g, k, j), composes with it to the identity; that equation
    is a theorem checked downstream, not an assumption used here.
    """
    if j == k:
        raise ValueError("interchange needs two distinct slots")
    beta = strengthen_cell(unit_cell(g, j), k)
    target = strengthen(strengthen(g, j), k)
    return untranspose(beta, j, target, name=f"sw[{g.name};{j},{k}]")


def interchange_perm(g: MultiMap, order_src, order_dst, strategy="left") -> TwoCell:
    """Reorder a chain of extensions from one application order to another.

    Orders list slot indices innermost-first, as `kan.extend` reads them.
    The cell is a composite of adjacent swaps; `strategy` picks which
    factorisation is used ("left" settles the innermost target position
    first, "right" the outermost), giving two genuinely different words in
    the swap generators for the same permutation.
    """
    if sorted(order_src) != sorted(order_dst):
        raise ValueError("orders must contain the same slots")
    n = len(order_src)
    cur = list(order_src)
    steps = []

    def swap_at(p):
        # swap application positions p, p+1 in the current order
        steps.append(extend_cell(interchange(extend(g, cur[:p]), cur[p + 1], cur[p]), cur[p + 2:]))
        cur[p], cur[p + 1] = cur[p + 1], cur[p]

    positions = range(n) if strategy == "left" else range(n - 1, -1, -1)
    for p in positions:
        want = order_dst[p]
        q = cur.index(want)
        if strategy == "left":
            while q > p:
                swap_at(q - 1)
                q -= 1
        else:
            while q < p:
                swap_at(q)
                q += 1
    if not steps:
        return identity_cell(extend(g, order_src))
    return vcomp(*steps)


def extend_square(alpha: TwoCell, h: MultiMap, f: FunctorTable, fprime: FunctorTable, gs) -> TwoCell:
    """Extend a square over the units to a square over the lifted maps.

    Input cell:   alpha : h o_0 f  =>  lift(f') o (g_0, ..., g_{n-1})
    with h a unary map out of f's target, f' a functor with the same arity
    whose r-th source receives the unary map g_r.

    Output cell:  ext(h) o_0 lift(f)  =>  lift(f') o (ext(g_0), ...).

    Three phases, all generator composites: walk every extension of
    lift(f) out of ext(h); restrict h itself away under f; extend alpha at
    every slot; then convert each slot's doubled extension into the
    extension of the matching g, outermost slot first.
    """
    n = f.arity
    steps = []

    # phase 1: pull lift(f)'s extensions outside ext(h), outermost first
    bs = [base_map(f)]
    for r in range(n):
        bs.append(strengthen(bs[-1], r))
    for r in range(n - 1, -1, -1):
        steps.append(extend_cell(inverse_cell(mult_cell(h, 0, bs[r], r)), range(r + 1, n)))

    # phase 2: cancel h against its restriction, under f, at every slot
    steps.append(extend_cell(inverse_cell(whisker_inner(unit_cell(h, 0), 0, f)), range(n)))

    # phase 3: alpha, extended at every slot
    steps.append(extend_cell(alpha, range(n)))

    # phase 4: absorb each slot's outer extension into the plugged g,
    # outermost slot first; earlier conversions are whiskered over
    chains = [base_map(fprime)]
    for r in range(n):
        chains.append(strengthen(chains[-1], r))
    for r in range(n - 1, -1, -1):
        fr = extend(plug_many(chains[r], dict(enumerate(gs[:r]))), range(r))
        step = mult_cell(fr, r, gs[r], 0)
        for i in range(r + 1, n):
            step = strengthen_cell(step, i)
            step = whisker_inner(step, i, strengthen(gs[i], 0))
        steps.append(step)

    src = plug(strengthen(h, 0), 0, apply_functor(f))
    dst = plug_many(apply_functor(fprime), {i: strengthen(g, 0) for i, g in enumerate(gs)})
    return retree(vcomp(*steps), src, dst, name=f"ext2[{alpha.name}]")
