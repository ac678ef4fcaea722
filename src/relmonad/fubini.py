"""Flat double extensions: both slots at once, one quotient.

`interchange` produces the swap cell by transposing through the adjunction,
one slot at a time.  This module computes the same correspondence a second
way, with no extension-of-extension anywhere: extend a map in two slots
simultaneously by quotienting the set of triples

    (element of El(p), element of El(q), value element)

under the arrows of both element categories.  Routing the iterated
extensions' classes through this flat quotient yields the canonical
bijection between them, which the checker compares against the swap cell
table for table.
"""

from .presheaf import Graph, category_of_elements, pointwise_colimit
from .kan import strengthen

__all__ = ["FlatExtension", "flat_double_extension", "gamma_tables"]


class FlatExtension:
    """Retained data of a two-slot extension at fixed arguments."""

    def __init__(self, presheaf, coproj, reps):
        self.presheaf = presheaf
        # (node_p, node_q) -> per-object tuple: value element -> class
        self.coproj = coproj
        # per object: class -> (node_p, node_q, value element)
        self.reps = reps


def flat_double_extension(f, j, k, args) -> FlatExtension:
    """f extended in slots j and k at once, as one pointwise colimit.

    The shape is the generating graph of El(p) x El(q), nodes (i1, i2) in lex
    order: an edge for every El(p) arrow at every El(q) node, and one for
    every El(q) arrow at every El(p) node.
    """
    elp, elq = category_of_elements(args[j]), category_of_elements(args[k])
    nq = elq.n_objects

    def at(x, w):
        a = list(args)
        a[j], a[k] = x, w
        return tuple(a)

    vals = [f.evaluate(at(x, w)) for x, _ in elp.el_objs for w, _ in elq.el_objs]
    src, tgt, maps = [], [], {}
    for ai, (m, _) in enumerate(elp.el_arrows):
        s1, t1 = elp.src(ai), elp.tgt(ai)
        for i2, (w, _) in enumerate(elq.el_objs):
            maps[len(src)] = f.morphism_at(at(elp.el_objs[s1][0], w), j, m)
            src.append(s1 * nq + i2)
            tgt.append(t1 * nq + i2)
    for i1, (x, _) in enumerate(elp.el_objs):
        for ai, (m, _) in enumerate(elq.el_arrows):
            s2, t2 = elq.src(ai), elq.tgt(ai)
            maps[len(src)] = f.morphism_at(at(x, elq.el_objs[s2][0]), k, m)
            src.append(i1 * nq + s2)
            tgt.append(i1 * nq + t2)
    presheaf, colims = pointwise_colimit(Graph(len(vals), src, tgt), vals, maps, f.cod)
    coproj = {
        divmod(n, nq): tuple(r.row(n, 0) for r in colims) for n in range(len(vals))
    }
    reps = tuple(tuple(divmod(n, nq) + (t,) for n, _, t in r.members()) for r in colims)
    return FlatExtension(presheaf, coproj, reps)


def gamma_tables(f, j, k, args):
    """Expected interchange tables at one argument tuple, j < k.

    For each codomain object: class of the k-then-j iterated extension ->
    class of the j-then-k one, routed through the flat quotient.  Built
    entirely from retained colimit data; the swap cell never enters.  The
    extension records name elements (x, e, t) and the flat quotient names
    El(p) x El(q) nodes, so the two meet through el_objs and el_index.
    """
    if not j < k:
        raise ValueError("gamma_tables expects j < k")
    tk = strengthen(f, k)
    ts = strengthen(tk, j)
    sj = strengthen(f, j)
    st = strengthen(sj, k)
    flat = flat_double_extension(f, j, k, args)

    d_outer_ts = ts.data(args)
    d_outer_st = st.data(args)
    elp, elq = category_of_elements(args[j]), category_of_elements(args[k])

    tables = []
    for y in f.cod.objects:
        row = []
        for x, e, t1 in d_outer_ts.colims[y].members():
            inner_args = list(args)
            inner_args[j] = x
            d_inner = tk.data(tuple(inner_args))
            w, e2, t = d_inner.colims[y].rep(t1)
            fl = flat.coproj[(elp.el_index[(x, e)], elq.el_index[(w, e2)])][y][t]
            i1s, i2s, ts_elem = flat.reps[y][fl]
            x1, e1 = elp.el_objs[i1s]
            w2, e2 = elq.el_objs[i2s]
            inner_args2 = list(args)
            inner_args2[k] = w2
            d_inner2 = sj.data(tuple(inner_args2))
            c_inner = d_inner2.colims[y].row(x1, e1)[ts_elem]
            row.append(d_outer_st.colims[y].row(w2, e2)[c_inner])
        tables.append(tuple(row))
    return tables
