"""The interchange reference: both iterated extensions' classes, routed.

`interchange` builds the swap cell ext_j(ext_k f) => ext_k(ext_j f) by
transposing through the adjunction.  This module reads the bijection that
cell must be off the records the two iterated extensions already hold, with
no cell and no colimit of its own.  Each triple (x, e; w, e2; t), element t
of f at (x, w) at p's element e over x and q's element e2 over w, has a class
in either extension: row() of the inner record, then of the outer one.  Both
are colimits of f over El(p) x El(q), so the bijection sends the one class to
the other for every triple, and as every class has a member, that fixes it.
"""

from .kan import strengthen

__all__ = ["FlatExtension", "flat_double_extension", "gamma_tables"]


class FlatExtension:
    """Every triple's classes in both iterated extensions, at fixed arguments."""

    def __init__(self, coproj):
        # (x, e, w, e2) -> per codomain object: per element t of f at (x, w),
        # its (ext_j ext_k class, ext_k ext_j class)
        self.coproj = coproj


def flat_double_extension(f, j, k, args) -> FlatExtension:
    """Route every triple of f at args through both iterated extensions."""
    p, q = args[j], args[k]
    tk, sj = strengthen(f, k), strengthen(f, j)
    outer_ts = strengthen(tk, j).data(args).colims
    outer_st = strengthen(sj, k).data(args).colims
    inner_st = {w: sj.data(args[:k] + (w,) + args[k + 1:]).colims
                for w in q.base.objects if q.at[w]}
    coproj = {}
    for x in p.base.objects:
        if not p.at[x]:
            continue
        inner_ts = tk.data(args[:j] + (x,) + args[j + 1:]).colims
        for e in range(len(p.at[x])):
            for w, inner in inner_st.items():
                for e2 in range(len(q.at[w])):
                    coproj[x, e, w, e2] = tuple(
                        tuple(zip(map(ts.row(x, e).__getitem__, inner_ts[y].row(w, e2)),
                                  map(st.row(w, e2).__getitem__, inner[y].row(x, e))))
                        for y, (ts, st) in enumerate(zip(outer_ts, outer_st)))
    return FlatExtension(coproj)


def gamma_tables(f, j, k, args):
    """Expected interchange tables at one argument tuple, j < k: per codomain
    object, class of ext_j(ext_k f) -> class of ext_k(ext_j f), folded from
    the routed triples.  A class that no triple reaches, or that two triples
    send to different classes, reads None, which no cell's table matches.
    """
    if not j < k:
        raise ValueError("gamma_tables expects j < k")
    coproj = flat_double_extension(f, j, k, args).coproj
    tables = []
    for y, colim in enumerate(strengthen(strengthen(f, k), j).data(args).colims):
        to = {}
        for rows in coproj.values():
            for a, b in rows[y]:
                if to.setdefault(a, b) != b:
                    to[a] = None
        tables.append(tuple(map(to.get, range(len(colim.reps)))))
    return tables
