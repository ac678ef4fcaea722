"""Law registry and seeded verification runs.

Every law is stated as an equation between composites of the generator
cells (restriction, counit, absorption, interchange, lifted squares) and
decided by `two_cell_equal`: restrict both sides along the unit in every
presheaf slot, then compare tables over all object tuples.  Laws about
tables rather than cells (oracle agreement, counting, validity) compare
the tables directly, one tuple per check.

A law is a generator that yields one `CellComparison` per check, and one
fold in `run_single` makes the verdict: the first failing check ends the
instance, `checked` sums the checks made, and an instance that checked
nothing is an error, never a pass.  A law run never weakens an equation
to pass: a failed comparison, a seam mismatch, or an exception all
produce a failing outcome carrying a one-line witness.  Defect injection
is a fault table in each instance's session: a fault replaces a shared
constructor wherever it is called, in `monad` and `kan` as in the laws,
so it flows into the same composites an honest run would build.
"""

import itertools
import random

from .errors import BudgetExceededError, RelmonadError
from .fincat import (
    FunctorTable,
    NatTransTable,
    compose_functor,
    session,
    shared,
    validate_functor,
)
from .fubini import gamma_tables
from .gen import (
    derive_seed,
    free_dag_category,
    gen_category,
    gen_functor,
    gen_multimap,
    gen_nat_trans,
    gen_presheaf,
)
from .kan import (
    counit_cell,
    extend,
    mult_cell,
    strengthen,
    strengthen_cell,
    theta_cell,
    transpose,
    unit_cell,
    untranspose,
)
from .monad import (
    apply_functor,
    base_map,
    extend_square,
    functor_comp_cell,
    functor_on_nat,
    functor_unit_cell,
    interchange,
    interchange_perm,
    unit_naturality_square,
)
from .multimap import (
    CellComparison,
    IdentityMap,
    TwoCell,
    identity_cell,
    inverse_cell,
    plug,
    plug_many,
    retree,
    two_cell_equal,
    unit_map,
    validate_multimap,
    vcomp,
    whisker_inner,
    whisker_outer,
    whisker_outer_many,
)
from .presheaf import (
    PresheafMorphism,
    category_of_elements,
    coproduct_presheaves,
    element_budget,
    enumerate_nat_trans,
    representable,
    sample_presheaves,
    validate_presheaf_morphism,
)

__all__ = [
    "CheckConfig",
    "LawOutcome",
    "LawSummary",
    "CheckReport",
    "LAW_ORDER",
    "LAW_FAMILIES",
    "INJECTORS",
    "LAW_GROUPS",
    "expand_laws",
    "run_suite",
    "run_single",
]


class CheckConfig:
    """One run's settings.  The defaults are class attributes, which the CLI
    reads as its option defaults; equal settings compare equal, so a replay
    file reads back the config it was written from."""

    policies = ("transpose", "sample")

    seed = 0
    instances = 0  # 0 keeps each law's own default
    max_objects = 3
    max_edges = 3
    max_values = 24
    laws = ()  # empty = every law
    policy = "transpose"
    inject = ""

    def __init__(self, seed=seed, instances=instances, max_objects=max_objects,
                 max_edges=max_edges, max_values=max_values, laws=laws, policy=policy,
                 inject=inject):
        """Refuse a policy, injector, law or group the checker does not have,
        and caps the generators cannot draw from; ValueError names the field as
        the CLI option and the replay key spell it."""
        self.seed = seed
        self.instances = instances
        self.max_objects = max_objects
        self.max_edges = max_edges
        self.max_values = max_values
        self.laws = laws
        self.policy = policy
        self.inject = inject
        if policy not in self.policies:
            raise ValueError(f"unknown policy {policy!r}")
        if inject and inject not in INJECTORS:
            raise ValueError(f"unknown injector {inject!r}")
        if isinstance(laws, str):
            raise ValueError(f"laws must be a tuple of names, got {laws!r}")
        try:
            expand_laws(laws)
        except KeyError as e:
            raise ValueError(f"unknown law or group {e.args[0]!r}") from None
        for name, least in (("instances", 0), ("max_objects", 1),
                            ("max_edges", 0), ("max_values", 1)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(
                    f"{name.replace('_', '-')} must be {least} or more, got {value}")

    def __eq__(self, other):
        if type(other) is not CheckConfig:
            return NotImplemented
        return vars(self) == vars(other)


class LawOutcome:
    """One law instance's verdict; equal verdicts compare equal."""

    def __init__(self, law: str, index: int, ok: bool, policy: str, checked: int, seed: int,
                 witness: str = ""):
        self.law = law
        self.index = index
        self.ok = ok
        self.policy = policy
        self.checked = checked
        self.seed = seed
        self.witness = witness

    def __eq__(self, other):
        if type(other) is not LawOutcome:
            return NotImplemented
        return vars(self) == vars(other)


class LawSummary:
    def __init__(self, law: str, instances: int, passed: int, failed: int):
        self.law = law
        self.instances = instances
        self.passed = passed
        self.failed = failed


class CheckReport:
    def __init__(self, config: CheckConfig):
        self.config = config
        self.outcomes = []

    @property
    def ok(self):
        return all(o.ok for o in self.outcomes)

    def summaries(self):
        out = []
        for law in LAW_ORDER:
            rows = [o for o in self.outcomes if o.law == law]
            if rows:
                good = sum(1 for o in rows if o.ok)
                out.append(LawSummary(law, len(rows), good, len(rows) - good))
        return out


# -- defect injection ---------------------------------------------------------
# An injector is a session fault table: fault(build, *args), see fincat.Session.

def _swap_first_wide_row(phi):
    comps = [list(r) for r in phi.components]
    for row in comps:
        if len(row) >= 2:
            row[0], row[1] = row[1], row[0]
            break
    return PresheafMorphism(phi.src, phi.dst, tuple(tuple(r) for r in comps))


def _identity_tables(phi):
    return PresheafMorphism(phi.src, phi.dst, tuple(tuple(range(len(r))) for r in phi.components))


def _damaged(damage):
    """A fault that builds the honest cell, then damages every component."""
    def fault(build, *args):
        cell = build(*args)
        return TwoCell(cell.src, cell.dst, lambda a: damage(cell.component(a)), name=cell.name)

    return fault


def _descending_lift(build, f):
    # apply_functor with its extensions folded highest slot first
    return extend(base_map(f), range(f.arity - 1, -1, -1))


def _swapped_action(build, m):
    # swap two entries in the first wide action row; breaks either the
    # contravariant codomain action or a slot's covariance.  Row i of entry
    # key is taken in the order of its flat key key + (i,) by repr: args +
    # (u,) for a codomain row, (j,) + marked + (y,) for a slot component
    for act in (m.cod_act, m.slot_act):
        flat = sorted((key + (i,) for key, rows in act.items() for i in range(len(rows))),
                      key=repr)
        for key, i in ((k[:-1], k[-1]) for k in flat):
            rows = act[key]
            row = rows[i]
            if len(row) >= 2:
                act[key] = rows[:i] + ((row[1], row[0]) + row[2:],) + rows[i + 1:]
                return m
    return m


INJECTORS = {
    "theta-corrupt": {"theta_cell": _damaged(_swap_first_wide_row)},
    "that-corrupt": {"mult_cell": _damaged(_swap_first_wide_row)},
    "gamma-identity": {"interchange": _damaged(_identity_tables)},
    "t-order-scramble": {"apply_functor": _descending_lift},
    "naturality-broken": {"tamper_square": _damaged(_swap_first_wide_row)},
    "contravariance-broken": {"tamper_multimap": _swapped_action},
}


# the instance tampers: identities, shared so that a fault reaches them
@shared
def tamper_square(cell):
    return cell


@shared
def tamper_multimap(m):
    return m


# -- shared instance builders ---------------------------------------------------

def _kleisli(rng, cfg, src=None, dst=None):
    def draw():
        s = src if src is not None else gen_category(rng, cfg.max_objects, cfg.max_edges)
        d = dst if dst is not None else gen_category(rng, cfg.max_objects, cfg.max_edges)
        return s, d, gen_multimap(rng, (s,), d, cfg.max_values)

    return _retry_gen(draw)


def _poset_category(rng, cfg):
    # the lifted-square laws avoid the one-object monoids: there a swapped
    # fiber can commute with every action and hide a naturality defect
    while True:
        c = gen_category(rng, cfg.max_objects, cfg.max_edges)
        if c.name not in ("z2", "lz3"):
            return c


def _wide_poset_category(rng):
    # a free dag with two parallel paths between some pair of objects: the
    # hom there is genuinely two-dimensional, yet there are no automorphisms
    # that could rebadge a swapped fiber as natural
    while True:
        c = free_dag_category(rng, 3, 3)
        if any(len(c.hom(a, b)) >= 2 for a in c.objects for b in c.objects):
            return c


def _retry_gen(fn):
    # random fibers can blow the size cap; redraw, 20 times at most, instead of
    # failing.  The kept error drops its traceback, which would hold the
    # failed draw's frames and half-built tables on a reference cycle.
    last = None
    for _ in range(20):
        try:
            return fn()
        except BudgetExceededError as exc:
            last = exc.with_traceback(None)
    raise last


def _gen_wide_map(rng, cfg, parity):
    n = 2 if parity % 2 == 0 else 3
    cap = cfg.max_values if n == 2 else min(cfg.max_values, max(8, cfg.max_values // 2))

    def draw():
        cats = tuple(gen_category(rng, cfg.max_objects, cfg.max_edges) for _ in range(n))
        cod = gen_category(rng, cfg.max_objects, cfg.max_edges)
        return gen_multimap(rng, cats, cod, cap, n_generators=1), cats

    return _retry_gen(draw)


def _table(why, policy="table"):
    """One table check, counted as one tuple: it passes when `why` is None
    and fails with witness `why` otherwise."""
    return CellComparison(why is None, policy, 1, why)


def _cell_natural(cell):
    """Exhaustive naturality of a cell whose slots are all fin: one table
    check per component and per naturality square."""
    slots = [s.cat for s in cell.src.slots]
    for args in itertools.product(*(c.objects for c in slots)):
        bad = validate_presheaf_morphism(cell.component(args))
        yield _table(bad and f"component at {args}: {bad[0]}")
    for j, c in enumerate(slots):
        for m in c.morphisms:
            if c.is_identity(m):
                continue
            rest = [list(cc.objects) for cc in slots]
            rest[j] = [c.src(m)]
            for args in itertools.product(*rest):
                args = tuple(args)
                args2 = args[:j] + (c.tgt(m),) + args[j + 1:]
                lhs = cell.src.morphism_at(args, j, m).then(cell.component(args2))
                rhs = cell.component(args).then(cell.dst.morphism_at(args, j, m))
                ok = lhs.components == rhs.components
                yield _table(None if ok else f"naturality broken at slot {j}, {m}, {args}")


def _whiskered_square(h, inner, top, ks):
    """-> (f, gs, alpha): f is `inner` with each functor k_r composed into
    slot r, gs are the graphs of the k_r, and alpha is the unit naturality
    square of `top` whiskered by the k_r, running from h o f to the lift of
    `top` fed the gs."""
    f = inner
    for r in range(len(ks) - 1, -1, -1):
        f = compose_functor(f, r, ks[r])
    gs = [base_map(k) for k in ks]
    alpha = unit_naturality_square(top)
    for r, k in enumerate(ks):
        alpha = whisker_inner(alpha, r, k)
    alpha = retree(
        alpha,
        plug(h, 0, f),
        plug_many(apply_functor(top), dict(enumerate(gs))),
    )
    return f, gs, alpha


def _square_instance(rng, cfg, n):
    """Seeded data for the lifted-square laws.

    Functors k_r : X_r -> W_r feed an n-ary functor into Y, and a unary l
    maps Y on to Z.  The square compares the graph of l after the
    composite against the lift of (l o inner) fed the graphs of the k_r;
    its cell is the unit naturality square whiskered by the k_r.
    """
    xs = tuple(_poset_category(rng, cfg) for _ in range(n))
    ws = tuple(_poset_category(rng, cfg) for _ in range(n))
    yy = _poset_category(rng, cfg)
    zz = _poset_category(rng, cfg)
    ks = [gen_functor(rng, (xs[r],), ws[r]) for r in range(n)]
    inner = gen_functor(rng, ws, yy)
    l = gen_functor(rng, (yy,), zz)
    fprime = compose_functor(l, 0, inner)  # product of ws -> zz
    h = base_map(l)
    f, gs, alpha = _whiskered_square(h, inner, fprime, ks)
    return h, f, fprime, gs, tamper_square(alpha), xs


def _unit_square(rng, cfg, target):
    """Canonical square over the unit: feed functors k_r into `target` and
    compare against the lift of `target` fed their graphs."""
    xs = tuple(_poset_category(rng, cfg) for _ in range(target.arity))
    ks = [gen_functor(rng, (x,), w) for x, w in zip(xs, target.slots)]
    h = unit_map(target.dst)
    f, gs, alpha = _whiskered_square(h, target, target, ks)
    return h, f, gs, alpha, xs


def _nat_pair(rng, x, y):
    """-> (fa, fb, psi1, psi2): functors fa, fb : x -> y with psi1 : fa => fb
    and psi2 : fb => fb; fb is fa when no psi1 exists."""
    fa = gen_functor(rng, (x,), y)
    fb = gen_functor(rng, (x,), y)
    psi1 = gen_nat_trans(rng, fa, fb)
    if psi1 is None:
        fb = fa
        psi1 = gen_nat_trans(rng, fa, fa)
    return fa, fb, psi1, gen_nat_trans(rng, fb, fb)


# -- law registry and implementations -------------------------------------------

LAW_FAMILIES = {}  # law -> (function, default instances, group, description), in definition order
LAW_GROUPS = {}  # coarse selection names accepted wherever a law name is


def _law(name, group, instances, description):
    """Register the decorated function as law `name` in `group`, with the
    one-line description `explain` prints (an argument, not a docstring,
    so that it survives `python -OO`)."""
    def register(fn):
        LAW_FAMILIES[name] = (fn, instances, group, description)
        LAW_GROUPS[group] = LAW_GROUPS.get(group, ()) + (name,)
        return fn

    return register


@_law("extension-associative", "extension", 22,
      "Two ways of absorbing a doubly composed map into an extension agree.")
def _law_extension_associative(rng, cfg):
    x, y, f = _kleisli(rng, cfg)
    _, z, g = _kleisli(rng, cfg, src=y)
    _, w, h = _kleisli(rng, cfg, src=z)
    k = plug(strengthen(h, 0), 0, g)
    route_a = vcomp(
        mult_cell(k, 0, f, 0),
        whisker_inner(mult_cell(h, 0, g, 0), 0, strengthen(f, 0)),
    )
    route_b = vcomp(
        strengthen_cell(whisker_inner(mult_cell(h, 0, g, 0), 0, f), 0),
        mult_cell(h, 0, plug(strengthen(g, 0), 0, f), 0),
        whisker_outer(strengthen(h, 0), 0, mult_cell(g, 0, f, 0)),
    )
    yield two_cell_equal(route_a, route_b, cfg.policy)


@_law("extension-unit", "extension", 22,
      "Extending, absorbing the unit, then collapsing the extended unit is the identity.")
def _law_extension_unit(rng, cfg):
    x, y, f = _kleisli(rng, cfg)
    ext = strengthen(f, 0)
    chain = vcomp(
        strengthen_cell(unit_cell(f, 0), 0),
        mult_cell(f, 0, unit_map(x), 0),
        whisker_outer(ext, 0, theta_cell(x)),
    )
    yield two_cell_equal(chain, identity_cell(ext), cfg.policy)


@_law("collapse-after-extension", "extension", 22,
      "Collapsing the extended unit after absorption equals extending the collapse.")
def _law_collapse_after_extension(rng, cfg):
    x, y, f = _kleisli(rng, cfg)
    th = theta_cell(y)
    lhs = vcomp(
        mult_cell(unit_map(y), 0, f, 0),
        whisker_inner(th, 0, strengthen(f, 0)),
    )
    rhs = strengthen_cell(whisker_inner(th, 0, f), 0)
    yield two_cell_equal(lhs, rhs, cfg.policy)


@_law("collapse-on-unit", "extension", 22,
      "Restricting the collapse cell to the unit undoes the unit's own restriction cell.")
def _law_collapse_on_unit(rng, cfg):
    x = gen_category(rng, cfg.max_objects, cfg.max_edges)
    u = unit_map(x)
    chain = vcomp(unit_cell(u, 0), whisker_inner(theta_cell(x), 0, u))
    yield two_cell_equal(chain, identity_cell(u), cfg.policy)


@_law("extension-absorbs-unit", "extension", 22,
      "Absorption restricted along the unit reduces to the restriction cells alone.")
def _law_extension_absorbs_unit(rng, cfg):
    x, y, f = _kleisli(rng, cfg)
    _, z, g = _kleisli(rng, cfg, src=y)
    k = plug(strengthen(g, 0), 0, f)
    chain = vcomp(
        unit_cell(k, 0),
        whisker_inner(mult_cell(g, 0, f, 0), 0, unit_map(x)),
        whisker_outer(strengthen(g, 0), 0, inverse_cell(unit_cell(f, 0))),
    )
    yield two_cell_equal(chain, identity_cell(k), cfg.policy)


@_law("strength-unit-triangles", "strength", 27,
      "Both triangle identities for extension at a slot against restriction at that slot.")
def _law_strength_unit_triangles(rng, cfg):
    f, cats = _gen_wide_map(rng, cfg, rng.randrange(2))
    j = rng.randrange(f.arity)
    ext = strengthen(f, j)
    tri1 = vcomp(strengthen_cell(unit_cell(f, j), j), counit_cell(ext, j))
    h_unit = plug(ext, j, unit_map(cats[j]))
    tri2 = vcomp(
        unit_cell(h_unit, j),
        whisker_inner(counit_cell(ext, j), j, unit_map(cats[j])),
    )
    yield two_cell_equal(tri1, identity_cell(ext), cfg.policy)
    yield two_cell_equal(tri2, identity_cell(h_unit), cfg.policy)


@_law("strength-substitution", "strength", 27,
      "Extension at one slot leaves substitution at any other slot untouched, table for table.")
def _law_strength_substitution(rng, cfg):
    f, cats = _gen_wide_map(rng, cfg, rng.randrange(2))
    j, k = rng.sample(range(f.arity), 2)
    _, _, g = _kleisli(rng, cfg, dst=cats[k])
    base = plug(strengthen(f, k), k, g)
    lhs = strengthen(base, j)
    rhs = plug(strengthen(strengthen(f, k), j), k, g)
    spaces = []
    for i in range(f.arity):
        if i == j:
            spaces.append(sample_presheaves(cats[i])[:2])
        elif i == k:
            spaces.append(list(g.slots[0].cat.objects))
        else:
            spaces.append(list(cats[i].objects))
    for i, args in enumerate(itertools.product(*spaces)):
        same = lhs.evaluate(args).content_key() == rhs.evaluate(args).content_key()
        yield _table(None if same else f"tables differ, tuple {i}")


@_law("strength-extension-transpose", "strength", 27,
      "The absorption cell restricts along the unit to the whiskered restriction cell.")
def _law_strength_extension_transpose(rng, cfg):
    f, cats = _gen_wide_map(rng, cfg, rng.randrange(2))
    j = rng.randrange(f.arity)
    _, _, g = _kleisli(rng, cfg, dst=cats[j])
    lhs = transpose(mult_cell(f, j, g, 0))
    rhs = whisker_outer(strengthen(f, j), j, unit_cell(g, 0))
    yield two_cell_equal(lhs, rhs, cfg.policy)


@_law("strength-cells-functorial", "strength", 27,
      "Extending cells at a slot preserves identities and vertical composition.")
def _law_strength_cells_functorial(rng, cfg):
    f, cats = _gen_wide_map(rng, cfg, rng.randrange(2))
    j = rng.randrange(f.arity)
    j2 = (j + 1) % f.arity
    src_cat = gen_category(rng, cfg.max_objects, cfg.max_edges)
    _, _, psi1, psi2 = _nat_pair(rng, src_cat, cats[j])
    c1 = whisker_outer(f, j, psi1)
    c2 = whisker_outer(f, j, psi2)
    yield two_cell_equal(strengthen_cell(vcomp(c1, c2), j2),
                         vcomp(strengthen_cell(c1, j2), strengthen_cell(c2, j2)), cfg.policy)
    yield two_cell_equal(strengthen_cell(identity_cell(f), j2),
                         identity_cell(strengthen(f, j2)), cfg.policy)


@_law("lift-identity", "lift", 17,
      "Lifting an identity functor collapses to the identity map, compatibly with composition cells.")
def _law_lift_identity(rng, cfg):
    x, y = (gen_category(rng, cfg.max_objects, cfg.max_edges) for _ in range(2))
    f = gen_functor(rng, (x,), y)
    tf = apply_functor(f)
    th_y = functor_unit_cell(theta_cell(y))
    th_x = functor_unit_cell(theta_cell(x))
    left = vcomp(
        functor_comp_cell(FunctorTable.identity(y), 0, f),
        whisker_inner(th_y, 0, tf),
    )
    right = vcomp(
        functor_comp_cell(f, 0, FunctorTable.identity(x)),
        whisker_outer(tf, 0, th_x),
    )
    yield two_cell_equal(left, retree(identity_cell(tf), left.src, left.dst), cfg.policy)
    yield two_cell_equal(right, retree(identity_cell(tf), right.src, right.dst), cfg.policy)
    for p in sample_presheaves(x):
        invertible = th_x.component((p,)).is_bijection()
        yield _table(None if invertible else "collapse cell not invertible")


@_law("lift-composition", "lift", 17,
      "Lifted composition cells associate, stay invertible, and extensions fold innermost first.")
def _law_lift_composition(rng, cfg):
    x, y, z = (gen_category(rng, cfg.max_objects, cfg.max_edges) for _ in range(3))
    f1 = gen_functor(rng, (y,), z)
    f2 = gen_functor(rng, (x,), y)
    f3 = gen_functor(rng, (y,), x)
    lhs = vcomp(
        functor_comp_cell(compose_functor(f1, 0, f2), 0, f3),
        whisker_inner(functor_comp_cell(f1, 0, f2), 0, apply_functor(f3)),
    )
    rhs = vcomp(
        functor_comp_cell(f1, 0, compose_functor(f2, 0, f3)),
        whisker_outer(apply_functor(f1), 0, functor_comp_cell(f2, 0, f3)),
    )
    yield two_cell_equal(lhs, rhs, cfg.policy)
    # binary leg: the comparison stays invertible, and the lift applies
    # its extensions innermost slot first.  Fold order only shows against a
    # parallel-path codomain at glued arguments, so sweep every sample pair.
    w = gen_category(rng, cfg.max_objects, cfg.max_edges)
    wide = _wide_poset_category(rng)
    fb = gen_functor(rng, (x, w), wide)
    cell = functor_comp_cell(gen_functor(rng, (wide,), y), 0, fb)
    reference = strengthen(strengthen(base_map(fb), 0), 1)
    lifted = apply_functor(fb)
    probes = sample_presheaves(w)
    for p in sample_presheaves(x):
        for q in probes:
            if not cell.component((p, q)).is_bijection():
                yield _table("comparison not invertible")
            elif lifted.evaluate((p, q)).content_key() != reference.evaluate((p, q)).content_key():
                yield _table("lift fold order broken")
            else:
                yield _table(None)


@_law("lift-naturality", "lift", 17,
      "Lifting transformations preserves identities and vertical composition.")
def _law_lift_naturality(rng, cfg):
    x, y = (gen_category(rng, cfg.max_objects, cfg.max_edges) for _ in range(2))
    fa, fb, psi1, psi2 = _nat_pair(rng, x, y)
    pasted = NatTransTable(
        fa, fb,
        {t: y.compose(psi2.component(t), psi1.component(t)) for t in psi1.components},
    )
    ident = NatTransTable(fa, fa, {t: y.id_of(fa.evaluate(t)) for t in psi1.components})
    yield two_cell_equal(functor_on_nat(pasted),
                         vcomp(functor_on_nat(psi1), functor_on_nat(psi2)), cfg.policy)
    yield two_cell_equal(functor_on_nat(ident), identity_cell(apply_functor(fa)), cfg.policy)


def _interchange_tuples(f, j, k, cap):
    pj = sample_presheaves(f.slots[j].cat)[:cap]
    pk = sample_presheaves(f.slots[k].cat)[:cap]
    rest = [
        [None] if i in (j, k) else list(f.slots[i].cat.objects)
        for i in range(f.arity)
    ]
    for p, q in itertools.product(pj, pk):
        for combo in itertools.product(*rest):
            args = list(combo)
            args[j], args[k] = p, q
            yield tuple(args)


@_law("interchange-oracle", "interchange", 14,
      "Interchange tables match the flat double-extension computation on every sampled tuple.")
def _law_interchange_oracle(rng, cfg):
    f, cats = _gen_wide_map(rng, cfg, rng.randrange(2))
    j, k = sorted(rng.sample(range(f.arity), 2))
    gamma = interchange(f, j, k)
    cap = 3 if f.arity == 2 else 2
    for i, args in enumerate(_interchange_tuples(f, j, k, cap)):
        want = tuple(gamma_tables(f, j, k, args))
        phi = gamma.component(args)
        if tuple(phi.components) != want:
            yield _table(f"flat computation disagrees at tuple {i}")
        elif not phi.is_bijection():
            yield _table("interchange not invertible")
        else:
            yield _table(None)


@_law("interchange-units", "interchange", 14,
      "Interchange restricted along the unit in either slot reduces to restriction cells.")
def _law_interchange_units(rng, cfg):
    f, cats = _gen_wide_map(rng, cfg, rng.randrange(2))
    j, k = sorted(rng.sample(range(f.arity), 2))
    gamma = interchange(f, j, k)
    uj, uk = unit_map(cats[j]), unit_map(cats[k])
    lhs1 = whisker_inner(gamma, j, uj)
    rhs1 = vcomp(
        inverse_cell(unit_cell(strengthen(f, k), j)),
        strengthen_cell(unit_cell(f, j), k),
    )
    lhs2 = whisker_inner(gamma, k, uk)
    rhs2 = vcomp(
        strengthen_cell(inverse_cell(unit_cell(f, k)), j),
        unit_cell(strengthen(f, j), k),
    )
    yield two_cell_equal(lhs1, rhs1, cfg.policy)
    yield two_cell_equal(lhs2, rhs2, cfg.policy)


def _interchange_extension_routes(f, j, k, h):
    route1 = vcomp(
        mult_cell(strengthen(f, k), j, h, 0),
        whisker_inner(interchange(f, j, k), j, strengthen(h, 0)),
    )
    plugged = plug(strengthen(f, j), j, h)
    route2 = vcomp(
        strengthen_cell(whisker_inner(interchange(f, j, k), j, h), j),
        interchange(plugged, j, k),
        strengthen_cell(mult_cell(f, j, h, 0), k),
    )
    return route1, route2


@_law("interchange-extensions", "interchange", 14,
      "Interchange commutes with absorbing a substitution in either slot.")
def _law_interchange_extensions(rng, cfg):
    f, cats = _gen_wide_map(rng, cfg, rng.randrange(2))
    j, k = sorted(rng.sample(range(f.arity), 2))
    _, _, h = _kleisli(rng, cfg, dst=cats[j])
    _, _, h2 = _kleisli(rng, cfg, dst=cats[k])
    yield two_cell_equal(*_interchange_extension_routes(f, j, k, h), cfg.policy)
    yield two_cell_equal(*_interchange_extension_routes(f, k, j, h2), cfg.policy)


@_law("interchange-hexagon", "interchange", 14,
      "Both factorisations of the three-slot reversal into adjacent swaps agree.")
def _law_interchange_hexagon(rng, cfg):
    f = _gen_wide_map(rng, cfg, 1)[0]
    left = interchange_perm(f, (0, 1, 2), (2, 1, 0), "left")
    right = interchange_perm(f, (0, 1, 2), (2, 1, 0), "right")
    yield two_cell_equal(left, right, cfg.policy)


@_law("braiding-words", "interchange", 12,
      "For every permutation of three slots, any two swap words give the same cell.")
def _law_braiding_words(rng, cfg):
    f = _gen_wide_map(rng, cfg, 1)[0]
    for sigma in itertools.permutations((0, 1, 2)):
        left = interchange_perm(f, (0, 1, 2), sigma, "left")
        right = interchange_perm(f, (0, 1, 2), sigma, "right")
        v = two_cell_equal(left, right, cfg.policy)
        yield v if v.equal else v.with_witness(f"word mismatch for {sigma}: {v.witness}")
        back = interchange_perm(f, sigma, (0, 1, 2), "left")
        v = two_cell_equal(vcomp(left, back), identity_cell(left.src), cfg.policy)
        yield v if v.equal else v.with_witness(
            f"round trip not identity for {sigma}: {v.witness}")


def _colimit_certificate(f, p, data, b):
    """None when data's value at codomain object b is the colimit of f's
    values over El(p), else the reason it is not: its classes must be a
    cocone over every El(p) arrow, each with a member, exactly the zigzag
    components (by breadth-first search), and acted on as the cocone induces."""
    el = category_of_elements(p)
    vals = [f.evaluate((x,)) for x, _ in el.el_objs]
    # starts[a][i]: where El(p) node i's copy of f(x)(a) starts in the (x, e, t) order
    starts = [list(itertools.accumulate((len(v.at[a]) for v in vals), initial=0))
              for a in f.cod.objects]
    here, classes, n = starts[b], data.colims[b].classes, len(data.at[b])
    if len(classes) != here[-1] or set(classes) != set(range(n)):
        return f"the {len(classes)} elements at object {b} do not cover its {n} classes"
    links = [[] for _ in classes]
    for ai, (m, _) in enumerate(el.el_arrows):
        src, tgt = here[el.src(ai)], here[el.tgt(ai)]
        for i, j in enumerate(f.morphism_at((p.base.src(m),), 0, m).components[b]):
            i, j = src + i, tgt + j
            if classes[i] != classes[j]:
                return f"El(p) arrow {ai} leaves class {classes[i]} at object {b}"
            links[i].append(j)
            links[j].append(i)
    seen, components = set(), 0
    for root in range(len(classes)):
        if root not in seen:
            components, queue = components + 1, [root]
            seen.add(root)
            for i in queue:
                fresh = [j for j in links[i] if j not in seen]
                seen.update(fresh)
                queue += fresh
    if components != n:
        return f"{components} zigzag components vs {n} classes at object {b}"
    for u in f.cod.morphisms:
        a, row = f.cod.src(u), data.act[u]
        if f.cod.tgt(u) == b and (len(row) != n or any(
                row[classes[here[i] + t]] != data.colims[a].classes[starts[a][i] + t2]
                for i, v in enumerate(vals) for t, t2 in enumerate(v.act[u]))):
            return f"the action of {u} into object {b} is not the induced one"
    return None


@_law("extension-universal", "kan", 10,
      "Restriction along the unit is invertible and mediating maps biject with cocones.")
def _law_extension_universal(rng, cfg):
    x = gen_category(rng, cfg.max_objects, cfg.max_edges)
    y = gen_category(rng, cfg.max_objects, cfg.max_edges)
    f = gen_multimap(rng, (x,), y, cfg.max_values, n_generators=1)
    ext = strengthen(f, 0)
    # the round trip goes first, so that a pass reports the cell policy
    yield two_cell_equal(transpose(untranspose(unit_cell(f, 0), 0, ext)), unit_cell(f, 0),
                         cfg.policy)
    for a in x.objects:
        invertible = unit_cell(f, 0).component((a,)).is_bijection()
        yield _table(None if invertible else f"unit restriction not invertible at {a}")
    # a sum of 2-4 draws, as many as fit in max_values, so p is often large
    ps, size = [], 0
    for _ in range(rng.randint(2, 4)):
        q = gen_presheaf(rng, x, cfg.max_values)
        size += sum(map(len, q.at))
        if ps and size > cfg.max_values:
            break
        ps.append(q)
    p, _ = coproduct_presheaves(ps)
    data = ext.data((p,))
    for b in y.objects:
        yield _table(_colimit_certificate(f, p, data, b), "count")


@_law("square-unit-compat", "squares", 9,
      "An extended square restricted along all units is the square it extends.")
def _law_square_unit_compat(rng, cfg):
    n = 1 + rng.randrange(2)
    h, f, fprime, gs, alpha, xs = _square_instance(rng, cfg, n)
    beta = extend_square(alpha, h, f, fprime, gs)
    step = beta
    for s in range(n):
        step = whisker_inner(step, s, unit_map(xs[s]))
    lhs = vcomp(
        whisker_inner(unit_cell(h, 0), 0, f),
        whisker_outer(strengthen(h, 0), 0, unit_naturality_square(f)),
        step,
    )
    rhs = vcomp(
        alpha,
        whisker_outer_many(apply_functor(fprime), {r: unit_cell(gs[r], 0) for r in range(n)}),
    )
    yield two_cell_equal(lhs, rhs, cfg.policy)


@_law("square-extension-compat", "squares", 9,
      "Extending a pasted square equals pasting the extended squares.")
def _law_square_extension_compat(rng, cfg):
    # upper square beta over a functor graph, lower square alpha over the
    # unit into beta's source functor; extending their paste must equal
    # pasting their extensions
    k, f_up, f2, gps, beta, _ = _square_instance(rng, cfg, 1)
    h, f, gs, alpha, _ = _unit_square(rng, cfg, f_up)

    beta_ext = extend_square(beta, k, f_up, f2, gps)
    alpha_ext = extend_square(alpha, h, f, f_up, gs)
    h2 = plug(strengthen(k, 0), 0, h)
    big_g = [plug(strengthen(gps[0], 0), 0, gs[0])]

    pasted = retree(
        vcomp(
            whisker_outer(strengthen(k, 0), 0, alpha),
            whisker_inner(beta_ext, 0, gs[0]),
        ),
        plug(h2, 0, f),
        plug_many(apply_functor(f2), {0: big_g[0]}),
    )
    lhs = vcomp(
        extend_square(pasted, h2, f, f2, big_g),
        whisker_outer(apply_functor(f2), 0, mult_cell(gps[0], 0, gs[0], 0)),
    )
    rhs = vcomp(
        whisker_inner(mult_cell(k, 0, h, 0), 0, apply_functor(f)),
        whisker_outer(strengthen(k, 0), 0, alpha_ext),
        whisker_inner(beta_ext, 0, strengthen(gs[0], 0)),
    )
    yield two_cell_equal(lhs, rhs, cfg.policy)


@_law("square-collapse-compat", "squares", 9,
      "The extended identity square is conjugation by the collapse cell.")
def _law_square_collapse_compat(rng, cfg):
    x = gen_category(rng, cfg.max_objects, cfg.max_edges)
    one = FunctorTable.identity(x)
    u = unit_map(x)
    t1 = apply_functor(one)
    alpha = retree(
        unit_naturality_square(one),
        plug(u, 0, one),
        plug(t1, 0, u),
    )
    beta = extend_square(alpha, u, one, one, [u])
    th = retree(theta_cell(x), strengthen(u, 0), IdentityMap(x))
    rhs = vcomp(
        whisker_inner(th, 0, t1),
        whisker_outer(t1, 0, inverse_cell(th)),
    )
    yield two_cell_equal(beta, rhs, cfg.policy)


@_law("yoneda-count", "counting", 10,
      "Transformations between representables biject with morphisms.")
def _law_yoneda_count(rng, cfg):
    c = gen_category(rng, cfg.max_objects, cfg.max_edges)
    for a, b in itertools.product(c.objects, repeat=2):
        n = len(enumerate_nat_trans(representable(c, a), representable(c, b)))
        m = len(c.hom(a, b))
        yield _table(None if n == m else f"{n} transformations vs {m} morphisms at ({a},{b})",
                     "count")


@_law("instance-valid", "validity", 12,
      "Generated categories, maps, functors, and squares satisfy their defining equations.")
def _law_instance_valid(rng, cfg):
    c = gen_category(rng, cfg.max_objects, cfg.max_edges)
    d = gen_category(rng, cfg.max_objects, cfg.max_edges)
    m = gen_multimap(rng, (c,), d, cfg.max_values, n_generators=2)
    bad = validate_multimap(tamper_multimap(m))
    yield _table(bad and f"{bad[0]}: {bad[1]}")
    yield from _cell_natural(_square_instance(rng, cfg, 1 + rng.randrange(2))[4])
    # over thin categories every unit fiber is a point and a swap cannot
    # show; a parallel-path dag forces a 2-element fiber into the square
    zz = _wide_poset_category(rng)
    wide = tamper_square(unit_naturality_square(FunctorTable.identity(zz)))
    yield from _cell_natural(wide)
    fn = gen_functor(rng, (c,), d)
    yield _table(None if validate_functor(fn) is None else "generated functor invalid")


LAW_ORDER = tuple(LAW_FAMILIES)


def _one_line(w):
    s = w if isinstance(w, str) else repr(w)
    return " ".join(s.split())[:200]


def run_single(law, index, cfg, faults=None):
    if faults is None and cfg.inject:
        faults = INJECTORS[cfg.inject]
    fn = LAW_FAMILIES[law][0]
    seed = derive_seed(cfg.seed, law, index)
    rng = random.Random(seed)
    element_budget()  # a bad RELMONAD_BUDGET is the caller's error, not a verdict
    # one session per instance, with `faults` (by default cfg.inject's): its
    # cells are shared while it runs, and its memos are freed when it ends
    with session(faults):
        try:
            # the one verdict fold: the first failing check ends the instance,
            # and the law is not resumed, so nothing after it is drawn or built;
            # `checked` sums every check made, and a pass reports the policy of
            # the first
            policy, checked = "", 0
            for v in fn(rng, cfg):
                checked += v.checked
                if not v.equal:
                    return LawOutcome(law, index, False, v.policy, checked, seed,
                                      _one_line(v.witness))
                policy = policy or v.policy
            if not checked:
                raise RelmonadError("nothing was checked: 0 tuples compared, so no pass")
            return LawOutcome(law, index, True, policy, checked, seed)
        except BudgetExceededError:
            # a resource ceiling is an environment problem, not a law verdict
            raise
        except RelmonadError as e:
            return LawOutcome(law, index, False, "error", 0, seed, _one_line(str(e)))
        except Exception as e:  # a checker bug is this instance's error, not the run's end
            return LawOutcome(
                law, index, False, "error", 0, seed,
                _one_line(f"{type(e).__name__}: {e}"),
            )


def expand_laws(names):
    """Law and group names, in registry order, deduplicated."""
    if not names:
        return LAW_ORDER
    picked = set()
    for name in names:
        if name in LAW_GROUPS:
            picked.update(LAW_GROUPS[name])
        elif name in LAW_FAMILIES:
            picked.add(name)
        else:
            raise KeyError(name)
    return tuple(law for law in LAW_ORDER if law in picked)


def run_suite(cfg: CheckConfig) -> CheckReport:
    report = CheckReport(cfg)
    for law in expand_laws(cfg.laws):
        n = cfg.instances or LAW_FAMILIES[law][1]
        for i in range(n):
            report.outcomes.append(run_single(law, i, cfg))
    return report
