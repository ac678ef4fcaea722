"""Spans and work counters for the traced benchmark run, recorded from outside.

`Tracer.install()` replaces the public entry points of each `relmonad`
module with wrappers that open a span around the call and count its work.
A name that another module imported is replaced wherever it is bound, so
`colimit_finset` is wrapped inside `kan` as well as inside `presheaf`.
Nothing under `src/` changes; the wrappers live only in the traced process.

Spans stay in memory in flat arrays (name, start, end, parent span, item id)
until the run ends.  A span's self time is its duration minus the part of it
that its child spans cover; every span is attributed to the layer named by
its prefix, so the layer self times plus the time inside no span add up to
the traced wall time.
"""

import array
import gzip
import json
import time
import weakref
from collections import Counter, defaultdict

import relmonad
from relmonad import checker, cli, fubini, gen, kan, monad, multimap, presheaf
from relmonad.errors import BudgetExceededError

MODULES = (relmonad, checker, cli, fubini, gen, kan, monad, multimap, presheaf)

GENERATORS = (
    "free_dag_category", "builtin_category", "gen_category", "gen_presheaf",
    "presheaf_quotient", "gen_multimap", "gen_functor", "enumerate_functor_nats",
    "gen_nat_trans",
)
KAN_CONSTRUCTORS = (
    "strengthen", "unit_cell", "counit_cell", "theta_cell", "strengthen_cell",
    "transpose", "untranspose", "mult_cell",
)
# kan constructors whose cells run kan code in their components
KAN_CELLS = ("unit_cell", "counit_cell", "theta_cell", "strengthen_cell")
MONAD_CONSTRUCTORS = (
    "base_map", "apply_functor", "functor_on_nat", "functor_unit_cell",
    "functor_comp_cell", "unit_naturality_square", "interchange",
    "interchange_perm", "extend_square",
)

LAYERS = (
    "checker", "gen", "multimap", "kan", "presheaf.colimit", "presheaf.elements",
    "presheaf.nat_trans", "fubini", "monad",
)


def layer_of(span_name: str) -> str:
    """'presheaf.colimit' stays whole; other spans belong to their module."""
    head = span_name.split(".")[0]
    return span_name if head == "presheaf" else head


def self_times(names, start, end, parent):
    """Per span name: total duration minus the part covered by child spans.

    Spans come from one thread, so siblings never overlap and the covered
    part of a span is the sum of its children's clipped durations.
    """
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += max(0.0, min(end[i], end[p]) - max(start[i], start[p]))
    out = defaultdict(float)
    for i, n in enumerate(names):
        out[n] += end[i] - start[i] - covered[i]
    return dict(out)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.item = -1
        self.span_names = []
        self._name_id = {}
        self.name = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("l")
        self.items = array.array("l")
        self._stack = []
        self.counts = Counter()
        self.item_counts = defaultdict(Counter)
        self.law_s = Counter()
        self.max_colimit = 0
        self.t_begin = self.t_end = 0.0
        self._merges0 = 0

    # -- spans ---------------------------------------------------------------

    def open(self, span_name):
        nid = self._name_id.get(span_name)
        if nid is None:
            nid = self._name_id[span_name] = len(self.span_names)
            self.span_names.append(span_name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.items.append(self.item)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx):
        self.end[idx] = self.clock()
        self._stack.pop()

    def in_layer(self, layer):
        return bool(self._stack) and layer_of(self.span_names[self.name[self._stack[-1]]]) == layer

    def count(self, key, n=1):
        self.counts[key] += n
        if self.item >= 0:
            self.item_counts[self.item][key] += n

    def begin(self):
        self._merges0 = presheaf.merge_counter.value
        self.t_begin = self.clock()

    def finish(self):
        self.t_end = self.clock()
        self.counts["presheaf.colimit.merges"] = presheaf.merge_counter.value - self._merges0

    # -- wrappers ------------------------------------------------------------

    def wrap(self, fn, span_name, after=None):
        """fn inside a span; after(args, result) counts work inside it too."""
        tracer = self
        gen_span = layer_of(span_name) == "gen"

        def wrapper(*args, **kwargs):
            outermost_gen = gen_span and not tracer.in_layer("gen")
            idx = tracer.open(span_name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            except BudgetExceededError:
                if outermost_gen:
                    tracer.count("gen.redraws")
                raise
            finally:
                tracer.close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def memo(self, key):
        """An `after` for a method that counts calls, and hits: results that
        the same object's method has already returned."""
        seen = weakref.WeakKeyDictionary()

        def after(args, kwargs, result):
            self.count(key + ".calls")
            returned = seen.get(args[0])
            if returned is None:
                returned = seen[args[0]] = weakref.WeakValueDictionary()
            if returned.get(id(result)) is result:
                self.count(key + ".hits")
            else:
                returned[id(result)] = result

        return after

    def counter(self, key):
        return lambda args, kwargs, result: self.count(key)

    def _replace(self, original, wrapper):
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def _wrap_function(self, module, attr, span_name, after=None):
        original = getattr(module, attr)
        self._replace(original, self.wrap(original, span_name, after))

    def _wrap_method(self, cls, attr, span_name, after=None):
        setattr(cls, attr, self.wrap(getattr(cls, attr), span_name, after))

    def install(self):
        """Wrap every layer boundary; call once, after importing relmonad."""
        self._wrap_function(checker, "run_single", "checker.run_single", self._after_run_single)
        for name in GENERATORS:
            self._wrap_function(gen, name, f"gen.{name}", self.counter("gen.calls"))

        self._wrap_method(multimap.MultiMap, "evaluate", "multimap.evaluate",
                          self.memo("multimap.evaluate"))
        self._wrap_method(multimap.MultiMap, "morphism_at", "multimap.morphism_at",
                          self.memo("multimap.morphism_at"))
        self._wrap_method(multimap.TwoCell, "component", "multimap.component",
                          self.memo("multimap.component"))
        self._wrap_function(multimap, "two_cell_equal", "multimap.two_cell_equal",
                            self._after_two_cell_equal)

        self._wrap_method(kan.StrengthenMap, "data", "kan.data", self.memo("kan.data"))
        self._wrap_method(kan.StrengthenMap, "_mor_at", "kan.mor_at")
        for name in KAN_CONSTRUCTORS:
            after = self._wrap_cell_fn if name in KAN_CELLS else None
            self._wrap_function(kan, name, f"kan.{name}", after)

        self._wrap_function(presheaf, "colimit_finset", "presheaf.colimit", self._after_colimit)
        self._wrap_method(presheaf.ElementsCategory, "__init__", "presheaf.elements",
                          self._after_elements)
        self._wrap_function(presheaf, "enumerate_nat_trans", "presheaf.nat_trans",
                            self.counter("presheaf.nat_trans.calls"))

        self._wrap_function(fubini, "flat_double_extension", "fubini.flat", self._after_flat)
        self._wrap_function(fubini, "gamma_tables", "fubini.gamma_tables")

        for name in MONAD_CONSTRUCTORS:
            self._wrap_function(monad, name, f"monad.{name}", self.counter("monad.calls"))

    # -- counters read at the boundaries ---------------------------------------

    def _after_run_single(self, args, kwargs, outcome):
        self.count("checker.instances")
        self.law_s[outcome.law] += self.clock() - self.start[self._stack[-1]]

    def _after_two_cell_equal(self, args, kwargs, verdict):
        self.count("multimap.two_cell_equal.calls")
        self.count("multimap.two_cell_equal.tuples", verdict.checked)
        if verdict.policy == "sample":
            self.count("multimap.two_cell_equal.sample_fallbacks")

    def _after_colimit(self, args, kwargs, result):
        d = args[0]
        n = sum(len(s) for s in d.sets)
        self.count("presheaf.colimit.calls")
        self.count("presheaf.colimit.elements", n)
        self.count("presheaf.colimit.arrows", d.shape.n_morphisms)
        self.count("presheaf.colimit.identity_arrows", d.shape.n_objects)
        self.max_colimit = max(self.max_colimit, n)

    def _after_elements(self, args, kwargs, result):
        el = args[0]
        self.count("presheaf.elements.built")
        self.count("presheaf.elements.objects", el.n_objects)
        self.count("presheaf.elements.arrows", el.n_morphisms)

    def _after_flat(self, args, kwargs, flat):
        self.count("fubini.flat.calls")
        self.count("fubini.flat.elements",
                   sum(len(row) for per_y in flat.coproj.values() for row in per_y))

    def _wrap_cell_fn(self, args, kwargs, cell):
        cell._fn = self.wrap(cell._fn, "kan.cell")

    # -- results -------------------------------------------------------------

    def metrics(self, laws):
        """The per-layer metrics, with wall times measured by begin()/finish()."""
        names = [self.span_names[n] for n in self.name]
        by_span = self_times(names, self.start, self.end, self.parent)
        layer_s = Counter()
        for span_name, s in by_span.items():
            layer_s[layer_of(span_name)] += s
        top = sum(self.end[i] - self.start[i] for i, p in enumerate(self.parent) if p < 0)
        c = self.counts
        out = {"checker.instances": c["checker.instances"]}
        for law in laws:
            out[f"checker.law.{law}_s"] = self.law_s[law]
        out["gen.calls"] = c["gen.calls"]
        out["gen.redraws"] = c["gen.redraws"]
        for key in ("multimap.evaluate", "multimap.morphism_at", "multimap.component",
                    "kan.data"):
            out[f"{key}.calls"] = c[f"{key}.calls"]
            out[f"{key}.hit_ratio"] = c[f"{key}.hits"] / c[f"{key}.calls"] if c[f"{key}.calls"] else 0.0
        for key in ("multimap.two_cell_equal.calls", "multimap.two_cell_equal.tuples",
                    "multimap.two_cell_equal.sample_fallbacks",
                    "presheaf.colimit.calls", "presheaf.colimit.elements",
                    "presheaf.colimit.arrows", "presheaf.colimit.identity_arrows",
                    "presheaf.colimit.merges", "presheaf.elements.built",
                    "presheaf.elements.objects", "presheaf.elements.arrows",
                    "presheaf.nat_trans.calls", "fubini.flat.calls",
                    "fubini.flat.elements", "monad.calls"):
            out[key] = c[key]
        out["presheaf.colimit.max_elements"] = self.max_colimit
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_s[layer]
        wall = self.t_end - self.t_begin
        out["trace.wall_s"] = wall
        out["trace.unattributed_s"] = wall - top
        out["trace.spans"] = len(self.start)
        return out

    def dump(self, path):
        """Write every span, as gzipped JSON columns."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({
                "names": self.span_names,
                "name": self.name.tolist(),
                "start": [s - self.t_begin for s in self.start],
                "end": [e - self.t_begin for e in self.end],
                "parent": self.parent.tolist(),
                "item": self.items.tolist(),
            }, fh)
