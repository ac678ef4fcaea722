"""Seeded inputs, per-item work and output checks for the benchmark workloads.

`suite` runs `relmonad verify --format machine` through the CLI, which is
what users run.  `extend-large` feeds freshly generated, kernel-sized
inputs to one extension per item, so the colimit and category-of-elements
layers carry the load instead of cell plumbing and memo lookups.

Every relmonad callable is looked up through its module at call time, so
the wrappers that a traced run installs see each call.
"""

import contextlib
import hashlib
import io
import random
import time

from relmonad import checker, cli, gen, kan, presheaf
from relmonad.errors import BudgetExceededError

# The suite always verifies at seed 42, the headline figure.  Its cost moves
# by about 20% from one verify seed to the next (57k-85k colimit merges over
# seeds 1-6 and 42), more than any bound the benchmark could hold to.
SUITE_SEED = 42
# sha256 of the `verify --seed 42 --format machine` report
SUITE_DIGEST = "fa3ecb7c6922f4f36e17a75bff801aae660736527d7a44d75cc13ff4232982a5"

EXTEND_ITEMS = 600
EXTEND_ELEMENTS = (20, 150)
MAX_FIBER = 64


def short_digest(key) -> str:
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


# -- inputs --------------------------------------------------------------------

def free_dag(rng):
    """The free category on a random dag with 4-6 objects and >= 4 non-identity arrows."""
    while True:
        c = gen.free_dag_category(rng, 6, 6)
        if c.n_objects >= 4 and c.n_morphisms - c.n_objects >= 4:
            return c


def size(p) -> int:
    return sum(len(s) for s in p.at)


def sum_of_representables(rng, c, target, lo, hi):
    """A coproduct of representables with about `target` elements, quotiented
    by 0-3 random identifications and redrawn until it has lo..hi elements."""
    while True:
        summands, total = [], 0
        while total < target:
            summands.append(presheaf.representable(c, rng.randrange(c.n_objects)))
            total += size(summands[-1])
        p, _ = presheaf.coproduct_presheaves(summands)
        pairs = []
        for _ in range(rng.randint(0, 3)):
            x = rng.choice([x for x in c.objects if len(p.at[x]) >= 2])
            a, b = rng.sample(range(len(p.at[x])), 2)
            pairs.append((x, a, b))
        if pairs:
            p = gen.presheaf_quotient(p, pairs)
        if lo <= size(p) <= hi:
            return p


def multimap(rng, slot_cats, cod, n_generators):
    """A seeded map out of slot_cats into cod; redraws a map whose fibers
    outgrow MAX_FIBER."""
    while True:
        try:
            return gen.gen_multimap(rng, slot_cats, cod, MAX_FIBER, n_generators=n_generators)
        except BudgetExceededError:
            continue


def sweep(rng, n, lo, hi):
    """n values spread evenly over lo..hi, in seeded order.

    Sizes and generator counts are swept rather than drawn, so every seed
    covers the whole range and the work of a run moves little with the seed.
    """
    values = [lo + (hi - lo) * i // max(1, n - 1) for i in range(n)]
    rng.shuffle(values)
    return values


def extend_inputs(seed, n_items=0, gauge=None):
    """Seeded extend-large items; a gauge (calib.Gauge) gets a tick between them."""
    n = n_items or EXTEND_ITEMS
    rng = random.Random(f"extend-large:{seed}")
    lo, hi = EXTEND_ELEMENTS
    items = []
    for target, k in zip(sweep(rng, n, lo, hi), sweep(rng, n, 1, 6)):
        c = free_dag(rng)
        f = multimap(rng, (c,), free_dag(rng), k)
        items.append((c, f, sum_of_representables(rng, c, target, lo, hi)))
        if gauge is not None:
            gauge.tick()
    return items


# -- per-item work -------------------------------------------------------------

def extend_item(item):
    """One extension of a one-slot map at a large presheaf, checked by the
    collapse cell being a bijection there."""
    c, f, p = item
    value = kan.strengthen(f, 0).evaluate((p,))
    collapse = kan.theta_cell(c).component((p,))
    return collapse.is_bijection(), (value.content_key(), collapse.content_key())


def run_items(items, item_fn, tracer=None, gauge=None):
    """Closed loop over items: the next starts when the previous ends.

    A failing or raising item is counted and the loop goes on.  A gauge
    (calib.Gauge) gets a tick between items.
    """
    latencies, digests, errors = [], [], []
    failed = 0
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        t0 = time.perf_counter()
        try:
            ok, key = item_fn(item)
            why = "check failed"
        except Exception as exc:  # an item that raises is a failed item, not a failed run
            why = f"{type(exc).__name__}: {exc}"
            ok, key = False, ("raised", why)
        latencies.append(time.perf_counter() - t0)
        digests.append(short_digest(key))
        if not ok:
            failed += 1
            errors.append(f"item {i}: {why}")
        if gauge is not None:
            gauge.tick()
    return {"latencies_s": latencies, "item_digests": digests, "failed": failed,
            "errors": errors[:5], "digest": hashlib.sha256("".join(digests).encode()).hexdigest()}


# -- the suite ---------------------------------------------------------------

def run_suite(instances=0, tracer=None, gauge=None):
    """`relmonad verify --seed 42 --format machine`, timed per law instance.

    An instance fails unless its line says ok with checked > 0.  At the
    default instance counts a report digest other than SUITE_DIGEST fails
    every instance.
    """
    latencies = []
    original = checker.run_single

    def timed(law, index, cfg, hooks=None):
        if tracer is not None:
            tracer.item = len(latencies)
        t0 = time.perf_counter()
        try:
            return original(law, index, cfg, hooks)
        finally:
            latencies.append(time.perf_counter() - t0)
            if gauge is not None:
                gauge.tick()

    argv = ["verify", "--seed", str(SUITE_SEED), "--format", "machine"]
    if instances:
        argv += ["--instances", str(instances)]
    out = io.StringIO()
    checker.run_single = timed
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        checker.run_single = original
    report = out.getvalue()
    lines = [ln for ln in report.splitlines() if ln.startswith("instance ")]
    errors = [] if code == 0 else [f"verify exited {code}"]
    bad = [ln for ln in lines if ln.split()[3] != "ok" or int(ln.split()[5]) <= 0]
    errors += bad[:5]
    digest = hashlib.sha256(report.encode()).hexdigest()
    if not instances and digest != SUITE_DIGEST:
        errors.append(f"report digest {digest} differs from {SUITE_DIGEST}")
        bad = lines
    if code != 0 and not bad:
        bad = lines
    return {"latencies_s": latencies, "item_digests": [short_digest(ln) for ln in lines],
            "failed": len(bad), "errors": errors[:5], "digest": digest}

