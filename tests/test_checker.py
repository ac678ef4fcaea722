"""Law registry: seeding, honest runs, and defect injection.

The registry is exercised two ways: a small honest run where every law
family must pass, and one run per injector where the designated catching
law must produce at least one failing outcome with a witness.  Injection
runs use each family's own default instance count because the catches
live at specific derived seeds.
"""

import gc
import hashlib
import random
from collections import Counter
from dataclasses import replace

import pytest

from relmonad import cli, kan, monad, presheaf
from relmonad.checker import (
    INJECTORS,
    LAW_FAMILIES,
    LAW_ORDER,
    CheckConfig,
    _colimit_certificate,
    _damaged,
    _swap_first_wide_row,
    run_suite,
    run_single,
)
from relmonad.errors import BudgetExceededError, SlotMismatchError
from relmonad.fincat import FunctorTable, session
from relmonad.gen import derive_seed, gen_category, gen_multimap, gen_presheaf
from relmonad.multimap import CellComparison, TwoCell, identity_cell, unit_map
from relmonad.presheaf import Colimit, Presheaf, PresheafMorphism


def test_registry_order_matches_families():
    assert LAW_ORDER == tuple(LAW_FAMILIES)
    assert len(LAW_ORDER) == 23


def test_every_law_has_a_description():
    for law in LAW_ORDER:
        assert LAW_FAMILIES[law][3]


def test_derived_seeds_are_distinct():
    seen = set()
    for law in LAW_ORDER:
        for i in range(3):
            seen.add(derive_seed(9, law, i))
    assert len(seen) == 3 * len(LAW_ORDER)
    assert derive_seed(9, LAW_ORDER[0], 0) != derive_seed(10, LAW_ORDER[0], 0)


def test_run_single_is_deterministic():
    cfg = CheckConfig(seed=5)
    a = run_single("extension-associative", 1, cfg)
    b = run_single("extension-associative", 1, cfg)
    assert a == b
    assert a.ok and a.checked > 0


def test_unknown_law_raises():
    with pytest.raises(KeyError):
        run_single("no-such-law", 0, CheckConfig())


@pytest.mark.parametrize("law", LAW_ORDER)
def test_law_passes_small_run(law):
    cfg = CheckConfig(seed=7, instances=2)
    for i in range(2):
        out = run_single(law, i, cfg)
        assert out.ok, f"{law}[{i}]: {out.witness}"
        assert out.witness == ""


def _stub_law(monkeypatch, checks):
    # replace one law by a generator over `checks`, keeping its registry entry
    law = "extension-unit"
    _, instances, group, description = LAW_FAMILIES[law]
    monkeypatch.setitem(LAW_FAMILIES, law, (lambda rng, cfg: checks(), instances,
                                            group, description))
    return run_single(law, 0, CheckConfig(seed=1))


def test_fold_stops_at_the_first_failing_check(monkeypatch):
    made = []

    def checks():
        yield CellComparison(True, "transpose", 3, None)
        yield CellComparison(False, "table", 1, "second check fails")
        made.append("resumed")
        yield CellComparison(True, "table", 1 // 0, None)

    out = _stub_law(monkeypatch, checks)
    assert not out.ok
    assert (out.policy, out.checked, out.witness) == ("table", 4, "second check fails")
    assert made == []


def test_fold_pass_reports_the_first_policy(monkeypatch):
    def checks():
        yield CellComparison(True, "count", 2, None)
        yield CellComparison(True, "transpose", 5, None)

    out = _stub_law(monkeypatch, checks)
    assert out.ok
    assert (out.policy, out.checked, out.witness) == ("count", 7, "")


@pytest.mark.parametrize("checks", [
    lambda: iter(()),
    lambda: iter([CellComparison(True, "table", 0, None)]),
], ids=["no-check", "zero-tuples"])
def test_instance_that_checks_nothing_cannot_pass(monkeypatch, checks):
    out = _stub_law(monkeypatch, checks)
    assert not out.ok
    assert out.policy == "error" and out.checked == 0
    assert "nothing was checked" in out.witness


@pytest.mark.parametrize("exc", [TypeError, IndexError, AttributeError])
def test_law_that_raises_is_an_error_outcome(monkeypatch, exc):
    def checks():
        yield CellComparison(True, "table", 3, None)
        raise exc("checker bug")

    out = _stub_law(monkeypatch, checks)
    assert not out.ok
    assert (out.policy, out.checked, out.witness) == ("error", 0, f"{exc.__name__}: checker bug")


def test_law_that_raises_leaves_the_rest_of_the_run(monkeypatch, capsys):
    def raising(rng, cfg):
        raise TypeError("unsupported operand")
        yield

    _, instances, group, description = LAW_FAMILIES["extension-unit"]
    monkeypatch.setitem(LAW_FAMILIES, "extension-unit", (raising, instances, group, description))
    rc = cli.main(["verify", "--seed", "1", "--instances", "1", "--format", "machine",
                   "--laws", "extension-unit,yoneda-count"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert "instance extension-unit 0 FAIL checked 0 policy error seed" in "\n".join(lines)
    assert "witness extension-unit 0 TypeError: unsupported operand" in lines
    assert any(ln.startswith("instance yoneda-count 0 ok ") for ln in lines)
    assert lines[-1] == "summary pass 1 fail 1"


def test_report_shape_and_summaries():
    cfg = CheckConfig(seed=3, instances=1)
    rep = run_suite(cfg)
    assert rep.ok
    assert len(rep.outcomes) == len(LAW_ORDER)
    summ = rep.summaries()
    assert [s.law for s in summ] == list(LAW_ORDER)
    assert all(s.instances == 1 and s.failed == 0 for s in summ)


def test_law_selection_restricts_run():
    cfg = CheckConfig(seed=3, instances=1, laws=("yoneda-count", "extension-unit"))
    rep = run_suite(cfg)
    assert {o.law for o in rep.outcomes} == {"yoneda-count", "extension-unit"}


def test_sample_policy_also_passes():
    cfg = CheckConfig(seed=11, instances=2, policy="sample")
    for i in range(2):
        out = run_single("extension-unit", i, cfg)
        assert out.ok, out.witness


# default instance counts carry the family minimums used by the
# acceptance run; shrinking one silently weakens a criterion
def test_family_instance_floors():
    def total(*laws):
        return sum(LAW_FAMILIES[l][1] for l in laws)

    assert total(
        "extension-associative", "extension-unit", "collapse-after-extension",
        "collapse-on-unit", "extension-absorbs-unit",
    ) >= 100
    assert total(
        "strength-unit-triangles", "strength-substitution",
        "strength-extension-transpose", "strength-cells-functorial",
    ) >= 100
    assert total("lift-identity", "lift-composition", "lift-naturality") >= 50
    assert total(
        "interchange-oracle", "interchange-units",
        "interchange-extensions", "interchange-hexagon",
    ) >= 50
    assert LAW_FAMILIES["braiding-words"][1] >= 10
    assert LAW_FAMILIES["extension-universal"][1] >= 10
    assert total(
        "square-unit-compat", "square-extension-compat", "square-collapse-compat",
    ) >= 25
    assert LAW_FAMILIES["yoneda-count"][1] >= 10
    assert LAW_FAMILIES["instance-valid"][1] >= 10


# each injector paired with one law whose default run must catch it
CATCHES = [
    ("theta-corrupt", "extension-unit"),
    ("that-corrupt", "extension-associative"),
    ("gamma-identity", "interchange-oracle"),
    ("t-order-scramble", "lift-composition"),
    ("naturality-broken", "instance-valid"),
    ("contravariance-broken", "instance-valid"),
]

# sha256 of the machine-report lines of those failing outcomes at seed 42
FAIL_DIGESTS = {
    "theta-corrupt": "9c70b43cb9fb3a5fdf4bcb2caec9e1997355e73b38af45048c7cf60f0a5999d6",
    "that-corrupt": "5b401b2b58956858f79f7de7f0e3c3ad307fb91655001558d9eb578e5a048bb3",
    "gamma-identity": "a7282b18688b9e8849d86987ebf4477d2ded33d343b21d567df6ce81693dc6fb",
    "t-order-scramble": "077a4c1900944b42582e514035c9954173eade4ddc323f7fb53ce2e6a911657d",
    "naturality-broken": "778ab25520e6fe1950484f7f128a834401ee87b23ca5d257b148454c5d102091",
    "contravariance-broken": "e37c568460df29f0e5a7af452ba2c5f5ef477b970966400667bdb830689a6007",
}


def test_catch_table_covers_every_injector():
    assert {name for name, _ in CATCHES} == set(INJECTORS)


@pytest.mark.parametrize("inject,law", CATCHES)
def test_injector_is_caught(inject, law):
    cfg = CheckConfig(seed=42, laws=(law,), inject=inject)
    rep = run_suite(cfg)
    fails = [o for o in rep.outcomes if not o.ok]
    assert fails, f"{inject} slipped past {law}"
    assert all(o.witness for o in fails)
    assert all("\n" not in o.witness and len(o.witness) <= 200 for o in fails)
    lines = "".join(line + "\n" for o in fails for line in cli._machine_lines(o))
    assert hashlib.sha256(lines.encode()).hexdigest() == FAIL_DIGESTS[inject]


@pytest.mark.parametrize("inject,law", CATCHES)
def test_injection_does_not_leak_between_runs(inject, law):
    # a fresh config without the injector must be clean again
    rep = run_suite(CheckConfig(seed=42, laws=(law,), instances=2))
    assert rep.ok


def test_braiding_words_mismatch_is_a_failure():
    # corrupt one adjacent swap only: the two words for a permutation then
    # disagree, and the law must report that as a FAIL, not raise
    corrupt = _damaged(_swap_first_wide_row)

    def one_bad_swap(build, g, j, k):
        return corrupt(build, g, j, k) if (j, k) == (2, 0) else build(g, j, k)

    outcomes = [run_single("braiding-words", i, CheckConfig(seed=42), {"interchange": one_bad_swap})
                for i in range(3)]
    fails = [o for o in outcomes if not o.ok]
    assert fails
    for o in fails:
        assert o.policy == "transpose" and o.checked > 0
        assert o.witness.startswith(("word mismatch for", "round trip not identity for"))


def _drawn_record():
    """-> (f, p, data, b): an honest extension record on a drawn p with more
    than 7 elements, a non-identity action row with two distinct entries,
    and a codomain object b with a class of two or more members, next to a
    second class."""
    rng = random.Random(0)
    while True:
        x, y = gen_category(rng, 3, 3), gen_category(rng, 3, 3)
        try:
            f = gen_multimap(rng, (x,), y, 24, n_generators=1)
        except BudgetExceededError:
            continue
        p = gen_presheaf(rng, x, 24)
        data = kan.strengthen(f, 0).data((p,))
        if sum(map(len, p.at)) <= 7 or not any(
                len(set(row)) >= 2 and not y.is_identity(u)
                for u, row in enumerate(data.act)):
            continue
        for b in y.objects:
            classes = data.colims[b].classes
            if 2 <= len(set(classes)) < len(classes):
                return f, p, data, b


def _damaged_record(data, b, classes, n, rows):
    """data with class table `classes` and n classes at b, and the action
    row at u replaced by rows(u, row)."""
    colims = list(data.colims)
    colims[b] = replace(colims[b], classes=tuple(classes))
    at = list(data.at)
    at[b] = tuple(f"q{c}" for c in range(n))
    act = [rows(u, row) for u, row in enumerate(data.act)]
    return Colimit(data.base, at, act, tuple(colims))


def test_colimit_certificate_rejects_damaged_records():
    f, p, data, b = _drawn_record()
    y = f.cod
    assert all(_colimit_certificate(f, p, data, a) is None for a in y.objects)
    classes = data.colims[b].classes
    n = len(data.at[b])

    # the two highest classes at b merged, the value relabelled to match
    def lower(c):
        return n - 2 if c == n - 1 else c

    def merged_row(u, row):
        row = row[:-1] if y.tgt(u) == b else row
        return tuple(map(lower, row)) if y.src(u) == b else row

    merged = _damaged_record(data, b, map(lower, classes), n - 1, merged_row)
    # one element of a class with other members moved into a fresh class n
    i = next(i for i, c in enumerate(classes) if classes.count(c) > 1)
    moved = _damaged_record(data, b, classes[:i] + (n,) + classes[i + 1:], n + 1,
                            lambda u, row: row + (row[classes[i]],) if y.tgt(u) == b else row)
    # two distinct entries of one non-identity action row swapped
    u = next(u for u, row in enumerate(data.act)
             if len(set(row)) >= 2 and not y.is_identity(u))
    row = data.act[u]
    j = next(j for j, c in enumerate(row) if c != row[0])
    swapped_row = list(row)
    swapped_row[0], swapped_row[j] = row[j], row[0]
    swapped = _damaged_record(data, y.tgt(u), data.colims[y.tgt(u)].classes,
                              len(data.at[y.tgt(u)]),
                              lambda v, r: tuple(swapped_row) if v == u else r)
    assert _colimit_certificate(f, p, merged, b) is not None
    assert _colimit_certificate(f, p, moved, b) is not None
    assert _colimit_certificate(f, p, swapped, y.tgt(u)) is not None


def test_a_fault_reaches_cells_built_inside_other_cells(monkeypatch, arrow, sum1_arrow,
                                                       sum2_arrow):
    # counting faults fire for the unit and absorption cells that kan.mult_cell
    # and monad.functor_comp_cell build inside themselves, and stop firing
    # once the session closes, even when the law raised
    fired = Counter()

    def counting(build, *args):
        fired[build.__name__] += 1
        return build(*args)

    faults = {"unit_cell": counting, "mult_cell": counting}
    one = FunctorTable.identity(arrow)

    def build_both():
        kan.mult_cell(sum1_arrow, 0, sum2_arrow, 0)
        monad.functor_comp_cell(one, 0, one)

    with session(faults):
        kan.mult_cell(sum1_arrow, 0, sum2_arrow, 0)
        assert fired == {"mult_cell": 1, "unit_cell": 1}
        # its restriction cell and its absorption's share one unit cell
        monad.functor_comp_cell(one, 0, one)
        assert fired == {"mult_cell": 2, "unit_cell": 2}

    def raising(rng, cfg):
        build_both()
        raise TypeError("law raised")
        yield

    _, instances, group, description = LAW_FAMILIES["extension-unit"]
    monkeypatch.setitem(LAW_FAMILIES, "extension-unit", (raising, instances, group, description))
    fired.clear()
    out = run_single("extension-unit", 0, CheckConfig(seed=1), faults)
    assert out.witness == "TypeError: law raised"
    assert fired == {"mult_cell": 2, "unit_cell": 2}

    fired.clear()
    build_both()
    with session():
        build_both()
    assert not fired


def test_cell_names_carry_no_memory_address(monkeypatch):
    # a cell name reaches a witness on a seam, retree or inversion error, so
    # an address in it would make that report differ from run to run
    names = []
    init = TwoCell.__init__

    def recording(self, src, dst, fn, name="cell"):
        names.append(name)
        init(self, src, dst, fn, name)

    monkeypatch.setattr(TwoCell, "__init__", recording)
    run_suite(CheckConfig(seed=42, instances=1))
    assert names and not [n for n in names if " at 0x" in n]


def test_outcome_seeds_follow_derivation():
    cfg = CheckConfig(seed=6, instances=2, laws=("yoneda-count",))
    rep = run_suite(cfg)
    assert [o.seed for o in rep.outcomes] == [
        derive_seed(6, "yoneda-count", 0),
        derive_seed(6, "yoneda-count", 1),
    ]


def _live_presheaf_objects():
    gc.collect()
    return sum(isinstance(o, (Presheaf, PresheafMorphism)) for o in gc.get_objects())


def test_finished_run_leaves_no_presheaves_alive():
    before = _live_presheaf_objects()
    run_suite(CheckConfig(seed=3, instances=5))
    assert _live_presheaf_objects() <= before


def test_finished_run_leaves_no_cyclic_garbage():
    # each instance's session empties its memos when it ends, so what the
    # run built goes by reference count, not by the cyclic collector
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run_suite(CheckConfig(seed=3, instances=5))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_seed_42_suite_does_its_pinned_work(monkeypatch):
    # the suite's deterministic work, as bench/run.py --trace counts it; a
    # change that moves these re-pins them and says why.  The interchange
    # reference routes elements through records the laws already built, so
    # it takes no colimit and builds no category of elements of its own.
    counts = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(presheaf, "colimit_finset",
                        counted("colimits", presheaf.colimit_finset))
    monkeypatch.setattr(presheaf.ElementsCategory, "__init__",
                        counted("elements", presheaf.ElementsCategory.__init__))
    merges = presheaf.merge_counter.value
    run_suite(CheckConfig(seed=42))
    assert (counts["colimits"], counts["elements"], presheaf.merge_counter.value - merges) == (
        6776, 10, 7666)


@pytest.mark.parametrize("law, inject", [
    ("braiding-words", ""), ("lift-composition", ""), ("interchange-extensions", ""),
    ("square-unit-compat", ""), ("extension-associative", "that-corrupt"),
])
def test_shared_cocone_maps_equal_maps_built_afresh(monkeypatch, law, inject):
    # every map handed out between extension records, shared on cod.cocones
    # or not, equals the map its request builds afresh; and the verdicts,
    # failing ones under an injected defect included, match a run with that
    # memo emptied before every request.  kan._inside serves the action in
    # a non-extended slot (StrengthenMap) and strengthen_cell: where both
    # fire, a map one of them built is handed to the other.
    # extension-associative asks for no action outside an extended slot
    callers = {"strengthen_cell"}
    if law != "extension-associative":
        callers.add("StrengthenMap")

    def run(fresh):
        requests, built, asked, crossed = [], [], set(), []
        builder = {}  # id of a map kan._inside handed out -> (that map, its first caller)
        inside, record_map, cocone_map = kan._inside, kan._record_map, kan._cocone_map

        def requested(src, dst, kind, reads, block):
            if fresh:
                src.base.cocones.clear()
            phi = record_map(src, dst, kind, reads, block)
            requests.append(phi.components == cocone_map(src, dst, block).components)
            return phi

        def inside_for(src, dst, at):
            caller = at.__qualname__.split(".")[0]
            asked.add(caller)
            phi = inside(src, dst, at)
            crossed.append(builder.setdefault(id(phi), (phi, caller))[1] != caller)
            return phi

        def building(*args):
            built.append(None)
            return cocone_map(*args)

        with monkeypatch.context() as patch:
            patch.setattr(kan, "_record_map", requested)
            patch.setattr(kan, "_cocone_map", building)
            patch.setattr(kan, "_inside", inside_for)
            outcomes = [run_suite(CheckConfig(seed=seed, laws=(law,), inject=inject)).outcomes
                        for seed in range(1, 5)]
        assert requests and all(requests)
        assert asked == callers
        return len(built), any(crossed), outcomes

    shared_built, shared_crossed, shared_outcomes = run(False)
    fresh_built, fresh_crossed, fresh_outcomes = run(True)
    assert shared_outcomes == fresh_outcomes
    assert shared_built < fresh_built
    assert shared_crossed == (len(callers) == 2) and not fresh_crossed
    assert all(o.ok for run in shared_outcomes for o in run) == (not inject)


def test_braiding_words_builds_few_cocone_maps(monkeypatch, capsys):
    # a deterministic gate on the shared cocone maps: at seed 42 braiding-words
    # built 5,531 of them when each map object built its own, 1,109 shared
    # by kind of block, and 932 once slot actions and strengthen_cell share
    # one kind
    built = []
    cocone_map = kan._cocone_map

    def building(*args):
        built.append(None)
        return cocone_map(*args)

    monkeypatch.setattr(kan, "_cocone_map", building)
    rc = cli.main(["verify", "--seed", "42", "--laws", "braiding-words", "--format", "machine"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert rc == 0
    assert digest == "31649ce1951cb41127fc00786d60f474e81d03953e4432f4ecbe74e3ed0c7052"
    assert len(built) <= 932


def test_wrong_arity_raises_slot_mismatch(arrow, sum1_arrow):
    with pytest.raises(SlotMismatchError):
        unit_map(arrow).evaluate((0, 1))
    with pytest.raises(SlotMismatchError):
        identity_cell(sum1_arrow).component(())


def test_bad_budget_reaches_library_caller(monkeypatch):
    monkeypatch.setenv("RELMONAD_BUDGET", "abc")
    with pytest.raises(ValueError, match="RELMONAD_BUDGET"):
        run_suite(CheckConfig(seed=1, instances=1, laws=("extension-unit",)))


@pytest.mark.parametrize("field, value", [
    ("instances", -1), ("max_objects", 0), ("max_edges", -1), ("max_values", 0),
])
def test_config_refuses_caps_the_generators_cannot_draw(field, value):
    with pytest.raises(ValueError, match=field.replace("_", "-")):
        CheckConfig(**{field: value})
    CheckConfig(**{field: value + 1})  # the floor itself is accepted


@pytest.mark.parametrize("field, value, message", [
    ("policy", "magic", "unknown policy 'magic'"),
    ("inject", "bogus", "unknown injector 'bogus'"),
    ("laws", ("bogus",), "unknown law or group 'bogus'"),
    ("laws", "kan", "laws must be a tuple of names, got 'kan'"),
])
def test_config_refuses_a_policy_or_injector_the_checker_lacks(field, value, message):
    with pytest.raises(ValueError, match=message):
        CheckConfig(**{field: value})
