"""Acceptance gate: one criterion per test, one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines.  Every
criterion re-runs the checker at its stated regime rather than trusting
cached results, so this file alone demonstrates the contract.
"""

import filecmp
import hashlib
import time

import pytest

from relmonad import cli
from relmonad.checker import CheckConfig, run_suite

LIMIT = 300.0  # wall-clock ceiling per criterion, seconds
# sha256 of the `verify --seed 42 --format machine` report
SEED_42_DIGEST = "fa3ecb7c6922f4f36e17a75bff801aae660736527d7a44d75cc13ff4232982a5"
# sha256 of `verify --seed 42 --format machine --policy sample --instances 3`:
# the one pinned run that evaluates extensions at coproducts and a pushout
SAMPLE_42_DIGEST = "e11c2fecd454160a80ad4b7f073f05916d5bad59ed5a2353f4c39d7d67ee5710"
# sha256 of `relmonad explain`: every law's description, in suite order
EXPLAIN_DIGEST = "5cf806636f8de5293236a70f7d3f6bcba87387d4f828f60efa2dbc275e127c32"
# sha256 of `verify --seed 42 --format machine --inject X`: under each
# injector the fold decides every law's lines, not only the target law's
INJECTED_42_DIGESTS = {
    "theta-corrupt": "9dd41491dd452914d55fd3ac4e533a4c34c49d3016b59e4518abdbc9e6856d33",
    "that-corrupt": "add793432f2d99d23404c414fe4af8822322ff4e87c1a91fc8d073ceee625f0a",
    "gamma-identity": "d8103d883857fe9cf8ef8d326b0ed3343903deed840d6c82d699f84fcbdcf181",
    "t-order-scramble": "b3da135cb36074711a20ddae668e1dfda6be52276f2a7b2a0f8c675a2378849b",
    "naturality-broken": "cf7c102b87580d4ec1a0866a95c0cae351eddc4d3d05fd037d0e8e4557650d7a",
    "contravariance-broken": "385f9734f0b17aee5692cf15953c6662f4423f5d8059da66a267be7340a445b2",
}


def _line(n, ok, detail):
    print(f"\ncriterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def _run(laws, seed=42, **kw):
    t0 = time.time()
    rep = run_suite(CheckConfig(seed=seed, laws=laws, **kw))
    dt = time.time() - t0
    failed = [o for o in rep.outcomes if not o.ok]
    return rep, failed, dt


def test_criterion_1_extension_axioms_small_exact():
    rep, failed, dt = _run(("extension",), max_objects=4, max_values=3)
    n = len(rep.outcomes)
    ok = not failed and n >= 100 and dt <= LIMIT
    _line(1, ok, f"unary extension axioms exact on {n - len(failed)}/{n} instances "
                 f"(<=4 objects, <=3 values, transpose) in {dt:.1f}s")


def test_criterion_2_strength_axioms_small_exact():
    rep, failed, dt = _run(("strength",), max_objects=4, max_values=3)
    n = len(rep.outcomes)
    ok = not failed and n >= 100 and dt <= LIMIT
    _line(2, ok, f"binary/ternary strengthening axioms exact on {n - len(failed)}/{n} "
                 f"instances (<=4 objects, <=3 values) in {dt:.1f}s")


def test_criterion_3_functor_application_axioms():
    rep, failed, dt = _run(("lift",))
    n = len(rep.outcomes)
    ok = not failed and n >= 50 and dt <= LIMIT
    _line(3, ok, f"functor-application identity/composition/naturality with bijective "
                 f"comparison cells on {n - len(failed)}/{n} instances in {dt:.1f}s")


def test_criterion_4_interchange_diagrams_and_oracle():
    laws = ("interchange-oracle", "interchange-units", "interchange-extensions",
            "interchange-hexagon")
    rep, failed, dt = _run(laws)
    n = len(rep.outcomes)
    ok = not failed and n >= 50 and dt <= LIMIT
    _line(4, ok, f"interchange diagrams pass and the cell matches the independent "
                 f"double-sum bijection on {n - len(failed)}/{n} instances in {dt:.1f}s")


def test_criterion_5_braiding_well_defined():
    rep, failed, dt = _run(("braiding-words",))
    n = len(rep.outcomes)
    ok = not failed and n >= 10 and dt <= LIMIT
    _line(5, ok, f"all permutation words on 3-slot maps agree pairwise on "
                 f"{n - len(failed)}/{n} instances in {dt:.1f}s")


def test_criterion_6_lax_idempotency():
    laws = ("lift-identity", "collapse-on-unit", "extension-absorbs-unit",
            "extension-universal")
    rep, failed, dt = _run(laws)
    n = len(rep.outcomes)
    ok = not failed and n >= 10 and dt <= LIMIT
    _line(6, ok, f"collapse cell bijective, both unit triangles exact, each extension "
                 f"a certified colimit: {n - len(failed)}/{n} in {dt:.1f}s")


def test_criterion_7_square_compatibility():
    rep, failed, dt = _run(("squares",))
    n = len(rep.outcomes)
    ok = not failed and n >= 25 and dt <= LIMIT
    _line(7, ok, f"unit/extension/collapse square compatibility on {n - len(failed)}/{n} "
                 f"binary squares (fixed sample family where transposing fails) in {dt:.1f}s")


def test_criterion_8_yoneda_count():
    rep, failed, dt = _run(("counting",))
    n = len(rep.outcomes)
    ok = not failed and n >= 10 and dt <= LIMIT
    _line(8, ok, f"transformation counts between representables equal hom sizes on "
                 f"{n - len(failed)}/{n} generated categories in {dt:.1f}s")


INJECTOR_TARGETS = {
    "theta-corrupt": "extension-unit",
    "that-corrupt": "extension-associative",
    "gamma-identity": "interchange-oracle",
    "t-order-scramble": "lift-composition",
    "naturality-broken": "instance-valid",
    "contravariance-broken": "instance-valid",
}


def test_criterion_9_mutation_sensitivity():
    t0 = time.time()
    caught = []
    for inject, law in INJECTOR_TARGETS.items():
        rep = run_suite(CheckConfig(seed=42, laws=(law,), inject=inject))
        hits = [o for o in rep.outcomes if not o.ok]
        if hits and all(o.witness for o in hits):
            caught.append(inject)
    dt = time.time() - t0
    ok = len(caught) == len(INJECTOR_TARGETS) and dt <= LIMIT
    _line(9, ok, f"{len(caught)}/{len(INJECTOR_TARGETS)} defect injectors caught with "
                 f"concrete witnesses in {dt:.1f}s")


def test_criterion_10_deterministic_reports(tmp_path):
    t0 = time.time()
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    rc1 = cli.main(["verify", "--seed", "42", "--format", "machine", "--out", a])
    rc2 = cli.main(["verify", "--seed", "42", "--format", "machine", "--out", b])
    dt = time.time() - t0
    same = filecmp.cmp(a, b, shallow=False)
    with open(a, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    ok = rc1 == rc2 == 0 and same and digest == SEED_42_DIGEST and dt <= LIMIT
    _line(10, ok, f"two full machine-format runs at seed 42 are byte-identical "
                  f"(exit {rc1}/{rc2}, sha256 {digest[:12]}) in {dt:.1f}s")


def test_sample_policy_report_is_pinned(tmp_path):
    out = str(tmp_path / "sample.txt")
    rc = cli.main(["verify", "--seed", "42", "--format", "machine", "--policy", "sample",
                   "--instances", "3", "--out", out])
    with open(out, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert rc == 0
    assert digest == SAMPLE_42_DIGEST


@pytest.mark.parametrize("inject", sorted(INJECTED_42_DIGESTS))
def test_injected_report_is_pinned(tmp_path, inject):
    out = str(tmp_path / "injected.txt")
    rc = cli.main(["verify", "--seed", "42", "--format", "machine", "--inject", inject,
                   "--out", out])
    with open(out, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert rc == 1
    assert digest == INJECTED_42_DIGESTS[inject]


def test_explain_report_is_pinned(capsys):
    rc = cli.main(["explain"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert rc == 0
    assert digest == EXPLAIN_DIGEST
