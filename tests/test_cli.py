"""CLI behavior: exit codes, report formats, determinism, replay."""

import gc
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from relmonad import cli, textio
from relmonad.checker import LAW_ORDER
from relmonad.gen import gen_category, gen_functor, gen_presheaf


def run(argv, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


# -- verify ------------------------------------------------------------------------


def test_verify_pass_exit_zero(capsys):
    rc, out, _ = run(["verify", "--laws", "counting", "--seed", "3"], capsys)
    assert rc == 0
    assert "summary: 10 pass, 0 fail" in out


def test_verify_machine_format_deterministic(capsys):
    argv = ["verify", "--laws", "kan,counting", "--seed", "42", "--format", "machine"]
    rc1, out1, _ = run(argv, capsys)
    rc2, out2, _ = run(argv, capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0] == "relmonad-report 1"
    assert lines[1].startswith("config seed 42 instances 0 max-objects 3")
    assert lines[2].startswith("instance extension-universal 0 ok checked ")
    assert lines[-1] == "summary pass 20 fail 0"
    # field order is frozen: every instance line has the same shape
    for line in lines[2:-1]:
        parts = line.split()
        assert parts[0] == "instance"
        assert parts[3] in ("ok", "FAIL")
        assert parts[4] == "checked" and parts[6] == "policy" and parts[8] == "seed"


def test_verify_unknown_law_exits_two(capsys):
    rc, _, err = run(["verify", "--laws", "nosuch"], capsys)
    assert rc == 2
    assert "unknown law or group" in err


def test_verify_negative_instances_exits_two(capsys):
    rc, out, err = run(["verify", "--instances", "-3"], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("relmonad: --instances")


@pytest.mark.parametrize("flag, value, law", [
    ("--max-objects", "0", "yoneda-count"),
    ("--max-edges", "-1", "extension-unit"),
    ("--max-values", "0", "extension-unit"),
])
def test_verify_bad_generator_cap_exits_two(flag, value, law, capsys):
    rc, out, err = run(["verify", flag, value, "--laws", law, "--instances", "2",
                        "--format", "machine"], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"relmonad: {flag} must be ")


@pytest.mark.parametrize("budget", ["abc", "-1"])
def test_bad_budget_exits_two(budget, capsys, monkeypatch):
    monkeypatch.setenv("RELMONAD_BUDGET", budget)
    rc, out, err = run(["verify", "--laws", "yoneda-count", "--instances", "1"], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("relmonad: RELMONAD_BUDGET must be a positive integer")


def test_seed_7_kan_run_reports_every_instance(capsys, monkeypatch):
    # extension-universal has no budget of its own, so no instance of the
    # kan group is skipped and every one of the 60 verdicts arrives
    argv = ["verify", "--seed", "7", "--laws", "kan", "--instances", "60",
            "--format", "machine"]
    rc, out, err = run(argv, capsys)
    assert (rc, err) == (0, "")
    assert sum(1 for l in out.splitlines() if l.startswith("instance ")) == 60
    # a colimit over RELMONAD_BUDGET is still the environment's limit
    monkeypatch.setenv("RELMONAD_BUDGET", "1")
    rc, out, err = run(argv, capsys)
    assert rc == 2 and out == ""
    assert err.startswith("relmonad: resource budget exceeded: ")


def test_verify_inject_fails_with_witness(capsys, tmp_path):
    rc, out, _ = run(
        ["verify", "--laws", "interchange-oracle", "--inject", "gamma-identity",
         "--seed", "1", "--format", "machine", "--replay-dir", str(tmp_path)],
        capsys,
    )
    assert rc == 1
    assert any(l.startswith("witness interchange-oracle") for l in out.splitlines())
    stored = sorted(tmp_path.glob("*.replay"))
    assert stored
    # a stored failure replays to the same verdict and witness
    rc2, out2, _ = run(["replay", str(stored[0]), "--format", "machine"], capsys)
    assert rc2 == 1
    fail_lines = [l for l in out.splitlines() if " FAIL " in l]
    assert out2.splitlines()[0] in fail_lines


def test_verify_out_file(capsys, tmp_path):
    dest = tmp_path / "report.txt"
    rc, out, _ = run(
        ["verify", "--laws", "counting", "--seed", "0", "--out", str(dest)], capsys
    )
    assert rc == 0 and out == ""
    assert "summary: 10 pass, 0 fail" in dest.read_text()


@pytest.mark.parametrize("argv", [
    ["verify", "--laws", "yoneda-count", "--instances", "1", "--out", "{missing}"],
    ["verify", "--laws", "yoneda-count", "--instances", "1", "--replay-dir", "{file}"],
    ["explain", "--out", "{missing}"],
    ["replay", "{replay}", "--out", "{missing}"],
], ids=["verify-out", "verify-replay-dir", "explain-out", "replay-out"])
def test_failed_write_exits_two(argv, capsys, tmp_path, monkeypatch):
    from relmonad.checker import CheckConfig

    def no_run(*args):
        raise AssertionError("a law ran before the destinations were checked")

    monkeypatch.setattr(cli, "run_suite", no_run)
    monkeypatch.setattr(cli, "run_single", no_run)
    existing = tmp_path / "a-file"
    existing.write_text("")
    replay = tmp_path / "one.replay"
    replay.write_text(textio.write_replay("yoneda-count", 0, CheckConfig(seed=1)))
    paths = {"missing": str(tmp_path / "no-dir" / "out.txt"), "file": str(existing),
             "replay": str(replay)}
    rc, out, err = run([a.format(**paths) for a in argv], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("relmonad: ")
    assert "Traceback" not in err


def test_verify_group_selection_order(capsys):
    rc, out, _ = run(
        ["verify", "--laws", "strength", "--seed", "5", "--format", "machine",
         "--instances", "2"],
        capsys,
    )
    assert rc == 0
    seen = []
    for line in out.splitlines():
        if line.startswith("instance "):
            law = line.split()[1]
            if law not in seen:
                seen.append(law)
    assert seen == [l for l in LAW_ORDER if l in seen]
    assert "strength-unit-triangles" in seen


# -- replay ------------------------------------------------------------------------


def test_replay_passing_instance(capsys, tmp_path):
    from relmonad.checker import CheckConfig

    f = tmp_path / "one.replay"
    f.write_text(textio.write_replay("yoneda-count", 2, CheckConfig(seed=9)))
    rc, out, _ = run(["replay", str(f)], capsys)
    assert rc == 0
    assert out.startswith("yoneda-count[2] seed ")


def test_replay_truncated_file(capsys, tmp_path):
    f = tmp_path / "bad.replay"
    f.write_text("relmonad-replay 1\nlaw yoneda-count\n")
    rc, _, err = run(["replay", str(f)], capsys)
    assert rc == 2
    assert "parse error" in err


def test_replay_version_skew(capsys, tmp_path):
    f = tmp_path / "skew.replay"
    f.write_text("relmonad-replay 2\nlaw yoneda-count\nindex 0\nseed 1\n")
    rc, _, err = run(["replay", str(f)], capsys)
    assert rc == 2


def test_replay_unknown_injector_exits_two(capsys, tmp_path):
    f = tmp_path / "bogus.replay"
    f.write_text("relmonad-replay 1\nlaw yoneda-count\nindex 0\nseed 1\ninject bogus\n")
    rc, out, err = run(["replay", str(f)], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("relmonad: parse error: unknown injector")


def test_replay_missing_file_exits_two(capsys, tmp_path):
    rc, out, err = run(["replay", str(tmp_path / "nope.replay")], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("relmonad: ")


def test_replay_non_utf8_file_is_a_parse_error(capsys, tmp_path):
    f = tmp_path / "latin1.replay"
    f.write_bytes("relmonad-replay 1\nlaw caf\u00e9\n".encode("latin-1"))
    rc, out, err = run(["replay", str(f)], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("relmonad: parse error: ") and str(f) in err


# -- compute -----------------------------------------------------------------------


@pytest.fixture
def compute_files(tmp_path):
    rng = random.Random(4)
    a, b = gen_category(rng, 3, 3), gen_category(rng, 3, 3)
    cod = gen_category(rng, 3, 3)
    F = gen_functor(rng, (a, b), cod)
    fpath = tmp_path / "pair.functor"
    fpath.write_text(textio.write_functor(F))
    p0 = tmp_path / "p0.psh"
    p0.write_text(textio.write_presheaf(gen_presheaf(rng, a)))
    p1 = tmp_path / "p1.psh"
    p1.write_text(textio.write_presheaf(gen_presheaf(rng, b)))
    return fpath, p0, p1


def test_compute_apply_t(capsys, compute_files):
    fpath, p0, p1 = compute_files
    rc, out, _ = run(["compute", "apply-t", str(fpath), str(p0), str(p1)], capsys)
    assert rc == 0
    assert out.splitlines()[0].startswith("presheaf on ")
    assert any(l.startswith("object 0: ") for l in out.splitlines())


def test_compute_arity_mismatch(capsys, compute_files):
    fpath, p0, _ = compute_files
    rc, _, err = run(["compute", "apply-t", str(fpath), str(p0)], capsys)
    assert rc == 2
    assert "arity" in err


def test_compute_wrong_category(capsys, compute_files):
    fpath, p0, p1 = compute_files
    rc, _, err = run(["compute", "apply-t", str(fpath), str(p1), str(p0)], capsys)
    assert rc == 2


def test_compute_parse_error(capsys, tmp_path):
    bad = tmp_path / "trunc.functor"
    bad.write_text("obj 0\n")
    rc, _, err = run(["compute", "apply-t", str(bad)], capsys)
    assert rc == 2
    assert "parse error" in err


def test_compute_missing_file(capsys, tmp_path):
    rc, _, err = run(["compute", "apply-t", str(tmp_path / "nope.functor")], capsys)
    assert rc == 2


def test_compute_non_utf8_file_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "latin1.map"
    bad.write_bytes(b"\xff\xfe not text\n")
    rc, out, err = run(["compute", "strengthen", str(bad), str(bad)], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("relmonad: parse error: ") and str(bad) in err


# -- explain -----------------------------------------------------------------------


def test_explain_all_laws(capsys):
    rc, out, _ = run(["explain"], capsys)
    assert rc == 0
    for law in LAW_ORDER:
        assert law in out


def test_explain_group(capsys):
    rc, out, _ = run(["explain", "squares"], capsys)
    assert rc == 0
    assert "square-unit-compat" in out and "extension-associative" not in out


def _python(*argv):
    """A fresh interpreter that imports this checkout's relmonad."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=120)


def test_explain_survives_stripped_docstrings():
    # python -OO strips docstrings; explain must print the same text without them
    def explain(*flags):
        proc = _python(*flags, "-m", "relmonad.cli", "explain")
        assert proc.returncode == 0, proc.stderr[-2000:]
        return proc.stdout

    plain = explain()
    assert all(law in plain for law in LAW_ORDER)
    assert explain("-OO") == plain


def test_verify_loads_only_what_it_runs():
    # every verify process pays at start-up for what it imports: dataclasses
    # pulls in inspect, and textio and textwrap serve only the other commands
    proc = _python("-c", "\n".join([
        "import sys",
        "from relmonad import cli",
        "rc = cli.main(['verify', '--laws', 'extension-unit', '--instances', '1',"
        " '--format', 'machine'])",
        "unused = ('dataclasses', 'inspect', 'relmonad.textio', 'textwrap')",
        "print(rc, [m for m in unused if m in sys.modules])",
    ]))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_explain_unknown(capsys):
    rc, _, err = run(["explain", "wat"], capsys)
    assert rc == 2


def test_a_later_main_call_leaves_no_cyclic_garbage(capsys):
    # the parser is built once per process: a fresh argparse parser would
    # be cyclic garbage after every call
    enabled = gc.isenabled()
    gc.disable()
    try:
        run(["explain"], capsys)
        gc.collect()
        for argv in (["explain"], ["verify", "--laws", "yoneda-count", "--format", "machine"]):
            rc, _, _ = run(argv, capsys)
            assert rc == 0 and gc.collect() == 0, argv
    finally:
        if enabled:
            gc.enable()


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as e:
        cli.main(["verify", "--policy", "magic"])
    assert e.value.code == 2
