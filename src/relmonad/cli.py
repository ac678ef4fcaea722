"""Command line front end.

Four subcommands: `verify` runs the coherence suite and reports, `compute`
evaluates a map read from text files, `replay` re-runs stored instances,
and `explain` prints what each law compares.

Exit codes are a stable contract: 0 all pass, 1 at least one law failed,
2 usage, parse, or resource-budget trouble.  The machine report format is
line-oriented with a fixed field order and a version header, and carries
no timing, so two runs at the same seed are byte-identical.
"""

import argparse
import functools
import os
import sys
import textwrap

from . import textio
from .checker import (
    CheckConfig,
    INJECTORS,
    LAW_FAMILIES,
    LAW_GROUPS,
    expand_laws,
    run_single,
    run_suite,
)
from .errors import BudgetExceededError, FormatError
from .kan import strengthen
from .monad import apply_functor
from .presheaf import element_budget

REPORT_HEADER = "relmonad-report 1"


class UsageError(Exception):
    pass


# -- report rendering ------------------------------------------------------------

def _machine_lines(o):
    """The instance line, plus a witness line for a failure that has one."""
    status = "ok" if o.ok else "FAIL"
    lines = [f"instance {o.law} {o.index} {status} checked {o.checked} policy {o.policy} seed {o.seed}"]
    if not o.ok and o.witness:
        lines.append(f"witness {o.law} {o.index} {o.witness}")
    return lines


def render_machine(report):
    cfg = report.config
    lines = [
        REPORT_HEADER,
        "config"
        f" seed {cfg.seed}"
        f" instances {cfg.instances}"
        f" max-objects {cfg.max_objects}"
        f" max-edges {cfg.max_edges}"
        f" max-values {cfg.max_values}"
        f" policy {cfg.policy}"
        f" inject {cfg.inject or '-'}",
    ]
    for o in report.outcomes:
        lines += _machine_lines(o)
    passed = sum(1 for o in report.outcomes if o.ok)
    lines.append(f"summary pass {passed} fail {len(report.outcomes) - passed}")
    return "\n".join(lines) + "\n"


def render_text(report):
    cfg = report.config
    lines = [
        f"coherence check: seed {cfg.seed}, policy {cfg.policy}"
        + (f", inject {cfg.inject}" if cfg.inject else "")
    ]
    for s in report.summaries():
        mark = "ok  " if s.failed == 0 else "FAIL"
        lines.append(f"  {mark} {s.law:<24} {s.passed}/{s.instances}")
    for o in report.outcomes:
        if not o.ok:
            lines.append(f"  witness {o.law}[{o.index}] seed {o.seed}: {o.witness}")
    passed = sum(1 for o in report.outcomes if o.ok)
    failed = len(report.outcomes) - passed
    lines.append(f"summary: {passed} pass, {failed} fail")
    return "\n".join(lines) + "\n"


def _write_file(path, text, mode="w"):
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError(str(e)) from None


def _emit(text, out):
    if out:
        _write_file(out, text)
    else:
        sys.stdout.write(text)


# -- subcommands -------------------------------------------------------------------

def _expand_laws(names):
    try:
        return expand_laws(names)
    except KeyError as e:
        raise UsageError(f"unknown law or group {e.args[0]!r}") from None


def _split_laws(raw):
    names = tuple(t.strip() for t in raw.split(",") if t.strip())
    _expand_laws(names)
    return names


def cmd_verify(args):
    try:
        cfg = CheckConfig(
            seed=args.seed,
            instances=args.instances,
            max_objects=args.max_objects,
            max_edges=args.max_edges,
            max_values=args.max_values,
            laws=_split_laws(args.laws),
            policy=args.policy,
            inject=args.inject,
        )
    except ValueError as e:
        raise UsageError(f"--{e}") from None
    if args.replay_dir:
        try:
            os.makedirs(args.replay_dir, exist_ok=True)
        except OSError as e:
            raise UsageError(str(e)) from None
    report = run_suite(cfg)
    render = render_machine if args.format == "machine" else render_text
    _emit(render(report), args.out)
    if args.replay_dir:
        for o in report.outcomes:
            if not o.ok:
                path = os.path.join(args.replay_dir, f"{o.law}-{o.index}.replay")
                _write_file(path, textio.write_replay(o.law, o.index, cfg))
    return 0 if report.ok else 1


def cmd_replay(args):
    outcomes = []
    for path in args.files:
        law, index, cfg = _read_file(path, lambda text, name: textio.read_replay(text))
        outcomes.append(run_single(law, index, cfg))
    lines = []
    for o in outcomes:
        if args.format == "machine":
            lines += _machine_lines(o)
        else:
            status = "ok" if o.ok else f"FAIL: {o.witness}"
            lines.append(f"{o.law}[{o.index}] seed {o.seed}: {status}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(o.ok for o in outcomes) else 1


def _read_file(path, reader):
    try:
        with open(path, encoding="utf-8") as fh:
            return reader(fh.read(), name=os.path.basename(path))
    except OSError as e:
        raise UsageError(str(e)) from None
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def _print_presheaf(p):
    lines = [f"presheaf on {p.base.name!r} ({p.base.n_objects} objects)"]
    for x in p.base.objects:
        lines.append(f"object {x}: {len(p.at[x])} elements")
    lines.append("actions (element index at target -> index at source):")
    for m in p.base.morphisms:
        if p.base.is_identity(m):
            continue
        row = " ".join(f"{i}->{j}" for i, j in enumerate(p.act[m]))
        lines.append(f"act {m} : {row if row else '(empty)'}")
    return "\n".join(lines) + "\n"


def cmd_compute(args):
    if args.op == "apply-t":
        if not args.paths:
            raise UsageError("apply-t needs a functor file and one presheaf per slot")
        F = _read_file(args.paths[0], textio.read_functor)
        rest = args.paths[1:]
        if len(rest) != F.arity:
            raise UsageError(f"functor has arity {F.arity}, got {len(rest)} presheaf files")
        ps = []
        for j, path in enumerate(rest):
            p = _read_file(path, textio.read_presheaf)
            if p.base.content_key() != F.slots[j].content_key():
                raise UsageError(f"presheaf {j} is not over slot {j}'s category")
            ps.append(p)
        value = apply_functor(F).evaluate(tuple(ps))
    else:  # strengthen
        if len(args.paths) < 2:
            raise UsageError("strengthen needs a map file and a presheaf file")
        m = _read_file(args.paths[0], textio.read_multimap)
        k = args.slot
        if not (0 <= k < m.arity):
            raise UsageError(f"slot {k} out of range for arity {m.arity}")
        p = _read_file(args.paths[1], textio.read_presheaf)
        if p.base.content_key() != m.slots[k].cat.content_key():
            raise UsageError(f"presheaf is not over slot {k}'s category")
        fills = list(args.paths[2:])
        if len(fills) != m.arity - 1:
            raise UsageError(f"need {m.arity - 1} object ids for the remaining slots")
        slot_args = []
        for j in range(m.arity):
            if j == k:
                slot_args.append(p)
                continue
            raw = fills.pop(0)
            try:
                b = int(raw)
            except ValueError:
                raise UsageError(f"slot {j} wants an object id, got {raw!r}") from None
            if not (0 <= b < m.slots[j].cat.n_objects):
                raise UsageError(f"object {b} out of range in slot {j}")
            slot_args.append(b)
        value = strengthen(m, k).evaluate(tuple(slot_args))
    _emit(_print_presheaf(value), args.out)
    return 0


def cmd_explain(args):
    laws = _expand_laws(tuple(args.laws))
    lines = []
    for law in laws:
        instances, group, description = LAW_FAMILIES[law][1:]
        lines.append(f"{law}  [{group}, default instances {instances}]")
        lines.append(textwrap.fill(description, width=78, initial_indent="  ", subsequent_indent="  "))
        lines.append("")
    _emit("\n".join(lines), args.out)
    return 0


# -- argument wiring ----------------------------------------------------------------

@functools.cache
def build_parser():
    """The argument parser, built once per process: argparse's parsers and
    formatters point at each other, so each fresh build would be cyclic
    garbage after every main call."""
    p = argparse.ArgumentParser(
        prog="relmonad",
        description="finite checker for the presheaf extension operation and its laws",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run coherence laws and report")
    v.add_argument("--seed", type=int, default=CheckConfig.seed)
    v.add_argument("--instances", type=int, default=CheckConfig.instances, metavar="N",
                   help="instances per law (0 keeps each law's default)")
    v.add_argument("--max-objects", type=int, default=CheckConfig.max_objects)
    v.add_argument("--max-edges", type=int, default=CheckConfig.max_edges)
    v.add_argument("--max-values", type=int, default=CheckConfig.max_values,
                   help="cap on generated fiber sizes")
    v.add_argument("--laws", default="", metavar="NAMES",
                   help="comma-separated law or group names (default: all); "
                        "groups: " + ", ".join(LAW_GROUPS))
    v.add_argument("--policy", choices=CheckConfig.policies, default=CheckConfig.policy)
    v.add_argument("--inject", choices=("",) + tuple(INJECTORS), default=CheckConfig.inject,
                   metavar="DEFECT", help="enable one defect injector: " + ", ".join(INJECTORS))
    v.add_argument("--format", choices=("text", "machine"), default="text")
    v.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")
    v.add_argument("--replay-dir", metavar="DIR",
                   help="write a replay file for every failing instance")
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("compute", help="evaluate a map read from text files")
    c.add_argument("op", choices=("apply-t", "strengthen"))
    c.add_argument("paths", nargs="+", metavar="PATH",
                   help="apply-t: FUNCTOR PSH...; strengthen: MAP PSH OBJ...")
    c.add_argument("--slot", type=int, default=0, help="which slot strengthen opens")
    c.add_argument("--out", metavar="FILE")
    c.set_defaults(fn=cmd_compute)

    r = sub.add_parser("replay", help="re-run stored instances")
    r.add_argument("files", nargs="+", metavar="FILE")
    r.add_argument("--format", choices=("text", "machine"), default="text")
    r.add_argument("--out", metavar="FILE")
    r.set_defaults(fn=cmd_replay)

    e = sub.add_parser("explain", help="describe what each law compares")
    e.add_argument("laws", nargs="*", metavar="LAW",
                   help="law or group names (default: every law)")
    e.add_argument("--out", metavar="FILE")
    e.set_defaults(fn=cmd_explain)
    return p


def _check_budget():
    """Every colimit reads RELMONAD_BUDGET; refuse a bad value before any runs."""
    try:
        element_budget()
    except ValueError as e:
        raise UsageError(str(e)) from None


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_budget()
        if args.out:
            # an unwritable destination exits 2 before any work runs, not
            # after the result is lost; appending nothing keeps what is there
            _write_file(args.out, "", "a")
        return args.fn(args)
    except UsageError as e:
        print(f"relmonad: {e}", file=sys.stderr)
        return 2
    except FormatError as e:
        print(f"relmonad: parse error: {e}", file=sys.stderr)
        return 2
    except BudgetExceededError as e:
        print(f"relmonad: resource budget exceeded: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
