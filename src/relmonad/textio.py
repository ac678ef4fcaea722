"""Line-oriented text formats for categories, presheaves, maps, and replays.

One artifact per file, UTF-8, `#` starts a comment.  A category is `obj`,
`mor`, `id`, and `comp` lines; a presheaf appends `at` and `act` lines to
its base category; a multi-slot map groups its categories under `slotcat
<j>` / `codcat` headers and uses tuple-indexed `at (<y>; <b1>,...)` lines.
Functor files reuse the category blocks and add `on` / `send` lines.

Labels are written quoted so generated names (which contain commas and
parens) survive a round trip; bare labels without separators are accepted
when reading.  Identity actions and identity compositions may be omitted:
readers fill them in.  Readers parse: they refuse, at the offending line,
syntax, duplicates and what they cannot build a table from.  Validators
judge: every reader hands its finished artifact to the validator of its
kind, which names the first violated law, totality and typing included.
Either way the reader raises FormatError, so a parsed artifact is usable
as-is.
"""

import itertools
import re

from .checker import CheckConfig, LAW_FAMILIES
from .errors import FormatError
from .fincat import FinCategory, FunctorTable, validate_category, validate_functor
from .multimap import TableMap, validate_multimap
from .presheaf import Presheaf, validate_presheaf

__all__ = [
    "read_category",
    "write_category",
    "read_presheaf",
    "write_presheaf",
    "read_functor",
    "write_functor",
    "read_multimap",
    "write_multimap",
    "read_replay",
    "write_replay",
]

REPLAY_HEADER = "relmonad-replay 1"

_BARE = re.compile(r"[^\s,{}()\"#;:<>]+")


def _fail(lineno, msg):
    raise FormatError(f"line {lineno}: {msg}")


def _lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _int(tok, lineno, what):
    try:
        return int(tok)
    except ValueError:
        _fail(lineno, f"{what} must be an integer, got {tok!r}")


def _ints(body, lineno, what):
    return tuple(_int(t.strip(), lineno, what) for t in body.split(",") if t.strip())


def _put(table, key, value, lineno, what):
    """Each key may be given by one line only."""
    if key in table:
        _fail(lineno, f"duplicate {what}")
    table[key] = value


def _checked(artifact, validate, lineno, kind):
    bad = validate(artifact)
    if bad:
        _fail(lineno, f"{kind} law broken: {bad[0]}: {bad[1]}")
    return artifact


def _text(lines):
    return "\n".join(lines) + "\n"


# -- label scanning -------------------------------------------------------------

def _scan_label(s, pos, lineno):
    if pos < len(s) and s[pos] == '"':
        end = s.find('"', pos + 1)
        if end < 0:
            _fail(lineno, "unterminated quoted label")
        return s[pos + 1 : end], end + 1
    m = _BARE.match(s, pos)
    if not m:
        _fail(lineno, f"expected a label at column {pos + 1}")
    return m.group(0), m.end()


def _scan_labels_braced(s, lineno):
    s = s.strip()
    if not (s.startswith("{") and s.endswith("}")):
        _fail(lineno, "expected {...}")
    body = s[1:-1]
    labels = []
    pos = 0
    n = len(body)
    while True:
        while pos < n and body[pos] in " \t":
            pos += 1
        if pos >= n:
            break
        lab, pos = _scan_label(body, pos, lineno)
        labels.append(lab)
        while pos < n and body[pos] in " \t":
            pos += 1
        if pos < n:
            if body[pos] != ",":
                _fail(lineno, "labels must be comma-separated")
            pos += 1
    return labels


def _scan_arrow_pair(s, lineno):
    s = s.strip()
    a, pos = _scan_label(s, 0, lineno)
    rest = s[pos:].lstrip()
    if not rest.startswith("->"):
        _fail(lineno, "expected '->' between labels")
    b, pos = _scan_label(rest[2:].lstrip(), 0, lineno)
    if rest[2:].lstrip()[pos:].strip():
        _fail(lineno, "trailing text after labels")
    return a, b


# every character str.splitlines breaks at, the quote, and '#', which the
# comment stripper would eat before quotes are seen
_UNWRITABLE = '\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"#'


def _quote(label):
    if any(ch in _UNWRITABLE for ch in label):
        raise FormatError(f"label {label!r} cannot be written")
    return f'"{label}"'


def _braced(labels):
    return "{" + ", ".join(_quote(lab) for lab in labels) + "}"


def _parse_tuple(s, lineno, what):
    s = s.strip()
    if not (s.startswith("(") and s.endswith(")")):
        _fail(lineno, f"{what} must be parenthesized")
    return _ints(s[1:-1], lineno, what)


def _tuple_str(ids):
    return "(" + ", ".join(str(i) for i in ids) + ")"


def _indexed(key):
    """'(<y>; <b1>, ...)' for a map's fiber or row key (b1, ..., y)."""
    return f"({key[-1]}; {', '.join(str(b) for b in key[:-1])})"


# -- action rows -------------------------------------------------------------------

def _fill_row(given, labels, index, is_id, lineno, what, side="target"):
    """One action row from its `a -> b` lines, given as {a: b}: for each
    label of `labels`, the position in `index` of the label it is sent to.

    A row that acts by an identity may leave lines out.  `side` names the
    fiber `labels` lies in, for the message about an a outside it.
    """
    row = []
    for lab in labels:
        if lab in given:
            out = given[lab]
            if out not in index:
                _fail(lineno, f"{what} sends {lab!r} to unknown label {out!r}")
            row.append(index[out])
        elif is_id:
            row.append(index[lab])
        else:
            _fail(lineno, f"missing {what} at {lab!r}")
    extra = sorted(given.keys() - set(labels))
    if extra:
        _fail(lineno, f"{what} names {extra[0]!r}, which is not in the {side} fiber")
    return tuple(row)


def _fiber_index(labels, lineno, where):
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        _fail(lineno, f"duplicate label at {where}")
    return index


def _act_lines(head, labels, dst_labels, row):
    return [f"{head} : {_quote(a)} -> {_quote(dst_labels[i])}" for a, i in zip(labels, row)]


# -- categories -----------------------------------------------------------------

_CAT_LINES = {  # key -> (pattern, usage)
    "obj": (r"(\S+)", "obj <id>"),
    "mor": (r"(\S+)\s*:\s*(\S+)\s*->\s*(\S+)", "mor <id> : <src> -> <tgt>"),
    "id": (r"(\S+)\s*=\s*(\S+)", "id <obj> = <mor>"),
    "comp": (r"(\S+)\s+(\S+)\s*=\s*(\S+)", "comp <g> <f> = <gf>"),
}


class _CatDraft:
    def __init__(self):
        self.objs = {}  # obj -> None, a dict so _put can guard it
        self.mors = {}  # id -> (src, tgt)
        self.ids = {}  # obj -> mor
        self.comp = {}  # (g, f) -> gf


def _cat_line(draft, lineno, key, rest):
    pattern, usage = _CAT_LINES[key]
    m = re.fullmatch(pattern, rest)
    if not m:
        _fail(lineno, f"expected '{usage}'")
    a, *more = (_int(t, lineno, f"each number of a {key} line") for t in m.groups())
    if key == "obj":
        _put(draft.objs, a, None, lineno, f"object {a}")
    elif key == "mor":
        _put(draft.mors, a, tuple(more), lineno, f"morphism {a}")
    elif key == "id":
        _put(draft.ids, a, more[0], lineno, f"identity for object {a}")
    else:
        _put(draft.comp, (a, more[0]), more[1], lineno, f"composition ({a}, {more[0]})")


def _finish_category(draft, lineno, name):
    """The category a finished section gives; validate_category judges it."""
    n, mm = len(draft.objs), len(draft.mors)
    if sorted(draft.objs) != list(range(n)):
        _fail(lineno, "object ids must be 0..n-1")
    if sorted(draft.mors) != list(range(mm)):
        _fail(lineno, "morphism ids must be 0..m-1")
    if sorted(draft.ids) != list(range(n)):
        _fail(lineno, "every object needs exactly one id line")
    # identity compositions may be left implicit; they are filled only from
    # id lines that name a known morphism, so validate_category reports an
    # unknown identity, or an endpoint outside the objects, as itself
    ids = {o: i for o, i in draft.ids.items() if i in draft.mors}
    comp = dict(draft.comp)
    for m, (a, b) in draft.mors.items():
        if b in ids:
            comp.setdefault((ids[b], m), m)
        if a in ids:
            comp.setdefault((m, ids[a]), m)
    ends = [draft.mors[m] for m in range(mm)]
    c = FinCategory(name, n, [a for a, _ in ends], [b for _, b in ends],
                    [draft.ids[o] for o in range(n)], comp)
    return _checked(c, validate_category, lineno, "category")


def _read_sections(text, payload_keys, headed, name=None):
    """A file's category sections and payload lines, read in one pass.

    A headed file (functor, map) opens each category with `slotcat <j>` or
    `codcat`; a headless one (category, presheaf) is one category, called
    `name`, whose lines precede the payload.  A section is finished, so
    validated, when a header, a payload line or the end of the file closes
    it.  Returns (the slot categories by index then the target, or the
    headless category; payload lines as (lineno, key, rest); the last line
    number).
    """
    sections, payload = {}, []
    head, label, draft = None, name, (None if headed else _CatDraft())
    lineno = 0

    def close():
        if draft is not None:
            sections[head] = _finish_category(draft, lineno, label)

    for lineno, line in _lines(text):
        key = line.split(None, 1)[0]
        if "[" in key and key.split("[", 1)[0] in payload_keys:
            key = key.split("[", 1)[0]  # 'act[0]' written without a space
        rest = line[len(key):].strip()
        if key in _CAT_LINES:
            if draft is None:
                _fail(lineno, "category line outside a slotcat/codcat block" if headed
                      else f"category lines must precede {'/'.join(payload_keys)} lines")
            _cat_line(draft, lineno, key, rest)
        elif headed and key in ("slotcat", "codcat"):
            close()
            if key == "codcat" and rest:
                _fail(lineno, "codcat takes no argument")
            head = _int(rest, lineno, "slot index") if key == "slotcat" else "target"
            if head in sections:
                _fail(lineno, f"duplicate {line}")
            label, draft = (f"slot {head}" if key == "slotcat" else head), _CatDraft()
        elif key in payload_keys:
            close()
            draft = None
            payload.append((lineno, key, rest))
        else:
            _fail(lineno, f"unknown line {key!r}")
    close()
    if not headed:
        return (sections[None],), payload, lineno
    if "target" not in sections:
        raise FormatError("missing codcat block")
    n = len(sections) - 1
    if sorted(h for h in sections if h != "target") != list(range(n)):
        raise FormatError("slotcat indices must be 0..n-1")
    return tuple(sections[h] for h in [*range(n), "target"]), payload, lineno


def _category_lines(c):
    out = [f"obj {o}" for o in c.objects]
    out += [f"mor {m} : {c.src(m)} -> {c.tgt(m)}" for m in c.morphisms]
    out += [f"id {o} = {c.id_of(o)}" for o in c.objects]
    for g in c.morphisms:
        for f in c.morphisms:
            if c.tgt(f) == c.src(g) and not (c.is_identity(g) or c.is_identity(f)):
                out.append(f"comp {g} {f} = {c.compose(g, f)}")
    return out


def _blocks_lines(slot_cats, cod):
    out = []
    for j, c in enumerate(slot_cats):
        out += [f"slotcat {j}", *_category_lines(c)]
    return out + ["codcat", *_category_lines(cod)]


def read_category(text, name="cat"):
    (c,), _, _ = _read_sections(text, (), False, name)
    if not c.n_objects:
        raise FormatError("empty category file")
    return c


def write_category(c):
    return _text(_category_lines(c))


# -- presheaves -------------------------------------------------------------------

def read_presheaf(text, name="parsed"):
    (base,), payload, last = _read_sections(text, ("at", "act"), False, name)
    if not payload:
        raise FormatError("presheaf file has no at lines")
    at, act = {}, {}
    for lineno, key, rest in payload:
        if key == "at":
            m = re.fullmatch(r"(\S+)\s*=\s*(\{.*\})", rest)
            if not m:
                _fail(lineno, "expected 'at <obj> = {...}'")
            o = _int(m.group(1), lineno, "object id")
            _put(at, o, _scan_labels_braced(m.group(2), lineno), lineno, f"at line for object {o}")
        else:
            m = re.fullmatch(r"(\S+)\s*:\s*(.+)", rest)
            if not m:
                _fail(lineno, "expected 'act <mor> : <label> -> <label>'")
            mor = _int(m.group(1), lineno, "morphism id")
            a, b = _scan_arrow_pair(m.group(2), lineno)
            _put(act.setdefault(mor, {}), a, b, lineno, f"act line for morphism {mor} at {a!r}")
    if sorted(at) != list(base.objects):
        _fail(last, "every object needs exactly one at line")
    index = [_fiber_index(at[o], last, f"object {o}") for o in base.objects]
    rows = [
        _fill_row(act.pop(m, {}), at[base.tgt(m)], index[base.src(m)],
                  base.is_identity(m), last, f"act line for morphism {m}")
        for m in base.morphisms
    ]
    if act:
        _fail(last, f"act line for unknown morphism {min(act)}")
    p = Presheaf(base, [at[o] for o in base.objects], rows)
    return _checked(p, validate_presheaf, last, "presheaf")


def write_presheaf(p):
    c = p.base
    out = _category_lines(c) + [f"at {o} = {_braced(p.at[o])}" for o in c.objects]
    for m in c.morphisms:
        if not c.is_identity(m):
            out += _act_lines(f"act {m}", p.at[c.tgt(m)], p.at[c.src(m)], p.act[m])
    return _text(out)


# -- functors ---------------------------------------------------------------------

def read_functor(text, name="parsed"):
    cats, payload, last = _read_sections(text, ("on", "send"), True)
    slot_cats, cod = cats[:-1], cats[-1]
    kinds = {"on": "object", "send": "morphism"}
    tables = {"on": {}, "send": {}}
    for lineno, key, rest in payload:
        m = re.fullmatch(r"(\(.*?\))\s*=\s*(\S+)", rest)
        if not m:
            _fail(lineno, f"expected '{key} (<ids>) = <id>'")
        args = _parse_tuple(m.group(1), lineno, f"{key} tuple")
        if len(args) != len(slot_cats):
            _fail(lineno, f"{key} tuple has arity {len(args)}, expected {len(slot_cats)}")
        for j, (c, a) in enumerate(zip(slot_cats, args)):
            if a not in (c.objects if key == "on" else c.morphisms):
                _fail(lineno, f"{key} {_tuple_str(args)} names an unknown {kinds[key]} of slot {j}")
        _put(tables[key], args, _int(m.group(2), lineno, "image id"), lineno,
             f"{key} line for {args}")
    F = FunctorTable(slot_cats, cod, tables["on"], tables["send"], name)
    return _checked(F, validate_functor, last, "functor")


def write_functor(F):
    out = _blocks_lines(F.slots, F.dst)
    out += [f"on {_tuple_str(t)} = {F.obj_map[t]}" for t in sorted(F.obj_map)]
    out += [f"send {_tuple_str(t)} = {F.mor_map[t]}" for t in sorted(F.mor_map)]
    return _text(out)


# -- multi-slot maps ----------------------------------------------------------------

def _parse_indexed(rest, lineno, tail_sep, what):
    """'(<y>; <b1>,...) <tail_sep> <tail>' -> ((b1, ..., y), tail)."""
    m = re.fullmatch(r"\(\s*(\S+)\s*;(.*?)\)\s*" + tail_sep + r"\s*(.+)", rest)
    if not m:
        _fail(lineno, f"expected '{what} (<y>; <b1>,...) {tail_sep} ...'")
    y = _int(m.group(1), lineno, "codomain id")
    return _ints(m.group(2), lineno, "slot id") + (y,), m.group(3)


def _grid(cats):
    return itertools.product(*(c.objects for c in cats))


def _map_rows(cats, cod):
    """Every action row of an all-fin map, target actions first.

    Yields (line head, side, entry key, row index, source fiber, target
    fiber, whether the row acts by an identity).  The row is entry key's
    row index in cod_act for side "target", in slot_act for "source", and
    an entry's rows come in index order; a fiber (args, y) is sets[args][y].
    """
    for args in _grid(cats):
        for u in cod.morphisms:
            yield (f"act {_indexed(args + (u,))}", "target", args, u,
                   (args, cod.tgt(u)), (args, cod.src(u)), cod.is_identity(u))
    for j, c in enumerate(cats):
        others = [s.objects for s in cats]
        others[j] = c.morphisms
        for marked in itertools.product(*others):
            m = marked[j]
            src = marked[:j] + (c.src(m),) + marked[j + 1 :]
            dst = marked[:j] + (c.tgt(m),) + marked[j + 1 :]
            for y in cod.objects:
                yield (f"act[{j}] {_indexed(marked + (y,))}", "source", (j,) + marked, y,
                       (src, y), (dst, y), c.is_identity(m))


def read_multimap(text, name="parsed"):
    cats, payload, last = _read_sections(text, ("at", "act"), True)
    slot_cats, cod = cats[:-1], cats[-1]
    n = len(slot_cats)
    at, pairs = {}, {}  # fiber key -> labels; line head -> {a: b}
    for lineno, kind, rest in payload:
        if kind == "act" and rest.startswith("["):
            m = re.fullmatch(r"\[(\S+)\]\s*(.*)", rest)
            if not m:
                _fail(lineno, "expected 'act[<j>] (<y>; ...) : ...'")
            j = _int(m.group(1), lineno, "slot index")
            if not 0 <= j < n:
                _fail(lineno, f"act[{j}] line names slot {j} of a {n}-slot map")
            kind, rest = f"act[{j}]", m.group(2)
        key, tail = _parse_indexed(rest, lineno, "=" if kind == "at" else ":", kind)
        if len(key) != n + 1:
            _fail(lineno, f"{kind} tuple has arity {len(key) - 1}, expected {n}")
        head = f"{kind} {_indexed(key)}"
        if kind == "at":
            _put(at, key, _scan_labels_braced(tail, lineno), lineno, f"{head} line")
        else:
            a, b = _scan_arrow_pair(tail, lineno)
            _put(pairs.setdefault(head, {}), a, b, lineno, f"{head} line at {a!r}")
    sets, index = {}, {}
    for args in _grid(slot_cats):
        fibers = []
        for y in cod.objects:
            key = args + (y,)
            if key not in at:
                _fail(last, f"missing at line for {_indexed(key)}")
            fibers.append(tuple(at.pop(key)))
            index[args, y] = _fiber_index(fibers[-1], last, _indexed(key))
        sets[args] = tuple(fibers)
    if at:
        _fail(last, f"at line for unknown tuple {_indexed(next(iter(at)))}")
    rows = {"target": {}, "source": {}}
    for head, side, key, _, (sa, sy), dst, is_id in _map_rows(slot_cats, cod):
        rows[side].setdefault(key, []).append(_fill_row(
            pairs.pop(head, {}), sets[sa][sy], index[dst], is_id, last, f"{head} line", side))
    if pairs:
        _fail(last, f"{next(iter(pairs))} line names an unknown tuple")
    cod_act, slot_act = ({key: tuple(r) for key, r in rows[side].items()}
                         for side in ("target", "source"))
    m = TableMap(slot_cats, cod, sets, cod_act, slot_act, name=name)
    return _checked(m, validate_multimap, last, "map")


def write_multimap(m):
    if any(s.kind != "fin" for s in m.slots):
        raise FormatError("only all-fin maps can be written")
    cats = [s.cat for s in m.slots]
    out = _blocks_lines(cats, m.cod)
    out += [f"at {_indexed(args + (y,))} = {_braced(m.sets[args][y])}"
            for args in _grid(cats) for y in m.cod.objects]
    for head, side, key, i, (sa, sy), (da, dy), is_id in _map_rows(cats, m.cod):
        if not is_id:
            row = (m.cod_act if side == "target" else m.slot_act)[key][i]
            out += _act_lines(head, m.sets[sa][sy], m.sets[da][dy], row)
    return _text(out)


# -- replay files -------------------------------------------------------------------

_REPLAY_KEYS = {
    "law": str,
    "index": int,
    "seed": int,
    "max-objects": int,
    "max-edges": int,
    "max-values": int,
    "policy": str,
    "inject": str,
}


def read_replay(text):
    """-> (law, index, CheckConfig) from a stored instance record."""
    lines = list(_lines(text))
    if not lines or lines[0][1] != REPLAY_HEADER:
        raise FormatError(f"replay file must start with {REPLAY_HEADER!r}")
    seen = {}
    for lineno, line in lines[1:]:
        parts = line.split(None, 1)
        if len(parts) != 2 or parts[0] not in _REPLAY_KEYS:
            _fail(lineno, f"unknown replay line {line!r}")
        key, raw = parts
        value = _int(raw.strip(), lineno, key) if _REPLAY_KEYS[key] is int else raw.strip()
        _put(seen, key, value, lineno, f"{key} line")
    for req in ("law", "index", "seed"):
        if req not in seen:
            raise FormatError(f"replay file is missing a {req} line")
    law, index = seen.pop("law"), seen.pop("index")
    if law not in LAW_FAMILIES:
        raise FormatError(f"unknown law {law!r}")
    try:
        cfg = CheckConfig(**{key.replace("-", "_"): v for key, v in seen.items()})
    except ValueError as e:
        raise FormatError(str(e)) from None
    return law, index, cfg


def write_replay(law, index, cfg):
    out = [
        REPLAY_HEADER,
        f"law {law}",
        f"index {index}",
        f"seed {cfg.seed}",
        f"max-objects {cfg.max_objects}",
        f"max-edges {cfg.max_edges}",
        f"max-values {cfg.max_values}",
        f"policy {cfg.policy}",
    ]
    if cfg.inject:
        out.append(f"inject {cfg.inject}")
    return _text(out)
