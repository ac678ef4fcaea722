"""Line-oriented text formats for categories, presheaves, maps, and replays.

One artifact per file, UTF-8, `#` starts a comment.  A category is `obj`,
`mor`, `id`, and `comp` lines; a presheaf appends `at` and `act` lines to
its base category; a multi-slot map groups its categories under `slotcat
<j>` / `codcat` headers and uses tuple-indexed `at (<y>; <b1>,...)` lines.
Functor files reuse the category blocks and add `on` / `send` lines.

Labels are written quoted so generated names (which contain commas and
parens) survive a round trip; bare labels without separators are accepted
when reading.  Identity actions and identity compositions may be omitted:
readers fill them in and reject explicit lines that disagree.  Every
reader validates the finished artifact and raises FormatError on any
syntax, totality, or law problem, so a parsed artifact is usable as-is.
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


def _quote(label):
    # '#' would be eaten by the comment stripper before quotes are seen
    if any(ch in label for ch in '\n"#'):
        raise FormatError(f"label {label!r} cannot be written")
    return f'"{label}"'


def _parse_tuple(s, lineno, what):
    s = s.strip()
    if not (s.startswith("(") and s.endswith(")")):
        _fail(lineno, f"{what} must be parenthesized")
    body = s[1:-1].strip()
    if not body:
        return ()
    return tuple(_int(t.strip(), lineno, what) for t in body.split(",") if t.strip())


# -- categories -----------------------------------------------------------------

class _CatDraft:
    def __init__(self):
        self.objs = []
        self.mors = {}  # id -> (src, tgt)
        self.ids = {}  # obj -> mor
        self.comp = {}  # (g, f) -> gf


def _cat_line(draft, lineno, key, rest):
    if key == "obj":
        o = _int(rest.strip(), lineno, "object id")
        if o in draft.objs:
            _fail(lineno, f"duplicate object {o}")
        draft.objs.append(o)
    elif key == "mor":
        m = re.fullmatch(r"(\S+)\s*:\s*(\S+)\s*->\s*(\S+)", rest.strip())
        if not m:
            _fail(lineno, "expected 'mor <id> : <src> -> <tgt>'")
        mid = _int(m.group(1), lineno, "morphism id")
        if mid in draft.mors:
            _fail(lineno, f"duplicate morphism {mid}")
        draft.mors[mid] = (
            _int(m.group(2), lineno, "source"),
            _int(m.group(3), lineno, "target"),
        )
    elif key == "id":
        m = re.fullmatch(r"(\S+)\s*=\s*(\S+)", rest.strip())
        if not m:
            _fail(lineno, "expected 'id <obj> = <mor>'")
        o = _int(m.group(1), lineno, "object id")
        if o in draft.ids:
            _fail(lineno, f"duplicate identity for object {o}")
        draft.ids[o] = _int(m.group(2), lineno, "morphism id")
    elif key == "comp":
        m = re.fullmatch(r"(\S+)\s+(\S+)\s*=\s*(\S+)", rest.strip())
        if not m:
            _fail(lineno, "expected 'comp <g> <f> = <gf>'")
        g = _int(m.group(1), lineno, "morphism id")
        f = _int(m.group(2), lineno, "morphism id")
        if (g, f) in draft.comp:
            _fail(lineno, f"duplicate composition ({g}, {f})")
        draft.comp[(g, f)] = _int(m.group(3), lineno, "morphism id")
    else:
        raise AssertionError(key)


def _finish_category(draft, lineno, name):
    objs = sorted(draft.objs)
    if objs != list(range(len(objs))):
        _fail(lineno, "object ids must be 0..n-1")
    mids = sorted(draft.mors)
    if mids != list(range(len(mids))):
        _fail(lineno, "morphism ids must be 0..m-1")
    n, mm = len(objs), len(mids)
    src, tgt = [0] * mm, [0] * mm
    for mid, (a, b) in draft.mors.items():
        if not (0 <= a < n and 0 <= b < n):
            _fail(lineno, f"morphism {mid} references an unknown object")
        src[mid], tgt[mid] = a, b
    if sorted(draft.ids) != objs:
        _fail(lineno, "every object needs exactly one id line")
    identity = [0] * n
    for o, mid in draft.ids.items():
        if mid not in draft.mors:
            _fail(lineno, f"identity of {o} references unknown morphism {mid}")
        if draft.mors[mid] != (o, o):
            _fail(lineno, f"identity of {o} is not an endomorphism of {o}")
        identity[o] = mid
    comp = dict(draft.comp)
    for (g, f), gf in comp.items():
        for m in (g, f, gf):
            if m not in draft.mors:
                _fail(lineno, f"composition references unknown morphism {m}")
        if tgt[f] != src[g]:
            _fail(lineno, f"({g}, {f}) is not a composable pair")
    # identity compositions may be left implicit
    for m in range(mm):
        for pair, val in (((identity[tgt[m]], m), m), ((m, identity[src[m]]), m)):
            if pair in comp:
                if comp[pair] != val:
                    _fail(lineno, f"identity composition {pair} must equal {val}")
            else:
                comp[pair] = val
    for g in range(mm):
        for f in range(mm):
            if tgt[f] == src[g] and (g, f) not in comp:
                _fail(lineno, f"missing composition ({g}, {f})")
    c = FinCategory(name, n, src, tgt, identity, comp)
    rep = validate_category(c)
    if not rep.ok:
        _fail(lineno, f"category law broken: {rep.first.law} at {rep.first.witness}")
    return c


def read_category(text, name="cat"):
    draft = _CatDraft()
    last = 0
    for lineno, line in _lines(text):
        last = lineno
        key = line.split(None, 1)[0]
        if key not in ("obj", "mor", "id", "comp"):
            _fail(lineno, f"unknown line {key!r} in a category file")
        _cat_line(draft, lineno, key, line[len(key):])
    if not draft.objs:
        raise FormatError("empty category file")
    return _finish_category(draft, last, name)


def _category_lines(c):
    out = [f"obj {o}" for o in c.objects]
    out += [f"mor {m} : {c.src(m)} -> {c.tgt(m)}" for m in c.morphisms]
    out += [f"id {o} = {c.id_of(o)}" for o in c.objects]
    for g in c.morphisms:
        for f in c.morphisms:
            if c.tgt(f) == c.src(g) and not (c.is_identity(g) or c.is_identity(f)):
                out.append(f"comp {g} {f} = {c.compose(g, f)}")
    return out


def write_category(c):
    return "\n".join(_category_lines(c)) + "\n"


# -- presheaves -------------------------------------------------------------------

def read_presheaf(text, name="parsed"):
    cat_draft = _CatDraft()
    at = {}
    act = {}
    cat_done = False
    last = 0
    base = None
    for lineno, line in _lines(text):
        last = lineno
        key = line.split(None, 1)[0]
        rest = line[len(key):]
        if key in ("obj", "mor", "id", "comp"):
            if cat_done:
                _fail(lineno, "category lines must precede at/act lines")
            _cat_line(cat_draft, lineno, key, rest)
            continue
        if not cat_done:
            base = _finish_category(cat_draft, lineno, name)
            cat_done = True
        if key == "at":
            m = re.fullmatch(r"(\S+)\s*=\s*(\{.*\})", rest.strip())
            if not m:
                _fail(lineno, "expected 'at <obj> = {...}'")
            o = _int(m.group(1), lineno, "object id")
            if o in at:
                _fail(lineno, f"duplicate at line for object {o}")
            at[o] = _scan_labels_braced(m.group(2), lineno)
        elif key == "act":
            m = re.fullmatch(r"(\S+)\s*:\s*(.+)", rest.strip())
            if not m:
                _fail(lineno, "expected 'act <mor> : <label> -> <label>'")
            mor = _int(m.group(1), lineno, "morphism id")
            a, b = _scan_arrow_pair(m.group(2), lineno)
            if (mor, a) in act:
                _fail(lineno, f"duplicate act line for morphism {mor} at {a!r}")
            act[(mor, a)] = b
        else:
            _fail(lineno, f"unknown line {key!r} in a presheaf file")
    if base is None:
        raise FormatError("presheaf file has no at lines")
    return _finish_presheaf(base, at, act, last)


def _finish_presheaf(base, at, act, lineno):
    if sorted(at) != list(base.objects):
        _fail(lineno, "every object needs exactly one at line")
    sets = []
    index = []
    for o in base.objects:
        labels = at[o]
        if len(set(labels)) != len(labels):
            _fail(lineno, f"duplicate label at object {o}")
        sets.append(labels)
        index.append({lab: i for i, lab in enumerate(labels)})
    rows = []
    used = set()
    for m in base.morphisms:
        a, b = base.src(m), base.tgt(m)
        row = []
        for lab in sets[b]:
            if (m, lab) in act:
                used.add((m, lab))
                out = act[(m, lab)]
                if out not in index[a]:
                    _fail(lineno, f"act {m} sends {lab!r} to unknown label {out!r}")
                row.append(index[a][out])
            elif base.is_identity(m):
                row.append(index[a][lab])
            else:
                _fail(lineno, f"missing act line for morphism {m} at {lab!r}")
        rows.append(tuple(row))
    for m, lab in act:
        if not (0 <= m < base.n_morphisms):
            _fail(lineno, f"act references unknown morphism {m}")
        if (m, lab) not in used:
            _fail(lineno, f"act {m} names {lab!r} which is not in the target fiber")
    p = Presheaf(base, sets, rows)
    rep = validate_presheaf(p)
    if not rep.ok:
        _fail(lineno, f"presheaf law broken: {rep.first.law} at {rep.first.witness}")
    return p


def write_presheaf(p):
    out = _category_lines(p.base)
    for o in p.base.objects:
        labs = ", ".join(_quote(l) for l in p.at[o])
        out.append(f"at {o} = {{{labs}}}")
    for m in p.base.morphisms:
        if p.base.is_identity(m):
            continue
        a, b = p.base.src(m), p.base.tgt(m)
        for i, lab in enumerate(p.at[b]):
            out.append(
                f"act {m} : {_quote(lab)} -> {_quote(p.at[a][p.act[m][i]])}"
            )
    return "\n".join(out) + "\n"


# -- category blocks shared by functor and map files ------------------------------

def _read_blocks(text, extra_keys):
    """Category blocks plus trailing payload lines.

    Returns (slot categories in index order, codomain category, payload)
    where payload is a list of (lineno, key, rest).
    """
    blocks = {}
    current = None  # ("slot", j) | ("cod",)
    draft = None
    payload = []
    last = 0

    def close(lineno):
        if current is not None:
            label = f"slot {current[1]}" if current[0] == "slot" else "target"
            blocks[current] = _finish_category(draft, lineno, label)

    for lineno, line in _lines(text):
        last = lineno
        key = line.split(None, 1)[0]
        if "[" in key and key.split("[", 1)[0] in extra_keys:
            key = key.split("[", 1)[0]  # 'act[0]' written without a space
        rest = line[len(key):]
        if key == "slotcat":
            close(lineno)
            j = _int(rest.strip(), lineno, "slot index")
            if ("slot", j) in blocks:
                _fail(lineno, f"duplicate slotcat {j}")
            current, draft = ("slot", j), _CatDraft()
        elif key == "codcat":
            close(lineno)
            if ("cod",) in blocks or rest.strip():
                _fail(lineno, "codcat takes no argument and appears once")
            current, draft = ("cod",), _CatDraft()
        elif key in ("obj", "mor", "id", "comp"):
            if current is None:
                _fail(lineno, "category line outside a slotcat/codcat block")
            _cat_line(draft, lineno, key, rest)
        elif key in extra_keys:
            close(last)
            current = None
            payload.append((lineno, key, rest))
        else:
            _fail(lineno, f"unknown line {key!r}")
    close(last)
    if ("cod",) not in blocks:
        raise FormatError("missing codcat block")
    slots = sorted(j for kind, *rest in blocks for j in rest if kind == "slot")
    if slots != list(range(len(slots))):
        raise FormatError("slotcat indices must be 0..n-1")
    return (
        tuple(blocks[("slot", j)] for j in slots),
        blocks[("cod",)],
        payload,
    )


# -- functors ---------------------------------------------------------------------

def read_functor(text, name="parsed"):
    slot_cats, cod, payload = _read_blocks(text, ("on", "send"))
    obj_map, mor_map = {}, {}
    last = 0
    for lineno, key, rest in payload:
        last = lineno
        m = re.fullmatch(r"(\(.*?\))\s*=\s*(\S+)", rest.strip())
        if not m:
            _fail(lineno, f"expected '{key} (<ids>) = <id>'")
        args = _parse_tuple(m.group(1), lineno, f"{key} tuple")
        val = _int(m.group(2), lineno, "image id")
        table = obj_map if key == "on" else mor_map
        if len(args) != len(slot_cats):
            _fail(lineno, f"{key} tuple has arity {len(args)}, expected {len(slot_cats)}")
        for j, (c, a) in enumerate(zip(slot_cats, args)):
            if not 0 <= a < (c.n_objects if key == "on" else c.n_morphisms):
                what = "object" if key == "on" else "morphism"
                _fail(lineno, f"{key} {_tuple_str(args)} names an unknown {what} of slot {j}")
        if args in table:
            _fail(lineno, f"duplicate {key} line for {args}")
        table[args] = val
    for objs in itertools.product(*(c.objects for c in slot_cats)):
        if objs not in obj_map:
            _fail(last, f"missing on line for {objs}")
        if not (0 <= obj_map[objs] < cod.n_objects):
            _fail(last, f"on {objs} names an unknown object")
    for mors in itertools.product(*(c.morphisms for c in slot_cats)):
        if mors not in mor_map:
            _fail(last, f"missing send line for {mors}")
        if not (0 <= mor_map[mors] < cod.n_morphisms):
            _fail(last, f"send {mors} names an unknown morphism")
    F = FunctorTable(slot_cats, cod, obj_map, mor_map, name)
    rep = validate_functor(F)
    if not rep.ok:
        _fail(last, f"functor law broken: {rep.first.law} at {rep.first.witness}")
    return F


def _tuple_str(ids):
    return "(" + ", ".join(str(i) for i in ids) + ")"


def write_functor(F):
    out = []
    for j, c in enumerate(F.slots):
        out.append(f"slotcat {j}")
        out += _category_lines(c)
    out.append("codcat")
    out += _category_lines(F.dst)
    for objs in sorted(F.obj_map):
        out.append(f"on {_tuple_str(objs)} = {F.obj_map[objs]}")
    for mors in sorted(F.mor_map):
        out.append(f"send {_tuple_str(mors)} = {F.mor_map[mors]}")
    return "\n".join(out) + "\n"


# -- multi-slot maps ----------------------------------------------------------------

def _parse_indexed(rest, lineno, tail_sep, what):
    """'(<y>; <b1>,...) <tail_sep> ...' -> ((y, args), remainder)."""
    m = re.fullmatch(r"\(\s*(\S+)\s*;(.*?)\)\s*" + tail_sep + r"\s*(.+)", rest.strip())
    if not m:
        _fail(lineno, f"expected '{what} (<y>; <b1>,...) {tail_sep.strip()} ...'")
    y = _int(m.group(1), lineno, "codomain id")
    body = m.group(2).strip()
    args = tuple(
        _int(t.strip(), lineno, "slot id") for t in body.split(",") if t.strip()
    )
    return y, args, m.group(3)


def read_multimap(text, name="parsed"):
    slot_cats, cod, payload = _read_blocks(text, ("at", "act"))
    n = len(slot_cats)
    at = {}
    cod_act = {}
    slot_act = {}
    last = 0
    for lineno, key, rest in payload:
        last = lineno
        rest = rest.strip()
        if key == "at":
            y, args, tail = _parse_indexed(rest, lineno, "=", "at")
            if len(args) != n:
                _fail(lineno, f"at tuple has arity {len(args)}, expected {n}")
            if (args, y) in at:
                _fail(lineno, f"duplicate at line for ({y}; {args})")
            at[(args, y)] = _scan_labels_braced(tail, lineno)
        elif rest.startswith("["):
            m = re.fullmatch(r"\[(\S+)\]\s*(.*)", rest)
            if not m:
                _fail(lineno, "expected 'act[<j>] (<y>; ...) : ...'")
            j = _int(m.group(1), lineno, "slot index")
            if not (0 <= j < n):
                _fail(lineno, f"slot index {j} out of range")
            y, marked, tail = _parse_indexed(m.group(2), lineno, ":", "act[j]")
            if len(marked) != n:
                _fail(lineno, f"act tuple has arity {len(marked)}, expected {n}")
            a, b = _scan_arrow_pair(tail, lineno)
            slot_act.setdefault((j, marked, y), {})
            if a in slot_act[(j, marked, y)]:
                _fail(lineno, f"duplicate act[{j}] line at {a!r}")
            slot_act[(j, marked, y)][a] = b
        else:
            u, args, tail = _parse_indexed(rest, lineno, ":", "act")
            if len(args) != n:
                _fail(lineno, f"act tuple has arity {len(args)}, expected {n}")
            a, b = _scan_arrow_pair(tail, lineno)
            cod_act.setdefault((args, u), {})
            if a in cod_act[(args, u)]:
                _fail(lineno, f"duplicate act line for ({u}; {args}) at {a!r}")
            cod_act[(args, u)][a] = b
    return _finish_multimap(slot_cats, cod, at, cod_act, slot_act, last, name)


def _finish_multimap(slot_cats, cod, at, cod_pairs, slot_pairs, lineno, name):
    n = len(slot_cats)
    grids = list(itertools.product(*(c.objects for c in slot_cats)))
    sets, index = {}, {}
    for args in grids:
        for y in cod.objects:
            if (args, y) not in at:
                _fail(lineno, f"missing at line for ({y}; {args})")
            labels = at.pop((args, y))
            if len(set(labels)) != len(labels):
                _fail(lineno, f"duplicate label at ({y}; {args})")
            sets[args + (y,)] = tuple(labels)
            index[args + (y,)] = {lab: i for i, lab in enumerate(labels)}
    if at:
        (args, y) = next(iter(at))
        _fail(lineno, f"at line for unknown tuple ({y}; {args})")

    def fill_row(pairs, key, src_key, dst_key, is_id, what):
        given = pairs.pop(key, {})
        row = []
        for lab in sets[src_key]:
            if lab in given:
                out = given.pop(lab)
                if out not in index[dst_key]:
                    _fail(lineno, f"{what} sends {lab!r} to unknown label {out!r}")
                row.append(index[dst_key][out])
            elif is_id:
                row.append(index[dst_key][lab])
            else:
                _fail(lineno, f"missing {what} line at {lab!r}")
        if given:
            _fail(lineno, f"{what} names labels outside its fiber: {sorted(given)}")
        return tuple(row)

    cod_act = {}
    for args in grids:
        for u in cod.morphisms:
            cod_act[args + (u,)] = fill_row(
                cod_pairs, (args, u),
                args + (cod.tgt(u),), args + (cod.src(u),),
                cod.is_identity(u), f"act ({u}; {args})",
            )
    if cod_pairs:
        (args, u) = next(iter(cod_pairs))
        _fail(lineno, f"act line for unknown pair ({u}; {args})")
    slot_act = {}
    for j, c in enumerate(slot_cats):
        others = [list(s.objects) for s in slot_cats]
        others[j] = list(c.morphisms)
        for marked in itertools.product(*others):
            m = marked[j]
            src_args = marked[:j] + (c.src(m),) + marked[j + 1 :]
            dst_args = marked[:j] + (c.tgt(m),) + marked[j + 1 :]
            for y in cod.objects:
                slot_act[(j,) + marked + (y,)] = fill_row(
                    slot_pairs, (j, marked, y),
                    src_args + (y,), dst_args + (y,),
                    c.is_identity(m), f"act[{j}] ({y}; {marked})",
                )
    if slot_pairs:
        (j, marked, y) = next(iter(slot_pairs))
        _fail(lineno, f"act[{j}] line for unknown tuple ({y}; {marked})")
    m = TableMap(slot_cats, cod, sets, cod_act, slot_act, name=name)
    rep = validate_multimap(m)
    if not rep.ok:
        _fail(lineno, f"map law broken: {rep.first.law} at {rep.first.witness}")
    return m


def write_multimap(m):
    if any(s.kind != "fin" for s in m.slots):
        raise FormatError("only all-fin maps can be written")
    cats = [s.cat for s in m.slots]
    cod = m.cod
    out = []
    for j, c in enumerate(cats):
        out.append(f"slotcat {j}")
        out += _category_lines(c)
    out.append("codcat")
    out += _category_lines(cod)
    grids = list(itertools.product(*(c.objects for c in cats)))

    def tup(args):
        return ", ".join(str(a) for a in args)

    for args in grids:
        for y in cod.objects:
            labs = ", ".join(_quote(l) for l in m.sets[args + (y,)])
            out.append(f"at ({y}; {tup(args)}) = {{{labs}}}")
    for args in grids:
        for u in cod.morphisms:
            if cod.is_identity(u):
                continue
            src_labels = m.sets[args + (cod.tgt(u),)]
            dst_labels = m.sets[args + (cod.src(u),)]
            for i, lab in enumerate(src_labels):
                sent = dst_labels[m.cod_act[args + (u,)][i]]
                out.append(f"act ({u}; {tup(args)}) : {_quote(lab)} -> {_quote(sent)}")
    for j, c in enumerate(cats):
        others = [list(s.cat.objects) for s in m.slots]
        others[j] = [mm for mm in c.morphisms if not c.is_identity(mm)]
        for marked in itertools.product(*others):
            mm = marked[j]
            src_args = marked[:j] + (c.src(mm),) + marked[j + 1 :]
            dst_args = marked[:j] + (c.tgt(mm),) + marked[j + 1 :]
            for y in cod.objects:
                src_labels = m.sets[src_args + (y,)]
                dst_labels = m.sets[dst_args + (y,)]
                row = m.slot_act[(j,) + marked + (y,)]
                for i, lab in enumerate(src_labels):
                    out.append(
                        f"act[{j}] ({y}; {tup(marked)}) : "
                        f"{_quote(lab)} -> {_quote(dst_labels[row[i]])}"
                    )
    return "\n".join(out) + "\n"


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
        if key in seen:
            _fail(lineno, f"duplicate {key} line")
        if _REPLAY_KEYS[key] is int:
            seen[key] = _int(raw.strip(), lineno, key)
        else:
            seen[key] = raw.strip()
    for req in ("law", "index", "seed"):
        if req not in seen:
            raise FormatError(f"replay file is missing a {req} line")
    if seen["law"] not in LAW_FAMILIES:
        raise FormatError(f"unknown law {seen['law']!r}")
    try:
        cfg = CheckConfig(
            seed=seen["seed"],
            max_objects=seen.get("max-objects", 3),
            max_edges=seen.get("max-edges", 3),
            max_values=seen.get("max-values", 24),
            policy=seen.get("policy", "transpose"),
            inject=seen.get("inject", ""),
        )
    except ValueError as e:
        raise FormatError(str(e)) from None
    return seen["law"], seen["index"], cfg


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
    return "\n".join(out) + "\n"
