"""Text format round trips and rejection of malformed files."""

import hashlib
import random

import pytest

from relmonad import textio
from relmonad.checker import CheckConfig
from relmonad.errors import BudgetExceededError, FormatError
from relmonad.fincat import FunctorTable
from relmonad.gen import gen_category, gen_functor, gen_multimap, gen_presheaf
from relmonad.presheaf import Presheaf

from conftest import flat_rows, hom_sum_map, square_poset, two_group, walking_arrow


def cat_tables(c):
    total = {}
    for g in c.morphisms:
        for f in c.morphisms:
            if c.tgt(f) == c.src(g):
                total[(g, f)] = c.compose(g, f)
    return (c.n_objects, tuple(c.mor_src), tuple(c.mor_tgt), tuple(c.identity), total)


# -- round trips -----------------------------------------------------------------


@pytest.mark.parametrize("make", [walking_arrow, two_group, square_poset])
def test_category_round_trip(make):
    c = make()
    again = textio.read_category(textio.write_category(c))
    assert cat_tables(again) == cat_tables(c)


def test_generated_round_trips():
    rng = random.Random(11)
    for _ in range(25):
        c = gen_category(rng, 3, 3)
        assert cat_tables(textio.read_category(textio.write_category(c))) == cat_tables(c)
        p = gen_presheaf(rng, c)
        assert textio.read_presheaf(textio.write_presheaf(p)).content_key() == p.content_key()


def test_multimap_round_trip(z2, arrow):
    m = hom_sum_map(z2, 2)
    again = textio.read_multimap(textio.write_multimap(m))
    assert again.sets.keys() == m.sets.keys()
    for k in m.sets:
        assert again.sets[k] == m.sets[k]
    assert flat_rows(again.cod_act) == flat_rows(m.cod_act)
    assert flat_rows(again.slot_act) == flat_rows(m.slot_act)


def test_generated_multimap_and_functor_round_trips():
    rng = random.Random(3)
    done = 0
    while done < 8:
        cats = tuple(gen_category(rng, 3, 3) for _ in range(rng.randrange(1, 3)))
        cod = gen_category(rng, 3, 3)
        try:
            m = gen_multimap(rng, cats, cod, 8)
        except Exception:
            continue
        again = textio.read_multimap(textio.write_multimap(m))
        assert flat_rows(again.cod_act) == flat_rows(m.cod_act)
        assert flat_rows(again.slot_act) == flat_rows(m.slot_act)
        F = gen_functor(rng, cats, cod)
        assert textio.read_functor(textio.write_functor(F)).content_key() == F.content_key()
        done += 1


def test_point_functor_round_trip(square):
    pt = FunctorTable((), square, {(): 2}, {(): square.id_of(2)}, name="pt")
    assert textio.read_functor(textio.write_functor(pt)).content_key() == pt.content_key()


def test_labels_with_separators_survive(arrow):
    # generated labels look like "(0, (1, 0))"; make sure quoting protects them
    p = Presheaf(
        arrow,
        [("(0, (1, 0))", "a b"), ("x,y",)],
        [(0, 1), (0,), (0,)],
    )
    assert textio.read_presheaf(textio.write_presheaf(p)).content_key() == p.content_key()


def test_replay_round_trip():
    cfg = CheckConfig(seed=99, max_objects=4, max_edges=2, max_values=7, inject="theta-corrupt")
    law, idx, back = textio.read_replay(textio.write_replay("extension-unit", 3, cfg))
    assert law == "extension-unit" and idx == 3
    assert (back.seed, back.max_objects, back.max_edges, back.max_values) == (99, 4, 2, 7)
    assert back.inject == "theta-corrupt"
    # inject line is omitted when empty
    text = textio.write_replay("yoneda-count", 0, CheckConfig(seed=1))
    assert "inject" not in text
    law, idx, back = textio.read_replay(text)
    assert back.inject == "" and back.policy == "transpose"
    # a key left out reads back as CheckConfig's own default
    bare = "relmonad-replay 1\nlaw yoneda-count\nindex 2\nseed 5\n"
    assert textio.read_replay(bare) == ("yoneda-count", 2, CheckConfig(seed=5))


def test_comments_and_blank_lines_ignored():
    text = textio.write_category(walking_arrow())
    noisy = "# header\n\n" + text.replace("\n", "   # trailing\n\n", 1)
    assert cat_tables(textio.read_category(noisy)) == cat_tables(walking_arrow())


# -- rejections --------------------------------------------------------------------


ARROW = """
obj 0
obj 1
mor 0 : 0 -> 0
mor 1 : 1 -> 1
mor 2 : 0 -> 1
id 0 = 0
id 1 = 1
"""


def bad(text, needle):
    with pytest.raises(FormatError) as e:
        textio.read_category(text)
    assert needle in str(e.value)


def test_category_rejections():
    # the reader refuses what it cannot build tables from; validate_category
    # names every other violation, at the line that closes the section
    bad(ARROW + "obj 1\n", "line 9: duplicate object")
    bad(ARROW + "mor 2 : 0 -> 1\n", "line 9: duplicate morphism")
    bad(ARROW + "id 1 = 2\n", "line 9: duplicate identity")
    bad(ARROW.replace("obj 0\n", ""), "line 7: object ids must be 0..n-1")
    bad(ARROW.replace("obj 1\n", ""), "line 7: every object needs exactly one id line")
    bad(ARROW.replace("mor 1 : 1 -> 1\n", ""), "line 7: morphism ids must be 0..m-1")
    bad(ARROW + "mor 3 : 0 -> 5\n",
        "line 9: category law broken: bad-typing: mor 3 : 0 -> 5 leaves the objects")
    bad(ARROW.replace("id 1 = 1\n", ""), "line 7: every object needs exactly one id line")
    bad(ARROW.replace("id 1 = 1", "id 1 = 2"),
        "line 8: category law broken: bad-identity: obj 1 has identity 2")
    bad(ARROW.replace("id 1 = 1", "id 1 = 9"),
        "line 8: category law broken: bad-identity: obj 1 has identity 9")
    bad(ARROW + "comp 2 0 = 9\n",
        "line 9: category law broken: bad-typing: comp(2,0)=9 has wrong endpoints")
    bad(ARROW + "comp 1 0 = 2\n",
        "line 9: category law broken: spurious-composite: comp(1,0) defined but not composable")
    # an explicit identity composition that disagrees with the identity
    bad(ARROW + "comp 2 0 = 1\n",
        "line 9: category law broken: bad-typing: comp(2,0)=1 has wrong endpoints")
    bad(ARROW + "mor 3 : 0 -> 1\ncomp 2 0 = 3\n",
        "line 10: category law broken: broken-identity: 2 o id != 2")
    bad(ARROW + "wat 3\n", "line 9: unknown line")
    bad(ARROW + "mor x : 0 -> 1\n", "line 9: each number of a mor line must be an integer")
    bad("", "empty category file")


def test_category_missing_composite():
    # a genuinely missing non-identity composite, not fixable by identity fill
    text = """
obj 0
mor 0 : 0 -> 0
mor 1 : 0 -> 0
id 0 = 0
"""
    bad(text, "line 5: category law broken: missing-composite: comp(1,1) undefined")


def test_presheaf_rejections(arrow):
    base = textio.write_category(arrow)
    p = textio.write_presheaf(
        Presheaf(arrow, [("a", "b"), ("x",)], [(0, 1), (0,), (1,)])
    )
    with pytest.raises(FormatError, match="duplicate at line"):
        textio.read_presheaf(p + 'at 0 = {"a"}\n')
    with pytest.raises(FormatError, match="every object"):
        textio.read_presheaf(base + 'at 0 = {"a"}\n')
    with pytest.raises(FormatError, match="duplicate label"):
        textio.read_presheaf(base + 'at 0 = {"a", "a"}\nat 1 = {}\n')
    with pytest.raises(FormatError, match="unknown label"):
        textio.read_presheaf(p.replace('-> "b"', '-> "zz"'))
    with pytest.raises(FormatError, match="missing act line"):
        textio.read_presheaf("\n".join(p.splitlines()[:-1]) + "\n")
    with pytest.raises(FormatError, match="not in the target fiber"):
        textio.read_presheaf(p + 'act 2 : "nope" -> "a"\n')
    with pytest.raises(FormatError, match="category lines must precede"):
        textio.read_presheaf(p + "obj 2\n")
    # a malformed action table that parses but breaks functoriality is refused
    q = Presheaf(two_group(), [("a", "b")], [(0, 1), (0, 1)])
    bad_act = textio.write_presheaf(q).replace('act 1 : "a" -> "a"', 'act 1 : "a" -> "b"')
    bad_act = bad_act.replace('act 1 : "b" -> "b"', 'act 1 : "b" -> "b"')
    with pytest.raises(FormatError, match="presheaf law broken"):
        textio.read_presheaf(bad_act)


def test_multimap_rejections(z2):
    m = hom_sum_map(z2, 1)
    text = textio.write_multimap(m)
    with pytest.raises(FormatError, match="missing codcat"):
        textio.read_multimap(text[: text.index("codcat")])
    with pytest.raises(FormatError, match="duplicate slotcat"):
        textio.read_multimap(text + "slotcat 0\nobj 0\nmor 0 : 0 -> 0\nid 0 = 0\n")
    with pytest.raises(FormatError, match="0..n-1"):
        textio.read_multimap(text.replace("slotcat 0", "slotcat 1"))
    with pytest.raises(FormatError, match="missing at line"):
        textio.read_multimap(text.replace("at (0; 0)", "at (9; 0)", 1))
    with pytest.raises(FormatError, match="duplicate act"):
        first_act = next(l for l in text.splitlines() if l.startswith("act "))
        textio.read_multimap(text + first_act + "\n")
    with pytest.raises(FormatError, match="category line outside"):
        textio.read_multimap("obj 0\n" + text)


def test_multimap_row_refusals(z2):
    # each refusal made while filling an action row names the kind of line
    text = textio.write_multimap(hom_sum_map(z2, 1))
    act_line = 'act (1; 0) : "0:m0" -> "0:m1"\n'
    slot_line = 'act[0] (0; 1) : "0:m0" -> "0:m1"\n'
    assert act_line in text and slot_line in text
    refusals = [
        (text + 'act (1; 0) : "zz" -> "0:m0"\n',
         r"act \(1; 0\) line names 'zz', which is not in the target fiber"),
        (text + 'act[0] (0; 1) : "zz" -> "0:m0"\n',
         r"act\[0\] \(0; 1\) line names 'zz', which is not in the source fiber"),
        (text.replace(act_line, act_line.replace('-> "0:m1"', '-> "zz"')),
         r"act \(1; 0\) line sends '0:m0' to unknown label 'zz'"),
        (text.replace(slot_line, slot_line.replace('-> "0:m1"', '-> "zz"')),
         r"act\[0\] \(0; 1\) line sends '0:m0' to unknown label 'zz'"),
        (text.replace(act_line, ""), r"missing act \(1; 0\) line at '0:m0'"),
        (text.replace(slot_line, ""), r"missing act\[0\] \(0; 1\) line at '0:m0'"),
        (text + act_line.replace("(1; 0)", "(5; 0)"), r"act \(5; 0\) line names an unknown tuple"),
        (text + slot_line.replace("(0; 1)", "(0; 7)"),
         r"act\[0\] \(0; 7\) line names an unknown tuple"),
        (text + slot_line.replace("act[0]", "act[3]"), r"act\[3\] line names slot 3 of a 1-slot map"),
    ]
    for bad_text, message in refusals:
        with pytest.raises(FormatError, match=message):
            textio.read_multimap(bad_text)


def test_functor_rejections(arrow, z2):
    # per-line refusals name their line; validate_functor names every gap and
    # law violation at the last line
    F = gen_functor(random.Random(0), (arrow,), z2)
    text = textio.write_functor(F)

    def refused(bad_text, message):
        with pytest.raises(FormatError, match=message):
            textio.read_functor(bad_text)

    refused("".join(l for l in text.splitlines(True) if not l.startswith("on (0)")),
            r"line 18: functor law broken: functor-typing: at \(0,\)")
    refused(text.replace("on (0)", "on (7)", 1),
            r"line 15: on \(7\) names an unknown object of slot 0")
    # a send line naming a morphism its slot category lacks: here the slot's
    # only non-identity arrow, whose mor line is gone
    no_arrow = "".join(l for l in text.splitlines(True) if l != "mor 2 : 0 -> 1\n")
    assert no_arrow.count("mor 2 : 0 -> 1") == 0 and "send (2)" in no_arrow
    refused(no_arrow, r"line 18: send \(2\) names an unknown morphism of slot 0")
    first_on = next(l for l in text.splitlines() if l.startswith("on "))
    refused(text + first_on + "\n", r"line 20: duplicate on line")
    refused(text.replace("on (0)", "on (0, 1)", 1), r"line 15: on tuple has arity 2")
    refused("\n".join(text.splitlines()[:-1]) + "\n",
            r"line 18: functor law broken: functor-typing: at \(2,\)")
    # images must assemble into a real functor
    ident = textio.write_functor(FunctorTable.identity(arrow))
    refused(ident.replace("send (2) = 2", "send (2) = 0"),
            r"line 21: functor law broken: functor-typing: at \(2,\)$")
    refused(ident.replace("send (0) = 0", "send (0) = 2"),
            r"line 21: functor law broken: functor-identity: at \(0,\)$")


def test_replay_rejections():
    good = textio.write_replay("yoneda-count", 0, CheckConfig(seed=5))
    with pytest.raises(FormatError, match="must start with"):
        textio.read_replay(good.replace("replay 1", "replay 2"))
    with pytest.raises(FormatError, match="must start with"):
        textio.read_replay("")
    with pytest.raises(FormatError, match="missing a seed"):
        textio.read_replay("relmonad-replay 1\nlaw yoneda-count\nindex 0\n")
    with pytest.raises(FormatError, match="unknown law"):
        textio.read_replay(good.replace("yoneda-count", "zz-top"))
    with pytest.raises(FormatError, match="duplicate seed"):
        textio.read_replay(good + "seed 6\n")
    with pytest.raises(FormatError, match="unknown replay line"):
        textio.read_replay(good + "budget 12\n")
    with pytest.raises(FormatError, match="unknown policy"):
        textio.read_replay(good.replace("policy transpose", "policy magic"))
    with pytest.raises(FormatError, match="unknown injector"):
        textio.read_replay(good + "inject bogus\n")
    with pytest.raises(FormatError, match="max-objects must be 1 or more"):
        textio.read_replay(good.replace("max-objects 3", "max-objects 0"))


def test_unwritable_label():
    p = Presheaf(walking_arrow(), [('has"quote',), ()], [(0,), (), ()])
    with pytest.raises(FormatError, match="cannot be written"):
        textio.write_presheaf(p)


@pytest.mark.parametrize("brk", ["\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                 "\x85", "\u2028", "\u2029"])
def test_label_with_a_line_break_is_refused(brk):
    # the reader splits with str.splitlines, so a label holding any of its
    # line breaks would be written into a file the reader refuses
    def one_label(label):
        return Presheaf(walking_arrow(), [(label,), ()], [(0,), (), ()])

    with pytest.raises(FormatError, match="cannot be written"):
        textio.write_presheaf(one_label(f"a{brk}b"))
    kept = one_label(f"a{brk.encode('unicode_escape').decode()}b")
    assert textio.read_presheaf(textio.write_presheaf(kept)).content_key() == kept.content_key()


# -- seeded one-line mutations -----------------------------------------------------


def _mutate(rng, text):
    """Delete, duplicate, truncate or renumber one digit of one line."""
    lines = text.splitlines()
    k = rng.randrange(len(lines))
    line = lines[k]
    op = rng.choice(("delete", "duplicate", "truncate", "renumber"))
    digits = [i for i, ch in enumerate(line) if ch.isdigit()]
    if op == "delete":
        lines[k:k + 1] = []
    elif op == "duplicate":
        lines.insert(k, line)
    elif op == "truncate" or not digits:
        lines[k] = line[:rng.randrange(len(line))]
    else:
        i = rng.choice(digits)
        lines[k] = line[:i] + rng.choice("0123456789") + line[i + 1:]
    return "\n".join(lines) + "\n"


def _written_artifacts():
    rng = random.Random(5)
    arrow, square, z2 = walking_arrow(), square_poset(), two_group()
    cats = [arrow, square, z2, gen_category(rng, 3, 3)]
    out = [(textio.read_category, textio.write_category(c)) for c in cats]
    out += [(textio.read_presheaf, textio.write_presheaf(gen_presheaf(rng, c, 8))) for c in cats]
    out += [(textio.read_functor, textio.write_functor(gen_functor(rng, (a,), b)))
            for a, b in ((arrow, square), (square, arrow), (arrow, z2))]
    out.append((textio.read_functor, textio.write_functor(gen_functor(rng, (arrow, z2), arrow))))
    out += [(textio.read_multimap, textio.write_multimap(m))
            for m in (hom_sum_map(z2, 2), hom_sum_map(arrow, 1), gen_multimap(rng, (arrow,), z2, 8))]
    out.append((textio.read_replay, textio.write_replay(
        "extension-unit", 3, CheckConfig(seed=9, inject="theta-corrupt"))))
    return out


def test_one_line_mutations_read_or_raise_format_error():
    # every reader either accepts a mutated file or refuses it with FormatError;
    # an IndexError, KeyError or the like is a hole in its validation
    rng = random.Random(2024)
    artifacts = _written_artifacts()
    for n in range(3000):
        reader, text = artifacts[n % len(artifacts)]
        mutated = _mutate(rng, text)
        try:
            reader(mutated)
        except FormatError:
            pass
        except Exception as exc:
            pytest.fail(f"{reader.__name__} raised {exc!r} on mutation {n}:\n{mutated}")


# -- pinned writer output ------------------------------------------------------------


def _pinned_corpus():
    """(reader, writer, artifact) over fixed and seeded artifacts of every kind."""
    rng = random.Random(77)
    arrow, square, z2 = walking_arrow(), square_poset(), two_group()
    cats = [arrow, square, z2] + [gen_category(rng, 3, 3) for _ in range(6)]
    out = [(textio.read_category, textio.write_category, c) for c in cats]
    out += [(textio.read_presheaf, textio.write_presheaf, gen_presheaf(rng, c, 8))
            for c in cats for _ in range(2)]
    for _ in range(8):
        slots = tuple(rng.choice(cats) for _ in range(rng.randrange(0, 3)))
        out.append((textio.read_functor, textio.write_functor,
                    gen_functor(rng, slots, rng.choice(cats))))
    out += [(textio.read_multimap, textio.write_multimap, m)
            for m in (hom_sum_map(z2, 2), hom_sum_map(arrow, 1), hom_sum_map(square, 1))]
    while len(out) < 45:
        slots = tuple(rng.choice(cats[:4]) for _ in range(rng.randrange(1, 3)))
        try:
            m = gen_multimap(rng, slots, rng.choice(cats[:4]), 8)
        except BudgetExceededError:
            continue
        out.append((textio.read_multimap, textio.write_multimap, m))
    return out


WRITER_DIGEST = "396e3129f978e4f10ee2ca44cc68b2020ba0050eba100a765a49978d66800013"


def test_writer_output_is_pinned():
    # the written bytes are part of the format: a reader on another version
    # and any stored artifact depend on them, not only on what they parse to
    digest = hashlib.sha256()
    for reader, writer, artifact in _pinned_corpus():
        text = writer(artifact)
        assert writer(reader(text)) == text
        digest.update(text.encode())
    assert digest.hexdigest() == WRITER_DIGEST
