"""Static checks over the package source."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "relmonad"


def _unread_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read and name not in exported)


def test_every_import_is_read():
    # __init__.py imports only to re-export, so it is left out
    unread = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
        for line, name in _unread_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert not unread, f"imported but never read: {unread}"


def test_every_private_helper_is_read():
    # catches a helper that a consolidation leaves behind; decorated ones are
    # left out, since the decorator is what reads them
    defined, read = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.decorator_list
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defined[node.name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = sorted(where for name, where in defined.items() if name not in read)
    assert defined and not unread, f"private helpers defined but never read: {unread}"


def test_every_public_name_has_a_caller_outside_tests():
    # a public function, class or method that only tests call should earn a
    # caller or go; textio's readers and writers are the file-format API and
    # are left out.  The benchmark wraps some names by string, so its string
    # constants count as reads.
    root = PACKAGE.parent.parent
    defined, read = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "textio.py":
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[f"{path.name}:{node.lineno} {node.name}"] = node.name
                if isinstance(node, ast.ClassDef):
                    defined.update((f"{path.name}:{sub.lineno} {node.name}.{sub.name}", sub.name)
                                   for sub in node.body if isinstance(sub, ast.FunctionDef)
                                   and not sub.name.startswith("_"))
    for folder in ("src", "demos", "bench"):
        for path in sorted((root / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif (folder == "bench" and isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    read.add(node.value)
    unread = sorted(where for where, name in defined.items() if name not in read)
    assert defined and not unread, f"public names that only tests read: {unread}"


def test_one_union_find():
    # the union-find's path-halving step may appear in one function only, so a
    # second hand-rolled union-find beside colimit_finset fails here
    owners = set()
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        functions = [node for node in ast.walk(ast.parse(text, str(path)))
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for line, source in enumerate(text.splitlines(), 1):
            if "parent[parent[" in source:
                inside = [f for f in functions if f.lineno <= line <= f.end_lineno]
                owner = max(inside, key=lambda f: f.lineno).name if inside else "<module>"
                owners.add(f"{path.name}:{owner}")
    assert owners == {"presheaf.py:colimit_finset"}, f"path halving found in {sorted(owners)}"


def _qualified_functions(tree, prefix=""):
    """(qualified name, node) of every function in tree, methods as Class.name."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _qualified_functions(node, prefix + node.name + ".")


def test_only_the_constructions_take_colimits():
    # pointwise_colimit is called where a value is built as a quotient, and
    # nowhere else: so no oracle recomputes a colimit beside the one it checks
    owners = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        functions = list(_qualified_functions(tree))
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and "pointwise_colimit" in (
                    getattr(call.func, "id", None), getattr(call.func, "attr", None)):
                inside = [(f.lineno, name) for name, f in functions
                          if f.lineno <= call.lineno <= f.end_lineno]
                owners.add(f"{path.stem}.{max(inside)[1] if inside else '<module>'}")
    assert owners == {"kan.StrengthenMap._value", "gen.presheaf_quotient",
                      "presheaf.sample_presheaves"}, f"pointwise_colimit called in {sorted(owners)}"


def test_one_memo_per_evaluation():
    # a map memoizes its values and actions, and a cell its components, in
    # the attributes their base classes set up; no subclass keeps a second
    # memo beside them, so an evaluation is looked up in one place
    owners = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for name, function in _qualified_functions(tree):
            for node in ast.walk(function):
                targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and any(
                        isinstance(t, ast.Attribute) and t.attr.endswith("_memo")
                        for t in targets):
                    owners.add(f"{path.stem}.{name}")
    assert owners == {"multimap.MultiMap.__init__", "multimap.TwoCell.__init__"}, (
        f"*_memo attributes assigned in {sorted(owners)}")


# each interned node class and the one shared constructor that builds it
NODE_CONSTRUCTORS = {
    "ComposeMap": "multimap.py:plug",
    "StrengthenMap": "kan.py:strengthen",
    "UnitMap": "multimap.py:unit_map",
    "ElementsCategory": "presheaf.py:category_of_elements",
}


def test_one_substitution_constructor():
    # each node class is built only inside its constructor, which the session
    # interns (@shared), so no call site bypasses the session's cells; and
    # categories are the only memo owners, so only FinCategory releases memos
    owners = {cls: set() for cls in NODE_CONSTRUCTORS}
    shared, releasers = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
        functions = [n for n in nodes if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in nodes:
            callee = getattr(node, "func", None)
            name = getattr(callee, "id", None) or getattr(callee, "attr", None)
            if isinstance(node, ast.Call) and name in owners:
                inside = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                owner = max(inside, key=lambda f: f.lineno).name if inside else "<module>"
                owners[name].add(f"{path.name}:{owner}")
            if isinstance(node, ast.FunctionDef) and any(
                    getattr(d, "id", None) == "shared" for d in node.decorator_list):
                shared.add(f"{path.name}:{node.name}")
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(f, ast.FunctionDef) and f.name == "release_memos" for f in node.body):
                releasers.add(node.name)
    assert owners == {cls: {where} for cls, where in NODE_CONSTRUCTORS.items()}, owners
    assert set(NODE_CONSTRUCTORS.values()) <= shared, "a node constructor is not @shared"
    assert releasers == {"FinCategory"}, f"release_memos defined on {sorted(releasers)}"


CONTENT_MEMOS = ("colimits", "cocones")


def test_content_memos_are_read_only_inside_a_session():
    # FinCategory makes and releases its content memos; every other reader
    # goes through fincat.content_memo, which hands out no memo when no
    # session is open, so outside one no key is built and no value is kept
    # on its category (test_kan checks that behaviour)
    touched, named = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        functions = list(_qualified_functions(tree))
        names = {id(node.args[1]): node.args[1] for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "content_memo"}
        named.update(getattr(node, "value", None) for node in names.values())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                memo = node.attr
            elif isinstance(node, ast.Constant) and id(node) not in names:
                memo = node.value
            else:
                continue
            if memo in CONTENT_MEMOS:
                inside = [(f.lineno, name) for name, f in functions
                          if f.lineno <= node.lineno <= f.end_lineno]
                touched.add(f"{path.stem}.{max(inside)[1] if inside else '<module>'}")
    assert touched == {"fincat.FinCategory.__init__", "fincat.FinCategory.release_memos"}, (
        f"content memos read in {sorted(touched)}")
    assert named == set(CONTENT_MEMOS), f"content_memo asked for {sorted(named, key=str)}"


def _laws(tree):
    """The functions that @_law registers, in a parsed checker.py."""
    return [node for node in tree.body if isinstance(node, ast.FunctionDef)
            and any(getattr(getattr(d, "func", None), "id", None) == "_law"
                    for d in node.decorator_list)]


def test_every_law_yields_its_checks():
    # a law yields one comparison per check, and run_single's fold alone
    # turns them into the verdict
    laws = _laws(ast.parse((PACKAGE / "checker.py").read_text()))
    silent = [node.name for node in laws
              if not any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(node))]
    assert len(laws) == 23 and not silent, f"laws that yield no check: {silent}"


def test_laws_take_only_rng_and_cfg():
    # an injected fault reaches a law through its session's fault table
    # alone: every law takes exactly (rng, cfg), and the checker names no
    # `hooks`, so a second injection path cannot come back
    tree = ast.parse((PACKAGE / "checker.py").read_text())
    laws = _laws(tree)
    wrong = [node.name for node in laws
             if ast.dump(node.args) != ast.dump(ast.parse("def f(rng, cfg): pass").body[0].args)]
    hooks = sorted(n.lineno for n in ast.walk(tree)
                   if "hooks" in (getattr(n, "id", None), getattr(n, "arg", None),
                                  getattr(n, "attr", None)))
    assert len(laws) == 23 and not wrong, f"laws not taking (rng, cfg): {wrong}"
    assert not hooks, f"`hooks` named on checker.py lines {hooks}"


def test_verdicts_are_built_in_one_place():
    # in the checker, a comparison is built only by the table-check helper;
    # the fold in run_single builds the outcome from the checks it is given
    path = PACKAGE / "checker.py"
    text = path.read_text()
    functions = [node for node in ast.walk(ast.parse(text, str(path)))
                 if isinstance(node, ast.FunctionDef)]
    owners = set()
    for line, source in enumerate(text.splitlines(), 1):
        if "CellComparison(" in source:
            inside = [f for f in functions if f.lineno <= line <= f.end_lineno]
            owners.add(max(inside, key=lambda f: f.lineno).name if inside else "<module>")
    assert owners == {"_table"}, f"CellComparison built in {sorted(owners)}"


def test_psh_slots_are_made_only_by_extensions():
    # two_cell_equal's transpose policy is complete because every psh slot is
    # an extension slot: only StrengthenMap and IdentityMap make one, and
    # ComposeMap copies slots.  A Slot whose kind is not the literal "fin"
    # anywhere else fails here.
    owners = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        methods = [(cls.name, f) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for f in cls.body if isinstance(f, ast.FunctionDef)]
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call)
                    and "Slot" in (getattr(call.func, "id", None), getattr(call.func, "attr", None))):
                continue
            kind = call.args[0] if call.args else next(
                (k.value for k in call.keywords if k.arg == "kind"), None)
            if isinstance(kind, ast.Constant) and kind.value == "fin":
                continue
            inside = [f"{c}.{f.name}" for c, f in methods
                      if f.lineno <= call.lineno <= f.end_lineno]
            owners.add(f"{path.name}:{inside[0] if inside else '<outside a method>'}")
    assert owners == {"kan.py:StrengthenMap.__init__", "multimap.py:IdentityMap.__init__"}, (
        f"psh slots made in {sorted(owners)}")


def test_no_law_swallows_a_budget():
    # a budget hit inside a law reaches run_single, which leaves it to the
    # caller as the environment's limit; a law that caught it would skip its
    # check silently, where a skip has to be a counted outcome.  A bare
    # except, or one naming a base class, would swallow it too.
    catching = {"BudgetExceededError", "RelmonadError", "Exception", "BaseException"}
    laws = _laws(ast.parse((PACKAGE / "checker.py").read_text()))
    swallowing = sorted(
        f"{node.name}:{handler.lineno}" for node in laws for handler in ast.walk(node)
        if isinstance(handler, ast.ExceptHandler) and (handler.type is None or catching & {
            getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(handler.type)}))
    assert len(laws) == 23 and not swallowing, f"laws catching a budget hit: {swallowing}"


def test_validators_stop_at_the_first_violation():
    # every validate_* returns None or its first violation, so none collects
    # violations into a list, and the report classes that held such lists
    # do not come back
    collecting, named = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("validate_"):
                collecting += [f"{path.name}:{n.lineno} {node.name}" for n in ast.walk(node)
                               if isinstance(n, ast.Attribute) and n.attr == "append"]
        named += [f"{path.name}:{line}" for line, source in enumerate(text.splitlines(), 1)
                  if "ValidationReport" in source or "ValidationFailure" in source]
    assert not collecting, f"validators that collect violations: {collecting}"
    assert not named, f"report classes named at {named}"


def test_the_table_layout_stays_inside_four_modules():
    # TableMap's tables are keyed one entry per argument tuple; only the map
    # itself, the generator, the text format and the checker's tamper name
    # them, so a change of layout stays a change to these four modules
    tables = {"cod_act", "slot_act"}
    naming = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if tables & {getattr(node, "id", None), getattr(node, "attr", None),
                         getattr(node, "arg", None)}:
                naming.add(path.name)
    assert naming == {"multimap.py", "gen.py", "textio.py", "checker.py"}, (
        f"cod_act or slot_act named in {sorted(naming)}")
