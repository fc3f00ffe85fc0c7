"""Every definition in ``src/portsec`` has a caller.

Lists each module's top-level names (functions, classes, assigned
constants) and each class's public methods, then requires the name to
occur as a whole word somewhere in ``src/portsec`` or ``perfbench``
other than on its own definition line. Tests do not count: an API only
tests call is code no workflow reaches.

A word scan is blind to names that are common words (``digest``,
``actor``) and to state that is written but never read; those need a
reader's eye. It catches the rest as soon as the last caller goes.

An option scan reads the syntax tree: every parameter with a default,
on a top-level function or a public method or constructor in
``src/portsec``, must be passed by some call in ``src/portsec`` or
``perfbench``. Dataclass fields are state, not options, and are not
scanned. Calls are matched by the bare name called, so a call to another
function of the same name can hide an option that no caller sets.

Two import checks ride along, read from the syntax tree: no module in
``src/portsec`` imports another module's ``_private`` name, and no module
in ``src/portsec`` or ``tests`` imports a name it never uses. Tests may
import private names.

A suite check reads the syntax tree too: no function in ``src/portsec``
takes a ``suite`` and no class stores one, outside ``KEPT_SUITES``. There
is one suite, ``envelope.DEFAULT_SUITE``, read where it is used.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "portsec").glob("*.py"))
SEARCHED = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

#: Names kept without a caller, each with its reason.
ALLOWED = {
    "__version__": "package metadata, read by users and tools, not by code",
    "rollover": "ledger model feature with no CLI or benchmark path yet (ROADMAP items 4, 9)",
    "CaState.revoke": "revocation is a safety check; its path stays with ROADMAP items 4, 9",
}

#: Options kept without a caller that sets them, each with its reason.
ALLOWED_OPTIONS = {
    "main.argv": "console entry point: the installed script passes no argument",
}

#: ``suite`` parameters and attributes kept, each with its reason: the
#: benchmark, whose files stay as they are, passes or reads each one.
KEPT_SUITES = {
    "build_transaction": "perfbench/workloads.py passes World.suite as its sixth argument",
    "mutate_field": "perfbench/workloads.py passes DEFAULT_SUITE as its fourth argument",
    "World.suite": "perfbench/workloads.py reads it to pass to build_transaction",
}


def _definitions():
    """(qualified name, bare name, file, definition line) for every
    top-level definition and public method."""
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name, node.name, path, node.lineno
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        yield target.id, target.id, path, node.lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name, path, item.lineno


def _orphans():
    lines = {path: path.read_text(encoding="utf-8").splitlines() for path in SEARCHED}
    orphans = set()
    for qualified, name, def_path, def_line in _definitions():
        word = re.compile(rf"(?<![\w]){re.escape(name)}(?![\w])")
        used = any(
            word.search(text)
            for path in SEARCHED
            for no, text in enumerate(lines[path], start=1)
            if not (path == def_path and no == def_line)
        )
        if not used:
            orphans.add(qualified)
    return orphans


def test_every_definition_has_a_caller():
    orphans = _orphans()
    assert orphans - set(ALLOWED) == set(), "definitions no code reaches"


def test_allowlist_names_only_orphans():
    # an entry whose name gained a caller has no reason left to stay
    assert set(ALLOWED) - _orphans() == set()


def _options():
    """(qualified option, name calls use, positional parameters, the
    option) for every parameter with a default of a top-level function,
    public method or ``__init__`` in ``src/portsec``. A constructor is
    called by its class name; a bound method's ``self`` takes no call
    position."""
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                yield from _defaults(node.name, node.name, node.args, 0)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    if item.name != "__init__" and item.name.startswith("_"):
                        continue
                    static = any(getattr(d, "id", "") == "staticmethod"
                                 for d in item.decorator_list)
                    called = node.name if item.name == "__init__" else item.name
                    yield from _defaults(f"{node.name}.{item.name}", called, item.args,
                                         0 if static else 1)


def _defaults(qualified, called, args, skip):
    positional = [a.arg for a in args.posonlyargs + args.args][skip:]
    with_default = positional[len(positional) - len(args.defaults):] if args.defaults else []
    with_default += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    for name in with_default:
        yield f"{qualified}.{name}", called, positional, name


def _passes(call: ast.Call, positional: list[str], name: str) -> bool:
    """Does ``call`` pass ``name``: by keyword, at its position, or
    through a ``*`` at or before that position or a ``**``?"""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if name not in positional:
        return False
    at = positional.index(name)
    return any(
        i == at or (isinstance(arg, ast.Starred) and i <= at) for i, arg in enumerate(call.args)
    )


def _unset_options():
    calls: dict[str, list[ast.Call]] = {}
    for path in SEARCHED:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                called = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(called, []).append(node)
    return {
        qualified
        for qualified, called, positional, name in _options()
        if not any(_passes(call, positional, name) for call in calls.get(called, ()))
    }


def test_every_option_has_a_caller():
    unset = sorted(_unset_options() - set(ALLOWED_OPTIONS))
    assert not unset, f"options no workflow sets: {', '.join(unset)}"


def test_option_allowlist_names_only_unset_options():
    assert set(ALLOWED_OPTIONS) - _unset_options() == set()


def _imports(tree):
    """(module, imported name, bound name) for every import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.module or "", alias.name, alias.asname or alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, "", alias.asname or alias.name.split(".")[0]


def _used_names(tree) -> set[str]:
    """Every name the module reads, string annotations included."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
            annotations += [a.annotation for a in ast.walk(node.args) if isinstance(a, ast.arg)]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used_names(ast.parse(ann.value, mode="eval"))
    return used


def test_no_module_imports_a_private_name():
    private = [
        f"{path.name}: {module}.{name}"
        for path in SOURCES
        for module, name, _ in _imports(ast.parse(path.read_text(encoding="utf-8")))
        if name.startswith("_") and not name.startswith("__")
    ]
    assert private == []


def test_every_imported_name_is_used():
    unused = []
    for path in SOURCES + TESTS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        unused += [f"{path.name}: {bound}" for _, _, bound in _imports(tree) if bound not in used]
    assert unused == []


def _suites():
    """Each function in ``src/portsec`` that takes a ``suite`` parameter,
    by name, and each class attribute named ``suite``, as ``Class.suite``;
    an attribute set on an object outside a class body is ``?.suite``."""
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                if any(p is not None and p.arg == "suite" for p in params):
                    yield node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    targets = item.targets if isinstance(item, ast.Assign) else (
                        [item.target] if isinstance(item, ast.AnnAssign) else [])
                    if any(getattr(t, "id", None) == "suite" for t in targets):
                        yield f"{node.name}.suite"
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(isinstance(t, ast.Attribute) and t.attr == "suite" for t in targets):
                    yield "?.suite"


def test_no_function_takes_and_no_class_stores_a_suite():
    assert sorted(set(_suites()) - set(KEPT_SUITES)) == []


def test_suite_allowlist_names_only_kept_suites():
    assert set(KEPT_SUITES) - set(_suites()) == set()
