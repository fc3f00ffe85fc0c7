"""Every definition in ``src/portsec`` has a caller.

Lists each module's top-level names (functions, classes, assigned
constants), each class's public methods and each plain, non-dunder
constant assigned in a class body (enum members among them; annotated
dataclass fields are not), then requires the name to
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

Two memo checks read it as well: every ``functools`` cache in
``src/portsec`` is in ``CACHES`` with its reason, and the raw signature
primitives, ``DEFAULT_SUITE.verify`` and ``DEFAULT_SUITE.sign``, are
reached only from the functions ``PRIMITIVE_CALLERS`` names, so every
signature check reads the verify memo or a record of passed checks.
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
                    elif isinstance(item, ast.Assign):
                        for target in item.targets:
                            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                                yield f"{node.name}.{target.id}", target.id, path, item.lineno


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


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in ``src/portsec`` and ``perfbench``, by the bare name
    called."""
    calls: dict[str, list[ast.Call]] = {}
    for path in SEARCHED:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                called = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(called, []).append(node)
    return calls


def _unset_options():
    calls = _calls()
    return {
        qualified
        for qualified, called, positional, name in _options()
        if not any(_passes(call, positional, name) for call in calls.get(called, ()))
    }


def _overridden_options():
    """Options that some call reaches and every call passes: a default
    that only tests fall back on."""
    calls = _calls()
    return {
        qualified
        for qualified, called, positional, name in _options()
        if calls.get(called) and all(_passes(call, positional, name) for call in calls[called])
    }


def test_every_option_has_a_caller():
    unset = sorted(_unset_options() - set(ALLOWED_OPTIONS))
    assert not unset, f"options no workflow sets: {', '.join(unset)}"


def test_option_allowlist_names_only_unset_options():
    assert set(ALLOWED_OPTIONS) - _unset_options() == set()


def test_every_default_has_a_caller():
    overridden = sorted(_overridden_options())
    assert not overridden, f"defaults every workflow call overrides: {', '.join(overridden)}"


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


#: Each ``functools.lru_cache`` or ``functools.cache`` in ``src/portsec``,
#: as ``module.function``, with its reason.
CACHES = {
    "envelope._ecdsa": "one object, built on first use, so a process that meets no P-256 key "
                       "never loads cryptography's OpenSSL backend module (~0.5 MB of RSS)",
    "envelope._load_public": "parses and type-checks each DER public key once; key objects "
                             "are immutable, a pure function of the bytes",
    "envelope.wrapping_key": "build_world asks once per certificate: 2.8-3.3 us per world "
                             "build cached against 19.9-21.2 us uncached (18 certificates of "
                             "tests/data/golden.psf, timeit min of 7 x 2,000 on a 2-vCPU "
                             "host), about 1% of a ~1.7 ms desk_compare op",
    "envelope.sign": "the signing memo (SIGN_MEMO_SIZE): a signature is a function of key and "
                     "payload; per-owner signing waits for ROADMAP item 15's counts",
    "envelope.verify": "the one verify memo, of multi-signatures and certificate links "
                       "(VERIFY_MEMO_SIZE); per-owner records are ROADMAP item 22",
    "fixtures._load_private_cached": "loading validates a key (~70 ms for RSA-2048), once per "
                                     "fixture key however many worlds share it",
    "policy.default_matrix": "the default policy, parsed once and shared read-only",
}

#: The functions that may reach each raw signature primitive of
#: ``DEFAULT_SUITE``: the memos and a record's check.
PRIMITIVE_CALLERS = {
    "verify": {"envelope.verify", "ledger._signed"},
    "sign": {"envelope.sign"},
}


def _is_cache(node) -> bool:
    """Is ``node`` ``lru_cache`` or ``cache``, bare or as an attribute, or
    a call of one?"""
    if isinstance(node, ast.Call):
        node = node.func
    return (getattr(node, "id", None) or getattr(node, "attr", None)) in ("lru_cache", "cache")


def _caches():
    """``module.function`` of each function a cache wraps, as a decorator
    or by a call."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_is_cache(d) for d in node.decorator_list):
                    yield f"{path.stem}.{node.name}"
            elif isinstance(node, ast.Call) and _is_cache(node.func) and node.args:
                yield f"{path.stem}.{ast.unparse(node.args[0])}"


def test_every_cache_has_a_reason():
    assert sorted(set(_caches()) - set(CACHES)) == []


def test_cache_allowlist_names_only_caches():
    assert set(CACHES) - set(_caches()) == set()


def _suite_names(tree) -> set[str]:
    """``DEFAULT_SUITE`` and each name a module binds to it, alone or in a
    tuple assignment."""
    names = {"DEFAULT_SUITE"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                names |= {t.id for t, v in pairs
                          if isinstance(t, ast.Name) and getattr(v, "id", None) == "DEFAULT_SUITE"}
    return names


def _primitive_uses():
    """(primitive, ``module.function``) for each read of ``verify`` or
    ``sign`` off ``DEFAULT_SUITE`` in ``src/portsec``, called or bound; a
    read outside any function is ``module.``."""
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        suites = _suite_names(tree)

        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from visit(child, f"{path.stem}.{child.name}")
                    continue
                if (isinstance(child, ast.Attribute) and child.attr in PRIMITIVE_CALLERS
                        and getattr(child.value, "id", None) in suites):
                    yield child.attr, where
                yield from visit(child, where)

        yield from visit(tree, f"{path.stem}.")


def test_only_the_memos_and_a_record_reach_a_signature_primitive():
    strays = sorted(f"{where}: DEFAULT_SUITE.{primitive}" for primitive, where in _primitive_uses()
                    if where not in PRIMITIVE_CALLERS[primitive])
    assert strays == []


def test_primitive_allowlist_names_only_callers():
    named = {(primitive, where) for primitive, callers in PRIMITIVE_CALLERS.items()
             for where in callers}
    assert named - set(_primitive_uses()) == set()
