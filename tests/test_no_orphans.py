"""Every definition in ``src/portsec`` has a caller.

Lists each module's top-level names (functions, classes, assigned
constants) and each class's public methods, then requires the name to
occur as a whole word somewhere in ``src/portsec`` or ``perfbench``
other than on its own definition line. Tests do not count: an API only
tests call is code no workflow reaches.

A word scan is blind to names that are common words (``digest``,
``actor``) and to state that is written but never read; those need a
reader's eye. It catches the rest as soon as the last caller goes.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "portsec").glob("*.py"))
SEARCHED = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

#: Names kept without a caller, each with its reason.
ALLOWED = {
    "__version__": "package metadata, read by users and tools, not by code",
    "rollover": "ledger model feature with no CLI or benchmark path yet (ROADMAP items 4, 9)",
    "CaState.revoke": "revocation is a safety check; its path stays with ROADMAP items 4, 9",
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
