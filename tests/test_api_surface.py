"""Every module-level function and class in src/heatlab is reached by a run.

The scan parses src/heatlab/*.py and perfbench/*.py and walks references
from the roots: the module-level statements of src/heatlab (cli's
`__main__` guard included, def and class statements contributing only their
decorators), the bodies of `@suite` definitions, and every reference in
perfbench/*.py.  A definition, private ones included, is reached when a
reached body or a root names it: as a name, an attribute, or a string
constant (perfbench/tracing.py names traced functions by string); its own
body then joins the walk, a class with all its methods.  Import statements
do not count, so a re-export in __init__.py is not a use, and a name used
only inside another unreached definition is unreached too.  An allowlisted
name is exempt, but the walk does not pass through it.  Tests are not roots.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "heatlab").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

# Definitions no run reaches, each kept on purpose.
ALLOWED_UNCALLED = {
    "parse_group": "reads a [group] section from text; test-facing",
    "parse_report_csv": "reads a report CSV back; test-facing",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_suite(node) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "suite":
            return True
    return False


def referenced_names(tree: ast.AST) -> set[str]:
    """Names, attributes and identifier-like string constants in `tree`,
    outside import statements."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unreached(sources: dict[str, ast.Module], callers: dict[str, ast.Module],
              allowed=frozenset()) -> set[str]:
    """Module-level definitions of `sources` that no root reaches; both map a
    file name to its tree, and trees of `callers` not in `sources` are
    roots whole.  Names in `allowed` may be reached, but the walk does not
    enter their bodies."""
    definitions: dict[str, list] = {}
    frontier = []
    for tree in sources.values():
        for stmt in tree.body:
            if not isinstance(stmt, _DEFINITIONS):
                frontier.extend(referenced_names(stmt))
                continue
            definitions.setdefault(stmt.name, []).append(stmt)
            if _is_suite(stmt):
                frontier.append(stmt.name)
            for deco in stmt.decorator_list:
                frontier.extend(referenced_names(deco))
    for name, tree in callers.items():
        if name not in sources:
            frontier.extend(referenced_names(tree))
    reached = set()
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        if name not in allowed:
            for node in definitions.get(name, ()):
                frontier.extend(referenced_names(node))
    return set(definitions) - reached


@pytest.fixture(scope="module")
def trees():
    return {str(path): ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS}


def scan(trees) -> tuple[dict, set[str]]:
    sources = {str(path): trees[str(path)] for path in SOURCES}
    return sources, unreached(sources, trees, frozenset(ALLOWED_UNCALLED))


def test_every_definition_is_reached(trees):
    sources, found = scan(trees)
    assert sum(isinstance(stmt, _DEFINITIONS)
               for tree in sources.values() for stmt in tree.body) > 50
    missing = found - set(ALLOWED_UNCALLED)
    assert not missing, (f"definitions no run reaches: {sorted(missing)}; reach each from "
                         f"a suite, the CLI or perfbench, delete it with its tests, or "
                         f"allow it with a reason")


def test_allowlist_names_only_unreached_definitions(trees):
    _, found = scan(trees)
    stale = set(ALLOWED_UNCALLED) - found
    assert not stale, f"allowed names that are now reached or gone: {sorted(stale)}"


def test_scan_flags_a_definition_only_its_own_body_or_an_import_uses():
    module = ast.parse("def orphan(n):\n    return orphan(n - 1)\n\n"
                       "def used():\n    return 1\n\n"
                       "@register\ndef registered():\n    return 2\n\n"
                       "class _Private:\n    pass\n\n"
                       "VALUE = _Private\n")
    caller = ast.parse("from .mod import orphan\nvalue = mod.used()\n")
    tracing = ast.parse("TRACED = ((\"mod\", \"traced\"),)\n")
    traced = ast.parse("def traced():\n    return 3\n")
    found = unreached({"mod.py": module, "traced.py": traced},
                      {"mod.py": module, "caller.py": caller, "tracing.py": tracing,
                       "traced.py": traced})
    assert found == {"orphan", "registered"}


def test_scan_flags_a_helper_reached_only_from_an_orphan():
    module = ast.parse("def orphan():\n    return _helper()\n\n"
                       "def _helper():\n    return _deeper()\n\n"
                       "def _deeper():\n    return 1\n")
    assert unreached({"mod.py": module}, {"mod.py": module}) == {"orphan", "_helper", "_deeper"}


def test_scan_walks_suites_and_the_main_guard_but_not_allowed_names():
    module = ast.parse("@suite('one', 1, reads=())\ndef suite_one(cfg):\n    return _rows()\n\n"
                       "def _rows():\n    return []\n\n"
                       "def main():\n    return _run()\n\n"
                       "def _run():\n    return 0\n\n"
                       "def allowed():\n    return _only_allowed()\n\n"
                       "def _only_allowed():\n    return 1\n\n"
                       "if __name__ == '__main__':\n    main()\n")
    found = unreached({"mod.py": module}, {"mod.py": module}, frozenset({"allowed"}))
    assert found == {"allowed", "_only_allowed"}
