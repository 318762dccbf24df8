"""Every public module-level function and class in src/heatlab has a caller.

The scan parses src/heatlab/*.py and perfbench/*.py.  A public (no leading
underscore), module-level function or class counts as used when its name
appears in either tree outside its own definition: as a name, an attribute,
or a string constant (perfbench/tracing.py names traced functions by
string).  Import statements do not count, so a re-export in __init__.py is
not a use.  A definition with a decorator other than `dataclass` is exempt:
the decorator (for example `@suite`) registers it.  Tests are not callers.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "heatlab").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

# Public names with no caller in src/heatlab or perfbench, each kept on purpose.
ALLOWED_UNCALLED = {
    "kernel_upper_log": "rank-general polynomial-Gaussian upper bound; awaits the "
                        "rank-two suites",
    "grigoryan_bound": "model-profile derivative bound; awaits the rank-two suites",
    "grigoryan_f_lower_constant": "proven constant of the iterated-profile lower shape, "
                                  "which tests check grigoryan_f_iterated against",
    "derivative_envelope_step": "mean-value propagation step behind the rate "
                                "recurrence; awaits a suite",
    "maximal_kernel_bound": "rank-general weighted supremum bound; awaits the "
                            "rank-two suites",
    "build_from_roots": "builds the rank-general models; awaits the rank-two suites",
    "parse_root_system": "reads rank-general root data; awaits the rank-two suites",
    "parse_group": "reads a [group] section from text; test-facing",
    "parse_report_csv": "reads a report CSV back; test-facing",
}


def _exempt(node) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if not (isinstance(target, ast.Name) and target.id == "dataclass"):
            return True
    return False


def public_definitions(tree: ast.Module) -> list:
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and not _exempt(node)]


def referenced_names(tree: ast.AST, skip=None) -> set[str]:
    """Names, attributes and identifier-like string constants in `tree`,
    outside the subtree `skip` and outside import statements."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip or isinstance(node, (ast.Import, ast.ImportFrom)):
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


def uncalled(sources: dict[str, ast.Module], callers: dict[str, ast.Module]) -> set[str]:
    """Public definitions of `sources` that no tree of `callers` references
    outside the definition itself; both map a file name to its tree."""
    outside = {name: referenced_names(tree) for name, tree in callers.items()}
    found = set()
    for name, tree in sources.items():
        for node in public_definitions(tree):
            used = any(node.name in (referenced_names(tree, skip=node) if other == name else refs)
                       for other, refs in outside.items())
            if not used:
                found.add(node.name)
    return found


@pytest.fixture(scope="module")
def trees():
    return {str(path): ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS}


def test_every_public_definition_has_a_caller(trees):
    sources = {str(path): trees[str(path)] for path in SOURCES}
    assert sum(len(public_definitions(tree)) for tree in sources.values()) > 50
    missing = uncalled(sources, trees) - set(ALLOWED_UNCALLED)
    assert not missing, (f"public names with no caller in src/heatlab or perfbench: "
                         f"{sorted(missing)}; give each a caller, delete it with its "
                         f"tests, or allow it with a reason")


def test_allowlist_names_only_uncalled_definitions(trees):
    sources = {str(path): trees[str(path)] for path in SOURCES}
    stale = set(ALLOWED_UNCALLED) - uncalled(sources, trees)
    assert not stale, f"allowed names that are now called or gone: {sorted(stale)}"


def test_scan_flags_a_definition_only_its_own_body_or_an_import_uses():
    module = ast.parse("def orphan(n):\n    return orphan(n - 1)\n\n"
                       "def used():\n    return 1\n\n"
                       "@register\ndef registered():\n    return 2\n\n"
                       "class _Private:\n    pass\n")
    caller = ast.parse("from .mod import orphan\nvalue = mod.used()\n")
    tracing = ast.parse("TRACED = ((\"mod\", \"traced\"),)\n")
    traced = ast.parse("def traced():\n    return 3\n")
    found = uncalled({"mod.py": module, "traced.py": traced},
                     {"mod.py": module, "caller.py": caller, "tracing.py": tracing,
                      "traced.py": traced})
    assert found == {"orphan"}
