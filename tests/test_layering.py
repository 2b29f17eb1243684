"""The import rules of docs/architecture.md, checked on the source.

Every module under ``src/repro`` is parsed, not imported.  Only imports
that run when the module is imported count: an import inside a
function body or an ``if TYPE_CHECKING:`` block is exempt, because the
rules bound what importing a layer drags in, not what a call may reach
for lazily.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _within(name, package):
    return name == package or name.startswith(package + ".")


def _is_type_checking(test):
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") \
        or (isinstance(test, ast.Attribute)
            and test.attr == "TYPE_CHECKING")


def _imports(source, module, is_package):
    """Absolute names of the modules ``source`` imports at import time."""
    package = module if is_package else module.rpartition(".")[0]
    found = []
    stack = [ast.parse(source)]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[:len(parts) - node.level + 1])
                if node.module:
                    found.append(base + "." + node.module)
                else:
                    found.extend(base + "." + alias.name
                                 for alias in node.names)
            else:
                found.append(node.module)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _edges():
    """(importer, imported) for every import of a ``repro`` module."""
    edges = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        module = ".".join(parts)
        for name in _imports(path.read_text(), module, is_package):
            if _within(name, "repro"):
                edges.append((module, name))
    return edges


#: One predicate per rule in the "Import rules" section; each flags the
#: (importer, imported) pairs that break it.
RULES = {
    "bdd-imports-no-other-package": lambda src, dst:
        _within(src, "repro.bdd") and not _within(dst, "repro.bdd"),
    "leaves-import-only-themselves": lambda src, dst:
        (_within(src, "repro.obs") and src != "repro.obs.cli"
         and not _within(dst, "repro.obs"))
        or (src in ("repro.resilience.budget", "repro.seeds")
            and dst != src),
    "core-below-campaign-layers": lambda src, dst:
        _within(src, "repro.core")
        and any(_within(dst, layer) for layer in
                ("repro.experiments", "repro.jobs", "repro.serve")),
    "sat-and-bdd-are-siblings": lambda src, dst:
        (_within(src, "repro.sat") and _within(dst, "repro.bdd"))
        or (_within(src, "repro.bdd") and _within(dst, "repro.sat")),
    "resilience-below-jobs": lambda src, dst:
        _within(src, "repro.resilience") and _within(dst, "repro.jobs"),
    "jobs-below-experiments": lambda src, dst:
        _within(src, "repro.jobs") and _within(dst, "repro.experiments"),
}


def test_only_import_time_imports_count():
    source = "\n".join([
        "from typing import TYPE_CHECKING",
        "from . import sibling",
        "from ..jobs.spec import CaseSpec",
        "import repro.core.result",
        "if TYPE_CHECKING:",
        "    from ..serve import server",
        "def lazy():",
        "    from ..experiments import cli",
        "class Holder:",
        "    from ..sat import solver",
    ])
    assert sorted(_imports(source, "repro.resilience.faults", False)) \
        == ["repro.core.result", "repro.jobs.spec",
            "repro.resilience.sibling", "repro.sat", "typing"]


def test_the_scan_sees_the_package():
    edges = _edges()
    assert ("repro.jobs.engine", "repro.jobs.spec") in edges
    assert ("repro.core.ladder", "repro.bdd") in edges


@pytest.mark.parametrize("rule", sorted(RULES))
def test_import_rule(rule):
    broken = RULES[rule]
    violations = ["%s -> %s" % edge for edge in _edges() if broken(*edge)]
    assert violations == []
