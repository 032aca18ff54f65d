"""Only ``sim/gcpolicy.py`` talks to the garbage collector.

The collector's thresholds and permanent generation are process-wide:
a second module setting them would silently undo the policy's scopes
(DESIGN.md, "GC policy").  Everything under ``src/repro/`` reaches
:mod:`gc` through :mod:`repro.sim.gcpolicy` instead.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

OWNER = pathlib.Path("sim", "gcpolicy.py")


def gc_imports(tree: ast.AST) -> list:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"import {alias.name} at line {node.lineno}"
                      for alias in node.names
                      if alias.name.split(".")[0] == "gc"]
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module and node.module.split(".")[0] == "gc"):
            found.append(f"from gc import at line {node.lineno}")
    return found


def test_the_owner_exists_and_is_recognised():
    owner = SRC / OWNER
    assert gc_imports(ast.parse(owner.read_text(), filename=str(owner)))


@pytest.mark.parametrize("snippet", ["import gc", "import gc as collector",
                                     "import os, gc", "from gc import freeze",
                                     "def f():\n    import gc"])
def test_every_spelling_is_caught(snippet):
    assert gc_imports(ast.parse(snippet))


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.rglob("*.py"))
             if p.relative_to(SRC) != OWNER],
    ids=lambda p: str(p.relative_to(SRC)))
def test_no_gc_outside_the_policy(path):
    violations = gc_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not violations, (
        f"{path.relative_to(SRC)} talks to gc directly; go through "
        f"repro.sim.gcpolicy instead: {violations}")
