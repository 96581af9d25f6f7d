"""The package defines only what its runtime, scripts and benchmark use.

Checks and oracles that only tests call live in ``tests/`` (``conftest.py``
when several test files share them).  A public top-level function or class
of ``src/cqda`` therefore needs a word-boundary reference elsewhere in the
package (its own definition does not count), in ``scripts/`` or in
``perfbench/``, or an import in the acceptance suite, whose names are the
package's contract.  ``KEPT`` lists the few exceptions, each with its reason.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cqda"

KEPT = {
    "cover_number": "public integral cover number of a vertex set, the quantity every width measure maximises",
    "fractional_cover_number": "public fractional cover number, the same for the fractional measures",
    "semantics_bruteforce": "oracle: the relation a circuit computes, materialised; compile and projection tests compare with it",
}


def _without_definition(text: str, node: ast.AST) -> str:
    lines = text.splitlines()
    start = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return "\n".join(lines[: start - 1] + lines[node.end_lineno :])


def test_every_public_definition_has_a_caller_outside_the_tests():
    sources = {
        path: path.read_text(encoding="utf-8")
        for folder in (PACKAGE, ROOT / "scripts", ROOT / "perfbench")
        for path in sorted(folder.glob("*.py"))
    }
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    contract = {
        alias.name
        for node in ast.walk(acceptance)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cqda"
        for alias in node.names
    }
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(sources[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name in contract or node.name in KEPT:
                continue
            word = re.compile(rf"\b{node.name}\b")
            if not any(
                word.search(_without_definition(text, node) if other == path else text)
                for other, text in sources.items()
            ):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, f"only tests use these; move them to tests/: {unused}"
    # every exception still names a definition
    defined = {
        node.name
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(sources[path]).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert set(KEPT) <= defined
