"""The package defines only what its runtime, scripts and benchmark use.

Checks and oracles that only tests call live in ``tests/`` (``conftest.py``
when several test files share them).  A public top-level function or class
of ``src/cqda`` therefore needs a reference in the code elsewhere in the
package (its own definition, comments and docstrings do not count), in
``scripts/`` or in ``perfbench/``, or an import in the acceptance suite,
whose names are the package's contract.  ``KEPT`` lists the few
exceptions, each with its reason.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cqda"

KEPT = {
    "cover_number": "public integral cover number of a vertex set, the quantity every width measure maximises",
    "fractional_cover_number": "public fractional cover number, the same for the fractional measures",
    "semantics_bruteforce": "oracle: the relation a circuit computes, materialised; compile and projection tests compare with it",
}


def _code_words(text: str) -> list[tuple[int, str]]:
    """``(line, word)`` for each word of the code: comments and docstrings left out."""
    docstrings = {
        (node.body[0].lineno, node.body[0].col_offset)
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    return [
        (tok.start[0], word)
        for tok in tokenize.generate_tokens(io.StringIO(text).readline)
        if tok.type != tokenize.COMMENT and not (tok.type == tokenize.STRING and tok.start in docstrings)
        for word in re.findall(r"\w+", tok.string)
    ]


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
    words = {path: _code_words(text) for path, text in sources.items()}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(sources[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name in contract or node.name in KEPT:
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if not any(
                word == node.name and not (other == path and start <= line <= node.end_lineno)
                for other, found in words.items()
                for line, word in found
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
