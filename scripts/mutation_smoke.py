#!/usr/bin/env python3
"""Mutation smoke test: fixed mutants of access, decoding and projection, each killed by named tier-1 tests.

Each mutant replaces one snippet of a source file in a temporary copy of
``src/`` and ``tests/``, then runs the tests it names with ``pytest -x``.
A mutant is killed when those tests fail, and survives when they pass.
The unmutated copy must pass every named test first, and each snippet
must occur exactly once in its file, so a refactor that moves the code
has to update the list here.  Prints one line per mutant with its time,
and exits 1 if any mutant survives or cannot be applied.  Stdlib only
(the tests themselves need pytest and hypothesis):

    python scripts/mutation_smoke.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ACCESS = "src/cqda/access.py"
COMPILER = "src/cqda/compiler.py"
PROJECT = "src/cqda/project.py"
ORACLE = "tests/test_access.py::test_direct_access_matches_oracle_everywhere"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "the descent keeps the crossed gate's count in the product",
        ACCESS,
        "            product //= rel_count[gid]\n",
        "",
        ("tests/test_access.py::test_direct_access_bounds", ORACLE),
    ),
    Mutant(
        "the descent keeps the crossed gate's variables in the mask",
        ACCESS,
        "            mask &= ~var_mask[gid]\n",
        "",
        ("tests/test_access.py::test_direct_access_bounds", ORACLE),
    ),
    Mutant(
        "a level with no gate pads with one free level too many",
        ACCESS,
        "scale = product * dsize ** (free - 1)",
        "scale = product * dsize ** free",
        ("tests/test_access.py::test_count_leq_on_annotated_circuit", ORACLE),
    ),
    Mutant(
        "the walk keeps the slots that an advance should clear",
        ACCESS,
        "                slot[r] = None\n",
        "                pass\n",
        ("tests/test_access.py::test_walk_slots_filled_above_an_advance_survive_it",),
    ),
    Mutant(
        "the walk advances onto edges of zero count",
        ACCESS,
        "                while i < end and counts[i] == counts[i - 1]:  # skip edges of zero count\n"
        "                    i += 1\n",
        "",
        ("tests/test_access.py::test_walk_equals_direct_access_on_every_window",),
    ),
    Mutant(
        "the decode table is keyed least significant bit first",
        COMPILER,
        '"values", {bits[::-1]: value for value, bits in codes.items()}',
        '"values", {bits: value for value, bits in codes.items()}',
        (
            "tests/test_compiler.py::test_codec_tables",
            "tests/test_compiler.py::test_one_decode_table_over_domain_sizes",
            "tests/test_project.py::test_answers_walk_equals_kth",
        ),
    ),
    Mutant(
        "a binarized window cuts each answer variable's bits one position late",
        PROJECT,
        "slice(at, at + width)",
        "slice(at + 1, at + width + 1)",
        ("tests/test_project.py::test_answers_walk_equals_kth",),
    ),
    Mutant(
        "a raw window runs one kth per answer instead of one walk",
        PROJECT,
        "            return (Assignment(zip(names, t)) for t in tuples)\n",
        "            return map(self._kth, ks)\n",
        ("tests/test_project.py::test_a_window_costs_one_descent",),
    ),
    Mutant(
        "an existential call tries every value after its first model",
        COMPILER,
        "                        found = True\n                        break\n",
        "                        found = True\n",
        ("tests/test_project.py::test_an_existential_call_stops_at_its_first_model",),
    ),
)


def pytest(root: Path, tests: tuple[str, ...]) -> tuple[int, float]:
    """Exit code and seconds of ``pytest -x`` over ``tests`` in ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return done.returncode, time.perf_counter() - started


def main() -> int:
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutation-smoke-") as tmp:
        root = Path(tmp)
        for part in ("src", "tests", "pyproject.toml"):
            copy = shutil.copytree if (ROOT / part).is_dir() else shutil.copyfile
            copy(ROOT / part, root / part)
        named = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        code, seconds = pytest(root, named)
        if code != 0:
            print(f"the unmutated copy fails its named tests (pytest exit {code}, {seconds:.1f} s)")
            return 1
        print(f"unmutated copy passes {len(named)} named tests in {seconds:.1f} s")
        bad = 0
        for m in MUTANTS:
            target = root / m.path
            original = target.read_text(encoding="utf-8")
            if original.count(m.old) != 1:
                print(f"NOT APPLIED  {m.name}: its snippet occurs {original.count(m.old)} times in {m.path}")
                bad += 1
                continue
            target.write_text(original.replace(m.old, m.new), encoding="utf-8")
            try:
                code, seconds = pytest(root, m.tests)
            finally:
                target.write_text(original, encoding="utf-8")
            # pytest exits 1 when a test fails; any other nonzero code means the run itself broke
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            print(f"{verdict:<10}  {m.name} ({seconds:.1f} s)")
            bad += code != 1
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed in {time.perf_counter() - started:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
