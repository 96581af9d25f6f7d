"""Command-line front end: file formats and the user-facing commands.

Database files are JSON documents::

    {"domain": ["a", "b"],
     "relations": {"R": {"arity": 2, "tuples": [["a", "b"], ["b", "b"]]}}}

The domain lists distinct values whose declaration order is the value
order.  Query files hold one rule ``Head(v1, ..) :- Lit, Lit, ... .``
where a literal is ``Name(v, ..)`` or ``!Name(v, ..)`` and ``Head(*)``
keeps every variable.

``--order`` always means the lexicographic significance order: the
first listed variable is the most significant.  Engines reverse it
internally where elimination order is needed.  Exit codes: 0 success,
1 usage or parse failure, 2 out-of-range index, 3 exhausted search
budget.  ``CQDA_BUDGET`` overrides the exhaustive-search state cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import hypergraph as hg
from .access import answer_window
from .circuit import dump_circuit
from .compiler import compile_binarized, dpll_compile
from .errors import (
    BudgetExceededError,
    CqdaError,
    DatabaseFormatError,
    OutOfRangeError,
)
from .project import da_conjunctive
from .query import SignedQuery, hypergraph_of, parse_query
from .reduction import signed_da_via_reduction
from .relations import Assignment, Database, Domain, Relation, VarOrder


# --- file formats -------------------------------------------------------------

def database_from_dict(doc: dict) -> Database:
    if not isinstance(doc, dict) or "domain" not in doc or "relations" not in doc:
        raise DatabaseFormatError("database document needs 'domain' and 'relations'")
    domain_values = doc["domain"]
    if not isinstance(domain_values, list) or not all(isinstance(v, str) for v in domain_values):
        raise DatabaseFormatError("'domain' must be a list of strings")
    if len(set(domain_values)) != len(domain_values):
        raise DatabaseFormatError("domain values must be distinct")
    domain = Domain(tuple(domain_values))
    known = frozenset(domain_values)
    if not isinstance(doc["relations"], dict):
        raise DatabaseFormatError("'relations' must be an object mapping names to relations")
    relations: dict[str, Relation] = {}
    for name, spec in doc["relations"].items():
        if not isinstance(spec, dict) or "arity" not in spec or "tuples" not in spec:
            raise DatabaseFormatError(f"relation {name} needs 'arity' and 'tuples'")
        arity = spec["arity"]
        if not isinstance(arity, int) or arity < 1:
            raise DatabaseFormatError(f"relation {name} has invalid arity")
        if not isinstance(spec["tuples"], list):
            raise DatabaseFormatError(f"relation {name}: 'tuples' must be a list")
        rows = set()
        for row in spec["tuples"]:
            if not isinstance(row, list) or len(row) != arity:
                raise DatabaseFormatError(f"relation {name}: tuple width differs from arity")
            try:
                inside = known.issuperset(row)
            except TypeError:  # an unhashable cell, so not a domain value
                inside = False
            if not inside:
                value = next(v for v in row if not isinstance(v, str) or v not in known)
                raise DatabaseFormatError(f"relation {name}: value {value!r} outside the domain")
            rows.add(tuple(row))  # duplicates collapse silently: relations are sets
        relations[name] = Relation(tuple(f"c{j}" for j in range(arity)), frozenset(rows))
    return Database(domain, relations)


def database_to_dict(db: Database) -> dict:
    return {
        "domain": list(db.domain.values),
        "relations": {
            name: {"arity": len(rel.vars), "tuples": sorted(list(row) for row in rel.rows)}
            for name, rel in sorted(db.relations.items())
        },
    }


def load_database(path: str) -> Database:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DatabaseFormatError(f"{path}: {exc}") from exc
    return database_from_dict(doc)


def load_query(path: str) -> SignedQuery:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise CqdaError(f"{path}: {exc}") from exc
    return parse_query(text)


# --- shared plumbing ----------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit(_fail(message, 1))


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _emit(obj, pretty: bool) -> None:
    print(json.dumps(obj, indent=2 if pretty else None, sort_keys=False))


def _occurrence_order(q: SignedQuery) -> list[str]:
    seen: list[str] = []
    for atom in q.atoms:
        for v in atom.args:
            if v not in seen:
                seen.append(v)
    return seen


def resolve_order(q: SignedQuery, spec: str | None) -> VarOrder:
    """Significance order for a query, from ``--order`` or by occurrence.

    Free variables come first by default so that projection works out of
    the box; an explicit order over exactly the free set is completed
    with the remaining variables in occurrence order.
    """
    occurrence = _occurrence_order(q)
    if spec is None:
        if q.free is None:
            return VarOrder(tuple(occurrence))
        head = [v for v in occurrence if v in q.free]
        tail = [v for v in occurrence if v not in q.free]
        return VarOrder(tuple(head + tail))
    names = [s for s in (part.strip() for part in spec.split(",")) if s]
    if len(set(names)) != len(names):
        raise CqdaError("--order repeats a variable")
    given = set(names)
    allvars = q.variables
    if given == allvars:
        return VarOrder(tuple(names))
    if q.free is not None and given == q.free:
        return VarOrder(tuple(names + [v for v in occurrence if v not in given]))
    raise CqdaError("--order must list the query variables (or exactly the free ones)")


def _build_engine(args, q: SignedQuery, db: Database, order: VarOrder):
    if getattr(args, "engine", "circuit") == "reduction":
        if q.free is not None:
            raise CqdaError("the reduction engine answers join queries only")
        return signed_da_via_reduction(q, db, order, binarize=not args.no_binarize)
    return da_conjunctive(q, db, order, binarize=not args.no_binarize)


def _budget() -> hg.Budget:
    cap = os.environ.get("CQDA_BUDGET")
    if not cap:
        return hg.DEFAULT_BUDGET
    try:
        states = int(cap)
    except ValueError:
        states = 0
    if states < 1:
        raise CqdaError(f"CQDA_BUDGET must be a positive integer, got {cap!r}")
    return hg.Budget(states)


def _assignment_json(t: Assignment) -> dict:
    return dict(t.items())


# --- commands -----------------------------------------------------------------

def cmd_width(args) -> int:
    q = load_query(args.query)
    if args.db:
        from .query import check_compatible

        check_compatible(q, load_database(args.db))
    budget = _budget()
    sh = hypergraph_of(q)
    measure = args.measure

    def encode(width) -> int | str:
        if isinstance(width, Fraction):
            return width.numerator if width.denominator == 1 else str(width)
        return width

    if measure == "nsw":
        width = hg.nsw_bruteforce(sh.unsigned(), budget=budget)
        _emit({"measure": measure, "order": None, "width": width, "exact": True}, args.pretty)
        return 0
    if args.order:
        significance = resolve_order(q, args.order)
        elimination = significance.reversed()
        width = hg.width_of_order(sh, measure, elimination, budget)
        _emit(
            {"measure": measure, "order": list(significance.vars), "width": encode(width), "exact": True},
            args.pretty,
        )
        return 0
    elimination, width, exact = hg.best_order(sh, measure, budget)
    _emit(
        {
            "measure": measure,
            "order": list(elimination.reversed().vars),
            "width": encode(width),
            "exact": exact,
        },
        args.pretty,
    )
    return 0


def cmd_compile(args) -> int:
    q = load_query(args.query)
    db = load_database(args.db)
    order = resolve_order(q, args.order)
    body = SignedQuery(q.atoms, None)
    if args.no_binarize:
        circuit, stats = dpll_compile(body, db, order.reversed())
    else:
        circuit, _, stats = compile_binarized(body, db, order.reversed())
    text = dump_circuit(circuit)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.stats:
        _emit(stats.to_dict(), args.pretty)
    return 0


def cmd_count(args) -> int:
    q = load_query(args.query)
    db = load_database(args.db)
    engine = _build_engine(args, q, db, resolve_order(q, args.order))
    _emit({"count": str(engine.count())}, args.pretty)
    return 0


def cmd_access(args) -> int:
    q = load_query(args.query)
    db = load_database(args.db)
    engine = _build_engine(args, q, db, resolve_order(q, args.order))
    _emit(_assignment_json(engine.kth(args.k)), args.pretty)
    return 0


def cmd_rank(args) -> int:
    q = load_query(args.query)
    db = load_database(args.db)
    order = resolve_order(q, args.order)
    try:
        doc = json.loads(args.tuple)
    except json.JSONDecodeError as exc:
        raise CqdaError(f"--tuple must be a JSON object: {exc}") from exc
    if not isinstance(doc, dict):
        raise CqdaError("--tuple must be a JSON object")
    answer_vars = q.variables if q.free is None else q.free
    if set(doc) != answer_vars:
        raise CqdaError(f"--tuple must bind exactly {sorted(answer_vars)}")
    for value in doc.values():
        if not isinstance(value, str):
            raise CqdaError(f"--tuple value {value!r} is not a string")
        if value not in db.domain:
            raise CqdaError(f"--tuple value {value!r} outside the domain")
    engine = _build_engine(args, q, db, order)
    _emit({"rank": str(engine.rank_of(Assignment(doc)))}, args.pretty)
    return 0


def cmd_enumerate(args) -> int:
    q = load_query(args.query)
    db = load_database(args.db)
    engine = _build_engine(args, q, db, resolve_order(q, args.order))
    for k in answer_window(engine.count(), args.start, args.limit):
        _emit(_assignment_json(engine.kth(k)), args.pretty)
    return 0


def cmd_project(args) -> int:
    q = load_query(args.query)
    db = load_database(args.db)
    free = frozenset(s for s in (part.strip() for part in args.free.split(",")) if s)
    q = SignedQuery(q.atoms, free)
    engine = da_conjunctive(q, db, resolve_order(q, args.order), binarize=not args.no_binarize)
    if args.k is not None:
        _emit(_assignment_json(engine.kth(args.k)), args.pretty)
        return 0
    if args.count:
        _emit({"count": str(engine.count())}, args.pretty)
        return 0
    for t in engine.answers():
        _emit(_assignment_json(t), args.pretty)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cqda", description="Signed-query direct access over ordered circuits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_db=True, with_engine=False):
        if with_db:
            p.add_argument("db", help="database JSON file")
        p.add_argument("query", help="query file")
        p.add_argument("--order", help="significance order, comma separated (most significant first)")
        p.add_argument("--pretty", action="store_true", help="indent JSON output")
        if with_engine:
            p.add_argument("--engine", choices=("circuit", "reduction"), default="circuit")
            p.add_argument("--no-binarize", action="store_true", help="compile on the raw domain")

    p = sub.add_parser("width", help="width of a query hypergraph")
    p.add_argument("query", help="query file")
    p.add_argument("--db", help="optional database for arity checking")
    p.add_argument("--order", help="significance order (reversed into the elimination order)")
    p.add_argument(
        "--measure",
        choices=("how", "fhow", "show", "sfhow", "bhow", "bfhow", "nsw"),
        default="show",
    )
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_width)

    p = sub.add_parser("compile", help="compile a query to a circuit dump")
    common(p)
    p.add_argument("--no-binarize", action="store_true")
    p.add_argument("--stats", action="store_true", help="also print compile statistics")
    p.add_argument("-o", "--output", help="write the dump here instead of stdout")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("count", help="number of answers")
    common(p, with_engine=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("access", help="k-th answer in lexicographic order")
    common(p, with_engine=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_access)

    p = sub.add_parser("rank", help="rank of a tuple among the answers")
    common(p, with_engine=True)
    p.add_argument("--tuple", required=True, help='JSON object, e.g. \'{"x": "a"}\'')
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("enumerate", help="stream a window of answers")
    common(p, with_engine=True)
    p.add_argument("--from", dest="start", type=int, default=1)
    p.add_argument("--limit", type=int)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("project", help="answers projected to chosen variables")
    common(p)
    p.add_argument("--free", required=True, help="comma-separated projection variables")
    p.add_argument("--no-binarize", action="store_true")
    p.add_argument("--k", type=int, help="return only the k-th projected answer")
    p.add_argument("--count", action="store_true", help="print only the count")
    p.set_defaults(func=cmd_project)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    except OutOfRangeError as exc:
        return _fail(str(exc), 2)
    except BudgetExceededError as exc:
        return _fail(str(exc), 3)
    except OSError as exc:  # missing, unreadable or not a file
        return _fail(str(exc), 1)
    except CqdaError as exc:
        return _fail(str(exc), 1)


if __name__ == "__main__":
    raise SystemExit(main())
