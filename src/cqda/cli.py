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
budget.  ``CQDA_BUDGET`` overrides the exhaustive-search state cap;
when it is set, it also caps the calls of compilation, which are
otherwise not capped.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction

from . import hypergraph as hg
from .access import Provider, check_tuple
from .circuit import check_dump_tokens, dump_circuit
from .compiler import compile_binarized, dpll_compile
from .errors import BudgetExceededError, CqdaError, DatabaseFormatError, OutOfRangeError
from .project import da_conjunctive
from .query import SignedQuery, check_compatible, hypergraph_of, parse_query
from .reduction import signed_da_via_reduction
from .relations import Database, Domain, Relation, VarOrder


# --- file formats -------------------------------------------------------------

_MAX_ARITY = 1 << 16  # far above any atom; columns are named before a query is read, and 10**9 would exhaust memory


def database_from_dict(doc: dict) -> Database:
    """The database a JSON document describes; only the document's shape is checked here.

    ``Domain``, ``Relation`` and ``Database`` check what it holds; their errors become ``DatabaseFormatError``.
    """
    if not isinstance(doc, dict) or "domain" not in doc or "relations" not in doc:
        raise DatabaseFormatError("database document needs 'domain' and 'relations'")
    domain_values = doc["domain"]
    if not isinstance(domain_values, list) or not all(isinstance(v, str) for v in domain_values):
        raise DatabaseFormatError("'domain' must be a list of strings")
    try:
        domain = Domain(tuple(domain_values))
    except ValueError as exc:  # a repeated value
        raise DatabaseFormatError(str(exc)) from exc
    if not isinstance(doc["relations"], dict):
        raise DatabaseFormatError("'relations' must be an object mapping names to relations")
    relations: dict[str, Relation] = {}
    for name, spec in doc["relations"].items():
        if not isinstance(spec, dict) or "arity" not in spec or "tuples" not in spec:
            raise DatabaseFormatError(f"relation {name} needs 'arity' and 'tuples'")
        arity = spec["arity"]
        if type(arity) is not int or not 1 <= arity <= _MAX_ARITY:  # bool is an int subclass, but not an arity
            raise DatabaseFormatError(f"relation {name} has invalid arity")
        tuples = spec["tuples"]
        if not isinstance(tuples, list):
            raise DatabaseFormatError(f"relation {name}: 'tuples' must be a list")
        if not all(isinstance(row, list) for row in tuples):
            raise DatabaseFormatError(f"relation {name}: tuple width differs from arity")
        try:  # duplicates collapse silently: relations are sets
            relations[name] = Relation(tuple(f"c{j}" for j in range(arity)), frozenset(map(tuple, tuples)))
        except TypeError:  # an unhashable cell, so not a domain value
            value = next(v for row in tuples for v in row if not isinstance(v, str) or v not in domain)
            raise DatabaseFormatError(f"relation {name}: value {value!r} outside the domain") from None
        except ValueError as exc:  # a row of another width
            raise DatabaseFormatError(f"relation {name}: tuple width differs from arity") from exc
    try:
        return Database(domain, relations)
    except ValueError as exc:  # a value outside the domain, worded as above
        raise DatabaseFormatError(str(exc)) from exc


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


def _names(spec: str) -> list[str]:
    """The names of a comma-separated list, blanks dropped."""
    return [s for s in (part.strip() for part in spec.split(",")) if s]


def resolve_order(q: SignedQuery, spec: str | None) -> VarOrder:
    """Significance order for a query, from ``--order`` or by occurrence.

    Free variables come first by default so that projection works out of
    the box; an explicit order over exactly the free set is completed
    with the remaining variables in occurrence order.
    """
    occurrence = list(dict.fromkeys(v for atom in q.atoms for v in atom.args))  # first occurrences, in order
    if spec is None:
        if q.free is None:
            return VarOrder(tuple(occurrence))
        head = [v for v in occurrence if v in q.free]
        tail = [v for v in occurrence if v not in q.free]
        return VarOrder(tuple(head + tail))
    names = _names(spec)
    if len(set(names)) != len(names):
        raise CqdaError("--order repeats a variable")
    given = set(names)
    allvars = q.variables
    if given == allvars:
        return VarOrder(tuple(names))
    if q.free is not None and given == q.free:
        return VarOrder(tuple(names + [v for v in occurrence if v not in given]))
    raise CqdaError("--order must list the query variables (or exactly the free ones)")


def _inputs(args) -> tuple[SignedQuery, Database, VarOrder]:
    """Load both files, apply ``--free`` and resolve the order."""
    q = load_query(args.query)
    db = load_database(args.db)
    if getattr(args, "free", None) is not None:
        q = SignedQuery(q.atoms, frozenset(_names(args.free)))
    return q, db, resolve_order(q, args.order)


def _engine(args, q: SignedQuery, db: Database, order: VarOrder) -> Provider:
    """The engine ``--engine`` and ``--no-binarize`` select, built on the inputs."""
    budget = _budget(None)
    if getattr(args, "engine", "circuit") == "reduction":
        if q.free is not None:
            raise CqdaError("the reduction engine answers join queries only")
        return signed_da_via_reduction(q, db, order, binarize=not args.no_binarize, budget=budget)
    return da_conjunctive(q, db, order, binarize=not args.no_binarize, budget=budget)


def _budget(default: hg.Budget | None = hg.DEFAULT_BUDGET) -> hg.Budget | None:
    """The ``CQDA_BUDGET`` cap, else ``default``; compilation passes ``None`` (not capped)."""
    cap = os.environ.get("CQDA_BUDGET")
    if not cap:
        return default
    try:
        states = int(cap)
    except ValueError:
        states = 0
    if states < 1:
        raise CqdaError(f"CQDA_BUDGET must be a positive integer, got {cap!r}")
    return hg.Budget(states)


# --- commands -----------------------------------------------------------------

def cmd_width(args) -> int:
    q = load_query(args.query)
    if args.db:
        check_compatible(q, load_database(args.db))
    budget = _budget()
    sh = hypergraph_of(q)
    measure = args.measure

    def encode(width) -> int | str:
        if isinstance(width, Fraction):
            return width.numerator if width.denominator == 1 else str(width)
        return width

    if measure == "nsw":
        order, width, exact = None, hg.nsw_bruteforce(sh.unsigned(), budget=budget), True
    elif args.order:
        significance = resolve_order(q, args.order)
        width, exact = hg.width_of_order(sh, measure, significance.reversed(), budget), True
        order = list(significance.vars)
    else:
        elimination, width, exact = hg.best_order(sh, measure, budget)
        order = list(elimination.reversed().vars)
    _emit({"measure": measure, "order": order, "width": encode(width), "exact": exact}, args.pretty)
    return 0


def cmd_compile(args) -> int:
    q, db, order = _inputs(args)
    body = SignedQuery(q.atoms, None)
    budget = _budget(None)
    if args.no_binarize:
        check_dump_tokens([*db.domain.values, *order.vars])  # bits and identifiers always pass
        circuit, stats = dpll_compile(body, db, order.reversed(), budget)
    else:
        circuit, _, stats = compile_binarized(body, db, order.reversed(), budget)
    text = dump_circuit(circuit)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.stats:
        _emit(asdict(stats), args.pretty)
    return 0


def cmd_count(args) -> int:
    _emit({"count": str(_engine(args, *_inputs(args)).count())}, args.pretty)
    return 0


def cmd_access(args) -> int:
    _emit(dict(_engine(args, *_inputs(args)).kth(args.k)), args.pretty)
    return 0


def cmd_rank(args) -> int:
    try:
        doc = json.loads(args.tuple)
    except json.JSONDecodeError as exc:
        raise CqdaError(f"--tuple must be a JSON object: {exc}") from exc
    q, db, order = _inputs(args)
    check_tuple(doc, q.variables if q.free is None else q.free, db.domain)  # before the engine, whose build may fail
    _emit({"rank": str(_engine(args, q, db, order).rank_of(doc))}, args.pretty)
    return 0


def cmd_enumerate(args) -> int:
    for t in _engine(args, *_inputs(args)).answers(args.start, args.limit):
        _emit(dict(t), args.pretty)
    return 0


def cmd_project(args) -> int:
    """``access``, ``count`` or ``enumerate`` on the query with its head set by ``--free``."""
    if args.k is not None:
        return cmd_access(args)
    if args.count:
        return cmd_count(args)
    return cmd_enumerate(args)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cqda", description="Signed-query direct access over ordered circuits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_engine=False):
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
    p.add_argument("--k", type=int, help="return only the k-th projected answer")
    p.add_argument("--count", action="store_true", help="print only the count")
    p.set_defaults(func=cmd_project, start=1, limit=None)

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
