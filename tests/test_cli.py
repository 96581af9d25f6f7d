import json

import pytest
from hypothesis import event, given, settings, strategies as st

from cqda.cli import database_from_dict, main
from cqda.query import eval_bruteforce, parse_query
from cqda.relations import VarOrder, sort_lex

EX51_DB = {
    "domain": ["0", "1"],
    "relations": {
        "S": {"arity": 4, "tuples": [["0", "0", "0", "0"]]},
        "R": {"arity": 2, "tuples": [["0", "0"], ["0", "1"], ["1", "1"], ["1", "0"]]},
        "T": {"arity": 2, "tuples": [["0", "1"], ["1", "1"]]},
    },
}
EX51_QUERY = "Q(x1,x2,x3,x4) :- !S(x1,x2,x3,x4), T(x1,x3), R(x2,x4).\n"


@pytest.fixture
def files(tmp_path):
    db = tmp_path / "db.json"
    db.write_text(json.dumps(EX51_DB))
    query = tmp_path / "q.cq"
    query.write_text(EX51_QUERY)
    return str(db), str(query)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_db_rejects_bad_documents():
    from cqda.errors import DatabaseFormatError

    def rel(arity, *rows):
        return {"arity": arity, "tuples": list(rows)}

    width = "^relation R: tuple width differs from arity$"
    cases = [
        ({"domain": ["a", "a"], "relations": {}}, "^domain values must be distinct$"),
        # the domain is checked before any relation
        ({"domain": ["a", "a"], "relations": {"R": rel(2, ["a"])}}, "^domain values must be distinct$"),
        ({"domain": ["a"], "relations": {"R": rel(2, ["a"])}}, width),
        ({"domain": ["a"], "relations": {"R": rel(2, ["a", "a"], ["a", "a", "a"])}}, width),
        ({"domain": ["a"], "relations": {"R": rel(2, ["a", "a"], "aa")}}, width),
        ({"domain": ["a"], "relations": {"R": rel(True, ["a"])}}, "^relation R has invalid arity$"),
        # column names are built before any query is read, so a huge arity must not get that far
        ({"domain": ["a"], "relations": {"R": rel(2**16 + 1)}}, "^relation R has invalid arity$"),
        ({"domain": ["a"], "relations": {"R": rel(10**9)}}, "^relation R has invalid arity$"),
    ]
    for doc, message in cases:
        with pytest.raises(DatabaseFormatError, match=message):
            database_from_dict(doc)
    assert len(database_from_dict({"domain": ["a"], "relations": {"R": rel(2**16)}}).relations["R"].vars) == 2**16


@pytest.mark.parametrize("value", ["z", 1, None, ["a"], {"a": "a"}])
def test_db_names_a_value_outside_the_domain(value):
    from cqda.errors import DatabaseFormatError

    bad = {"arity": 2, "tuples": [["a", "b"], ["b", value]]}
    good = {"arity": 1, "tuples": [["a"]]}
    for relations, name in (({"R": bad}, "R"), ({"S": good, "R": bad}, "R"), ({"R": good, "S": bad}, "S")):
        with pytest.raises(DatabaseFormatError, match=f"^relation {name}: value .* outside the domain$") as err:
            database_from_dict({"domain": ["a", "b"], "relations": relations})
        assert repr(value) in str(err.value)


def test_count_command(files, capsys):
    db, query = files
    code, out, _ = run(capsys, "count", db, query, "--order", "x1,x2,x3,x4")
    assert code == 0
    assert json.loads(out) == {"count": "8"}


def test_access_command_first_and_last(files, capsys):
    db, query = files
    oracle = sort_lex(
        eval_bruteforce(parse_query(EX51_QUERY), database_from_dict(EX51_DB)),
        VarOrder(("x1", "x2", "x3", "x4")),
        database_from_dict(EX51_DB).domain,
    )
    code, out, _ = run(capsys, "access", db, query, "--order", "x1,x2,x3,x4", "--k", "1")
    assert code == 0 and json.loads(out) == dict(oracle[0].items())
    code, out, _ = run(capsys, "access", db, query, "--order", "x1,x2,x3,x4", "--k", "8")
    assert code == 0 and json.loads(out) == dict(oracle[-1].items())


def test_access_out_of_range_exit_code(files, capsys):
    db, query = files
    code, _, err = run(capsys, "access", db, query, "--order", "x1,x2,x3,x4", "--k", "9")
    assert code == 2
    assert "k out of range (count=8)" in err


def test_engines_and_binarization_agree(files, capsys):
    db, query = files
    outputs = []
    for extra in ([], ["--no-binarize"], ["--engine", "reduction"]):
        lines = []
        for k in range(1, 9):
            code, out, _ = run(capsys, "access", db, query, "--order", "x1,x2,x3,x4", "--k", str(k), *extra)
            assert code == 0
            lines.append(out)
        outputs.append(lines)
    assert outputs[0] == outputs[1] == outputs[2]


def test_enumerate_window_and_empty(files, capsys):
    db, query = files
    code, out, _ = run(capsys, "enumerate", db, query, "--order", "x1,x2,x3,x4")
    assert code == 0 and len(out.strip().splitlines()) == 8
    code, out, _ = run(capsys, "enumerate", db, query, "--from", "1", "--limit", "0")
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "enumerate", db, query, "--from", "7", "--limit", "5")
    assert code == 2
    code, out, err = run(capsys, "enumerate", db, query, "--limit", "-3")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")
    code, out, err = run(capsys, "enumerate", db, query, "--from", "50")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")
    code, out, _ = run(capsys, "enumerate", db, query, "--from", "9")
    assert code == 0 and out == ""


def test_rank_command(files, capsys):
    db, query = files
    code, out, _ = run(capsys, "access", db, query, "--order", "x1,x2,x3,x4", "--k", "5")
    t = json.loads(out)
    code, out, _ = run(capsys, "rank", db, query, "--order", "x1,x2,x3,x4", "--tuple", json.dumps(t))
    assert code == 0 and json.loads(out) == {"rank": "5"}
    code, _, err = run(capsys, "rank", db, query, "--tuple", '{"x1": "0"}')
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "rank", db, query, "--tuple", "not json")
    assert code == 1


def test_rank_engines_agree(files, capsys):
    db, query = files
    order = ("--order", "x1,x2,x3,x4")
    answer = {"x1": "0", "x2": "1", "x3": "1", "x4": "0"}
    missing = {"x1": "1", "x2": "0", "x3": "0", "x4": "0"}  # T(1,0) is not stored
    for t, expected in ((answer, "3"), (missing, "4")):
        ranks = []
        for engine in ("circuit", "reduction"):
            code, out, _ = run(capsys, "rank", db, query, *order, "--engine", engine, "--tuple", json.dumps(t))
            assert code == 0
            ranks.append(json.loads(out)["rank"])
        assert ranks == [expected, expected]


def test_enumerate_matches_sorted_oracle_across_engines(files, capsys):
    db, query = files
    oracle = sort_lex(
        eval_bruteforce(parse_query(EX51_QUERY), database_from_dict(EX51_DB)),
        VarOrder(("x1", "x2", "x3", "x4")),
        database_from_dict(EX51_DB).domain,
    )
    expected = [dict(t.items()) for t in oracle]
    for extra in ([], ["--no-binarize"], ["--engine", "reduction"]):
        code, out, _ = run(capsys, "enumerate", db, query, "--order", "x1,x2,x3,x4", *extra)
        assert code == 0
        assert [json.loads(line) for line in out.strip().splitlines()] == expected


def test_project_command(files, capsys):
    db, query = files
    code, out, _ = run(capsys, "project", db, query, "--free", "x1,x2", "--order", "x1,x2,x3,x4")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 4
    assert rows == sorted(rows, key=lambda r: (r["x1"], r["x2"]))
    code, out, _ = run(capsys, "project", db, query, "--free", "x1,x2", "--count")
    assert code == 0 and json.loads(out) == {"count": "4"}


def test_width_command(files, capsys, tmp_path):
    _, _ = files
    tri_q = tmp_path / "tri.cq"
    tri_q.write_text("Q(*) :- E1(x,y), E2(y,z), E3(x,z).\n")
    code, out, _ = run(capsys, "width", str(tri_q), "--measure", "fhow")
    assert code == 0
    doc = json.loads(out)
    assert doc["width"] == "3/2" and doc["exact"] is True

    single = tmp_path / "single.cq"
    single.write_text("Q(*) :- E(x,y).\n")
    code, out, _ = run(capsys, "width", str(single), "--measure", "how")
    assert json.loads(out)["width"] == 1

    db, query = files
    code, out, _ = run(capsys, "width", query, "--measure", "show", "--order", "x1,x2,x3,x4")
    doc = json.loads(out)
    assert doc["width"] == 1 and doc["order"] == ["x1", "x2", "x3", "x4"]


def test_compile_command_writes_dump_and_stats(files, capsys, tmp_path):
    db, query = files
    out_file = tmp_path / "circuit.txt"
    code, out, _ = run(
        capsys, "compile", db, query, "--order", "x1,x2,x3,x4", "--no-binarize",
        "-o", str(out_file), "--stats",
    )
    assert code == 0
    stats = json.loads(out)
    assert stats["cache_hits"] >= 1 and stats["edges"] > 0
    from cqda.access import count, preprocess
    from conftest import load_circuit

    circuit = load_circuit(out_file.read_text())
    assert count(circuit, preprocess(circuit)) == 8


@pytest.mark.parametrize("value", ["a b", "a->b", "a\tb"])
def test_compile_rejects_a_raw_value_the_dump_cannot_carry(tmp_path, files, capsys, value):
    _, query = files
    db = tmp_path / "odd.json"
    db.write_text(json.dumps({**EX51_DB, "domain": EX51_DB["domain"] + [value]}))
    code, out, err = run(capsys, "compile", str(db), query, "--no-binarize")
    assert code == 1 and out == ""
    assert err == f"error: token {value!r} cannot appear in a circuit dump\n"
    # binarized, the circuit's domain is the bits, so the same database compiles
    assert run(capsys, "compile", str(db), query)[0] == 0


def test_compile_checks_a_raw_value_before_compiling(tmp_path, files, capsys, monkeypatch):
    from cqda import cli

    def refuse(*args, **kwargs):
        raise AssertionError("compiled a database the dump cannot carry")

    _, query = files
    db = tmp_path / "odd.json"
    db.write_text(json.dumps({**EX51_DB, "domain": EX51_DB["domain"] + ["a->b"]}))
    monkeypatch.setattr(cli, "dpll_compile", refuse)
    code, out, err = run(capsys, "compile", str(db), query, "--no-binarize")
    assert (code, out) == (1, "")
    assert err == "error: token 'a->b' cannot appear in a circuit dump\n"


def test_parse_error_exit_code(files, capsys, tmp_path):
    db, _ = files
    broken = tmp_path / "broken.cq"
    broken.write_text("Q(x :- R(x).")
    code, _, err = run(capsys, "count", db, str(broken))
    assert code == 1 and "error:" in err


def test_usage_error_exit_code(capsys):
    code = main(["access"])
    assert code == 1


def test_relations_list_is_a_format_error(tmp_path, files, capsys):
    _, query = files
    db = tmp_path / "list.json"
    db.write_text(json.dumps({"domain": ["0", "1"], "relations": []}))
    code, out, err = run(capsys, "count", str(db), query)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_non_numeric_budget_is_a_usage_error(files, capsys, monkeypatch):
    _, query = files
    monkeypatch.setenv("CQDA_BUDGET", "abc")
    code, out, err = run(capsys, "width", query, "--measure", "show")
    assert code == 1 and out == ""
    assert "CQDA_BUDGET" in err and len(err.strip().splitlines()) == 1


def test_width_over_too_many_families_exits_3(capsys, tmp_path):
    # 20 edges: bfhow maximises over 2^20 edge subsets, each costing a cover per step
    star = tmp_path / "star.cq"
    atoms = [f"R{i}(a,b{i})" for i in range(10)] + [f"!N{i}(b{i})" for i in range(10)]
    star.write_text(f"Q(*) :- {', '.join(atoms)}.\n")
    for extra in ([], ["--order", "a,b0,b1,b2,b3,b4,b5,b6,b7,b8,b9"]):
        code, out, err = run(capsys, "width", str(star), "--measure", "bfhow", *extra)
        assert code == 3 and out == ""
        assert err.startswith("error: 2^20 edge families") and len(err.strip().splitlines()) == 1
    # sfhow keeps the positive edges: 2^10 families stay under the budget
    code, out, _ = run(capsys, "width", str(star), "--measure", "sfhow")
    assert code == 0 and json.loads(out)["width"] == 1


@pytest.mark.parametrize("command", ["count", "compile", "project"])
def test_compile_budget_exhausted_exits_3(files, capsys, monkeypatch, command):
    db, query = files
    extra = ["--free", "x1,x2"] if command == "project" else []
    monkeypatch.setenv("CQDA_BUDGET", "1")
    code, out, err = run(capsys, command, db, query, *extra)
    assert code == 3 and out == ""
    assert err.startswith("error: compilation exceeded the budget of 1 calls")
    assert len(err.strip().splitlines()) == 1
    monkeypatch.setenv("CQDA_BUDGET", "1000")
    assert run(capsys, command, db, query, *extra)[0] == 0


@pytest.mark.parametrize("command", ["count", "compile", "project"])
def test_compilation_is_not_capped_without_cqda_budget(files, capsys, monkeypatch, command):
    from cqda import hypergraph

    db, query = files
    extra = ["--free", "x1,x2"] if command == "project" else []
    monkeypatch.delenv("CQDA_BUDGET", raising=False)
    monkeypatch.setattr(hypergraph, "DEFAULT_BUDGET", hypergraph.Budget(1))  # the search default does not reach compile
    assert run(capsys, command, db, query, *extra)[0] == 0


@pytest.mark.parametrize("value", [["0"], 0, None, {"a": "0"}])
def test_rank_rejects_a_non_string_tuple_value(files, capsys, value):
    db, query = files
    t = json.dumps({"x1": value, "x2": "0", "x3": "0", "x4": "0"})
    code, out, err = run(capsys, "rank", db, query, "--tuple", t)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


_TEXT = st.text(alphabet="x01234,{} ", max_size=6)
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 5), st.sampled_from(["0", "1", "2"]), _TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(_TEXT, inner, max_size=3)),
    max_leaves=8,
)
_CELL = st.one_of(st.sampled_from(["0", "1"]), _JSON)
_RELATION = st.fixed_dictionaries({
    "arity": st.one_of(st.sampled_from([2, 4]), _JSON),
    "tuples": st.lists(st.lists(_CELL, min_size=1, max_size=4), max_size=4),
})
_VALID_DB = st.fixed_dictionaries({
    "domain": st.just(["0", "1"]),
    "relations": st.fixed_dictionaries({
        name: st.fixed_dictionaries({
            "arity": st.just(arity),
            "tuples": st.lists(st.lists(st.sampled_from(["0", "1"]), min_size=arity, max_size=arity), max_size=6),
        })
        for name, arity in (("S", 4), ("R", 2), ("T", 2))
    }),
})
# a domain value with whitespace or "->" is valid, but a raw-domain circuit dump cannot carry it
_DUMP_HOSTILE_DB = st.builds(
    lambda doc, value: {**doc, "domain": ["0", "1", value]}, _VALID_DB, st.sampled_from(["a b", "a->b"])
)
_DB_DOC = st.one_of(
    _VALID_DB,
    _VALID_DB,
    _JSON,
    st.fixed_dictionaries({
        "domain": st.one_of(st.just(["0", "1"]), st.lists(_TEXT, max_size=3), _JSON),
        "relations": st.one_of(st.dictionaries(st.sampled_from("RST"), _RELATION, max_size=3), _JSON),
    }),
)
_ORDER = st.one_of(st.sampled_from(["x1,x2,x3,x4", "x4,x3,x2,x1", "x1,x2", "x1,x1", ""]), _TEXT)
_INT = st.one_of(st.integers(-2, 10).map(str), _TEXT)
_TUPLE = st.one_of(
    # over the query's variables and the valid documents' domain, so a rank run can succeed
    st.fixed_dictionaries({v: st.sampled_from(["0", "1"]) for v in ("x1", "x2", "x3", "x4")}),
    st.dictionaries(st.sampled_from(["x1", "x2", "x3", "x4", "y"]), _CELL, max_size=5),
    _JSON,
)


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(["count", "access", "rank", "enumerate", "project", "width", "compile"]))
    extra = []
    if draw(st.booleans()):
        extra += ["--order", draw(_ORDER)]
    if command == "width":
        if draw(st.booleans()):
            extra += ["--measure", draw(st.sampled_from(["how", "fhow", "show", "sfhow", "bhow", "bfhow", "nsw", "x"]))]
        return command, extra
    if command in ("count", "access", "rank", "enumerate"):
        if draw(st.booleans()):
            extra += ["--engine", draw(st.sampled_from(["circuit", "reduction", "x"]))]
    if command != "project" and draw(st.booleans()):
        extra.append("--no-binarize")
    if command == "access" or (command == "project" and draw(st.booleans())):
        extra += ["--k", draw(_INT)]
    if command == "rank":
        extra += ["--tuple", json.dumps(draw(_TUPLE))]
    if command == "enumerate":
        extra += ["--from", draw(_INT), "--limit", draw(_INT)]
    if command == "project":
        extra += ["--free", draw(st.one_of(st.sampled_from(["x1,x2", "x1", "y", ""]), _TEXT))]
    return command, extra


_HEADS = st.sampled_from(["Q(*)", "Q(x1,x2,x3,x4)", "Q(x1,x2)", "Q(x1,x3)", "Q(x4)", "Q()", "Q(y)"])
_BODIES = st.sampled_from([
    "!S(x1,x2,x3,x4), T(x1,x3), R(x2,x4)",
    "R(x1,x2), !T(x2,x3)",
    "S(x1,x2,x3,x4), !R(x1,x2)",
    "R(x1,x1)",
    "U(x1)",
    "T(x1,x2,x3)",
])
_QUERY_TEXT = st.one_of(
    st.just(EX51_QUERY),
    st.builds(lambda head, body: f"{head} :- {body}.\n", _HEADS, _BODIES),
    st.text(alphabet="QRSTx1234(),!.:-* \n", max_size=40),
)
# None leaves CQDA_BUDGET unset; small caps stop compilation, the rest are malformed
_BUDGET = st.one_of(st.none(), st.sampled_from(["1", "3", "40", "1000"]), st.sampled_from(["0", "-2", "", "abc"]), _TEXT)


def _run_generated(doc, command, extra, query_text):
    """Exit code and stderr of ``main`` on a generated database document and query text."""
    import contextlib
    import io
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        db, query = os.path.join(tmp, "db.json"), os.path.join(tmp, "q.cq")
        with open(db, "w") as fh:
            json.dump(doc, fh)
        with open(query, "w") as fh:
            fh.write(query_text)
        paths = [query, "--db", db] if command == "width" else [db, query]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([command, *paths, *extra])
    return code, err.getvalue()


@given(st.one_of(_DB_DOC, _DUMP_HOSTILE_DB), _argvs())
@settings(max_examples=150, deadline=None)
def test_cli_never_raises_on_generated_input(doc, argv):
    command, extra = argv
    code, err = _run_generated(doc, command, extra, EX51_QUERY)
    event(f"{command} exit {code}")
    assert code in (0, 1, 2, 3)
    assert code == 0 or err.count("error:") == 1


@given(_DB_DOC, _argvs(), _QUERY_TEXT, _BUDGET)
@settings(max_examples=150, deadline=None)
def test_cli_never_raises_on_generated_query_and_budget(doc, argv, query_text, budget):
    import os
    from unittest import mock

    command, extra = argv
    with mock.patch.dict(os.environ):  # restores the environment on exit
        os.environ.pop("CQDA_BUDGET", None)
        if budget is not None:
            os.environ["CQDA_BUDGET"] = budget
        code, err = _run_generated(doc, command, extra, query_text)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    assert code == 0 or err.count("error:") == 1
