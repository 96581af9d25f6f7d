import json

import pytest

from cqda.cli import database_from_dict, database_to_dict, main
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


def test_db_roundtrip():
    db = database_from_dict(EX51_DB)
    assert database_from_dict(database_to_dict(db)).relations["R"].rows == db.relations["R"].rows
    assert database_to_dict(database_from_dict(database_to_dict(db))) == database_to_dict(db)


def test_db_rejects_bad_documents():
    from cqda.errors import DatabaseFormatError

    bad = {"domain": ["a", "a"], "relations": {}}
    with pytest.raises(DatabaseFormatError):
        database_from_dict(bad)
    with pytest.raises(DatabaseFormatError):
        database_from_dict({"domain": ["a"], "relations": {"R": {"arity": 2, "tuples": [["a"]]}}})


@pytest.mark.parametrize("value", ["z", 1, None, ["a"], {"a": "a"}])
def test_db_names_a_value_outside_the_domain(value):
    from cqda.errors import DatabaseFormatError

    doc = {"domain": ["a", "b"], "relations": {"R": {"arity": 2, "tuples": [["a", "b"], ["b", value]]}}}
    with pytest.raises(DatabaseFormatError, match="^relation R: value .* outside the domain$") as err:
        database_from_dict(doc)
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
    from cqda.circuit import load_circuit

    circuit = load_circuit(out_file.read_text())
    assert count(circuit, preprocess(circuit)) == 8


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
