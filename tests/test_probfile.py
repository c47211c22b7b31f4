"""Problem-document parsing, serialization, and schema validation."""

import copy
import json

import numpy as np
import pytest

from llcp.examples import benchmark, hello_world, queuing
from llcp.probfile import (
    ProblemFileError,
    load_problem,
    parse_problem,
    problem_schema,
    result_schema,
    save_problem,
    serialize_problem,
    validate_document,
    validate_result,
)

HELLO_DOC = {
    "variables": [
        {"name": "x", "len": 1, "pos": True},
        {"name": "y", "len": 1, "pos": True},
        {"name": "z", "len": 1, "pos": True},
    ],
    "parameters": [
        {"name": "a", "len": 1, "pos": True, "value": [2.0]},
        {"name": "b", "len": 1, "pos": True, "value": [1.0]},
        {"name": "c", "len": 1, "pos": False, "value": [0.5]},
    ],
    "objective": {
        "sense": "minimize",
        "expr": {"atom": "ratio", "args": [
            {"const": 1.0},
            {"atom": "mul", "args": [
                {"ref": "x"}, {"ref": "y"}, {"ref": "z"}]},
        ]},
    },
    "constraints": [
        {"kind": "leq",
         "lhs": {"atom": "mul", "args": [
             {"ref": "a"},
             {"atom": "add", "args": [
                 {"atom": "mul", "args": [{"ref": "x"}, {"ref": "y"}]},
                 {"atom": "mul", "args": [{"ref": "x"}, {"ref": "z"}]},
                 {"atom": "mul", "args": [{"ref": "y"}, {"ref": "z"}]},
             ]},
         ]},
         "rhs": {"ref": "b"}},
        {"kind": "leq",
         "lhs": {"atom": "power", "args": [{"ref": "y"}],
                 "attrs": {"exponent": {"ref": "c"}}},
         "rhs": {"ref": "x"}},
    ],
}


def hello_doc():
    return copy.deepcopy(HELLO_DOC)


def test_hand_written_document_solves():
    p = parse_problem(hello_doc())
    assert p.solve() == pytest.approx(hello_world().solve(), rel=1e-9)


def test_schemas_are_valid_json_schema():
    from jsonschema import Draft202012Validator

    Draft202012Validator.check_schema(problem_schema())
    Draft202012Validator.check_schema(result_schema())


@pytest.mark.parametrize("make", [hello_world, queuing,
                                  lambda: benchmark(n=3, m=2, seed=1)])
def test_round_trip_is_identity(make):
    first = serialize_problem(make())
    again = serialize_problem(parse_problem(first))
    assert first == again


def test_round_trip_preserves_solutions():
    p = queuing()
    q = parse_problem(serialize_problem(p))
    assert p.solve() == pytest.approx(q.solve(), rel=1e-9)
    for vp, vq in zip(p.variables, q.variables):
        assert vp.name == vq.name
        assert np.allclose(vp.value, vq.value, atol=1e-9)


def test_disk_round_trip(tmp_path):
    path = tmp_path / "queuing.json"
    save_problem(queuing(), path)
    p = load_problem(path)
    assert p.solve() == pytest.approx(queuing().solve(), rel=1e-9)


def test_invalid_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"variables": [,]}')
    with pytest.raises(ProblemFileError, match="line 1 column"):
        load_problem(path)


def unreadable_path(tmp_path, case):
    """A path load_problem cannot read: missing, a directory, not UTF-8."""
    if case == "missing":
        return tmp_path / "missing.json"
    if case == "directory":
        return tmp_path
    path = tmp_path / "latin1.json"
    path.write_bytes('{"variables": ["\u00e9"]}'.encode("latin-1"))
    return path


@pytest.mark.parametrize("case, message", [
    ("missing", "No such file"),
    ("directory", "Is a directory"),
    ("not_utf8", "not UTF-8"),
])
def test_unreadable_file_raises_problem_file_error(tmp_path, case, message):
    path = unreadable_path(tmp_path, case)
    with pytest.raises(ProblemFileError, match=message) as info:
        load_problem(path)
    assert info.value.path == "" and str(path) in str(info.value)


def test_schema_violations_carry_paths():
    doc = hello_doc()
    del doc["objective"]
    with pytest.raises(ProblemFileError, match="objective"):
        validate_document(doc)

    doc = hello_doc()
    doc["variables"][0]["pos"] = False
    with pytest.raises(ProblemFileError, match=r"variables\[0\]"):
        validate_document(doc)

    doc = hello_doc()
    doc["objective"]["sense"] = "argmin"
    with pytest.raises(ProblemFileError, match="sense"):
        validate_document(doc)


def test_unknown_atom_is_positional():
    doc = hello_doc()
    doc["objective"]["expr"]["args"][1]["atom"] = "frobnicate"
    with pytest.raises(ProblemFileError) as info:
        parse_problem(doc)
    assert "objective.expr.args[1]" in str(info.value)
    assert "frobnicate" in str(info.value)


def test_dangling_reference_is_positional():
    doc = hello_doc()
    doc["constraints"][1]["rhs"] = {"ref": "w"}
    with pytest.raises(ProblemFileError) as info:
        parse_problem(doc)
    assert "constraints[1].rhs" in str(info.value)
    assert "'w'" in str(info.value)


def test_index_out_of_range():
    doc = hello_doc()
    doc["constraints"][1]["rhs"] = {"ref": "x", "index": 3}
    with pytest.raises(ProblemFileError, match=r"constraints\[1\].rhs"):
        parse_problem(doc)


def test_duplicate_names_rejected():
    doc = hello_doc()
    doc["parameters"][1]["name"] = "x"
    with pytest.raises(ProblemFileError, match="duplicate"):
        parse_problem(doc)


def test_unused_declaration_rejected():
    doc = hello_doc()
    doc["parameters"].append(
        {"name": "spare", "len": 1, "pos": True, "value": [1.0]})
    with pytest.raises(ProblemFileError, match="spare"):
        parse_problem(doc)


def test_variable_as_exponent_rejected():
    doc = hello_doc()
    doc["constraints"][1]["lhs"]["attrs"]["exponent"] = {"ref": "x"}
    with pytest.raises(ProblemFileError) as info:
        parse_problem(doc)
    assert "constraints[1].lhs" in str(info.value)


@pytest.mark.parametrize("raw", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_exponent_rejected(raw, tmp_path):
    # json reads these literals and the schema's "number" admits them
    path = tmp_path / "bad.json"
    path.write_text(
        '{"variables": [{"name": "x", "len": 1, "pos": true}],'
        ' "parameters": [],'
        ' "objective": {"sense": "minimize", "expr": {"ref": "x"}},'
        ' "constraints": [{"kind": "leq",'
        '   "lhs": {"atom": "power", "args": [{"ref": "x"}],'
        f'          "attrs": {{"exponent": {raw}}}}},'
        '   "rhs": {"const": 2.0}}]}')
    validate_document(json.loads(path.read_text()))
    with pytest.raises(ProblemFileError, match="finite") as info:
        load_problem(path)
    assert info.value.path == "constraints[0].lhs"


def test_wrong_value_length_rejected():
    doc = hello_doc()
    doc["parameters"][0]["value"] = [2.0, 3.0]
    with pytest.raises(ProblemFileError, match=r"parameters\[0\].value"):
        parse_problem(doc)


def test_nonpositive_constant_rejected():
    doc = hello_doc()
    doc["objective"]["expr"]["args"][0] = {"const": -1.0}
    with pytest.raises(ProblemFileError, match="objective.expr.args"):
        parse_problem(doc)


def test_result_schema_accepts_solve_output():
    validate_result({
        "command": "solve",
        "status": "optimal",
        "value": 15.33,
        "variables": {"x": [0.56], "y": [0.31], "z": [0.37]},
        "nonsmooth": False,
        "stats": {"iterations": 75, "solver_time": 0.01, "total_time": 0.02,
                  "scale": 1.0, "factorizations": 1},
    })


def test_result_schema_rejects_unknown_fields():
    with pytest.raises(ProblemFileError):
        validate_result({"command": "solve", "bogus": 1})
    with pytest.raises(ProblemFileError):
        validate_result({"command": "solve", "stats": {"bogus": 1}})
    with pytest.raises(ProblemFileError):
        validate_result({"command": "levitate"})


def test_vector_parameters_round_trip():
    doc = serialize_problem(queuing())
    text = json.dumps(doc)
    assert json.loads(text) == doc
    gamma = next(p for p in doc["parameters"] if p["name"] == "gamma")
    assert gamma == {"name": "gamma", "len": 2, "pos": True,
                     "value": [1.0, 2.0]}
