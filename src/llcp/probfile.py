"""JSON interchange for problems.

A problem document declares its variables and parameters up front, then
gives the objective and constraints as expression trees.  Three node
shapes exist:

  {"atom": "mul", "args": [...], "attrs": {...}}   atom application
  {"ref": "x"} / {"ref": "x", "index": 2}          leaf reference
  {"const": 2.5} / {"const": [1.0, 2.0]}           positive constant

Power exponents are static attributes, not arguments, so they live
under ``attrs`` as either a number or a parameter reference.  Parsing
validates against the shipped JSON schema first and reports the path of
the offending field on failure; serialization of a parsed problem
produces an equivalent document (parse . serialize is the identity on
parsed problems).
"""

from __future__ import annotations

import json
from importlib import resources

from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from .expr import (
    Constant,
    Elem,
    ExpressionError,
    Parameter,
    Variable,
    build_atom,
)
from .problem import Maximize, Minimize, Problem

__all__ = [
    "ProblemFileError",
    "load_problem",
    "parse_problem",
    "problem_schema",
    "result_schema",
    "save_problem",
    "serialize_problem",
    "validate_document",
    "validate_result",
]


class ProblemFileError(ValueError):
    """Document that cannot be turned into a problem.

    ``path`` points at the offending field, dotted-with-brackets style
    ("constraints[0].lhs.args[1]"); it is empty for file-level faults.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


_SCHEMAS: dict[str, dict] = {}


def _schema(filename: str) -> dict:
    if filename not in _SCHEMAS:
        text = resources.files("llcp.schemas").joinpath(filename).read_text()
        _SCHEMAS[filename] = json.loads(text)
    return _SCHEMAS[filename]


def problem_schema() -> dict:
    return _schema("problem.schema.json")


def result_schema() -> dict:
    return _schema("result.schema.json")


def _schema_error_path(error) -> str:
    parts = []
    for key in error.absolute_path:
        if isinstance(key, int):
            parts.append(f"[{key}]")
        else:
            parts.append(f".{key}" if parts else key)
    return "".join(parts)


def _validate(doc, schema) -> None:
    error = best_match(Draft202012Validator(schema).iter_errors(doc))
    if error is not None:
        raise ProblemFileError(_schema_error_path(error), error.message)


def validate_document(doc) -> None:
    """Schema-check a problem document; raises ProblemFileError."""
    _validate(doc, problem_schema())


def validate_result(doc) -> None:
    """Schema-check a command result document; raises ProblemFileError."""
    _validate(doc, result_schema())


# -- parsing -------------------------------------------------------------


def _build_node(node: dict, leaves: dict, path: str):
    if "const" in node:
        try:
            return Constant(node["const"])
        except ExpressionError as e:
            raise ProblemFileError(path, str(e)) from e
    if "ref" in node:
        base = leaves.get(node["ref"])
        if base is None:
            raise ProblemFileError(
                path, f"reference to undeclared name {node['ref']!r}")
        if "index" not in node:
            return base
        try:
            return base[node["index"]]
        except ExpressionError as e:
            raise ProblemFileError(path, str(e)) from e

    args = [_build_node(a, leaves, f"{path}.args[{i}]")
            for i, a in enumerate(node["args"])]
    attrs = node.get("attrs") or {}
    exponent = None
    if "exponent" in attrs:
        raw = attrs["exponent"]
        if isinstance(raw, dict):
            exponent = _build_node(raw, leaves, f"{path}.attrs.exponent")
        else:
            exponent = float(raw)
    try:
        return build_atom(node["atom"], args, exponent=exponent)
    except ExpressionError as e:
        raise ProblemFileError(path, str(e)) from e


def parse_problem(doc: dict) -> Problem:
    """Turn a problem document into a Problem.

    Every declared name must be used by the objective or a constraint;
    unused declarations usually indicate a typo and are rejected.
    """
    validate_document(doc)

    leaves: dict = {}
    for k, rec in enumerate(doc["variables"]):
        if rec["name"] in leaves:
            raise ProblemFileError(f"variables[{k}].name",
                                   f"duplicate name {rec['name']!r}")
        leaves[rec["name"]] = Variable(rec["name"], rec["len"])
    for k, rec in enumerate(doc["parameters"]):
        if rec["name"] in leaves:
            raise ProblemFileError(f"parameters[{k}].name",
                                   f"duplicate name {rec['name']!r}")
        param = Parameter(rec["name"], rec["len"], positive=rec["pos"])
        if rec.get("value") is not None:
            try:
                param.set_value(rec["value"])
            except ExpressionError as e:
                raise ProblemFileError(f"parameters[{k}].value", str(e)) from e
        leaves[rec["name"]] = param

    sense = doc["objective"]["sense"]
    expr = _build_node(doc["objective"]["expr"], leaves, "objective.expr")
    objective = Minimize(expr) if sense == "minimize" else Maximize(expr)

    constraints = []
    for k, rec in enumerate(doc["constraints"]):
        lhs = _build_node(rec["lhs"], leaves, f"constraints[{k}].lhs")
        rhs = _build_node(rec["rhs"], leaves, f"constraints[{k}].rhs")
        constraints.append(lhs <= rhs if rec["kind"] == "leq" else lhs == rhs)

    try:
        problem = Problem(objective, constraints)
    except ExpressionError as e:
        raise ProblemFileError("", str(e)) from e
    used = {leaf.name for leaf in problem.variables}
    used.update(leaf.name for leaf in problem.parameters)
    unused = sorted(set(leaves) - used)
    if unused:
        raise ProblemFileError(
            "", "declared but never used: " + ", ".join(unused))
    return problem


def load_problem(path) -> Problem:
    """Parse a problem from a JSON (UTF-8) file on disk."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ProblemFileError(
            "", f"{path}: invalid JSON at line {e.lineno} column {e.colno}: "
            f"{e.msg}") from e
    except OSError as e:
        raise ProblemFileError("", f"{path}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise ProblemFileError("", f"{path}: not UTF-8: {e.reason}") from e
    return parse_problem(doc)


# -- serialization -------------------------------------------------------


def _node_of(e) -> dict:
    if isinstance(e, Constant):
        vals = [float(v) for v in e.value]
        return {"const": vals[0] if len(vals) == 1 else vals}
    if isinstance(e, Elem):
        return {"ref": e.base.name, "index": e.index}
    if isinstance(e, (Variable, Parameter)):
        return {"ref": e.name}
    node = {"atom": e.atom, "args": [_node_of(a) for a in e.args]}
    if e.atom == "power":
        exp = e.exponent
        node["attrs"] = {
            "exponent": exp if isinstance(exp, float) else _node_of(exp)}
    return node


def serialize_problem(problem: Problem) -> dict:
    """Problem back to its document form."""
    parameters = []
    for p in problem.parameters:
        value = None if p.value is None else [float(v) for v in p.value]
        parameters.append(
            {"name": p.name, "len": p.size, "pos": p.positive, "value": value})
    return {
        "variables": [{"name": v.name, "len": v.size, "pos": True}
                      for v in problem.variables],
        "parameters": parameters,
        "objective": {"sense": problem.objective.sense,
                      "expr": _node_of(problem.objective.expr)},
        "constraints": [
            {"kind": "leq" if c.op == "<=" else "eq",
             "lhs": _node_of(c.lhs), "rhs": _node_of(c.rhs)}
            for c in problem.constraints],
    }


def save_problem(problem: Problem, path) -> None:
    """Write a problem document to disk, readable by load_problem."""
    with open(path, "w") as fh:
        json.dump(serialize_problem(problem), fh, indent=2)
        fh.write("\n")
