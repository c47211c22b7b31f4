"""Command-line behavior: exit codes, outputs, and JSON results."""

import dataclasses
import json

import numpy as np
import pytest

from llcp import solver
from llcp.cli import main
from llcp.diff import NonsmoothWarning
from llcp.expr import Parameter
from llcp.fitting import model_problem
from llcp.probfile import ProblemFileError, save_problem, validate_result
from llcp.examples import hello_world

from test_probfile import unreadable_path

HELLO_OPT = np.array([0.5612147, 0.3149620, 0.3689206])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    doc = json.loads(out)
    validate_result(doc)
    return code, doc, err


def write_problem(tmp_path, problem, name="problem.json"):
    path = tmp_path / name
    save_problem(problem, path)
    return str(path)


# -- check ---------------------------------------------------------------


def test_check_hello(capsys, tmp_path):
    path = write_problem(tmp_path, hello_world())
    code, out, _ = run(capsys, "check", path)
    assert code == 0 and "OK" in out


def test_check_rejects_log_objective(capsys, tmp_path):
    doc = {
        "variables": [{"name": "x", "len": 2, "pos": True}],
        "parameters": [{"name": "c", "len": 2, "pos": True,
                        "value": [1.0, 2.0]}],
        "objective": {"sense": "minimize", "expr": {
            "atom": "log", "args": [{"atom": "add", "args": [
                {"atom": "mul", "args": [{"ref": "c", "index": 0},
                                         {"ref": "x", "index": 0}]},
                {"atom": "mul", "args": [{"ref": "c", "index": 1},
                                         {"ref": "x", "index": 1}]}]}]}},
        "constraints": [{"kind": "leq", "lhs": {"const": 2.0},
                         "rhs": {"ref": "x"}}],
    }
    path = tmp_path / "logobj.json"
    path.write_text(json.dumps(doc))
    code, doc, _ = run_json(capsys, "check", str(path))
    assert code == 1
    assert doc["ok"] is False
    assert "log" in doc["diagnostic"]
    assert "objective" in doc["diagnostic"]


def test_check_monomial_objective_no_constraints(capsys, tmp_path):
    doc = {
        "variables": [{"name": "x", "len": 1, "pos": True}],
        "parameters": [],
        "objective": {"sense": "minimize", "expr": {"ref": "x"}},
        "constraints": [],
    }
    path = tmp_path / "mono.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0


def test_check_reports_parse_errors(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1 and "line 1" in out


@pytest.mark.parametrize("case", ["missing", "directory", "not_utf8"])
@pytest.mark.parametrize("command",
                         ["check", "solve", "sensitivity", "backward"])
def test_unreadable_file_exits_1(capsys, tmp_path, command, case):
    path = str(unreadable_path(tmp_path, case))
    code, out, err = run(capsys, command, path)
    assert code == 1
    if command == "check":
        assert out.startswith("not solvable as given: ") and path in out
    else:
        assert err.startswith("error: ") and path in err
        assert "Traceback" not in err


# -- solve ---------------------------------------------------------------


def test_solve_hello_example(capsys):
    code, doc, _ = run_json(capsys, "solve", "--example", "hello")
    assert code == 0
    assert doc["status"] == "optimal"
    got = np.concatenate([doc["variables"][k] for k in ("x", "y", "z")])
    assert np.allclose(got, HELLO_OPT, atol=1e-4)
    assert doc["value"] == pytest.approx(15.3349076, rel=1e-6)
    assert doc["stats"]["iterations"] > 0
    assert doc["stats"]["factorizations"] >= 1 and doc["stats"]["scale"] > 0


def test_solve_text_reports_the_scale(capsys):
    code, out, _ = run(capsys, "solve", "--example", "benchmark", "--n", "500")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "status: optimal"
    scale, facts = lines[-1].split(", ")
    assert float(scale.removeprefix("scale: ")) > 1.0
    assert int(facts.removeprefix("factorizations: ")) > 1


def test_solve_reports_the_acceleration(capsys):
    code, doc, _ = run_json(capsys, "solve", "--example", "benchmark",
                            "--n", "250")
    stats = doc["stats"]
    assert code == 0 and stats["accelerations"] >= 1
    assert stats["rejections"] >= 0
    code, out, _ = run(capsys, "solve", "--example", "benchmark", "--n", "250")
    assert code == 0
    assert out.splitlines()[-2] == (f"accelerations: {stats['accelerations']}"
                                    f", rejections: {stats['rejections']}")


def test_solve_benchmark_example(capsys):
    code, doc, _ = run_json(capsys, "solve", "--example", "benchmark",
                            "--n", "24", "--m", "3", "--seed", "0")
    assert code == 0 and doc["status"] == "optimal"
    assert len(doc["variables"]["x"]) == 24


def test_solve_infeasible_box_exit_2(capsys, tmp_path):
    doc = {
        "variables": [{"name": "x", "len": 1, "pos": True}],
        "parameters": [{"name": "l", "len": 1, "pos": True, "value": [2.0]},
                       {"name": "u", "len": 1, "pos": True, "value": [0.5]}],
        "objective": {"sense": "minimize", "expr": {"ref": "x"}},
        "constraints": [
            {"kind": "leq", "lhs": {"ref": "l"}, "rhs": {"ref": "x"}},
            {"kind": "leq", "lhs": {"ref": "x"}, "rhs": {"ref": "u"}},
        ],
    }
    path = tmp_path / "box.json"
    path.write_text(json.dumps(doc))
    code, result, _ = run_json(capsys, "solve", str(path))
    assert code == 2
    assert result["status"] == "infeasible"
    assert result["value"] is None


def test_param_fills_unset_value(capsys, tmp_path):
    prob = hello_world()
    {p.name: p for p in prob.parameters}["b"].value = None
    path = write_problem(tmp_path, prob)
    code, _, _ = run(capsys, "solve", path)
    assert code == 1  # unset parameter cannot be solved
    code, doc, _ = run_json(capsys, "solve", path, "--param", "b=1.0")
    assert code == 0
    got = np.concatenate([doc["variables"][k] for k in ("x", "y", "z")])
    assert np.allclose(got, HELLO_OPT, atol=1e-4)


def test_file_value_wins_over_param_flag(capsys, tmp_path):
    path = write_problem(tmp_path, hello_world())
    code, doc, err = run_json(capsys, "solve", path, "--param", "b=5.0")
    assert code == 0
    assert "wins" in err
    got = np.concatenate([doc["variables"][k] for k in ("x", "y", "z")])
    assert np.allclose(got, HELLO_OPT, atol=1e-4)  # solved with b = 1


def test_unknown_parameter_name(capsys):
    code, _, err = run(capsys, "solve", "--example", "hello",
                       "--param", "nope=1.0")
    assert code == 1 and "nope" in err


def test_bad_vector_syntax(capsys):
    code, _, err = run(capsys, "solve", "--example", "hello",
                       "--param", "b=one")
    assert code == 1 and "comma-separated" in err


# -- sensitivity ----------------------------------------------------------


def test_sensitivity_zero_delta_is_zero(capsys):
    code, doc, _ = run_json(capsys, "sensitivity", "--example", "hello",
                            "--no-table")
    assert code == 0
    for delta in doc["deltas"].values():
        assert np.allclose(delta, 0.0)
    assert "derivatives" not in doc


def test_sensitivity_predicts_hello_perturbation(capsys):
    code, doc, _ = run_json(capsys, "sensitivity", "--example", "hello",
                            "--delta", "a=0.01", "--delta", "b=0.01",
                            "--delta", "c=0.01", "--verify")
    assert code == 0
    base = np.concatenate([doc["variables"][k] for k in ("x", "y", "z")])
    predicted = base + np.concatenate(
        [doc["deltas"][k] for k in ("x", "y", "z")])
    assert np.allclose(predicted, [0.55729, 0.31783, 0.37179], atol=5e-4)
    actual = base + np.concatenate(
        [doc["actual"][k] for k in ("x", "y", "z")])
    assert np.allclose(actual, [0.55732, 0.31781, 0.37178], atol=5e-4)


def test_sensitivity_table_for_queuing(capsys):
    code, doc, _ = run_json(capsys, "sensitivity", "--example", "queuing")
    assert code == 0
    table = doc["derivatives"]
    # rows stack mu then lam (discovery order); d mu / d mu_max column
    d_mu_max = np.array(table["mu_max"])
    assert np.allclose(d_mu_max[:, 0],
                       [0.41421356, 0.58578644, 0.41421356, 0.58578644],
                       atol=1e-6)
    for name in ("q_max", "w_max", "lam_min"):
        assert np.max(np.abs(table[name])) <= 1e-6


def test_sensitivity_verify_makes_one_re_solve(capsys, monkeypatch):
    original = solver.solve_batch
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_batch", counted)
    code, doc, _ = run_json(capsys, "sensitivity", "--example", "queuing",
                            "--delta", "mu_max=0.05", "--verify")
    assert code == 0 and len(calls) == 2
    # the table is the base solve's, as without --verify
    code, plain, _ = run_json(capsys, "sensitivity", "--example", "queuing",
                              "--delta", "mu_max=0.05")
    assert code == 0 and len(calls) == 3
    assert doc["derivatives"] == plain["derivatives"]
    assert doc["deltas"] == plain["deltas"]


# -- backward --------------------------------------------------------------


def test_backward_hello_gradients(capsys):
    code, doc, _ = run_json(capsys, "backward", "--example", "hello",
                            "--grad", "x=0.5612147",
                            "--grad", "y=0.3149620",
                            "--grad", "z=0.3689206")
    assert code == 0
    grads = np.concatenate([doc["gradients"][k] for k in ("a", "b", "c")])
    assert np.allclose(grads, [-0.1222598, 0.2445196, -0.1464881], atol=1e-5)


def test_backward_zero_gradient(capsys):
    code, doc, _ = run_json(capsys, "backward", "--example", "queuing",
                            "--grad", "lam=0", "--grad", "mu=0")
    assert code == 0
    for g in doc["gradients"].values():
        assert np.allclose(g, 0.0)


def test_backward_agrees_with_sensitivity(capsys):
    # <D S dalpha, dx> must equal <dalpha, D'S dx>: compare one forward
    # sweep against one backward sweep through separate invocations
    rng = np.random.default_rng(8)
    names = ["gamma", "q_max", "w_max", "d_max", "lam_min", "mu_max"]
    sizes = {"mu_max": 1}
    dalpha = {n: rng.standard_normal(sizes.get(n, 2)) for n in names}
    dx = {v: rng.standard_normal(2) for v in ("lam", "mu")}

    args = ["sensitivity", "--example", "queuing", "--no-table"]
    for n in names:
        args += ["--delta", n + "=" + ",".join(map(str, dalpha[n]))]
    code, fwd_doc, _ = run_json(capsys, *args)
    assert code == 0
    lhs = sum(float(np.array(fwd_doc["deltas"][v]) @ dx[v]) for v in dx)

    args = ["backward", "--example", "queuing"]
    for v in dx:
        args += ["--grad", v + "=" + ",".join(map(str, dx[v]))]
    code, back_doc, _ = run_json(capsys, *args)
    assert code == 0
    rhs = sum(float(np.array(back_doc["gradients"][n]) @ dalpha[n])
              for n in names)
    assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-6


# -- fit-regression ---------------------------------------------------------


def test_fit_regression_zero_iters(capsys, tmp_path):
    csv_path = tmp_path / "preds.csv"
    code, doc, _ = run_json(capsys, "fit-regression", "--N", "6", "--n", "3",
                            "--m", "3", "--iters", "0",
                            "--csv", str(csv_path))
    assert code == 0
    assert len(doc["history"]) == 1
    for rec in doc["predictions"]:
        assert np.all(np.diff(rec["y_pred"]) >= -1e-7)
    header, *rows = csv_path.read_text().strip().splitlines()
    assert header.split(",")[:3] == ["y_true_0", "y_true_1", "y_true_2"]
    assert len(rows) == 3  # half of N for validation


def test_fit_regression_counts_the_steps_it_took(capsys):
    # four samples of three features are fitted exactly by the
    # least-squares start, so the descent stops before its first step
    code, out, _ = run(capsys, "fit-regression", "--N", "4", "--n", "3",
                       "--m", "2", "--iters", "2")
    assert code == 0
    assert "after 0 steps" in out and "6 solves" in out


def test_fit_regression_reports_its_counts(capsys):
    code, doc, _ = run_json(capsys, "fit-regression", "--N", "6", "--n", "3",
                            "--m", "2", "--iters", "1")
    assert code == 0
    assert doc["solves"] == 2 * (6 + 3)
    assert doc["iterations"] >= 25 * doc["solves"]
    assert doc["factorizations"] == 1
    # the predictions are the validation solves behind the last val_mse
    y_true = np.array([rec["y_true"] for rec in doc["predictions"]])
    y_pred = np.array([rec["y_pred"] for rec in doc["predictions"]])
    assert len(y_pred) == 3
    mse = np.mean(np.sum((y_pred - y_true) ** 2, axis=1))
    assert mse == pytest.approx(doc["history"][-1]["val_mse"], rel=1e-14)


def test_fit_regression_deterministic(capsys):
    argv = ["fit-regression", "--N", "6", "--n", "3", "--m", "2",
            "--iters", "1", "--seed", "11"]
    code1, doc1, _ = run_json(capsys, *argv)
    code2, doc2, _ = run_json(capsys, *argv)
    assert code1 == code2 == 0
    assert doc1 == doc2


@pytest.mark.parametrize("argv", [
    ["--iters", "-1"], ["--N", "1"], ["--N", "0"], ["--N", "-3"]])
def test_fit_regression_bad_size_fails_before_any_solve(capsys, monkeypatch,
                                                         argv):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved despite a bad size")

    monkeypatch.setattr(solver, "solve", no_solve)
    code, out, err = run(capsys, "--json", "fit-regression", "--n", "3",
                         "--m", "2", *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and argv[1] in err


def test_fit_regression_leaves_out_a_skipped_validation_solve(capsys,
                                                              monkeypatch):
    original = solver.solve_batch

    def last_fails(*args, **kwargs):
        # in fit's batches, not the data's single solves, the last
        # validation sample's column ends without an optimum
        sols = original(*args, **kwargs)
        if len(sols) > 1:
            sols[-1] = dataclasses.replace(sols[-1], status="max_iters")
        return sols

    monkeypatch.setattr(solver, "solve_batch", last_fails)
    code, doc, _ = run_json(capsys, "fit-regression", "--N", "6", "--n", "3",
                            "--m", "2", "--iters", "1")
    assert code == 0 and len(doc["predictions"]) == 2


# -- nonsmooth flag ----------------------------------------------------------


def test_only_derivative_commands_report_nonsmooth(capsys, tmp_path):
    # tied monomial features put the sorted output at a kink
    A = Parameter("A", 2, value=np.zeros(2))
    c = Parameter("c", 2, positive=True, value=np.ones(2))
    path = write_problem(tmp_path, model_problem([2.0], A, c))
    for command in ("backward", "sensitivity"):
        with pytest.warns(NonsmoothWarning):
            code, doc, _ = run_json(capsys, command, path)
        assert code == 0 and doc["nonsmooth"] is True
    # a solve without derivatives has not looked, so it does not say
    code, doc, _ = run_json(capsys, "solve", path)
    assert code == 0 and doc["status"] == "optimal"
    assert "nonsmooth" not in doc


# -- argument handling -------------------------------------------------------


def test_requires_file_or_example(capsys):
    code, _, err = run(capsys, "solve")
    assert code == 1 and "required" in err


def test_rejects_file_and_example(capsys, tmp_path):
    path = write_problem(tmp_path, hello_world())
    code, _, err = run(capsys, "solve", path, "--example", "hello")
    assert code == 1 and "not both" in err


@pytest.mark.parametrize("command", ["solve", "sensitivity", "backward",
                                     "fit-regression"])
@pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1", "tight"])
def test_bad_eps_fails_before_any_solve(capsys, monkeypatch, command, eps):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved despite a bad --eps")

    monkeypatch.setattr(solver, "solve", no_solve)
    source = [] if command == "fit-regression" else ["--example", "hello"]
    with pytest.raises(SystemExit) as exit_:
        main(["--json", command, *source, f"--eps={eps}"])
    captured = capsys.readouterr()
    assert exit_.value.code == 1 and captured.out == ""
    assert "argument --eps: " in captured.err and repr(eps) in captured.err


@pytest.mark.parametrize("command", ["solve", "sensitivity", "backward",
                                     "fit-regression"])
@pytest.mark.parametrize("max_iters", ["-1", "-3", "2.5", "many"])
def test_bad_max_iters_fails_before_any_solve(capsys, monkeypatch, command,
                                              max_iters):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved despite a bad --max-iters")

    monkeypatch.setattr(solver, "solve", no_solve)
    monkeypatch.setattr(solver, "solve_batch", no_solve)
    source = [] if command == "fit-regression" else ["--example", "hello"]
    with pytest.raises(SystemExit) as exit_:
        main(["--json", command, *source, f"--max-iters={max_iters}"])
    captured = capsys.readouterr()
    assert exit_.value.code == 1 and captured.out == ""
    assert "argument --max-iters: " in captured.err
    assert repr(max_iters) in captured.err


def test_zero_max_iters_is_a_capped_solve(capsys):
    # a valid cap: the solve runs and reports that it ended there
    code, doc, _ = run_json(capsys, "solve", "--example", "hello",
                            "--max-iters", "0")
    assert code == 2 and doc["status"] == "max_iters"


def test_failed_solve_reports_its_stats(capsys):
    # a solve that ends short of optimal reports what it did
    code, doc, _ = run_json(capsys, "solve", "--example", "hello",
                            "--max-iters", "0")
    assert code == 2 and doc["value"] is None
    assert doc["stats"]["iterations"] == 0
    assert doc["stats"]["factorizations"] == 1
    assert doc["stats"]["solver_time"] >= 0.0
    code, out, _ = run(capsys, "solve", "--example", "hello", "--max-iters",
                       "0")
    assert code == 2 and "iterations: 0" in out
    # a document with a status and no stats fails the schema
    with pytest.raises(ProblemFileError, match="stats"):
        validate_result({"command": "solve", "status": "max_iters",
                         "value": None})


@pytest.mark.parametrize("value", ["nan", "inf", "1,-inf"])
@pytest.mark.parametrize("command,flag,name", [
    ("sensitivity", "--delta", "a"), ("backward", "--grad", "x"),
    ("solve", "--param", "a")])
def test_non_finite_vector_is_an_error(capsys, command, flag, name, value):
    code, out, err = run(capsys, command, "--example", "hello", flag,
                         f"{name}={value}")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and value in err


@pytest.mark.parametrize("value", ["nope=1", "{}=1,2"], ids=["name", "size"])
@pytest.mark.parametrize("command,flag,name", [
    ("sensitivity", "--delta", "a"), ("backward", "--grad", "x")])
def test_bad_name_or_size_fails_before_any_solve(capsys, monkeypatch,
                                                 command, flag, name, value):
    def no_solve(*args, **kwargs):
        raise AssertionError(f"solved despite a bad {flag}")

    monkeypatch.setattr(solver, "solve", no_solve)
    code, out, err = run(capsys, "--json", command, "--example", "hello",
                         flag, value.format(name))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {flag}")


@pytest.mark.parametrize("command", ["solve", "sensitivity", "backward"])
@pytest.mark.parametrize("flag", ["--n", "--m"])
def test_bad_benchmark_size_is_an_error(capsys, command, flag):
    code, out, err = run(capsys, command, "--example", "benchmark", flag, "0")
    assert code == 1 and out == ""
    assert err == "error: benchmark needs n >= 1 and m >= 1\n"


@pytest.mark.parametrize("flag", ["--n", "--m"])
def test_check_reports_bad_benchmark_size(capsys, flag):
    code, doc, _ = run_json(capsys, "check", "--example", "benchmark",
                            flag, "0")
    assert code == 1 and not doc["ok"]
    assert doc["diagnostic"] == "benchmark needs n >= 1 and m >= 1"


def test_unwritable_csv_fails_before_training(capsys, tmp_path, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained despite an unwritable --csv")

    monkeypatch.setattr("llcp.cli.fit", no_training)
    path = tmp_path / "missing" / "preds.csv"
    code, out, err = run(capsys, "--json", "fit-regression", "--N", "6",
                         "--n", "3", "--m", "2", "--iters", "0",
                         "--csv", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: --csv: ") and str(path) in err
    assert not path.parent.exists()
