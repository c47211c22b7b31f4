"""Command-line front end.

Five subcommands over JSON problem files or the bundled examples:

  check          grammar verdict with a subtree diagnostic on failure
  solve          solve and print the solution
  sensitivity    push parameter perturbations through the solution map
  backward       pull a solution gradient back to the parameters
  fit-regression train the sorted-output regression model end to end

Problems come from a file argument or ``--example hello|queuing|benchmark``.
Vectors on the command line are comma-separated (``--delta d_max=0.02,0.02``).
Values stored in a problem file take precedence over ``--param`` flags; a
flag that loses this way is reported on stderr.  The names and sizes of
``--param``, ``--delta`` and ``--grad`` vectors are checked before any
solve.  Each command answers from the solves it makes: ``sensitivity``
takes its predicted deltas and derivative table from one solve, and
``--verify`` adds one re-solve at the perturbed parameters;
``fit-regression`` prints the validation outputs of the solves behind its
last validation error.

``--json`` switches stdout to a machine-readable result document (schema
shipped with the package).  Exit status: 0 on success, 1 for validation
problems, 2 when the solver finishes non-optimal.  Set
LLCP_LOG=debug|info|warning|error for logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from .examples import benchmark, hello_world, queuing
from .expr import ExpressionError
from .fitting import fit, synthetic_data
from .probfile import ProblemFileError, load_problem, validate_result
from .problem import NotDgpError

__all__ = ["main"]

logger = logging.getLogger(__name__)


class CliError(Exception):
    """Input problem reported to the user; maps to exit status 1."""


def _vector(text: str) -> np.ndarray:
    try:
        vec = np.array([float(part) for part in text.split(",")])
    except ValueError:
        raise CliError(f"not a comma-separated vector: {text!r}")
    if not np.all(np.isfinite(vec)):
        raise CliError(f"vector has a non-finite entry: {text!r}")
    return vec


def _named_vectors(pairs, flag: str) -> dict:
    out = {}
    for pair in pairs or []:
        name, sep, rest = pair.partition("=")
        if not sep or not name:
            raise CliError(f"{flag} expects name=v1,v2,...; got {pair!r}")
        out[name] = _vector(rest)
    return out


def _sized(vec: np.ndarray, size: int, what: str) -> np.ndarray:
    if vec.size == size:
        return vec
    if vec.size == 1:
        return np.full(size, vec[0])
    raise CliError(f"{what}: expected {size} entries, got {vec.size}")


def _named_inputs(pairs, flag: str, leaves, kind: str) -> list:
    """(leaf, vector) pairs of a name=v1,v2,... flag, checked against the
    problem's parameters or variables, so a bad one costs no solve."""
    by_name = {leaf.name: leaf for leaf in leaves}
    out = []
    for name, vec in _named_vectors(pairs, flag).items():
        if name not in by_name:
            raise CliError(f"{flag}: no {kind} named {name!r}")
        leaf = by_name[name]
        out.append((leaf, _sized(vec, leaf.size, f"{flag} {name}")))
    return out


def _get_problem(args):
    if getattr(args, "example", None):
        if args.file:
            raise CliError("give a problem file or --example, not both")
        if args.example == "hello":
            problem = hello_world()
        elif args.example == "queuing":
            problem = queuing()
        else:
            try:
                problem = benchmark(n=args.n, m=args.m, seed=args.seed)
            except ValueError as e:
                raise CliError(str(e))
    elif args.file:
        problem = load_problem(args.file)
    else:
        raise CliError("a problem file or --example is required")

    for param, vec in _named_inputs(getattr(args, "param", None), "--param",
                                    problem.parameters, "parameter"):
        if param.value is not None:
            print(f"warning: parameter {param.name!r} already has a value; "
                  "the problem definition wins over --param", file=sys.stderr)
            continue
        try:
            param.set_value(vec)
        except ExpressionError as e:
            raise CliError(str(e))
    return problem


def _fmt(values) -> str:
    return ", ".join(f"{v:.9g}" for v in np.atleast_1d(values))


def _emit(args, doc: dict, lines: list) -> None:
    if args.json:
        validate_result(doc)
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for line in lines:
            print(line)


def _solved(problem, args, derivatives: bool):
    value = problem.solve(derivatives=derivatives, eps=args.eps,
                          max_iters=args.max_iters)
    return value is not None


def _solution_doc(problem, command: str, derivatives: bool = True) -> dict:
    doc = {
        "command": command,
        "status": problem.status,
        "value": problem.value,
        "variables": {v.name: [float(t) for t in v.value]
                      for v in problem.variables},
        "stats": dict(problem.stats),
    }
    # only a derivative-enabled solve looks for a kink at the solution
    if derivatives:
        doc["nonsmooth"] = bool(problem.nonsmooth)
    return doc


def _failure(problem, args, command: str) -> int:
    doc = {"command": command, "status": problem.status, "value": None}
    _emit(args, doc, [f"status: {problem.status}"])
    return 2


# -- subcommands ---------------------------------------------------------


def cmd_check(args) -> int:
    try:
        problem = _get_problem(args)
        diagnostic = problem.explain()
    except (ProblemFileError, CliError) as e:
        diagnostic = str(e)
        problem = None
    ok = diagnostic is None
    doc = {"command": "check", "ok": ok, "diagnostic": diagnostic}
    _emit(args, doc, ["OK: problem follows the grammar" if ok
                      else f"not solvable as given: {diagnostic}"])
    return 0 if ok else 1


def cmd_solve(args) -> int:
    problem = _get_problem(args)
    if not _solved(problem, args, derivatives=False):
        return _failure(problem, args, "solve")
    doc = _solution_doc(problem, "solve", derivatives=False)
    lines = [f"status: {problem.status}", f"value: {problem.value:.9g}"]
    lines += [f"{v.name} = [{_fmt(v.value)}]" for v in problem.variables]
    stats = problem.stats
    lines.append(f"iterations: {stats['iterations']}, "
                 f"solver {stats['solver_time']:.4g}s of "
                 f"{stats['total_time']:.4g}s total")
    lines.append(f"accelerations: {stats['accelerations']}, "
                 f"rejections: {stats['rejections']}")
    lines.append(f"scale: {stats['scale']:.4g}, "
                 f"factorizations: {stats['factorizations']}")
    _emit(args, doc, lines)
    return 0


def _derivative_table(problem):
    """Stacked dense Jacobian blocks, one per parameter."""
    blocks = {}
    for target in problem.parameters:
        for p in problem.parameters:
            p.delta = np.zeros(p.size)
        cols = []
        for j in range(target.size):
            target.delta = np.eye(target.size)[j]
            d = problem.derivative()
            cols.append(np.concatenate([d[v.name] for v in problem.variables]))
        target.delta = np.zeros(target.size)
        blocks[target.name] = np.column_stack(cols)
    return blocks


def _row_labels(problem):
    labels = []
    for v in problem.variables:
        labels += [f"{v.name}[{i}]" for i in range(v.size)] if v.size > 1 \
            else [v.name]
    return labels


def cmd_sensitivity(args) -> int:
    problem = _get_problem(args)
    deltas = _named_inputs(args.delta, "--delta", problem.parameters,
                           "parameter")
    if not _solved(problem, args, derivatives=True):
        return _failure(problem, args, "sensitivity")
    base = {v.name: v.value.copy() for v in problem.variables}
    for p, vec in deltas:
        p.delta = vec
    predicted = problem.derivative()

    doc = _solution_doc(problem, "sensitivity")
    doc["deltas"] = {k: [float(t) for t in v] for k, v in predicted.items()}
    lines = [f"status: {problem.status}"]
    for v in problem.variables:
        lines.append(f"{v.name}: value [{_fmt(base[v.name])}], "
                     f"predicted delta [{_fmt(predicted[v.name])}]")

    # the table reads the base solve, so it is taken before the re-solve
    n_alpha = sum(p.size for p in problem.parameters)
    table = args.table or (args.table is None and n_alpha <= 32)
    blocks = _derivative_table(problem) if table else None

    if args.verify:
        for p, vec in deltas:
            p.set_value(p.value + vec)
        if not _solved(problem, args, derivatives=False):
            return _failure(problem, args, "sensitivity")
        actual = {v.name: v.value - base[v.name] for v in problem.variables}
        doc["actual"] = {k: [float(t) for t in v] for k, v in actual.items()}
        lines.append("verification re-solve:")
        for v in problem.variables:
            lines.append(f"{v.name}: actual delta [{_fmt(actual[v.name])}], "
                         f"predicted [{_fmt(predicted[v.name])}]")

    if blocks is not None:
        doc["derivatives"] = {k: [[float(t) for t in row] for row in m]
                              for k, m in blocks.items()}
        labels = _row_labels(problem)
        lines.append("derivative table (rows: variables, columns: "
                     "parameter entries):")
        for name, block in blocks.items():
            lines.append(f"  d*/d {name}:")
            for label, row in zip(labels, block):
                lines.append(f"    {label:<10s} [{_fmt(row)}]")
    _emit(args, doc, lines)
    return 0


def cmd_backward(args) -> int:
    problem = _get_problem(args)
    grads = _named_inputs(args.grad, "--grad", problem.variables, "variable")
    if not _solved(problem, args, derivatives=True):
        return _failure(problem, args, "backward")
    for v, vec in grads:
        v.gradient = vec
    gradients = problem.backward()
    doc = _solution_doc(problem, "backward")
    doc["gradients"] = {k: [float(t) for t in v]
                        for k, v in gradients.items()}
    lines = [f"status: {problem.status}"]
    lines += [f"grad {p.name} = [{_fmt(gradients[p.name])}]"
              for p in problem.parameters]
    _emit(args, doc, lines)
    return 0


def cmd_fit_regression(args) -> int:
    if args.iters < 0:
        # fit rejects it too, but only after the data's solves
        raise CliError(f"--iters must be at least 0, got {args.iters}")
    if not args.csv:
        return _fit_regression(args, None)
    # open the output before training, so a bad path costs no solves
    try:
        csv = open(args.csv, "w")
    except OSError as e:
        raise CliError(f"--csv: {e}")
    with csv:
        return _fit_regression(args, csv)


def _fit_regression(args, csv) -> int:
    import warnings

    from .diff import NonsmoothWarning

    try:
        X, Y, X_val, Y_val, _, _ = synthetic_data(args.N, args.n, args.m,
                                                  seed=args.seed)
    except ValueError as e:
        raise CliError(str(e))
    # tied outputs put solutions at nonsmooth points as a matter of course;
    # summarize instead of echoing a warning per solve
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NonsmoothWarning)
        try:
            result = fit(X, Y, X_val, Y_val, iters=args.iters,
                         step=args.step, eps=args.eps,
                         max_iters=args.max_iters)
        except RuntimeError as e:
            print(f"training failed: {e}", file=sys.stderr)
            return 2
    # the validation solves behind the last val_mse; a skipped one has none
    predictions = [{"y_true": [float(t) for t in y],
                    "y_pred": [float(t) for t in y_hat]}
                   for y, y_hat in zip(Y_val, result.val_predictions)
                   if y_hat is not None]
    nonsmooth = sum(issubclass(w.category, NonsmoothWarning) for w in caught)
    if nonsmooth:
        logger.info("%d solves landed on nonsmooth points; their gradients "
                    "are least-squares heuristics", nonsmooth)
    doc = {"command": "fit-regression",
           "history": result.history, "predictions": predictions,
           "solves": result.solves, "iterations": result.iterations,
           "factorizations": result.factorizations}
    lines = [f"iteration {h['iteration']:3d}: train mse {h['train_mse']:.6g}, "
             f"validation mse {h['val_mse']:.6g}" for h in result.history]
    lines.append(f"training mse {result.initial_train_mse:.6g} -> "
                 f"{result.final_train_mse:.6g} after "
                 f"{len(result.history) - 1} steps")
    lines.append(f"{result.solves} solves, {result.iterations} iterations, "
                 f"{result.factorizations} factorizations")
    if result.skipped_solves:
        lines.append(f"skipped {result.skipped_solves} non-optimal solves")
    if csv is not None:
        m = Y_val.shape[1]
        head = [f"y_true_{i}" for i in range(m)]
        head += [f"y_pred_{i}" for i in range(m)]
        csv.write(",".join(head) + "\n")
        for rec in predictions:
            csv.write(",".join(f"{v:.10g}" for v in
                               rec["y_true"] + rec["y_pred"]) + "\n")
        lines.append(f"validation predictions written to {args.csv}")
    _emit(args, doc, lines)
    return 0


# -- wiring ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # bad usage is a validation failure: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _tolerance(text: str) -> float:
    # checked while parsing, so a bad --eps costs no solve
    try:
        eps = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0.0 < eps < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be finite and positive, got {text!r}")
    return eps


def _iterations(text: str) -> int:
    # checked while parsing, so a bad --max-iters costs no solve
    try:
        max_iters = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if max_iters < 0:
        raise argparse.ArgumentTypeError(
            f"must be nonnegative, got {text!r}")
    return max_iters


def _add_problem_source(sub):
    sub.add_argument("file", nargs="?", help="problem file (JSON)")
    sub.add_argument("--example", choices=["hello", "queuing", "benchmark"],
                     help="use a bundled example instead of a file")
    sub.add_argument("--n", type=int, default=500,
                     help="benchmark size (with --example benchmark)")
    sub.add_argument("--m", type=int, default=3,
                     help="benchmark constraint terms")
    sub.add_argument("--seed", type=int, default=0, help="benchmark seed")
    sub.add_argument("--param", action="append", metavar="NAME=V1,V2,...",
                     help="value for a parameter the problem leaves unset")


def _add_solver_flags(sub):
    sub.add_argument("--eps", type=_tolerance, default=1e-8,
                     help="solver tolerance")
    sub.add_argument("--max-iters", type=_iterations, default=100000)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="llcp",
                     description="Model, solve, and differentiate log-log "
                                 "convex programs.")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable result on stdout")
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="grammar verdict")
    _add_problem_source(check)
    check.set_defaults(func=cmd_check)

    solve = commands.add_parser("solve", help="solve a problem")
    _add_problem_source(solve)
    _add_solver_flags(solve)
    solve.set_defaults(func=cmd_solve)

    sens = commands.add_parser("sensitivity",
                               help="first-order effect of parameter changes")
    _add_problem_source(sens)
    _add_solver_flags(sens)
    sens.add_argument("--delta", action="append", metavar="NAME=V1,V2,...",
                      help="parameter perturbation")
    sens.add_argument("--verify", action="store_true",
                      help="re-solve at the perturbed parameters")
    sens.add_argument("--table", action=argparse.BooleanOptionalAction,
                      default=None,
                      help="dense per-parameter derivative table "
                           "(default: only for small problems)")
    sens.set_defaults(func=cmd_sensitivity)

    back = commands.add_parser("backward",
                               help="gradient with respect to parameters")
    _add_problem_source(back)
    _add_solver_flags(back)
    back.add_argument("--grad", action="append", metavar="NAME=V1,V2,...",
                      help="gradient on a variable (default all ones)")
    back.set_defaults(func=cmd_backward)

    fit_cmd = commands.add_parser("fit-regression",
                                  help="train the sorted regression model "
                                       "on synthetic data")
    fit_cmd.add_argument("--N", type=int, default=30,
                         help="training samples")
    fit_cmd.add_argument("--n", type=int, default=8, help="input length")
    fit_cmd.add_argument("--m", type=int, default=5, help="output length")
    fit_cmd.add_argument("--iters", type=int, default=10)
    fit_cmd.add_argument("--step", type=float, default=0.1)
    fit_cmd.add_argument("--seed", type=int, default=0)
    fit_cmd.add_argument("--eps", type=_tolerance, default=1e-8)
    fit_cmd.add_argument("--max-iters", type=_iterations, default=100000)
    fit_cmd.add_argument("--csv", metavar="PATH",
                         help="write validation predictions as CSV")
    fit_cmd.set_defaults(func=cmd_fit_regression)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("LLCP_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ProblemFileError, NotDgpError, ExpressionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
