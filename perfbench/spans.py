"""Per-layer spans for the traced run, recorded from outside llcp.

A wrapped function object is replaced at every binding it has across the
loaded ``llcp.*`` modules: ``project_cone`` as bound in ``cones``, ``solver``
and ``diff``; ``canonicalize``, ``compile_problem`` and ``explain_failure``
as bound in their own modules and in ``problem``.  Methods are wrapped on
their class.  SciPy's ``splu``, the ``solve`` of the factor it returns and
``lsqr`` are wrapped on ``scipy.sparse.linalg``, where llcp looks them up at
each call, and are attributed to a layer through their parent span.

Spans stay in memory as parallel lists (name, start, end, parent, attrs) and
are written out when the run ends.  A call made while a span of the same
name is open (recursion) is covered by the outer span and records none.
"""

from __future__ import annotations

import json
import sys
import time

import scipy.sparse.linalg as spla

from llcp import canon, compiler, cones, diff, expr, fitting, problem, solver


def _exp_triples(args, kwargs, out):
    dims = kwargs.get("dims", args[1] if len(args) > 1 else None)
    return {"exp": int(dims["exp"])}


def _cone_solution(args, kwargs, out):
    return {"iterations": int(out.iterations), "status": out.status}


def _param_map(args, kwargs, out):
    return {"A_nnz": int(out.nnz), "exp": int(out.dims["exp"])}


def _lsqr_result(args, kwargs, out):
    return {"istop": int(out[1]), "itn": int(out[2])}


def _residual_point(args, kwargs, out):
    return {"nonsmooth": bool(args[0].nonsmooth)}


def _fit_result(args, kwargs, out):
    return {"skipped": int(out.skipped_solves)}


# (owner, attribute, span name, attrs from (args, kwargs, result)).
# A module owner means a function replaced at all its llcp bindings.
TARGETS = (
    (expr, "build_atom", "expr.build", None),
    (expr, "explain_failure", "expr.explain", None),
    (canon, "canonicalize", "canon.canonicalize", None),
    (canon.CanonMap, "pack_alpha", "canon.pack_alpha", None),
    (canon.CanonMap, "eval_C", "canon.eval_C", None),
    (canon.CanonMap, "apply_DC", "canon.apply_DC", None),
    (canon.CanonMap, "apply_DC_adjoint", "canon.apply_DC_adjoint", None),
    (compiler, "compile_problem", "compiler.compile", _param_map),
    (compiler.ParamToDataMap, "instantiate", "compiler.instantiate", None),
    (compiler.ParamToDataMap, "apply_T", "compiler.apply_T", None),
    (compiler.ParamToDataMap, "apply_T_adjoint", "compiler.apply_T_adjoint",
     None),
    (solver, "solve", "solver.solve", _cone_solution),
    (cones, "project_cone", "cones.project", _exp_triples),
    (cones, "dproject_cone", "cones.dproject", _exp_triples),
    (diff.ResidualPoint, "__init__", "diff.point", _residual_point),
    (diff, "dphi", "diff.dphi", None),
    (diff, "dphi_adjoint", "diff.dphi_adjoint", None),
    (problem.Problem, "solve", "problem.solve", None),
    (problem.Problem, "derivative", "problem.derivative", None),
    (problem.Problem, "backward", "problem.backward", None),
    (fitting, "synthetic_data", "fitting.data", None),
    (fitting, "fit", "fitting.fit", _fit_result),
)

# spans every workload must record at least once
REQUIRED_ALL = (
    "expr.build", "expr.explain", "canon.canonicalize", "canon.pack_alpha",
    "canon.eval_C", "compiler.compile", "compiler.instantiate",
    "problem.solve", "solver.solve", "scipy.splu", "scipy.lu_solve",
    "scipy.lsqr", "cones.project", "cones.dproject",
)
REQUIRED = {
    "gp_cold": REQUIRED_ALL,
    "gp_sweep": REQUIRED_ALL + (
        "problem.derivative", "problem.backward", "diff.point", "diff.dphi",
        "diff.dphi_adjoint", "canon.apply_DC", "canon.apply_DC_adjoint",
        "compiler.apply_T", "compiler.apply_T_adjoint"),
    "fit": REQUIRED_ALL + (
        "problem.backward", "diff.point", "diff.dphi_adjoint",
        "canon.apply_DC_adjoint", "compiler.apply_T_adjoint",
        "fitting.data", "fitting.fit"),
}


class _TracedFactor:
    """A SuperLU factor whose ``solve`` records spans."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.attrs = {}
        self._stack = []
        self._open = set()
        self._undo = []
        self._fill_by_dim = {}

    # -- recording -----------------------------------------------------

    def wrap(self, name, fn, attrs=None):
        tracer = self

        def traced(*args, **kwargs):
            if name in tracer._open:
                return fn(*args, **kwargs)
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            tracer._open.add(name)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer._open.discard(name)
                tracer.starts[idx] = t0
                tracer.ends[idx] = t1
            if attrs is not None:
                tracer.attrs[idx] = attrs(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _splu(self, fn):
        def factor(args, kwargs, lu):
            # L + U nonzeros, once per matrix dimension: converting the
            # factors costs about as much as a few solves
            dim = lu.shape[0]
            if dim not in self._fill_by_dim:
                self._fill_by_dim[dim] = int(lu.L.nnz + lu.U.nnz)
            return {"dim": dim}

        traced_splu = self.wrap("scipy.splu", fn, factor)

        def splu(*args, **kwargs):
            lu = traced_splu(*args, **kwargs)
            return _TracedFactor(lu, self.wrap("scipy.lu_solve", lu.solve))

        return splu

    # -- installing ----------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "llcp" or k.startswith("llcp."))]
        for owner, attr, name, attrs in TARGETS:
            original = owner.__dict__[attr]
            traced = self.wrap(name, original, attrs)
            if isinstance(owner, type):
                self._set(owner, attr, traced)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, traced)
        self._set(spla, "splu", self._splu(spla.splu))
        self._set(spla, "lsqr", self.wrap("scipy.lsqr", spla.lsqr,
                                          _lsqr_result))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reading -------------------------------------------------------

    def missing(self, workload):
        seen = set(self.names)
        return [n for n in REQUIRED[workload] if n not in seen]

    def metrics(self, wall_s, untraced_wall_s, traversals):
        """Per-layer metrics from the recorded spans."""
        names, parents = self.names, self.parents
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(names)
        top = 0.0
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += dur[i]
            else:
                top += dur[i]
        total, count, self_s = {}, {}, {}
        lsqr = {"solver": [0, 0, 0.0, 0], "diff": [0, 0, 0.0, 0]}
        iterations = not_optimal = exp_projected = nonsmooth = skipped = 0
        A_nnz = exp_triples = 0
        for i, name in enumerate(names):
            total[name] = total.get(name, 0.0) + dur[i]
            count[name] = count.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            a = self.attrs.get(i, {})
            if name == "solver.solve":
                iterations += a["iterations"]
                not_optimal += a["status"] != "optimal"
            elif name == "cones.project":
                exp_projected += a["exp"]
            elif name == "diff.point":
                nonsmooth += a["nonsmooth"]
            elif name == "fitting.fit":
                skipped += a["skipped"]
            elif name == "compiler.compile":
                A_nnz = max(A_nnz, a["A_nnz"])
                exp_triples = max(exp_triples, a["exp"])
            elif name == "scipy.lsqr":
                p = parents[i]
                owner = names[p].split(".")[0] if p >= 0 else ""
                if owner in lsqr:
                    row = lsqr[owner]
                    row[0] += 1
                    row[1] += a["itn"]
                    row[2] += dur[i]
                    row[3] += a["istop"] == 7

        def t(*keys):
            return sum(total.get(k, 0.0) for k in keys)

        def n(key):
            return count.get(key, 0)

        solve_s = t("solver.solve")
        return {
            "solver.solve_s": solve_s,
            "solver.solves": n("solver.solve"),
            "solver.not_optimal": not_optimal,
            "solver.iterations": iterations,
            "solver.us_per_iter": 1e6 * solve_s / max(iterations, 1),
            "solver.linsolve_s": t("scipy.lu_solve"),
            "solver.linsolve_calls": n("scipy.lu_solve"),
            "solver.factor_s": t("scipy.splu"),
            "solver.factor_fill": max(self._fill_by_dim.values(), default=0),
            "solver.self_s": self_s.get("solver.solve", 0.0),
            "solver.polish_lsqr_itn": lsqr["solver"][1],
            "solver.polish_lsqr_s": lsqr["solver"][2],
            "cones.project_s": t("cones.project"),
            "cones.project_calls": n("cones.project"),
            "cones.exp_triples_projected": exp_projected,
            "cones.dproject_s": t("cones.dproject"),
            "cones.dproject_calls": n("cones.dproject"),
            "diff.point_s": t("diff.point"),
            "diff.dphi_s": t("diff.dphi"),
            "diff.dphi_adjoint_s": t("diff.dphi_adjoint"),
            "diff.lsqr_calls": lsqr["diff"][0],
            "diff.lsqr_itn": lsqr["diff"][1],
            "diff.lsqr_s": lsqr["diff"][2],
            "diff.lsqr_nonconv": lsqr["diff"][3],
            "diff.nonsmooth": nonsmooth,
            "canon.canonicalize_s": t("canon.canonicalize"),
            "canon.traversals": traversals,
            "canon.params_s": t("canon.pack_alpha", "canon.eval_C"),
            "canon.dparams_s": t("canon.apply_DC", "canon.apply_DC_adjoint"),
            "compiler.compile_s": t("compiler.compile"),
            "compiler.instantiate_s": t("compiler.instantiate"),
            "compiler.apply_T_s": t("compiler.apply_T",
                                    "compiler.apply_T_adjoint"),
            "compiler.A_nnz": A_nnz,
            "compiler.exp_triples": exp_triples,
            "expr.build_s": t("expr.build"),
            "expr.explain_s": t("expr.explain"),
            "problem.solve_s": t("problem.solve"),
            "problem.derivative_s": t("problem.derivative"),
            "problem.backward_s": t("problem.backward"),
            "problem.self_s": sum(self_s.get(k, 0.0) for k in (
                "problem.solve", "problem.derivative", "problem.backward")),
            "fitting.data_s": t("fitting.data"),
            "fitting.fit_s": t("fitting.fit"),
            "fitting.skipped_solves": skipped,
            "trace.spans": len(names),
            "trace.wall_s": wall_s,
            "trace.overhead_s": wall_s - untraced_wall_s,
            "trace.unattributed_s": wall_s - top,
        }

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": [[n, s, e, p, self.attrs.get(i)]
                                 for i, (n, s, e, p) in enumerate(zip(
                                     self.names, self.starts, self.ends,
                                     self.parents))]}, f)
