"""Independent oracles used to validate the package.

Every routine here deliberately avoids the code paths it is used to check:
the exponential-cone projection oracle eliminates different KKT variables
and bisects a different residual than the package's Newton solver, the
brute-force solver works on the smooth log-domain transcription with an
off-the-shelf NLP method, and the queuing oracle is an active-set closed
form.  Keep it that way; a shared route would make the tests circular.
"""

from __future__ import annotations

import math

import numpy as np
import mpmath as mp
import scipy.sparse as sp
from scipy.optimize import minimize

from llcp.expr import evaluate, variables_of


# ---------------------------------------------------------------------------
# numeric log-log convexity


def _usable(*arrays):
    return all(np.all(np.isfinite(a)) and np.all(a > 0) for a in arrays)


def loglog_convex_violation(expr, rng, samples=50, lo=0.2, hi=5.0):
    """Largest violation of the log-log convexity inequality on random pairs.

    Draws positive points x, y and theta in (0, 1) and measures
    log f(x^theta * y^(1-theta)) - [theta log f(x) + (1-theta) log f(y)].
    Nonpositive (up to roundoff) for every sample iff no counterexample was
    found.  The dual routine for concavity is the negation.
    """
    vars_ = variables_of(expr)
    worst = -np.inf
    for _ in range(samples):
        theta = rng.uniform(0.05, 0.95)
        vx = {v: rng.uniform(lo, hi, size=v.size) for v in vars_}
        vy = {v: rng.uniform(lo, hi, size=v.size) for v in vars_}
        vm = {v: vx[v] ** theta * vy[v] ** (1 - theta) for v in vars_}
        try:
            fx = evaluate(expr, vx)
            fy = evaluate(expr, vy)
            fm = evaluate(expr, vm)
        except Exception:
            continue
        if not _usable(fx, fy, fm):
            continue
        gap = np.log(fm) - (theta * np.log(fx) + (1 - theta) * np.log(fy))
        worst = max(worst, float(np.max(gap)))
    return worst


def loglog_concave_violation(expr, rng, samples=50, lo=0.2, hi=5.0):
    vars_ = variables_of(expr)
    worst = -np.inf
    for _ in range(samples):
        theta = rng.uniform(0.05, 0.95)
        vx = {v: rng.uniform(lo, hi, size=v.size) for v in vars_}
        vy = {v: rng.uniform(lo, hi, size=v.size) for v in vars_}
        vm = {v: vx[v] ** theta * vy[v] ** (1 - theta) for v in vars_}
        try:
            fx = evaluate(expr, vx)
            fy = evaluate(expr, vy)
            fm = evaluate(expr, vm)
        except Exception:
            continue
        if not _usable(fx, fy, fm):
            continue
        gap = (theta * np.log(fx) + (1 - theta) * np.log(fy)) - np.log(fm)
        worst = max(worst, float(np.max(gap)))
    return worst


# ---------------------------------------------------------------------------
# exponential cone membership and projection (high precision)


def in_expcone(v, tol=mp.mpf("1e-30")):
    x, y, z = (mp.mpf(float(c)) for c in v)
    if y > 0:
        return y * mp.e ** (x / y) <= z + tol
    if y == 0:
        return x <= tol and z >= -tol
    return False


def in_polar_expcone(v, tol=mp.mpf("1e-30")):
    # polar = -dual: {(u,v,w): u > 0, u e^{v/u} <= -e w} u {(0,v,w): v<=0,w<=0}
    u, vv, w = (mp.mpf(float(c)) for c in v)
    if u > 0:
        return u * mp.e ** (vv / u) <= -mp.e * w + tol
    if u == 0:
        return vv <= tol and w <= tol
    return False


def project_expcone_oracle(v, dps=60):
    """Euclidean projection onto cl{(x,y,z): y>0, y e^(x/y) <= z}.

    Works in mpmath and eliminates (y, lambda) from the KKT system, then
    bisects the remaining one-dimensional residual in rho = x/y; candidate
    roots are accepted only after a full KKT check.  Returns a float array.
    """
    with mp.workdps(dps):
        r, s, t = (mp.mpf(float(c)) for c in v)
        if in_expcone((r, s, t), tol=mp.mpf(0)):
            return np.array([float(r), float(s), float(t)])
        if in_polar_expcone((r, s, t), tol=mp.mpf(0)):
            return np.zeros(3)
        if r <= 0 and s <= 0:
            return np.array([float(r), 0.0, float(max(t, mp.mpf(0)))])

        def components(rho):
            a = mp.e ** rho
            den = 1 + a * a * (1 - rho)
            if den == 0:
                return None
            y = (s + t * a * (1 - rho)) / den
            lam = y * a - t
            return a, y, lam

        def residual(rho):
            comp = components(rho)
            if comp is None:
                return None
            a, y, lam = comp
            return rho * y - r + lam * a

        def kkt_ok(rho):
            comp = components(rho)
            if comp is None:
                return False
            a, y, lam = comp
            if y <= 0 or lam < -mp.mpf("1e-25"):
                return False
            p = (rho * y, y, y * a)
            grad = (a, a * (1 - rho), mp.mpf(-1))
            ok = all(
                abs(vi - (pi + lam * gi)) <= mp.mpf("1e-20") * (1 + abs(vi))
                for vi, pi, gi in zip((r, s, t), p, grad)
            )
            return ok

        # scan for sign changes, verify each root against the KKT system
        grid = [mp.mpf(-60) + mp.mpf(120) * k / 6000 for k in range(6001)]
        prev_rho, prev_res = None, None
        for rho in grid:
            res = residual(rho)
            if res is None:
                prev_rho, prev_res = None, None
                continue
            if prev_res is not None and mp.sign(res) != mp.sign(prev_res):
                lo, hi = prev_rho, rho
                flo = prev_res
                for _ in range(300):
                    mid = (lo + hi) / 2
                    fm = residual(mid)
                    if fm is None:
                        break
                    if mp.sign(fm) == mp.sign(flo):
                        lo, flo = mid, fm
                    else:
                        hi = mid
                root = (lo + hi) / 2
                if kkt_ok(root):
                    a, y, lam = components(root)
                    return np.array(
                        [float(root * y), float(y), float(y * a)]
                    )
            prev_rho, prev_res = rho, res
        raise RuntimeError(f"projection oracle found no verified root for {v}")


def project_dual_expcone_oracle(v, dps=60):
    """Projection onto the dual exponential cone via the Moreau identity."""
    p = project_expcone_oracle([-float(c) for c in v], dps=dps)
    return np.asarray(v, dtype=float) + p


# ---------------------------------------------------------------------------
# brute-force solver on the smooth log-domain transcription


def brute_force_llcp(sense, objective, constraints, variables, n_starts=8,
                     seed=0, u0=None):
    """Solve a small program by SLSQP on the log-of-variables transcription.

    Returns (value, {variable: positive solution array}) for the best run
    that ends feasible, or raises if every start fails.  Deliberately knows
    nothing about cones or canonical forms.
    """
    sizes = [v.size for v in variables]
    offs = np.concatenate(([0], np.cumsum(sizes))).astype(int)
    dim = int(offs[-1])
    rng = np.random.default_rng(seed)

    def env(u):
        vals = {}
        for v, a, b in zip(variables, offs[:-1], offs[1:]):
            vals[v] = np.exp(u[a:b])
        return vals

    def safe_log(arr):
        arr = np.asarray(arr, dtype=float)
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
            return None
        return np.log(arr)

    def fobj(u):
        try:
            val = safe_log(evaluate(objective, env(u)))
        except Exception:
            val = None
        if val is None:
            return 1e6 + float(np.sum(u ** 2))
        v = float(np.sum(val))
        return -v if sense == "maximize" else v

    cons = []
    for con in constraints:
        def make(con):
            def g(u):
                try:
                    lhs = safe_log(evaluate(con.lhs, env(u)))
                    rhs = safe_log(evaluate(con.rhs, env(u)))
                except Exception:
                    lhs = rhs = None
                if lhs is None or rhs is None:
                    return np.full(con.size, -1e3)
                return np.broadcast_to(rhs, (con.size,)) - np.broadcast_to(
                    lhs, (con.size,)
                )
            return g
        kind = "eq" if con.op == "==" else "ineq"
        cons.append({"type": kind, "fun": make(con)})

    best = None
    starts = []
    if u0 is not None:
        starts.append(np.asarray(u0, dtype=float))
    starts.append(np.zeros(dim))
    while len(starts) < n_starts:
        starts.append(rng.normal(scale=0.7, size=dim))
    for u_start in starts:
        res = minimize(fobj, u_start, method="SLSQP", constraints=cons,
                       options={"maxiter": 400, "ftol": 1e-12})
        u = res.x
        viol = 0.0
        for c in cons:
            g = np.asarray(c["fun"](u), dtype=float)
            if c["type"] == "eq":
                viol = max(viol, float(np.max(np.abs(g))))
            else:
                viol = max(viol, float(max(0.0, -np.min(g))))
        if viol > 1e-7 or not np.isfinite(res.fun):
            continue
        score = res.fun
        if best is None or score < best[0] - 1e-12:
            best = (score, u)
    if best is None:
        raise RuntimeError("brute-force solver failed on every start")
    _, u = best
    vals = env(u)
    obj = float(np.sum(evaluate(objective, vals)))
    return obj, vals


# ---------------------------------------------------------------------------
# queuing design, active-set closed form

def queuing_solution(gamma, d_max, mu_max):
    """Service-rate allocation with the delay and budget constraints active.

    With delta_i = 1/d_max_i, the optimum satisfies mu_i = lam_i + delta_i,
    sum(mu) = mu_max, and lam_i proportional to sqrt(gamma_i * delta_i).
    Valid while queue-size, wait, and arrival-floor constraints stay slack,
    which holds in a neighborhood of the baseline data used in tests.
    """
    gamma = np.asarray(gamma, dtype=float)
    delta = 1.0 / np.asarray(d_max, dtype=float)
    S = float(mu_max) - float(np.sum(delta))
    w = np.sqrt(gamma * delta)
    lam = S * w / np.sum(w)
    mu = lam + delta
    ell = mu / lam
    return lam, mu, ell


def queuing_jacobians(gamma, d_max, mu_max, h=1e-7):
    """Central differences of the closed form, per parameter."""
    gamma = np.asarray(gamma, dtype=float)
    d_max = np.asarray(d_max, dtype=float)

    def pack(g, d, m):
        lam, mu, ell = queuing_solution(g, d, m)
        return np.concatenate([lam, mu, ell])

    jacs = {}
    cols = []
    for i in range(gamma.size):
        gp, gm = gamma.copy(), gamma.copy()
        gp[i] += h
        gm[i] -= h
        cols.append((pack(gp, d_max, mu_max) - pack(gm, d_max, mu_max)) / (2 * h))
    jacs["gamma"] = np.stack(cols, axis=1)
    cols = []
    for i in range(d_max.size):
        dp, dm = d_max.copy(), d_max.copy()
        dp[i] += h
        dm[i] -= h
        cols.append((pack(gamma, dp, mu_max) - pack(gamma, dm, mu_max)) / (2 * h))
    jacs["d_max"] = np.stack(cols, axis=1)
    jacs["mu_max"] = (
        (pack(gamma, d_max, mu_max + h) - pack(gamma, d_max, mu_max - h))
        / (2 * h)
    )[:, None]
    return jacs


# ---------------------------------------------------------------------------
# planted-optimum cone programs


def planted_cone_program(rng, n, nz=0, nl=0, ne=0, frac_active=0.6):
    """Random feasible cone program with a known primal-dual optimum.

    Chooses complementary (s*, y*) per row block, draws A and x*, then sets
    b = A x* + s* and c = -A' y*.  Exponential triples are planted on the
    smooth part of the cone boundary so projections are differentiable
    there.  Returns (A, b, c, dims, x*, y*, s*).
    """
    m = nz + nl + 3 * ne
    A = rng.normal(size=(m, n)) / np.sqrt(max(n, 1))
    s = np.zeros(m)
    y = np.zeros(m)
    y[:nz] = rng.normal(size=nz)
    for i in range(nz, nz + nl):
        if rng.uniform() < frac_active:
            y[i] = rng.uniform(0.2, 2.0)
        else:
            s[i] = rng.uniform(0.2, 2.0)
    for k in range(ne):
        j = nz + nl + 3 * k
        u = rng.uniform()
        if u < frac_active:
            rho = rng.uniform(-1.2, 1.2)
            yy = rng.uniform(0.4, 1.6)
            tt = rng.uniform(0.4, 1.6)
            a = np.exp(rho)
            s[j:j + 3] = [rho * yy, yy, yy * a]
            y[j:j + 3] = tt * np.array([-a, a * (rho - 1.0), 1.0]) / a
        elif u < frac_active + 0.5 * (1 - frac_active):
            rho = rng.uniform(-1.0, 1.0)
            yy = rng.uniform(0.4, 1.6)
            s[j:j + 3] = [rho * yy, yy, yy * np.exp(rho) * rng.uniform(1.3, 2.0)]
        else:
            rho = rng.uniform(-1.0, 1.0)
            tt = rng.uniform(0.4, 1.6)
            a = np.exp(rho)
            scale = rng.uniform(1.3, 2.0)
            y[j:j + 3] = tt * np.array([-a, a * (rho - 1.0), scale]) / a
    x = rng.normal(size=n)
    b = A @ x + s
    c = -A.T @ y
    dims = {"zero": nz, "nonneg": nl, "exp": ne}
    return A, b, c, dims, x, y, s


def planted_regular_program(rng, n, ne=1, extra=2, density=1.0):
    """Planted cone program whose solution map is differentiable.

    The solution is made locally unique and strictly complementary: the
    effective active constraints number exactly n (zero rows, tight
    nonnegative rows with positive multipliers, and exponential triples
    on the smooth boundary, which pin one degree of freedom each), plus
    `extra` slack nonnegative rows.  Draws are rejected until the n x n
    matrix of effective active gradients is well conditioned, so small
    perturbations of (A, b, c) move the optimum smoothly and finite
    differences stay in the linear regime.  With density < 1, entries
    of A are zeroed at random.  Returns (A, b, c, dims, x*, y*, s*).
    """
    nz = int(rng.integers(0, 2))
    ne = min(ne, n - nz)
    nl_active = n - nz - ne
    nl = nl_active + extra
    m = nz + nl + 3 * ne
    dims = {"zero": nz, "nonneg": nl, "exp": ne}
    for _ in range(100):
        A = rng.normal(size=(m, n)) / np.sqrt(n)
        if density < 1.0:
            A *= rng.uniform(size=(m, n)) < density
        s = np.zeros(m)
        y = np.zeros(m)
        y[:nz] = rng.normal(size=nz)
        for i in range(nz, nz + nl_active):
            y[i] = rng.uniform(0.5, 1.5)
        for i in range(nz + nl_active, nz + nl):
            s[i] = rng.uniform(0.5, 1.5)
        for k in range(ne):
            j = nz + nl + 3 * k
            rho = rng.uniform(-1.0, 1.0)
            yy = rng.uniform(0.6, 1.4)
            tt = rng.uniform(0.6, 1.4)
            a = np.exp(rho)
            s[j:j + 3] = [rho * yy, yy, yy * a]
            y[j:j + 3] = tt * np.array([-a, a * (rho - 1.0), 1.0]) / a
        # effective active gradients: equality rows, tight nonnegative
        # rows, and one boundary-normal combination per planted triple
        act = [A[:nz + nl_active]]
        for k in range(ne):
            j = nz + nl + 3 * k
            nrm = y[j:j + 3] / np.linalg.norm(y[j:j + 3])
            act.append(nrm @ A[j:j + 3])
        E = np.vstack([np.atleast_2d(r) for r in act])
        if np.linalg.cond(E) <= 15.0:
            break
    x = rng.normal(size=n)
    b = A @ x + s
    c = -A.T @ y
    return A, b, c, dims, x, y, s


def separated_program(seed):
    """(A, b_of, c, dims, beta) of a planted program with the rows
    a'x <= beta and a'x >= lo added before its exponential rows, where
    beta = a'x* + 0.5: b_of(lo) is its b, infeasible for lo > beta and
    with the planted optimum for lo <= a'x*."""
    rng = np.random.default_rng(seed)
    A, b, c, dims, x, _, _ = planted_cone_program(rng, 6, 0, 4, 2)
    a = rng.normal(size=6)
    beta = float(a @ x) + 0.5
    k = dims["nonneg"]

    def b_of(lo):
        return np.concatenate([b[:k], [beta, -lo], b[k:]])

    A = sp.csc_matrix(np.vstack([A[:k], a, -a, A[k:]]))
    return A, b_of, c, dict(dims, nonneg=k + 2), beta


def loosened_program(seed):
    """(A, b, c_of, dims) of a planted program with a variable t added
    whose column only loosens the nonnegative rows: c_of(ct) is its c
    with cost ct on t, unbounded for ct < 0."""
    rng = np.random.default_rng(seed)
    A, b, c, dims, *_ = planted_cone_program(rng, 6, 0, 4, 2)
    col = np.zeros(A.shape[0])
    col[:dims["nonneg"]] = -np.abs(rng.normal(size=dims["nonneg"]))

    def c_of(ct):
        return np.concatenate([c, [ct]])

    return sp.csc_matrix(np.column_stack([A, col])), b, c_of, dims


# ---------------------------------------------------------------------------
# finite differences


def central_jacobian(f, x, h=1e-6):
    """Dense Jacobian of f: R^k -> R^m by central differences."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(f(x), dtype=float)
    J = np.zeros((f0.size, x.size))
    for j in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (np.asarray(f(xp)) - np.asarray(f(xm))) / (2 * h)
    return J


# ---------------------------------------------------------------------------
# interpreter for the lowered convex program
#
# This is not an independent oracle: it executes the package's own
# intermediate representation with a generic NLP method.  Comparing it with
# ``brute_force_llcp`` on the original expressions checks that the lowering
# preserved the problem.


def solve_ir_scipy(prob, beta, n_starts=6, seed=0):
    """Minimize a lowered convex problem with SLSQP; returns (value, u)."""
    from scipy.special import logsumexp
    from llcp.canon import lin_eval

    beta = np.asarray(beta, dtype=float)
    cons = []
    for c in prob.constraints:
        if c.kind == "zero":
            cons.append({"type": "eq",
                         "fun": (lambda u, le=c.args[0]:
                                 lin_eval(le, beta, u))})
        elif c.kind == "nonneg":
            cons.append({"type": "ineq",
                         "fun": (lambda u, le=c.args[0]:
                                 -lin_eval(le, beta, u))})
        elif c.kind == "lse":
            def g(u, args=c.args, rhs=c.rhs):
                vals = [lin_eval(a, beta, u) for a in args]
                return lin_eval(rhs, beta, u) - logsumexp(vals)
            cons.append({"type": "ineq", "fun": g})
        elif c.kind == "expleq":
            def g(u, arg=c.args[0], rhs=c.rhs):
                return lin_eval(rhs, beta, u) - np.exp(
                    lin_eval(arg, beta, u))
            cons.append({"type": "ineq", "fun": g})
        else:
            raise ValueError(c.kind)

    def fobj(u):
        return lin_eval(prob.objective, beta, u)

    rng = np.random.default_rng(seed)
    best = None
    for k in range(n_starts):
        u0 = np.zeros(prob.n_vars) if k == 0 else rng.normal(
            scale=0.6, size=prob.n_vars)
        res = minimize(fobj, u0, method="SLSQP", constraints=cons,
                       options={"maxiter": 600, "ftol": 1e-12})
        viol = 0.0
        for c in cons:
            g = float(np.atleast_1d(c["fun"](res.x))[0])
            viol = max(viol, abs(g) if c["type"] == "eq" else max(0.0, -g))
        if viol > 1e-7 or not np.isfinite(res.fun):
            continue
        if best is None or res.fun < best[0] - 1e-12:
            best = (float(res.fun), res.x)
    if best is None:
        raise RuntimeError("SLSQP failed on the lowered problem")
    return best


def pava_multiplicative(z):
    """Closed-form solution of the sorted-output regression model.

    minimize sum(z_i/y_i + y_i/z_i) over ascending y is an isotonic
    problem with a separable convex objective (convex in log y), so
    pool-adjacent-violators applies; a pooled block takes the value
    sqrt(sum(z) / sum(1/z)) that minimizes the block's own objective.
    """
    blocks = [(zi, 1.0 / zi, 1) for zi in np.asarray(z, dtype=float)]
    value = lambda blk: math.sqrt(blk[0] / blk[1])
    out = []
    for blk in blocks:
        out.append(blk)
        while len(out) > 1 and value(out[-2]) >= value(out[-1]):
            s, inv, cnt = out.pop()
            s2, inv2, cnt2 = out.pop()
            out.append((s + s2, inv + inv2, cnt + cnt2))
    return np.concatenate([np.full(cnt, value((s, inv, cnt)))
                           for s, inv, cnt in out])
