"""Projections onto the product cone and their derivatives.

The product cone is {0}^nz x R+^nl x Kexp^ne with

    Kexp = cl{(x, y, z) : y > 0, y e^(x/y) <= z},

whose dual (up to sign conventions) appears in the operator-splitting
iteration.  Zero and nonnegative blocks project coordinatewise; the
exponential cone projection reduces, outside three easy regions, to a
one-dimensional root find in rho = x/y of the projected point (Friberg,
"Projection onto the exponential cone: a univariate root-finding
problem", 2021).  Given the root of a nearby earlier input, as between
two ADMM iterations, plain Newton starts from it; otherwise, or when
Newton does not converge to an admissible root, a scan finds a
sign-change bracket and safeguarded Newton runs inside it.  Either way
Newton stops as soon as a step moves rho by at most 1e-15 relative.  The
root find runs on the triple divided by a power of two that brings it to
unit scale, and all formulas are written to avoid overflow for large
|rho|: for rho >= 0 the root function is rescaled by e^(-2 rho).
``project_cone`` keeps the per-triple loop in Python floats.

Derivatives follow from the case analysis: identity inside the cone, zero
inside the polar, a diagonal on the third region, and for boundary
projections the solution of the bordered system obtained by differentiating
the projection's stationarity conditions.  Points within tolerance of a
case boundary are flagged as nonsmooth; callers can warn without failing.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

__all__ = [
    "project_expcone",
    "dproject_expcone",
    "project_cone",
    "dproject_cone",
    "in_expcone",
    "in_dual_expcone",
]

_NS_TOL = 1e-9


def in_expcone(v, tol=0.0) -> bool:
    """Membership in the exponential cone.

    Positive tol means metric distance: the point passes when it lies
    within tol (relatively scaled) of the cone, measured through the
    projection.  Zero or negative tol uses the exact cross-multiplied
    inequality with a strict margin, which stays meaningful as a routing
    or near-boundary probe."""
    x, y, z = float(v[0]), float(v[1]), float(v[2])
    if tol > 0.0:
        p, _ = project_expcone((x, y, z))
        err = math.hypot(p[0] - x, p[1] - y, p[2] - z)
        return err <= tol * (1.0 + math.hypot(x, y, z))
    if y > 0.0:
        q = x / y
        if q <= 1.0:
            eq = math.exp(q)
            slack = 0.0
            if tol != 0.0:
                gn = math.hypot(eq, 0.0 if eq == 0.0 else eq * (1.0 - q), 1.0)
                slack = tol * (1.0 + gn)
            return y * eq <= z + slack
        emq = math.exp(-q)
        slack = 0.0
        if tol != 0.0:
            slack = tol * (1.0 + math.hypot(1.0, q - 1.0, emq))
        return y <= z * emq + slack
    if y >= -tol:
        return x <= tol and z >= -tol
    return False


def in_polar_expcone(v, tol=0.0) -> bool:
    """Membership in the polar of the exponential cone (same tol rules).

    By the Moreau decomposition the distance to the polar cone is the
    norm of the projection onto the cone itself."""
    u, vv, w = float(v[0]), float(v[1]), float(v[2])
    if tol > 0.0:
        p, _ = project_expcone((u, vv, w))
        return math.hypot(*p) <= tol * (1.0 + math.hypot(u, vv, w))
    if u > 0.0:
        q = vv / u
        if q <= 1.0:
            eq = math.exp(q)
            slack = 0.0
            if tol != 0.0:
                gn = math.hypot(0.0 if eq == 0.0 else eq * (1.0 - q),
                                eq, math.e)
                slack = tol * (1.0 + gn)
            return u * eq <= -math.e * w + slack
        emq = math.exp(-q)
        slack = 0.0
        if tol != 0.0:
            slack = tol * (1.0 + math.hypot(q - 1.0, 1.0, math.e * emq))
        return u <= -math.e * w * emq + slack
    if u >= -tol:
        return vv <= tol and w <= tol
    return False


def in_dual_expcone(v, tol=0.0) -> bool:
    return in_polar_expcone((-v[0], -v[1], -v[2]), tol)


def _root_fun(rho, r, s, t):
    """Sign-stable residual whose zero gives the projection's x/y ratio.

    Once the exponential underflows the surviving terms are exactly
    linear in rho; returning that form directly keeps huge |rho| free of
    inf * 0 contamination from the polynomial factors."""
    if rho < 0.0:
        a = math.exp(rho)
        if a == 0.0:
            return r - rho * s
        return (r - rho * s) * (1.0 + a * a * (1.0 - rho)) \
            - (s * a - t) * a * (1.0 - rho + rho * rho)
    e1 = math.exp(-rho)
    if e1 == 0.0:
        return r * (1.0 - rho) - s
    e2 = e1 * e1
    return (r - rho * s) * (e2 + 1.0 - rho) \
        - (s - t * e1) * (1.0 - rho + rho * rho)


def _root_der(rho, r, s, t):
    if rho < 0.0:
        a = math.exp(rho)
        if a == 0.0:
            return -s
        a2 = a * a
        D = 1.0 + a2 * (1.0 - rho)
        E = 1.0 - rho + rho * rho
        return (-s * D + (r - rho * s) * a2 * (1.0 - 2.0 * rho)
                - (2.0 * s * a2 - t * a) * E
                - (s * a - t) * a * (2.0 * rho - 1.0))
    e1 = math.exp(-rho)
    if e1 == 0.0:
        return -r
    e2 = e1 * e1
    E = 1.0 - rho + rho * rho
    return (-s * (e2 + 1.0 - rho) + (r - rho * s) * (-2.0 * e2 - 1.0)
            - t * e1 * E - (s - t * e1) * (2.0 * rho - 1.0))


def _polish(lo, hi, flo, r, s, t):
    """Safeguarded Newton for the residual root inside a sign bracket.

    Newton steps that land strictly inside the bracket are taken, others
    are replaced by bisection.  A step that moves rho by at most 1e-15
    relative has converged: it is returned at once instead of bisecting
    the bracket down to the same width from its far end."""
    rho = 0.5 * (lo + hi)
    for _ in range(200):
        f = _root_fun(rho, r, s, t)
        if f == 0.0:
            break
        if (f > 0.0) == (flo > 0.0):
            lo = rho
        else:
            hi = rho
        if hi - lo <= 1e-15 * (1.0 + abs(lo) + abs(hi)):
            break
        fp = _root_der(rho, r, s, t)
        if fp != 0.0:
            nxt = rho - f / fp
            if lo <= nxt <= hi and abs(nxt - rho) <= 1e-15 * (1.0 + abs(rho)):
                return nxt
            if lo < nxt < hi:
                rho = nxt
                continue
        rho = 0.5 * (lo + hi)
    return rho


def _newton(rho, r, s, t):
    """Plain Newton from a warm start: the root once a step moves rho by
    at most 1e-15 relative, NaN if no step does within eight."""
    for _ in range(8):
        f = _root_fun(rho, r, s, t)
        fp = _root_der(rho, r, s, t)
        if fp == 0.0:
            break
        nxt = rho - f / fp
        if abs(nxt - rho) <= 1e-15 * (1.0 + abs(rho)):
            return nxt
        rho = nxt
    return math.nan


def _admissible(mu, clamp, scale):
    """Whether a root's recovered point meets the optimality conditions.

    The raw point of any root satisfies the stationarity conditions; it
    is the projection when its multiplier is nonnegative and it lies in
    the cone.  Both are judged on the scale of the input: mu is the
    multiplier times the largest entry of the constraint gradient, and
    clamp is how far clamping y and z at zero moves the point.  Far from
    rho = 0 both factors are large, so a root with y or the multiplier
    only a hair below zero can still be off by order scale.  Tolerances
    admit roots where mu or clamp are a hair off (tangency with the polar
    boundary, deep-right points hugging the z-axis ray); spurious roots
    miss by order scale and stay rejected."""
    return clamp <= 1e-11 * scale and mu >= -1e-9 * scale


def _solve_boundary(r, s, t, rho0=math.nan):
    """Root, projected point and multiplier of the boundary case.

    Returns (rho, x, y, z, lam).  A finite rho0, the root for a nearby
    earlier input, starts plain Newton; its root is kept when a step
    converges and the recovered point is admissible.  Otherwise, and
    always without rho0, sign-change brackets are scanned and the first
    root whose recovered point is admissible is kept.

    Face-hugging inputs put the root near r/s (left) or 1 - s/r (right),
    which can sit far outside any fixed window, so the scan reach adapts
    to those estimates.  Beyond |rho| ~ 745 the exponentials underflow
    and the residual is exactly linear there, so Newton still converges
    in one step inside such brackets.  Callers pass (r, s, t) at unit
    scale, which keeps every product in the residual finite."""
    scale = 1.0 + abs(r) + abs(s) + abs(t)
    if -math.inf < rho0 < math.inf:
        rho = _newton(rho0, r, s, t)
        if rho == rho:
            x, y, z, lam, mu, clamp = _recover(rho, r, s, t)
            if _admissible(mu, clamp, scale):
                return rho, x, y, z, max(lam, 0.0)
    reach = 512.0
    if s > 0.0:
        reach = max(reach, 2.0 * abs(r) / s + 2.0)
    if r > 0.0:
        reach = max(reach, 2.0 * abs(s) / r + 4.0)
    reach = min(reach, 1e306)
    knots = [0.0]
    step = 0.5
    while step <= reach:
        knots.extend((step, -step))
        step *= 2.0
    knots.sort()
    prev_k = knots[0]
    prev_f = _root_fun(prev_k, r, s, t)
    for k in knots[1:]:
        f = _root_fun(k, r, s, t)
        if f == 0.0 or (f > 0.0) != (prev_f > 0.0):
            rho = _polish(prev_k, k, prev_f, r, s, t)
            x, y, z, lam, mu, clamp = _recover(rho, r, s, t)
            if _admissible(mu, clamp, scale):
                return rho, x, y, z, max(lam, 0.0)
        prev_k, prev_f = k, f
    raise FloatingPointError(
        f"no valid root for exponential-cone projection of ({r}, {s}, {t})"
    )


def _recover(rho, r, s, t):
    """Projected point and multiplier from the root.

    Returns (x, y, z, lam, mu, clamp): the point with y and z clamped at
    zero, the multiplier lam, mu = lam times the largest entry of the
    constraint gradient (e^rho, e^rho (1 - rho), -1), and clamp, the
    largest entry of the move the clamping makes (x = rho y moves by
    |rho| times as much as y).

    For rho < 0 the divisor 1 + a^2 (1 - rho) is at least one, so the
    direct formulas are safe, and the largest gradient entry is 1.  For
    rho >= 0 that divisor can vanish (it does exactly when s = t = 0), so
    the multiplier is taken from the always-positive divisor
    E = 1 - rho + rho^2 >= 3/4 instead; there mu = (r - rho s) g / E with
    g = max(1, rho - 1), written for rho > 2 as a ratio that keeps huge
    rho from overflowing E."""
    if rho < 0.0:
        a = math.exp(rho)
        den = 1.0 + a * a * (1.0 - rho)
        y = (s + t * a * (1.0 - rho)) / den
        lam = (s * a - t) / den
        mu = lam
        z = t + lam
    else:
        e1 = math.exp(-rho)
        E = 1.0 - rho + rho * rho
        lam = (r - rho * s) * e1 / E
        if rho <= 2.0:
            mu = (r - rho * s) / E
        else:
            mu = (r - rho * s) / (rho + 1.0 / (rho - 1.0))
        z = t + lam
        y = z * e1
    clamp = max(0.0, -y * max(1.0, abs(rho)), -z)
    y = max(y, 0.0)
    z = max(z, 0.0)
    return rho * y, y, z, lam, mu, clamp


def _project_exp(r, s, t, rho0=math.nan):
    """Projection of one triple onto the exponential cone, in floats.

    Returns (x, y, z, case, rho, lam); rho and lam are the boundary
    case's root and multiplier, NaN in the three closed-form cases.  The
    boundary root find runs on the triple divided by a power of two that
    brings its largest entry into [1/2, 1); the projection is positively
    homogeneous and that division is exact, so only the result is
    multiplied back.  rho0 is passed on to _solve_boundary."""
    if in_expcone((r, s, t)):
        return r, s, t, "interior", math.nan, math.nan
    if in_polar_expcone((r, s, t)):
        return 0.0, 0.0, 0.0, "polar", math.nan, math.nan
    # Projection is 1-Lipschitz, so folding r, s in (0, 1e-12 scale] into
    # the r, s <= 0 face case perturbs the result by at most ~1e-12 scale,
    # and it keeps the boundary root (near r/s or 1 - s/r for these
    # face-hugging inputs) within a floating-point-sized scan range.
    scale = max(abs(r), abs(s), abs(t))
    if r <= 1e-12 * scale and s <= 1e-12 * scale:
        return min(r, 0.0), 0.0, max(t, 0.0), "third", math.nan, math.nan
    e = math.frexp(scale)[1]
    rho, x, y, z, lam = _solve_boundary(
        math.ldexp(r, -e), math.ldexp(s, -e), math.ldexp(t, -e), rho0)
    return (math.ldexp(x, e), math.ldexp(y, e), math.ldexp(z, e),
            "boundary", rho, math.ldexp(lam, e))


def project_expcone(v):
    """Projection onto the exponential cone.

    Returns (p, info): info carries the case label and, on the boundary
    case, the quantities the derivative needs (rho, lambda, y).
    """
    x, y, z, case, rho, lam = _project_exp(
        float(v[0]), float(v[1]), float(v[2]))
    if case == "boundary":
        return np.array([x, y, z]), {"case": case, "rho": rho, "lam": lam,
                                     "y": y}
    return np.array([x, y, z]), {"case": case}


def dproject_expcone(v):
    """Jacobian of the exponential-cone projection at v.

    Returns (3x3 array, nonsmooth flag).  The flag marks points within
    tolerance of a case boundary, where the projection is not
    differentiable and the returned matrix is one generalized Jacobian.
    """
    r, s, t = float(v[0]), float(v[1]), float(v[2])
    scale = 1.0 + abs(r) + abs(s) + abs(t)
    tol = _NS_TOL * scale
    _, y, z, case, rho, lam = _project_exp(r, s, t)
    if case == "interior":
        near = (not in_expcone((r, s, t), tol=-tol)) if s > 0 else True
        return np.eye(3), bool(near)
    if case == "polar":
        near = not in_polar_expcone((r, s, t), tol=-tol)
        return np.zeros((3, 3)), bool(near)
    if case == "third":
        J = np.diag([1.0, 0.0, 1.0 if t > 0.0 else 0.0])
        near = (abs(t) <= tol or r >= -tol or s >= -tol)
        return J, bool(near)
    near = lam <= tol or y <= tol
    if y <= 0.0:
        if rho > 0.0:
            # deep-right degenerate point: projection hugs the z-axis ray
            # (0, 0, z), where only dz/dt survives at double precision
            return np.diag([0.0, 0.0, 1.0 if z > 0.0 else 0.0]), True
        # degenerate boundary point; fall back to the third-region form
        return np.diag([1.0, 0.0, 1.0 if t > 0.0 else 0.0]), True
    a = math.exp(min(rho, 700.0))
    grad = np.array([a, a * (1.0 - rho), -1.0])
    H = (a / y) * np.array([
        [1.0, -rho, 0.0],
        [-rho, rho * rho, 0.0],
        [0.0, 0.0, 0.0],
    ])
    KKT = np.zeros((4, 4))
    KKT[:3, :3] = np.eye(3) + lam * H
    KKT[:3, 3] = grad
    KKT[3, :3] = grad
    try:
        Jfull = np.linalg.solve(KKT, np.vstack([np.eye(3),
                                                np.zeros((1, 3))]))
    except np.linalg.LinAlgError:
        return np.eye(3), True
    return Jfull[:3, :], bool(near)


def _exp_blocks(dims):
    nz, nl, ne = dims["zero"], dims["nonneg"], dims["exp"]
    return nz, nl, ne, nz + nl + 3 * ne


def project_cone(v, dims, dual=False, rho=None):
    """Projection onto the product cone (dual=False) or its dual cone.

    The dual cone replaces the zero block by free variables, keeps the
    nonnegative block, and swaps in the dual exponential cone via the
    Moreau identity.

    rho, if given, is a float array with one entry per exponential
    triple: the root of that triple's last boundary-case projection, NaN
    before the first.  Each boundary-case root find starts from it, and
    it is updated in place.  An iteration whose input moves little
    between calls then needs a few Newton steps per triple."""
    v = np.asarray(v, dtype=float)
    nz, nl, ne, m = _exp_blocks(dims)
    if v.shape != (m,):
        raise ValueError(f"vector has shape {v.shape}, expected ({m},)")
    out = np.empty(m)
    if dual:
        out[:nz] = v[:nz]
    else:
        out[:nz] = 0.0
    out[nz:nz + nl] = np.maximum(v[nz:nz + nl], 0.0)
    if ne:
        blk = v[nz + nl:]
        it = iter((-blk if dual else blk).tolist())
        warm = [math.nan] * ne if rho is None else rho.tolist()
        proj = []
        for k, (r, s, t) in enumerate(zip(it, it, it)):
            x, y, z, _, root, _ = _project_exp(r, s, t, warm[k])
            proj += (x, y, z)
            if root == root:
                warm[k] = root
        out[nz + nl:] = blk + proj if dual else proj
        if rho is not None:
            rho[:] = warm
    return out


def _blockdiag_csr(diag, J):
    """diag(diag) followed by the 3x3 blocks J[0], ..., J[-1] down the
    diagonal, as one CSR matrix that stores no zero entries."""
    nd, ne = diag.size, J.shape[0]
    m = nd + 3 * ne
    first = nd + 3 * np.arange(ne)
    data = np.concatenate([diag, J.ravel()])
    cols = np.concatenate([
        np.arange(nd),
        (first[:, None, None] + np.arange(3)).repeat(3, axis=1).ravel()])
    rows = np.concatenate([np.arange(nd), np.arange(nd, m).repeat(3)])
    keep = data != 0.0
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[keep], minlength=m), out=indptr[1:])
    return sp.csr_matrix((data[keep], cols[keep], indptr), shape=(m, m))


def dproject_cone(v, dims, dual=False):
    """Derivative of ``project_cone`` as a sparse matrix, plus a flag set
    when any block sits within tolerance of a nondifferentiable point."""
    v = np.asarray(v, dtype=float)
    nz, nl, ne, m = _exp_blocks(dims)
    if v.shape != (m,):
        raise ValueError(f"vector has shape {v.shape}, expected ({m},)")
    w = v[nz:nz + nl]
    diag = np.concatenate([np.full(nz, 1.0 if dual else 0.0),
                           (w > 0.0).astype(float)])
    nonsmooth = bool(np.any(np.abs(w) <= _NS_TOL * (1.0 + np.abs(w))))
    blk = v[nz + nl:]
    it = iter((-blk if dual else blk).tolist())
    J = np.empty((ne, 3, 3))
    for k, rst in enumerate(zip(it, it, it)):
        J[k], ns = dproject_expcone(rst)
        nonsmooth = nonsmooth or ns
    if dual:
        J = np.eye(3) - J
    return _blockdiag_csr(diag, J), nonsmooth
