"""Projections onto the product cone and their derivatives.

The product cone is {0}^nz x R+^nl x Kexp^ne with

    Kexp = cl{(x, y, z) : y > 0, y e^(x/y) <= z},

whose dual (up to sign conventions) appears in the operator-splitting
iteration.  Zero and nonnegative blocks project coordinatewise; the
exponential cone projection reduces, outside three easy regions, to a
one-dimensional root find in rho = x/y of the projected point (Friberg,
"Projection onto the exponential cone: a univariate root-finding
problem", 2021).  The projected y and the multiplier of the cone
constraint are proportional to (rho - 1) r + s and r - rho s, so the
wanted root lies in the interval where both are nonnegative, whose ends
1 - s/r and r/s are known in closed form; the residual changes sign once
there.  One safeguarded Newton loop brackets the root by the residual's
sign, starting from the root of a nearby earlier input when there is
one, as between two ADMM iterations.  The root find runs on the triple
divided by a power of two that brings it to unit scale, and all formulas
are written to avoid overflow for large |rho|: for rho >= 0 the root
function is rescaled by e^(-2 rho).  ``project_cone`` runs that root
find per triple in Python floats, or, for a call with many triples such
as a batch of programs projects, as one numpy loop over all of them with
the same arithmetic, which gives the same bits.  Each path has one
kernel that returns the residual and its slope from one exponential
(_fun_der and _fun_der_many, which read line for line).  The numpy path
tests membership in the polar cone as membership of the swapped and
scaled triple in the cone itself: (u, v, w) is in the polar exactly when
(v, u, -e w) is in Kexp.

Derivatives follow from the case analysis: identity inside the cone, zero
inside the polar, a diagonal on the third region, and for boundary
projections a closed form from differentiating the projection's
stationarity conditions: the identity along the ray through the projected
point, zero along the constraint gradient, and a curvature-shrunk identity
along the tangent between them.  Points within tolerance of a case
boundary are flagged as nonsmooth; callers can warn without failing.
"""

from __future__ import annotations

import functools
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
# project_cone runs the root finds of a call with more exponential triples
# than this as one numpy loop, and fewer per triple in Python floats.  The
# numpy loop pays a fixed cost per round, for the slowest lane's rounds;
# on triples captured from the ADMM iterations of fit's programs, with
# their warm starts, it took about 590 against 460 us at 60 triples and
# 690 against 820 us at 80 (two runs, 2-CPU x86-64, numpy 2.4)
_VECTOR_TRIPLES = 75


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


def _fun_der(rho, r, s, t):
    """Sign-stable residual whose zero gives the projection's x/y ratio,
    and its slope in rho.

    With a = e^-|rho|, E = rho^2 - rho + 1 and the two numerators
    l1 = r - rho s (of the multiplier) and l2 = r (1 - rho) - s (of -y),
    the residual is l1 + e^rho t E + e^(2 rho) l2, divided by e^(2 rho)
    for rho >= 0 so that nothing overflows: l1 + a (t E + a l2) left of
    zero and l2 + a (t E + a l1) right of it.  Written this way no rho^2
    terms cancel, so far-right roots come out to full precision.  Once a
    underflows only a linear numerator is left; returning it directly
    keeps huge |rho| free of inf * 0."""
    a = math.exp(-abs(rho))
    omr = 1.0 - rho
    l1 = r - rho * s
    l2 = r * omr - s
    if rho < 0.0:
        if a == 0.0:
            return l1, -s
        return (l1 + a * (t * (omr + rho * rho) + a * l2),
                -s + a * (t * rho * (rho + 1.0) + a * (2.0 * l2 - r)))
    if a == 0.0:
        return l2, -r
    return (l2 + a * (t * (omr + rho * rho) + a * l1),
            -r - a * (t * (rho - 1.0) * (rho - 2.0) + a * (2.0 * l1 + s)))


def _solve_boundary(r, s, t, rho0=math.nan):
    """Root, projected point and multiplier of the boundary case.

    Returns (rho, x, y, z, lam).  The projection's y is proportional to
    (rho - 1) r + s and its multiplier to r - rho s, both with the
    positive factor 1/(rho^2 - rho + 1), so the wanted root lies where
    both are nonnegative: between 1 - s/r and r/s, an interval closed
    on one side at least.  The residual is positive left of the root
    and negative right of it, and crosses zero once in the interval.

    One safeguarded Newton loop finds the root.  Each residual narrows
    the bracket by its sign; a Newton step is taken when it lands inside
    the bracket, and otherwise a bracket no wider than twice the current
    step is bisected while a wider or open one is crossed in doubling
    steps from its end nearer zero.  The loop starts from rho0, the root
    of a nearby earlier input, clamped into the interval, or else from
    that first fallback step.  It stops once a Newton step moves rho by
    at most 1e-15 relative or the bracket stops shrinking.  Beyond
    |rho| ~ 745 the exponentials underflow and the residual is exactly
    linear, so there Newton converges in one step.  Callers pass
    (r, s, t) at unit scale, which keeps every product in the residual
    finite."""
    lo, hi = -math.inf, math.inf
    if r > 0.0:
        lo = 1.0 - s / r
    elif r < 0.0:
        hi = 1.0 - s / r
    if s > 0.0:
        hi = min(hi, r / s)
    elif s < 0.0:
        lo = max(lo, r / s)
    # the ends carry rounding, and a root at an end would put Newton's
    # last step an ulp outside
    lo -= 1e-15 * (1.0 + abs(lo))
    hi += 1e-15 * (1.0 + abs(hi))
    nxt = min(max(rho0, lo), hi) if -math.inf < rho0 < math.inf else math.nan
    step = 1.0
    for _ in range(200):
        if nxt != nxt:
            if hi - lo <= 2.0 * step:
                nxt = 0.5 * (lo + hi)
                if not lo < nxt < hi:  # the bracket stopped shrinking
                    rho = nxt
                    break
            elif abs(lo) <= abs(hi):
                nxt = lo + step
            else:
                nxt = hi - step
            step *= 2.0
        rho = nxt
        f, fp = _fun_der(rho, r, s, t)
        if f > 0.0:
            lo = rho
        elif f < 0.0:
            hi = rho
        else:
            break
        nxt = rho - f / fp if fp else math.nan
        if lo <= nxt <= hi and abs(nxt - rho) <= 1e-15 * (1.0 + abs(rho)):
            rho = nxt
            break
        if not lo < nxt < hi:
            nxt = math.nan
    return (rho, *_recover(rho, r, s, t))


def _recover(rho, r, s, t):
    """Projected point and multiplier (x, y, z, lam) from the root.

    For rho < 0 the divisor 1 + a^2 (1 - rho) is at least one, so the
    direct formulas are safe.  For rho >= 0 that divisor can vanish (it
    does exactly when s = t = 0), so the multiplier is taken from the
    always-positive divisor E = 1 - rho + rho^2 >= 3/4 instead.  Rounding
    can leave y, z or lam a hair below zero; they are clamped there."""
    if rho < 0.0:
        a = math.exp(rho)
        den = 1.0 + a * a * (1.0 - rho)
        y = (s + t * a * (1.0 - rho)) / den
        lam = (s * a - t) / den
        z = t + lam
    else:
        e1 = math.exp(-rho)
        lam = (r - rho * s) * e1 / (1.0 - rho + rho * rho)
        z = t + lam
        y = z * e1
    y = max(y, 0.0)
    return rho * y, y, max(z, 0.0), max(lam, 0.0)


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
    # face-hugging inputs) within about 1e12 of zero, a few dozen
    # doubling steps of the root find.
    scale = max(abs(r), abs(s), abs(t))
    if r <= 1e-12 * scale and s <= 1e-12 * scale:
        return min(r, 0.0), 0.0, max(t, 0.0), "third", math.nan, math.nan
    e = math.frexp(scale)[1]
    rho, x, y, z, lam = _solve_boundary(
        math.ldexp(r, -e), math.ldexp(s, -e), math.ldexp(t, -e), rho0)
    return (math.ldexp(x, e), math.ldexp(y, e), math.ldexp(z, e),
            "boundary", rho, math.ldexp(lam, e))


def _exp(x):
    """math.exp over an array: the scalar root find's exponential, so
    that the numpy loop reproduces it to the bit."""
    return np.fromiter(map(math.exp, x.tolist()), float, x.size)


# _project_exp_many's case codes, indices into _CASES
_CASES = ("interior", "polar", "third", "boundary")


def _fun_der_many(rho, r, s, t):
    """_fun_der over arrays, in the same arithmetic."""
    a = _exp(-np.abs(rho))
    neg = rho < 0.0
    omr = 1.0 - rho
    l1 = r - rho * s
    l2 = r * omr - s
    lead = np.where(neg, l1, l2)
    f = lead + a * (t * (omr + rho * rho) + a * np.where(neg, l2, l1))
    fp = np.where(neg,
                  -s + a * (t * rho * (rho + 1.0) + a * (2.0 * l2 - r)),
                  -r - a * (t * (rho - 1.0) * (rho - 2.0)
                            + a * (2.0 * l1 + s)))
    if not a.all():
        under = a == 0.0
        f = np.where(under, lead, f)
        fp = np.where(under, np.where(neg, -s, -r), fp)
    return f, fp


def _recover_many(rho, r, s, t):
    """_recover over arrays: (x, y, z)."""
    neg = rho < 0.0
    a = _exp(-np.abs(rho))
    den = 1.0 + a * a * (1.0 - rho)
    lam = np.where(neg, (s * a - t) / den,
                   (r - rho * s) * a / (1.0 - rho + rho * rho))
    z = t + lam
    y = np.where(neg, (s + t * a * (1.0 - rho)) / den, z * a)
    y = np.where(y < 0.0, 0.0, y)
    return rho * y, y, np.where(z < 0.0, 0.0, z)


def _solve_boundary_many(r, s, t, rho0):
    """The roots of _solve_boundary for arrays of triples at unit scale.

    Each lane runs _solve_boundary's safeguarded Newton loop, with the
    same bracket, fallback steps and stop rules; a lane leaves the loop
    when its own find would stop.  rho0 holds one start per lane, NaN for
    none."""
    lo = np.where(r > 0.0, 1.0 - s / r, -np.inf)
    hi = np.where(r < 0.0, 1.0 - s / r, np.inf)
    hi = np.where(s > 0.0, np.minimum(hi, r / s), hi)
    lo = np.where(s < 0.0, np.maximum(lo, r / s), lo)
    lo = lo - 1e-15 * (1.0 + np.abs(lo))
    hi = hi + 1e-15 * (1.0 + np.abs(hi))
    nxt = np.where(np.isfinite(rho0), np.minimum(np.maximum(rho0, lo), hi),
                   np.nan)
    step = np.ones(r.size)
    root = np.empty(r.size)
    lane = np.arange(r.size)
    rho = nxt
    for _ in range(200):
        fall = np.isnan(nxt)
        stalled = None
        if fall.any():
            mid = 0.5 * (lo + hi)
            bisect = fall & (hi - lo <= 2.0 * step)
            stalled = bisect & ~((lo < mid) & (mid < hi))
            nxt = np.where(bisect, mid, np.where(
                fall, np.where(np.abs(lo) <= np.abs(hi), lo + step, hi - step),
                nxt))
            step = np.where(fall, 2.0 * step, step)
        rho = nxt
        f, fp = _fun_der_many(rho, r, s, t)
        up, down = f > 0.0, f < 0.0
        lo = np.where(up, rho, lo)
        hi = np.where(down, rho, hi)
        nxt = np.where(fp != 0.0, rho - f / fp, np.nan)
        close = ((lo <= nxt) & (nxt <= hi)
                 & (np.abs(nxt - rho) <= 1e-15 * (1.0 + np.abs(rho))))
        done = close | ~(up | down)
        if stalled is not None:
            close &= ~stalled
            done |= stalled
        rho = np.where(close, nxt, rho)
        nxt = np.where((lo < nxt) & (nxt < hi), nxt, np.nan)
        if done.any():
            root[lane[done]] = rho[done]
            keep = ~done
            lane, r, s, t = lane[keep], r[keep], s[keep], t[keep]
            lo, hi, nxt, step, rho = (lo[keep], hi[keep], nxt[keep],
                                      step[keep], rho[keep])
            if not lane.size:
                break
    root[lane] = rho
    return root


def _project_exp_many(r, s, t, rho0):
    """_project_exp over arrays of triples, in numpy.

    Returns (x, y, z, case, rho): case holds indices into _CASES, and rho
    the boundary roots, NaN elsewhere.  rho0 holds one root to start
    from per triple, NaN for none.  The cases, the scaling and the root
    find are _project_exp's, lane by lane and operation by operation,
    so each lane's result is _project_exp's to the bit."""
    def in_cone(x, y, z):
        # in_expcone with tol = 0
        q = x / y
        small = q <= 1.0
        ex = _exp(np.where(small, q, -q))
        return np.where(y > 0.0, np.where(small, y * ex <= z, y <= z * ex),
                        (y == 0.0) & (x <= 0.0) & (z >= 0.0))

    with np.errstate(all="ignore"):
        cone = in_cone(r, s, t)
        # the polar is {(u, v, w) : (v, u, -e w) in Kexp}
        polar = in_cone(s, r, -math.e * t) & ~cone
        scale = np.maximum(np.maximum(np.abs(r), np.abs(s)), np.abs(t))
        third = ~(cone | polar) & (r <= 1e-12 * scale) & (s <= 1e-12 * scale)
        bnd = ~(cone | polar | third)
        x = np.where(polar, 0.0, np.where(third & (r > 0.0), 0.0, r))
        y = np.where(polar | third, 0.0, s)
        z = np.where(polar | (third & (t < 0.0)), 0.0, t)
        case = np.select([polar, third, bnd], [1, 2, 3], 0)
        rho = np.full(r.size, np.nan)
        if bnd.any():
            e = np.frexp(scale[bnd])[1]
            rb, sb, tb = (np.ldexp(w[bnd], -e) for w in (r, s, t))
            rho[bnd] = root = _solve_boundary_many(rb, sb, tb, rho0[bnd])
            xb, yb, zb = _recover_many(root, rb, sb, tb)
            x[bnd], y[bnd], z[bnd] = (np.ldexp(w, e) for w in (xb, yb, zb))
    return x, y, z, case, rho


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
    # J = P + f V.  P projects onto the ray through the point, direction
    # m = (rho, 1, e^rho), along which the projection is linear.  V
    # projects onto v = g x m, g = (e^rho, e^rho (1 - rho), -1) the
    # constraint gradient, and f = 1 / (1 + c |m|^2 / |g|^2) with the
    # curvature c = lam e^rho / y.  For rho >= 0, g and m are divided by
    # e^rho, which changes none of P, V and f, so nothing overflows.
    w, e = (math.exp(rho), 1.0) if rho < 0.0 else (1.0, math.exp(-rho))
    gg = w * w * (1.0 + (1.0 - rho) ** 2) + e * e
    m = np.array([rho * e, e, w])
    mm = m @ m
    v = np.array([w * w * (1.0 - rho) + e * e, -(rho * e * e + w * w),
                  w * e * (1.0 - rho + rho * rho)])
    lm = lam * w * mm
    f = y * e * gg / (y * e * gg + lm) if lm > 0.0 else 1.0
    return np.outer(m, m) / mm + f / (gg * mm) * np.outer(v, v), bool(near)


def _exp_blocks(dims):
    nz, nl, ne = dims["zero"], dims["nonneg"], dims["exp"]
    return nz, nl, ne, nz + nl + 3 * ne


def project_cone(v, dims, dual=False, rho=None):
    """Projection onto the product cone (dual=False) or its dual cone.

    The dual cone replaces the zero block by free variables, keeps the
    nonnegative block, and swaps in the dual exponential cone via the
    Moreau identity.

    v may also be an (m, k) stack of such vectors, one per column, as a
    batch of programs with one cone projects them.

    rho, if given, is a float vector with one entry per exponential
    triple, column after column for a stack: the root of that triple's
    last boundary-case projection, NaN before the first.  Each
    boundary-case root find starts from it, and it is updated in place.
    An iteration whose input moves little between calls then needs a
    few Newton steps per triple.

    A call with more than _VECTOR_TRIPLES exponential triples runs their
    root finds as one numpy loop (_project_exp_many); fewer run
    _project_exp per triple in Python floats, which costs less there."""
    v = np.asarray(v, dtype=float)
    nz, nl, ne, m = _exp_blocks(dims)
    if v.ndim not in (1, 2) or v.shape[0] != m:
        raise ValueError(f"vector has shape {v.shape}, expected ({m},)")
    out = np.empty(v.shape)
    if dual:
        out[:nz] = v[:nz]
    else:
        out[:nz] = 0.0
    out[nz:nz + nl] = np.maximum(v[nz:nz + nl], 0.0)
    if ne:
        blk = v[nz + nl:]
        # one row per program, each its triples in turn
        cone = (-blk if dual else blk).T
        count = cone.size // 3
        if count > _VECTOR_TRIPLES:
            r, s, t = cone.reshape(count, 3).T
            warm = np.full(count, np.nan) if rho is None else rho
            x, y, z, _, root = _project_exp_many(r, s, t, warm)
            proj = np.stack([x, y, z], axis=1).reshape(cone.shape).T
            warm = np.where(np.isnan(root), warm, root)
        else:
            it = iter(cone.ravel().tolist())
            warm = [math.nan] * count if rho is None else rho.tolist()
            proj = []
            for k, (r, s, t) in enumerate(zip(it, it, it)):
                x, y, z, _, root, _ = _project_exp(r, s, t, warm[k])
                proj += (x, y, z)
                if root == root:
                    warm[k] = root
            if v.ndim == 2:
                proj = np.reshape(proj, cone.shape).T
        out[nz + nl:] = blk + proj if dual else proj
        if rho is not None:
            rho[:] = warm
    return out


@functools.lru_cache(maxsize=16)
def _blockdiag_pattern(nd, ne):
    """The CSR indices and indptr of _blockdiag_csr's matrices with nd
    diagonal entries and ne blocks, which all of them share: read-only,
    so that no matrix can change another's."""
    first = nd + 3 * np.arange(ne)
    cols = np.concatenate([
        np.arange(nd),
        (first[:, None, None] + np.arange(3)).repeat(3, axis=1).ravel()])
    indptr = np.concatenate([np.arange(nd), nd + 3 * np.arange(3 * ne + 1)])
    pattern = cols.astype(np.int32), indptr.astype(np.int32)
    for a in pattern:
        a.flags.writeable = False
    return pattern


def _blockdiag_csr(diag, J):
    """diag(diag) followed by the 3x3 blocks J[0], ..., J[-1] down the
    diagonal, as one CSR matrix that stores every block entry, zeros
    included: its data is diag followed by J's entries row by row, a
    layout fixed by the block counts."""
    m = diag.size + 3 * J.shape[0]
    return sp.csr_matrix((np.concatenate([diag, J.ravel()]),
                          *_blockdiag_pattern(diag.size, J.shape[0])),
                         shape=(m, m))


def dproject_cone(v, dims, dual=False):
    """Derivative of ``project_cone`` as a sparse matrix, plus a flag set
    when any block sits within tolerance of a nondifferentiable point.

    The matrix stores the zero and nonnegative rows' diagonal and then
    each exponential triple's 3x3 block row by row, zeros included
    (_blockdiag_csr), so its data has one layout for all points."""
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
