"""Expression trees over positive variables with log-log curvature analysis.

An expression is a tree whose leaves are positive variables, parameters, or
strictly positive constants, and whose inner nodes are atoms with known
log-log curvature and per-argument monotonicity.  Curvature of a compound
expression is derived by the composition rule: an atom application is
log-log convex if the atom is log-log convex (or affine) and every argument
in a nondecreasing slot is log-log convex, every argument in a nonincreasing
slot is log-log concave, and every argument in an unspecified slot is
log-log affine; symmetrically for log-log concave.

The rule is written once: ``_slots`` gives an atom's own curvature and the
slot of each argument (a power's slot follows its exponent), and the table
``_SLOT_NEED`` says what an argument in each slot must be for each need.
Each node's verdict, of the one verdict type ``Curvature``, is computed
once, when the node is built: an atom application's from its arguments'
held verdicts (``_compose``).  ``curvature`` reads it, and so does every
later phase; the grammar diagnostic (``explain_failure``) descends top-down
through ``_arg_needs`` only where a held verdict fails its need.

Parameters are atoms too: a positive parameter is log-log affine, a
parameter without declared sign has unknown curvature everywhere except as
a power exponent.  ``power(x, a)`` with a parameter exponent is admitted
only when the base ``x`` is not parametrized or is a positive parameter (or
one entry of one), and certifies log-log affine only for log-log affine
bases (the exponent's sign is unknown, so the slot is
monotonicity-unspecified).  A positive parameter base makes the power
p**a a smooth function of the parameters alone, which canonicalization
lowers to one parameter-map entry a*log(p).
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import reduce

import numpy as np

__all__ = [
    "Expr",
    "Constant",
    "Variable",
    "Parameter",
    "Elem",
    "AtomApp",
    "Curvature",
    "Constraint",
    "ExpressionError",
    "ArityError",
    "ShapeError",
    "PowerRuleError",
    "DomainError",
    "add",
    "mul",
    "power",
    "maximum",
    "minimum",
    "ratio",
    "diff_pos",
    "exp",
    "log",
    "one",
    "curvature",
    "evaluate",
    "variables_of",
    "parameters_of",
]


class ExpressionError(ValueError):
    """Malformed expression."""


class ArityError(ExpressionError):
    """Atom applied to the wrong number of arguments."""


class ShapeError(ExpressionError):
    """Argument shapes are not broadcastable."""


class PowerRuleError(ExpressionError):
    """Parameter exponent applied to a parametrized base other than a
    positive parameter."""


class DomainError(ExpressionError):
    """Value outside the positive domain an operand requires."""


def _as_expr(obj) -> "Expr":
    if isinstance(obj, Expr):
        return obj
    if isinstance(obj, (int, float)):
        return Constant(float(obj))
    if isinstance(obj, (list, tuple, np.ndarray)):
        return Constant(np.asarray(obj, dtype=float))
    raise ExpressionError(f"cannot interpret {obj!r} as an expression")


class Expr:
    """Base class for all expression nodes.

    Immutable, which a node's ``verdict`` (its ``Curvature``) and size
    rely on: both are set when the node is built, a leaf's from its kind
    and an atom application's from its arguments', and hold for its whole
    life."""

    __slots__ = ("verdict",)

    @property
    def size(self) -> int:
        raise NotImplementedError

    # -- operator sugar -------------------------------------------------

    def __mul__(self, other):
        return mul(self, _as_expr(other))

    def __rmul__(self, other):
        return mul(_as_expr(other), self)

    def __add__(self, other):
        return add(self, _as_expr(other))

    def __radd__(self, other):
        return add(_as_expr(other), self)

    def __truediv__(self, other):
        return ratio(self, _as_expr(other))

    def __rtruediv__(self, other):
        return ratio(_as_expr(other), self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __sub__(self, other):
        raise TypeError(
            "subtraction is not an atom; use diff_pos(y, x) for y - x "
            "with domain x < y"
        )

    def __rsub__(self, other):
        raise TypeError(
            "subtraction is not an atom; use diff_pos(y, x) for y - x "
            "with domain x < y"
        )

    def __neg__(self):
        raise TypeError("expressions are positive; negation is not defined")

    # comparisons build constraints, so hashing must stay identity-based
    def __hash__(self):
        return id(self)

    def __le__(self, other):
        return Constraint("<=", self, _as_expr(other))

    def __ge__(self, other):
        return Constraint("<=", _as_expr(other), self)

    def __eq__(self, other):  # type: ignore[override]
        return Constraint("==", self, _as_expr(other))

    def __ne__(self, other):  # type: ignore[override]
        raise TypeError("expressions do not support !=")


class Constant(Expr):
    """Strictly positive numeric constant, scalar or vector."""

    __slots__ = ("value",)

    def __init__(self, value):
        arr = np.atleast_1d(np.asarray(value, dtype=float))
        if arr.ndim != 1:
            raise ShapeError("constants must be scalars or 1-d vectors")
        if arr.size == 0:
            raise ShapeError("constants must have at least one entry")
        if not np.all(np.isfinite(arr)):
            raise DomainError("constant entries must be finite")
        if np.any(arr <= 0):
            raise DomainError(
                f"constants must be strictly positive, got {value!r}"
            )
        self.value = arr
        self.value.setflags(write=False)
        self.verdict = _VERDICT["constant", False]

    @property
    def size(self) -> int:
        return self.value.size

    def __repr__(self):
        if self.value.size == 1:
            return f"Constant({self.value[0]:g})"
        return f"Constant({self.value.tolist()})"


class Variable(Expr):
    """Positive optimization variable.

    ``value`` and ``delta`` are populated by ``Problem.solve`` and
    ``Problem.derivative``; ``gradient`` is read by ``Problem.backward``.
    """

    __slots__ = ("name", "_size", "value", "delta", "gradient")

    def __init__(self, name: str, size: int = 1):
        if not name or not isinstance(name, str):
            raise ExpressionError("variable name must be a non-empty string")
        if size < 1:
            raise ShapeError("variable size must be >= 1")
        self.name = name
        self._size = int(size)
        self.value = None
        self.delta = None
        self.gradient = None
        self.verdict = _VERDICT["affine", False]

    @property
    def size(self) -> int:
        return self._size

    def __getitem__(self, idx: int) -> "Elem":
        return Elem(self, idx)

    def __repr__(self):
        return f"Variable({self.name!r}, size={self._size})"


class Parameter(Expr):
    """Problem parameter; positive parameters are log-log affine.

    Parameters without ``positive=True`` may appear only as power
    exponents.  ``positive`` is read-only, as the verdict it gives is.
    ``delta`` feeds ``Problem.derivative``; ``gradient`` is written by
    ``Problem.backward``.
    """

    __slots__ = ("name", "_size", "_positive", "value", "delta", "gradient")

    def __init__(self, name: str, size: int = 1, positive: bool = False,
                 value=None):
        if not name or not isinstance(name, str):
            raise ExpressionError("parameter name must be a non-empty string")
        if size < 1:
            raise ShapeError("parameter size must be >= 1")
        self.name = name
        self._size = int(size)
        self._positive = bool(positive)
        self.value = None
        self.delta = None
        self.gradient = None
        self.verdict = _VERDICT["affine" if positive else "unknown", True]
        if value is not None:
            self.set_value(value)

    @property
    def positive(self) -> bool:
        return self._positive

    @property
    def size(self) -> int:
        return self._size

    def set_value(self, value):
        arr = np.atleast_1d(np.asarray(value, dtype=float)).copy()
        if arr.size != self._size:
            raise ShapeError(
                f"parameter {self.name}: value has size {arr.size}, "
                f"expected {self._size}"
            )
        self.value = self.checked(arr)

    def checked(self, arr: np.ndarray) -> np.ndarray:
        """arr, an array of values, if each is finite and, for a positive
        parameter, positive; else DomainError."""
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"parameter {self.name}: value must be finite")
        if self.positive and np.any(arr <= 0):
            raise DomainError(
                f"parameter {self.name} is positive but got {arr}"
            )
        return arr

    def __getitem__(self, idx: int) -> "Elem":
        return Elem(self, idx)

    def __repr__(self):
        kind = "positive" if self.positive else "real"
        return f"Parameter({self.name!r}, size={self._size}, {kind})"


class Elem(Expr):
    """Scalar view of one entry of a vector variable or parameter."""

    __slots__ = ("base", "index")

    def __init__(self, base, index: int):
        if not isinstance(base, (Variable, Parameter)):
            raise ExpressionError("only variables and parameters are indexable")
        index = int(index)
        if not 0 <= index < base.size:
            raise ShapeError(
                f"index {index} out of range for {base.name} of size {base.size}"
            )
        self.base = base
        self.index = index
        self.verdict = base.verdict

    @property
    def size(self) -> int:
        return 1

    def __repr__(self):
        return f"{self.base.name}[{self.index}]"


# ---------------------------------------------------------------------------
# Atom registry


@dataclass(frozen=True)
class AtomSignature:
    """Shape and curvature contract of one atom."""

    name: str
    arity: int | None          # None means n-ary, >= 2
    monotonicity: tuple        # per-argument; n-ary atoms repeat entry 0
    curvature: str             # intrinsic: "affine" | "convex" | "concave"


NONDECR = "nondecreasing"
NONINCR = "nonincreasing"
UNSPEC = "unspecified"

ATOMS: dict[str, AtomSignature] = {
    "mul": AtomSignature("mul", None, (NONDECR,), "affine"),
    "add": AtomSignature("add", None, (NONDECR,), "convex"),
    "maximum": AtomSignature("maximum", None, (NONDECR,), "convex"),
    "minimum": AtomSignature("minimum", None, (NONDECR,), "concave"),
    "ratio": AtomSignature("ratio", 2, (NONDECR, NONINCR), "affine"),
    "diff_pos": AtomSignature("diff_pos", 2, (NONDECR, NONINCR), "concave"),
    "exp": AtomSignature("exp", 1, (NONDECR,), "convex"),
    "log": AtomSignature("log", 1, (NONDECR,), "concave"),
    # power is special-cased: its exponent is an attribute, not an argument
    "power": AtomSignature("power", 1, (UNSPEC,), "affine"),
}


class AtomApp(Expr):
    """Application of an atom to argument expressions."""

    __slots__ = ("atom", "args", "exponent", "size")

    def __init__(self, atom: str, args: tuple, size: int, exponent=None):
        self.atom = atom
        self.args = args
        self.exponent = exponent
        # the broadcast size, which build_atom has checked
        self.size = size
        self.verdict = _compose(self)

    def __repr__(self):
        if self.atom == "power":
            return f"power({self.args[0]!r}, {self.exponent!r})"
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.atom}({inner})"


def _broadcast_size(args, atom):
    sizes = {a.size for a in args}
    big = sizes - {1}
    if len(big) > 1:
        raise ShapeError(
            f"{atom}: argument sizes {sorted(sizes)} are not broadcastable"
        )
    return max(sizes)


def build_atom(atom_id: str, args, exponent=None) -> Expr:
    """Construct an atom application, validating arity, shapes, and the
    parameter-exponent rule."""
    if atom_id == "one":
        if args:
            raise ArityError("one takes no arguments")
        return Constant(1.0)
    sig = ATOMS.get(atom_id)
    if sig is None:
        raise ExpressionError(f"unknown atom {atom_id!r}")
    args = tuple(_as_expr(a) for a in args)
    if sig.arity is None:
        if len(args) < 2:
            raise ArityError(f"{atom_id} takes at least 2 arguments")
    elif len(args) != sig.arity:
        raise ArityError(
            f"{atom_id} takes {sig.arity} argument(s), got {len(args)}"
        )
    size = _broadcast_size(args, atom_id)

    if atom_id == "power":
        return _build_power(args[0], exponent)
    if exponent is not None:
        raise ExpressionError(f"{atom_id} does not take an exponent")

    # associative n-ary atoms flatten, which keeps canonical forms small;
    # size stays, a flattened argument's size being the largest of its own
    if sig.arity is None:
        flat = []
        for a in args:
            if isinstance(a, AtomApp) and a.atom == atom_id:
                flat.extend(a.args)
            else:
                flat.append(a)
        args = tuple(flat)

    if atom_id == "log" and isinstance(args[0], Constant):
        if np.any(args[0].value <= 1.0):
            raise DomainError("log of a constant <= 1 is not positive")
    if atom_id == "diff_pos" and all(isinstance(a, Constant) for a in args):
        y, x = args
        if np.any(np.atleast_1d(y.value - x.value) <= 0):
            raise DomainError("diff_pos of constants requires y > x")

    return AtomApp(atom_id, args, size)


def _build_power(base: Expr, exponent) -> Expr:
    if exponent is None:
        raise ExpressionError("power requires an exponent")
    if isinstance(exponent, numbers.Real):
        exponent = float(exponent)
        if not math.isfinite(exponent):
            raise DomainError(f"power exponent must be finite, got {exponent}")
        return AtomApp("power", (base,), base.size, exponent=exponent)
    if isinstance(exponent, (Parameter, Elem)):
        ref = exponent.base if isinstance(exponent, Elem) else exponent
        if not isinstance(ref, Parameter):
            raise PowerRuleError("power exponent must be a number or parameter")
        if exponent.size != 1:
            raise ShapeError("power exponent must be scalar")
        if base.verdict.parametrized:
            leaf = base.base if isinstance(base, Elem) else base
            if not (isinstance(leaf, Parameter) and leaf.positive):
                raise PowerRuleError(
                    "parameter exponent requires a non-parametrized base or "
                    "a positive parameter"
                )
        return AtomApp("power", (base,), base.size, exponent=exponent)
    raise PowerRuleError(
        "power exponent must be a fixed number or a (scalar) parameter, "
        "not a composed expression"
    )


# -- convenience constructors ------------------------------------------------

def mul(*args) -> Expr:
    return build_atom("mul", args)


def add(*args) -> Expr:
    return build_atom("add", args)


def maximum(*args) -> Expr:
    return build_atom("maximum", args)


def minimum(*args) -> Expr:
    return build_atom("minimum", args)


def ratio(num, den) -> Expr:
    return build_atom("ratio", (num, den))


def diff_pos(y, x) -> Expr:
    """The positive difference y - x, valid on x < y; log-log concave."""
    return build_atom("diff_pos", (y, x))


def exp(arg) -> Expr:
    return build_atom("exp", (arg,))


def log(arg) -> Expr:
    return build_atom("log", (arg,))


def power(base, exponent) -> Expr:
    return build_atom("power", (base,), exponent=exponent)


def one() -> Constant:
    return Constant(1.0)


# ---------------------------------------------------------------------------
# Curvature analysis


_MEETS = {"convex": ("constant", "affine", "convex"),
          "concave": ("constant", "affine", "concave"),
          "affine": ("constant", "affine")}


@dataclass(frozen=True)
class Curvature:
    """Log-log curvature verdict plus a parametrization flag."""

    kind: str                  # constant | affine | convex | concave | unknown
    parametrized: bool

    def meets(self, need: str) -> bool:
        """Whether the verdict satisfies ``need`` (convex|concave|affine)."""
        return self.kind in _MEETS[need]

    @property
    def is_convex(self) -> bool:
        return self.meets("convex")

    @property
    def is_concave(self) -> bool:
        return self.meets("concave")

    @property
    def is_affine(self) -> bool:
        return self.meets("affine")


_KINDS = ("constant", "affine", "convex", "concave", "unknown")
_VERDICT = {(kind, par): Curvature(kind, par)
            for kind in _KINDS for par in (False, True)}
_KIND = {(True, True): "affine", (True, False): "convex",
         (False, True): "concave", (False, False): "unknown"}

# The composition rule: what an argument in each monotonicity slot must be
# for the application to meet a need, given that the atom itself does.
_SLOT_NEED = {
    NONDECR: {"convex": "convex", "concave": "concave", "affine": "affine"},
    NONINCR: {"convex": "concave", "concave": "convex", "affine": "affine"},
    UNSPEC: {"convex": "affine", "concave": "affine", "affine": "affine"},
}

# whether an argument of each kind in each slot lets the application be
# convex, and concave
_FITS = {slot: {kind: (kind in _MEETS[need["convex"]],
                       kind in _MEETS[need["concave"]]) for kind in _KINDS}
         for slot, need in _SLOT_NEED.items()}

# (own curvature, per-argument slots); n-ary atoms repeat slot 0 endlessly
_ATOM_SLOTS = {
    name: (sig.curvature, itertools.repeat(sig.monotonicity[0])
           if sig.arity is None else sig.monotonicity)
    for name, sig in ATOMS.items()
}
_POWER_SLOTS = {slot: ("affine", (slot,))
                for slot in (NONDECR, NONINCR, UNSPEC)}


def _slots(node: AtomApp):
    """The atom's own curvature and the monotonicity slot of each argument.

    A power's slot follows its exponent: nondecreasing for a float >= 0,
    nonincreasing for a float < 0, unspecified for a parameter.
    """
    if node.atom != "power":
        return _ATOM_SLOTS[node.atom]
    a = node.exponent
    if not isinstance(a, float):
        return _POWER_SLOTS[UNSPEC]
    return _POWER_SLOTS[NONINCR if a < 0 else NONDECR]


def _arg_needs(node: AtomApp, need: str):
    """(argument, need) pairs under which ``node`` meets ``need``, or None
    when the atom's own curvature rules ``need`` out."""
    own, slots = _slots(node)
    if own != "affine" and own != need:
        return None
    return [(arg, _SLOT_NEED[slot][need])
            for arg, slot in zip(node.args, slots)]


def _compose(e: AtomApp) -> Curvature:
    """The verdict of ``e`` by the composition rule, from its arguments'
    held verdicts."""
    own, slots = _slots(e)
    cvx = own != "concave"
    ccv = own != "convex"
    # a parameter exponent is parametrized and never constant: folding it
    # into a constant would bake the parameter's current value into the data
    a = e.exponent             # a float, a parameter, or None (not a power)
    par = isinstance(a, Expr)
    const = not par
    for arg, slot in zip(e.args, slots):
        f = arg.verdict
        fits_cvx, fits_ccv = _FITS[slot][f.kind]
        cvx = cvx and fits_cvx
        ccv = ccv and fits_ccv
        const = const and f.kind == "constant"
        par = par or f.parametrized
    if const or (isinstance(a, float) and a == 0.0):
        return _VERDICT["constant", par]
    return _VERDICT[_KIND[cvx, ccv], par]


def curvature(e: Expr) -> Curvature:
    """Tightest log-log curvature derivable by the composition rule."""
    return _as_expr(e).verdict


# -- diagnostics -------------------------------------------------------------

_NEED_WORD = {"convex": "log-log convex", "concave": "log-log concave",
              "affine": "log-log affine"}


def explain_failure(e: Expr, need: str, path: str = "") -> str | None:
    """Locate the first subtree that blocks the required curvature.

    Returns None when ``e`` satisfies ``need``, which its held verdict
    tells; otherwise a human-readable diagnostic naming the offending node
    by path.
    """
    if e.verdict.meets(need):
        return None
    label = path or "expression"
    leaf = e.base if isinstance(e, Elem) else e
    if isinstance(leaf, Parameter):
        return (f"{label}: parameter {leaf.name!r} has no declared sign, "
                f"so its log-log curvature is unknown outside power "
                f"exponents")
    if not isinstance(e, AtomApp):
        return f"{label}: not {_NEED_WORD[need]}"
    pairs = _arg_needs(e, need)
    if pairs is None:
        return (f"{label}: atom {e.atom!r} is log-log "
                f"{ATOMS[e.atom].curvature}, which cannot appear in a "
                f"{_NEED_WORD[need]} position")
    power = e.atom == "power"
    for i, (arg, sub_need) in enumerate(pairs):
        sub_path = (f"{path or 'power'}.arg" if power else
                    f"{path + '.' if path else ''}{e.atom}.args[{i}]")
        deeper = explain_failure(arg, sub_need, sub_path)
        if deeper:
            return deeper
    if power:
        return f"{label}: power is not {_NEED_WORD[need]} here"
    return f"{label}: atom {e.atom!r} is not {_NEED_WORD[need]} here"


# ---------------------------------------------------------------------------
# Numeric evaluation


# n-ary atoms fold left to right over their arguments
_UFUNC = {"mul": np.multiply, "add": np.add, "maximum": np.maximum,
          "minimum": np.minimum, "ratio": np.divide, "diff_pos": np.subtract,
          "exp": np.exp, "log": np.log}


def evaluate(e: Expr, values: dict | None = None) -> np.ndarray:
    """Evaluate an expression to a positive vector.

    Leaf values come from the ``value`` attributes of variables and
    parameters, unless overridden through ``values`` (a mapping from leaf
    object to array).
    """

    def leaf_value(leaf):
        if values is not None and leaf in values:
            arr = np.atleast_1d(np.asarray(values[leaf], dtype=float))
        else:
            if leaf.value is None:
                raise DomainError(f"{leaf.name} has no value")
            arr = np.atleast_1d(np.asarray(leaf.value, dtype=float))
        if arr.size != leaf.size:
            raise ShapeError(
                f"{leaf.name}: value of size {arr.size}, expected {leaf.size}"
            )
        return arr

    def rec(node):
        if isinstance(node, Constant):
            return node.value
        if isinstance(node, (Variable, Parameter)):
            return leaf_value(node)
        if isinstance(node, Elem):
            return leaf_value(node.base)[node.index:node.index + 1]
        assert isinstance(node, AtomApp)
        if node.atom == "power":
            a = node.exponent
            if isinstance(a, float) and a == 0.0:
                return np.ones(node.args[0].size)
            return rec(node.args[0]) ** (a if isinstance(a, float) else rec(a))
        args = [rec(a) for a in node.args]
        ufunc = _UFUNC.get(node.atom)
        if ufunc is not None:
            return ufunc(*args) if ufunc.nin == 1 else reduce(ufunc, args)
        raise ExpressionError(f"unknown atom {node.atom!r}")

    return np.broadcast_to(rec(e), (e.size,)).astype(float)


def _leaves(*exprs) -> tuple:
    """(variables, parameters) of exprs, each in first-appearance
    (depth-first) order, a power's exponent after its base, from one walk."""
    seen: set = set()
    variables: list = []
    parameters: list = []
    stack = list(reversed(exprs))
    while stack:
        e = stack.pop()
        if isinstance(e, AtomApp):
            if isinstance(e.exponent, Expr):
                stack.append(e.exponent)
            stack.extend(reversed(e.args))
            continue
        if isinstance(e, Elem):
            e = e.base
        if id(e) not in seen:
            seen.add(id(e))
            if isinstance(e, Variable):
                variables.append(e)
            elif isinstance(e, Parameter):
                parameters.append(e)
    return variables, parameters


def variables_of(*exprs) -> list:
    """Variables in first-appearance (depth-first) order."""
    return _leaves(*exprs)[0]


def parameters_of(*exprs) -> list:
    """Parameters in first-appearance (depth-first) order, including
    power exponents."""
    return _leaves(*exprs)[1]


class Constraint:
    """A normalized relation ``lhs <= rhs`` or ``lhs == rhs``."""

    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Expr, rhs: Expr):
        if op not in ("<=", "=="):
            raise ExpressionError(f"unsupported relation {op!r}")
        if not (lhs.size == rhs.size or lhs.size == 1 or rhs.size == 1):
            raise ShapeError(
                f"constraint sides have sizes {lhs.size} and {rhs.size}"
            )
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    @property
    def size(self) -> int:
        return max(self.lhs.size, self.rhs.size)

    def __bool__(self):
        raise TypeError(
            "constraints have no truth value; pass them to Problem instead"
        )

    def __repr__(self):
        return f"Constraint({self.lhs!r} {self.op} {self.rhs!r})"
