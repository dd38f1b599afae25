"""Solver configuration shared by the edge-weight construction and the CLI."""

from __future__ import annotations

import math
import numbers
import operator
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, ValidationError

COST_KINDS = ("sqeuclidean", "euclidean")

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 100_000
TENSOR_CAP = 10_000_000


_UNSET = object()  # an argument of check_solver_params that was not given


def check_solver_params(eta=_UNSET, tol=_UNSET, max_iter=_UNSET) -> None:
    """Reject an eta or tol that is a bool or not a positive finite real
    number, and a max_iter that is not an integer >= 1, None included; an
    argument that is not given is not checked.
    """
    for name, value in (("eta", eta), ("tol", tol)):
        # an exact compare: an int beyond the float range is refused too
        if value is not _UNSET and (type(value) is bool or not (
                isinstance(value, numbers.Real) and 0 < value <= sys.float_info.max)):
            raise ValidationError(f"{name} must be a positive finite real, got {value!r}")
    if max_iter is not _UNSET:
        as_index(max_iter, "max_iter", 1)


def as_float_array(values, what: str) -> np.ndarray:
    """values as a float array: the one conversion of array input.  Refuses
    ragged or non-numeric input and an integer beyond the float range; what
    names it in the message."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError as exc:
        raise ValidationError(f"{what} has an integer beyond the float range") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be a rectangular array of numbers") from exc


def check_cost_kind(kind: str) -> None:
    """Refuse a cost kind that is not in COST_KINDS."""
    if kind not in COST_KINDS:
        raise ValidationError(f"unknown cost kind {kind!r}; expected one of {COST_KINDS}")


def check_cost_scale(c_max: float, eta: float) -> None:
    """Refuse an eta at which C/eta overflows: by monotone rounding, exactly when
    c_max / eta does for the top cost c_max.  A non-finite c_max is left to
    the caller's check of the costs."""
    if math.isfinite(c_max) and math.isinf(c_max / eta):  # a Python float: inf, no warning
        raise ValidationError(f"eta={eta} is too small: C/eta overflows at the top cost {c_max}")


def check_cost_matrix(matrix) -> np.ndarray:
    """The matrix as a read-only C-ordered float array; refuses one that is
    not 2-d or has a non-finite or negative entry.  A writeable array is
    copied, never frozen in place, so the caller's array stays writeable."""
    m = as_float_array(matrix, "cost matrix")
    if m.ndim != 2:
        raise ValidationError(f"cost matrix must be 2-d, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("cost matrix contains non-finite entries")
    if np.any(m < 0):
        i, j = np.argwhere(m < 0)[0]
        raise ValidationError(f"negative cost at ({i}, {j}): {m[i, j]}")
    m = m.copy() if m.flags.writeable else np.ascontiguousarray(m)
    m.flags.writeable = False
    return m


def as_index(value, what: str, low: int | None = None) -> int:
    """value as an int: the one check of an integer setting or size.  Refuses
    a bool, a value that is not an integer, such as 2.7, and one below low."""
    try:
        n = value if type(value) is int else operator.index(value)  # type(True) is bool
    except TypeError:
        n = None
    if n is None or type(value) is bool or (low is not None and n < low):
        rule = "an integer" if low is None else f"an integer >= {low}"
        raise ValidationError(f"{what} must be {rule}, got {value!r}")
    return n


def check_vertex_count(s) -> int:
    """s as an int; a graph or tree on the vertices 1..s needs s >= 2."""
    return as_index(s, "vertex count s", 2)


def check_shape(array, expected: tuple[int, ...], what: str) -> None:
    """Refuse an array, such as one edge's (n_a, n_b) matrix, whose shape is
    not expected; what names it in the message."""
    if np.shape(array) != expected:
        raise ValidationError(f"{what} has shape {np.shape(array)}, expected {expected}")


def check_tensor_cap(shape) -> tuple[int, ...]:
    """shape as a tuple of ints >= 1; refuses a dense tensor of that shape with
    more than TENSOR_CAP entries."""
    shape = tuple(as_index(n, "tensor axis size", 1) for n in shape)
    total = math.prod(shape)
    if total > TENSOR_CAP:
        raise ValidationError(f"tensor with {total} entries exceeds the cap of {TENSOR_CAP}")
    return shape


def check_edges(s: int, edges) -> tuple[tuple[int, int], ...]:
    """The edges as a sorted tuple of (a, b) with a < b.  Refuses an s that
    check_vertex_count refuses, an edge that is not a pair, a vertex that is
    not an integer, a self-loop, a vertex outside 1..s and a repeated edge."""
    s = check_vertex_count(s)
    try:
        pairs = [(a, b) for a, b in edges]
    except (TypeError, ValueError) as exc:  # an edge that is not a pair
        raise ValidationError("each edge must be an (a, b) pair") from exc
    pairs = [(as_index(a, "edge vertex"), as_index(b, "edge vertex")) for a, b in pairs]
    canon = sorted([(a, b) if a < b else (b, a) for a, b in pairs])
    previous = None
    for edge in canon:
        a, b = edge
        if a == b:
            raise ValidationError(f"self-loop ({a}, {b}) is not a valid edge")
        if a < 1 or b > s:
            raise ValidationError(f"edge ({a}, {b}) out of range for s={s}")
        if edge == previous:
            raise ValidationError(f"edge ({a}, {b}) appears twice")
        previous = edge
    return tuple(canon)


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """Parameters for a bridge-tree solve.

    eta is the entropic regularization strength; it has no default because
    every reported cost is scaled by it and no canonical value exists.

    cost is a kind from COST_KINDS or one (n1, n2) cost matrix for every
    pair, held read-only as check_cost_matrix returns it.

    threads is the most edge solves run at once.  Only edges whose block
    n_a * n_b reaches mst._POOL_MIN_ENTRIES run on the thread pool; smaller
    ones hold the GIL through their short numpy calls and run serially.
    g is bit-identical at any thread count.

    on_nonconverged is a call-level setting, like threads: handle_nonconverged
    applies it once per mst.solve_edges call to all edges that stop above tol.
    "error" aborts; "warn" keeps the last iterates with one warning (an
    inaccurate weight can flip the argmin, so "error" is the default).
    """

    eta: float
    cost: str | np.ndarray = "sqeuclidean"
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    threads: int = 1
    on_nonconverged: str = "error"

    def __post_init__(self):
        check_solver_params(self.eta, self.tol, self.max_iter)
        if isinstance(self.cost, str):
            check_cost_kind(self.cost)
        else:
            object.__setattr__(self, "cost", check_cost_matrix(self.cost))
        as_index(self.threads, "threads", 1)
        if self.on_nonconverged not in ("error", "warn"):
            raise ValidationError(
                f"on_nonconverged must be 'error' or 'warn', got {self.on_nonconverged!r}"
            )

    def handle_nonconverged(self, message: str) -> None:
        """The on_nonconverged rule for a solve that stopped above tol:
        raise SolverError(message) under "error", warn under "warn"."""
        if self.on_nonconverged == "error":
            raise SolverError(message)
        warnings.warn(message, stacklevel=3)  # at the solving function's caller
