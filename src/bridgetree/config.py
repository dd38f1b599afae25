"""Solver configuration shared by the edge-weight construction and the CLI."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

COST_KINDS = ("sqeuclidean", "euclidean", "matrix")

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 100_000
DEFAULT_TENSOR_CAP = 10_000_000


def check_solver_params(eta=None, tol=None, max_iter=None) -> None:
    """Reject an eta or tol that is not a positive finite real and a max_iter
    that is not an integer >= 1; a value of None is not checked.
    """
    if eta is not None and not (np.isfinite(eta) and eta > 0):
        raise ValidationError(f"eta must be a positive finite real, got {eta}")
    if tol is not None and not (np.isfinite(tol) and tol > 0):
        raise ValidationError(f"tol must be a positive finite real, got {tol}")
    if max_iter is not None and not (isinstance(max_iter, (int, np.integer)) and max_iter >= 1):
        raise ValidationError(f"max_iter must be an integer >= 1, got {max_iter}")


def check_tensor_cap(shape, cap: int) -> None:
    """Refuse a dense tensor of the given shape with more than cap entries."""
    total = math.prod(int(n) for n in shape)
    if total > cap:
        raise ValidationError(
            f"tensor with {total} entries exceeds the configured cap of {cap}"
        )


def as_index(value, what: str) -> int:
    """value as an int; refuses a value that is not an integer, such as 2.7."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None


def check_edges(s: int, edges) -> tuple[tuple[int, int], ...]:
    """The edges as a sorted tuple of (a, b) with a < b.  Refuses s < 2, a
    vertex that is not an integer, a self-loop, a vertex outside 1..s and a
    repeated edge."""
    if s < 2:
        raise ValidationError(f"need at least 2 vertices, got s={s}")
    pairs = [(as_index(a, "edge vertex"), as_index(b, "edge vertex")) for a, b in edges]
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


@dataclass(frozen=True)
class SolverConfig:
    """Parameters for a bridge-tree solve.

    eta is the entropic regularization strength; it has no default because
    every reported cost is scaled by it and no canonical value exists.

    on_nonconverged: "error" aborts when a pairwise Sinkhorn solve hits
    max_iter above tolerance; "warn" keeps the last iterate (a silently
    inaccurate weight can flip the argmin, so "error" is the default).
    """

    eta: float
    cost_kind: str = "sqeuclidean"
    cost_matrix: np.ndarray | None = None
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    threads: int = 1
    on_nonconverged: str = "error"

    def __post_init__(self):
        check_solver_params(self.eta, self.tol, self.max_iter)
        if self.cost_kind not in COST_KINDS:
            raise ValidationError(
                f"unknown cost kind {self.cost_kind!r}; expected one of {COST_KINDS}"
            )
        if self.cost_kind == "matrix" and self.cost_matrix is None:
            raise ValidationError("cost_kind 'matrix' requires cost_matrix")
        if not (isinstance(self.threads, (int, np.integer)) and self.threads >= 1):
            raise ValidationError(f"threads must be an integer >= 1, got {self.threads}")
        if self.on_nonconverged not in ("error", "warn"):
            raise ValidationError(
                f"on_nonconverged must be 'error' or 'warn', got {self.on_nonconverged!r}"
            )
