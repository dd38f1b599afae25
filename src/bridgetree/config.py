"""Solver configuration shared by the edge-weight construction and the CLI."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

COST_KINDS = ("sqeuclidean", "euclidean", "matrix")

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 100_000
DEFAULT_TENSOR_CAP = 10_000_000


def check_solver_params(eta, tol=None, max_iter=None) -> None:
    """Reject a non-finite or non-positive eta, a non-positive tol and a
    max_iter below 1; a tol or max_iter of None is not checked.
    """
    if not np.isfinite(eta) or eta <= 0:
        raise ValidationError(f"eta must be a positive finite real, got {eta}")
    if tol is not None and tol <= 0:
        raise ValidationError(f"tol must be positive, got {tol}")
    if max_iter is not None and max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")


def check_tensor_cap(shape, cap: int) -> None:
    """Refuse a dense tensor of the given shape with more than cap entries."""
    total = int(np.prod([int(n) for n in shape], dtype=np.int64))
    if total > cap:
        raise ValidationError(
            f"tensor with {total} entries exceeds the configured cap of {cap}"
        )


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
        if self.threads < 1:
            raise ValidationError(f"threads must be >= 1, got {self.threads}")
        if self.on_nonconverged not in ("error", "warn"):
            raise ValidationError(
                f"on_nonconverged must be 'error' or 'warn', got {self.on_nonconverged!r}"
            )
