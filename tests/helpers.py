"""Graph constructors and reductions that only the tests call."""

import numpy as np

from bridgetree import GraphStructure, ValidationError


def path_graph(s: int) -> GraphStructure:
    """Chain 1-2-...-s."""
    return GraphStructure(s, [(i, i + 1) for i in range(1, s)])


def star_graph(s: int, center: int = 1) -> GraphStructure:
    """All vertices attached to `center`."""
    if not 1 <= center <= s:
        raise ValidationError(f"star center {center} out of range for s={s}")
    return GraphStructure(s, [(center, v) for v in range(1, s + 1) if v != center])


def complete_graph(s: int) -> GraphStructure:
    return GraphStructure(s, [(a, b) for a in range(1, s + 1) for b in range(a + 1, s + 1)])


def project(tensor: np.ndarray, sigma: int) -> np.ndarray:
    """Marginal of a coupling tensor on axis sigma (1-based vertex index)."""
    if not 1 <= sigma <= tensor.ndim:
        raise ValidationError(f"marginal index {sigma} out of range for ndim={tensor.ndim}")
    axes = tuple(ax for ax in range(tensor.ndim) if ax != sigma - 1)
    return tensor.sum(axis=axes)


def kl_divergence(p, q) -> float:
    """D_KL(P || Q) = sum P log(P/Q) over arrays of equal shape.

    Requires Q > 0 wherever P > 0; a violation means the divergence is
    infinite and raises ValidationError rather than returning a sentinel.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValidationError(f"shape mismatch: {p.shape} vs {q.shape}")
    if np.any(p < 0):
        raise ValidationError("P must be nonnegative")
    mask = p > 0
    if np.any(q[mask] <= 0):
        raise ValidationError("KL divergence is infinite: P carries mass where Q vanishes")
    pm = p[mask]
    return float((pm * np.log(pm / q[mask])).sum())
