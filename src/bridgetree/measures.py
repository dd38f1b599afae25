"""Discrete probability measures on point supports.

A measure is a set of support points in R^d together with a probability
vector.  Supports of different measures may differ in size and location,
but all measures fed to one solve must share the ambient dimension d.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ValidationError

NORMALIZATION_ATOL = 1e-12


def normalize_weights(weights) -> np.ndarray:
    """Scale a nonnegative vector to sum 1.

    Raises ValidationError on entries that are not numbers, on negative or
    non-finite entries (naming the offending index) and on an all-zero vector.
    """
    try:
        w = np.asarray(weights, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"weights must be numbers ({exc})") from exc
    if w.ndim != 1:
        raise ValidationError(f"weights must be a 1-d vector, got shape {w.shape}")
    if w.size == 0:
        raise ValidationError("weights must be non-empty")
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        raise ValidationError(f"non-finite weight at index {bad[0]}")
    neg = np.flatnonzero(w < 0)
    if neg.size:
        raise ValidationError(f"negative weight at index {neg[0]}: {w[neg[0]]}")
    with np.errstate(over="ignore"):
        total = w.sum()
    if not np.isfinite(total):  # the sum overflows: divide by the largest weight first
        w = w / w.max()
        total = w.sum()
    if total <= 0:
        raise ValidationError("all-zero weight vector cannot be normalized")
    out = w / total
    # paranoia: renormalize once more if accumulation drifted
    if abs(out.sum() - 1.0) > NORMALIZATION_ATOL:
        out = out / out.sum()
    return out


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Probability measure on n support points in R^d.

    Weights are normalized at construction; zero-weight points are kept so
    indices stay aligned with the caller's data.  The solvers drop them
    internally and return zero rows, columns or slices in their place.
    """

    support: np.ndarray  # (n, d)
    weights: np.ndarray  # (n,), sums to 1

    def __post_init__(self):
        support = np.asarray(self.support, dtype=float)
        if support.ndim == 1:
            support = support[:, None]
        if support.ndim != 2:
            raise ValidationError(f"support must be (n, d), got shape {support.shape}")
        if not np.all(np.isfinite(support)):
            raise ValidationError("support contains non-finite coordinates")
        weights = normalize_weights(self.weights)
        if len(weights) != len(support):
            raise ValidationError(
                f"support has {len(support)} points but weights has {len(weights)} entries"
            )
        object.__setattr__(self, "support", _freeze(support))
        object.__setattr__(self, "weights", _freeze(weights))

    @property
    def n(self) -> int:
        return self.support.shape[0]

    @property
    def dim(self) -> int:
        return self.support.shape[1]


class MeasureCollection:
    """Ordered list of s >= 2 measures sharing the ambient dimension."""

    def __init__(self, measures: Sequence[DiscreteMeasure]):
        measures = tuple(measures)
        if len(measures) < 2:
            raise ValidationError(f"need at least 2 measures, got {len(measures)}")
        dims = {m.dim for m in measures}
        if len(dims) != 1:
            raise ValidationError(f"measures have mixed support dimensions: {sorted(dims)}")
        self.measures = measures

    @property
    def s(self) -> int:
        return len(self.measures)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(m.n for m in self.measures)

    def __len__(self) -> int:
        return len(self.measures)

    def __iter__(self) -> Iterator[DiscreteMeasure]:
        return iter(self.measures)

    def __getitem__(self, idx: int) -> DiscreteMeasure:
        return self.measures[idx]


def entropy(measure) -> float:
    """Shannon entropy -sum w log w with the 0 log 0 = 0 convention.

    Accepts a DiscreteMeasure or a bare probability vector.  The zero branch
    is explicit so Dirac components never produce NaN.
    """
    w = measure.weights if isinstance(measure, DiscreteMeasure) else np.asarray(measure, float)
    nz = w[w > 0]
    return float(-(nz * np.log(nz)).sum())


def _interval_mass(means, stds, probs, a: float, b: float) -> float:
    """Mixture mass inside [a, b].  Each component's normal mass is a
    difference of two erfc values, taken on the tail that holds the interval,
    so that it is 0.0 only when the mass underflows, not by cancellation."""
    total = 0.0
    for mean, std, prob in zip(means, stds, probs):
        lo, hi = ((x - mean) / (std * math.sqrt(2.0)) for x in (a, b))
        if lo + hi >= 0.0:
            mass = 0.5 * (math.erfc(lo) - math.erfc(hi))
        else:
            mass = 0.5 * (math.erfc(-hi) - math.erfc(-lo))
        total += float(prob) * mass
    return total


def sample_gmm(
    components: Sequence[tuple[float, float, float]],
    n: int,
    interval: tuple[float, float] = (-10.0, 10.0),
    seed=None,
) -> DiscreteMeasure:
    """Empirical measure from n samples of a 1-d Gaussian mixture.

    components: (mean, stddev, mixture-weight) triples; mixture weights are
    normalized internally.  Samples falling outside [a, b] are redrawn, so
    the result is supported on the interval; an interval that holds no
    mixture mass in double precision is refused before any draw.  Weights
    are uniform 1/n.
    Deterministic for a fixed seed (or a caller-supplied Generator).
    """
    if len(components) == 0:
        raise ValidationError("empty component list")
    if n < 1:
        raise ValidationError(f"sample count must be >= 1, got {n}")
    try:
        a, b = (float(x) for x in interval)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"interval must be two numbers, got {interval!r}") from exc
    if not a < b:
        raise ValidationError(f"interval must satisfy a < b, got [{a}, {b}]")
    try:
        means = np.array([float(c[0]) for c in components])
        stds = np.array([float(c[1]) for c in components])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"component mean and stddev must be numbers ({exc})") from exc
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(stds))):
        raise ValidationError("component mean and stddev must be finite")
    if np.any(stds <= 0):
        raise ValidationError("component stddev must be positive")
    probs = normalize_weights([c[2] for c in components])
    if _interval_mass(means, stds, probs, a, b) == 0.0:
        raise ValidationError(
            f"no mixture component reaches [{a}, {b}] (the mixture's mass there is 0 "
            "in double precision)"
        )

    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    points = np.empty(n)
    filled = 0
    attempts = 0
    max_attempts = 10_000 * n
    while filled < n:
        k = rng.choice(len(components), p=probs)
        x = rng.normal(means[k], stds[k])
        attempts += 1
        if a <= x <= b:
            points[filled] = x
            filled += 1
        elif attempts >= max_attempts:
            raise ValidationError(
                f"rejection sampling failed: {attempts} draws produced "
                f"{filled}/{n} points inside [{a}, {b}]"
            )
    return DiscreteMeasure(points[:, None], np.full(n, 1.0 / n))


def image_to_measure(grid) -> DiscreteMeasure:
    """Measure from a grayscale intensity grid.

    Support points are the (row, col) coordinates of strictly positive
    pixels; weights are the intensities normalized to sum 1.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 2:
        raise ValidationError(f"image grid must be 2-d, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValidationError("image grid contains non-finite values")
    neg = np.argwhere(g < 0)
    if len(neg):
        r, c = neg[0]
        raise ValidationError(f"negative intensity at pixel ({r}, {c}): {g[r, c]}")
    mask = g > 0
    if not mask.any():
        raise ValidationError("all-zero image has no probability mass")
    support = np.argwhere(mask).astype(float)
    return DiscreteMeasure(support, g[mask])


# ---------------------------------------------------------------------------
# File formats: measures as JSON, image grids as CSV or PGM (P2) text.
# ---------------------------------------------------------------------------


def save_measure(measure: DiscreteMeasure, path) -> None:
    """Write a measure as {"support": [[...], ...], "weights": [...]}."""
    payload = {
        "support": [[float(x) for x in row] for row in measure.support],
        "weights": [float(w) for w in measure.weights],
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def load_measure(path) -> DiscreteMeasure:
    """Read a measure written by :func:`save_measure`."""
    text = Path(path).read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "support" not in payload or "weights" not in payload:
        raise ValidationError(f"{path}: expected an object with 'support' and 'weights'")
    try:
        return DiscreteMeasure(np.asarray(payload["support"], float), payload["weights"])
    except (ValidationError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def load_image_grid(path) -> np.ndarray:
    """Read an intensity grid from CSV rows of numbers or PGM (P2) text."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("P2"):
        tokens = []
        for line in stripped.splitlines():
            line = line.split("#", 1)[0]
            tokens.extend(line.split())
        # tokens: P2 width height maxval pixels...
        if len(tokens) < 4:
            raise ValidationError(f"{path}: truncated PGM header")
        try:
            width, height = int(tokens[1]), int(tokens[2])
            pixels = np.array([float(t) for t in tokens[4:]])
        except ValueError as exc:
            raise ValidationError(f"{path}: malformed PGM data ({exc})") from exc
        if min(width, height) < 1 or pixels.size != width * height:
            raise ValidationError(
                f"{path}: PGM declares {width}x{height} pixels but carries {pixels.size}"
            )
        return pixels.reshape(height, width)
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValidationError(f"{path}: could not parse CSV grid ({exc})") from exc
