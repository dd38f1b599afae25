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
from typing import Iterable, Sequence

import numpy as np

from .config import as_float_array, as_index, check_shape, check_vertex_count
from .errors import ValidationError


def normalize_weights(weights) -> np.ndarray:
    """Scale a nonnegative vector to sum 1.

    Raises ValidationError on entries that are not numbers, on negative or
    non-finite entries (naming the offending index) and on an all-zero vector.
    """
    w = as_float_array(weights, "weights")
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
    return w / total


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, order="C")  # a copy, so the caller's array stays writeable
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
        support = as_float_array(self.support, "support")
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


class MeasureCollection(tuple):
    """Ordered tuple of s >= 2 measures sharing the ambient dimension."""

    def __new__(cls, measures: Iterable[DiscreteMeasure]):
        self = super().__new__(cls, measures)
        check_vertex_count(len(self))
        dims = {m.dim for m in self}
        if len(dims) != 1:
            raise ValidationError(f"measures have mixed support dimensions: {sorted(dims)}")
        return self

    @property
    def s(self) -> int:
        return len(self)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(m.n for m in self)


def entropy(measure) -> float:
    """Shannon entropy -sum w log w with the 0 log 0 = 0 convention.

    Accepts a DiscreteMeasure or a bare vector, which normalize_weights
    checks and scales to sum 1.  The zero branch is explicit so Dirac
    components never produce NaN.
    """
    w = measure.weights if isinstance(measure, DiscreteMeasure) else normalize_weights(measure)
    nz = w[w > 0]
    return float(-(nz * np.log(nz)).sum())


def total_variation(p, q) -> float:
    """TV distance between two nonnegative vectors: half the L1 deviation."""
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


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
    Deterministic for a fixed seed, an integer >= 0 (or a caller-supplied
    Generator).
    """
    if len(components) == 0:
        raise ValidationError("empty component list")
    n = as_index(n, "sample count", 1)
    try:
        a, b = (float(x) for x in interval)
    except OverflowError as exc:
        raise ValidationError("interval has an integer beyond the float range") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"interval must be two numbers, got {interval!r}") from exc
    if not a < b:
        raise ValidationError(f"interval must satisfy a < b, got [{a}, {b}]")
    table = as_float_array(components, "components")
    check_shape(table, (len(components), 3), "components")
    means, stds, mixture = table.T
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(stds))):
        raise ValidationError("component mean and stddev must be finite")
    if np.any(stds <= 0):
        raise ValidationError("component stddev must be positive")
    probs = normalize_weights(mixture)
    if _interval_mass(means, stds, probs, a, b) == 0.0:
        raise ValidationError(
            f"no mixture component reaches [{a}, {b}] (the mixture's mass there is 0 "
            "in double precision)"
        )

    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = np.random.default_rng(None if seed is None else as_index(seed, "seed", 0))
    # the inverse-CDF search Generator.choice(p=probs) makes per draw, from
    # one normalized CDF: the same uniform draw picks the same component
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    points = np.empty(n)
    filled = 0
    attempts = 0
    max_attempts = 10_000 * n
    while filled < n:
        k = int(cdf.searchsorted(rng.random(), side="right"))
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


def save_measure(measure: DiscreteMeasure, path) -> None:
    """Write a measure as {"support": [[...], ...], "weights": [...]}."""
    payload = {
        "support": [[float(x) for x in row] for row in measure.support],
        "weights": [float(w) for w in measure.weights],
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def load_measure(path) -> DiscreteMeasure:
    """Read a measure written by :func:`save_measure`."""
    try:
        payload = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "support" not in payload or "weights" not in payload:
        raise ValidationError(f"{path}: expected an object with 'support' and 'weights'")
    try:
        return DiscreteMeasure(payload["support"], payload["weights"])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc

