import json
from pathlib import Path

import numpy as np
import pytest

from bridgetree import DiscreteMeasure

# The experiment's spec (1-d mixtures supported on [-10, 10]) and its mixture
# bank as the (mean, stddev, weight) triples sample_gmm takes
GMM_SPEC = json.loads((Path(__file__).parents[1] / "scripts" / "gmm_mixtures.json").read_text())
GMM_MIXTURES = [[(c["mean"], c["std"], c["weight"]) for c in mix["components"]]
                for mix in GMM_SPEC["mixtures"]]


def random_measure(rng, n, dim=2, low=-10.0, high=10.0):
    """Random measure with weights bounded away from zero (min ~ 1/(3n))."""
    return DiscreteMeasure(rng.uniform(low, high, (n, dim)), rng.uniform(0.5, 1.5, n))


def random_measures(rng, sizes, dim=2, low=-10.0, high=10.0):
    return [random_measure(rng, n, dim, low, high) for n in sizes]


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
