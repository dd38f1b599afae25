import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bridgetree import (
    DiscreteMeasure,
    MeasureCollection,
    ValidationError,
    entropy,
    load_measure,
    normalize_weights,
    sample_gmm,
    save_measure,
)


def entropy_by_summation(weights):
    """Independent oracle: plain loop over -w log w."""
    total = 0.0
    for w in weights:
        if w > 0:
            total -= w * np.log(w)
    return total


class TestEntropy:
    def test_uniform_two_points(self):
        m = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        assert entropy(m) == pytest.approx(np.log(2), abs=1e-15)

    def test_dirac_is_zero(self):
        m = DiscreteMeasure([[0.0], [1.0], [2.0]], [1.0, 0.0, 0.0])
        assert entropy(m) == 0.0

    def test_quarter_three_quarters(self):
        # value frozen from the direct-summation oracle
        m = DiscreteMeasure([[0.0], [1.0]], [0.25, 0.75])
        assert entropy(m) == pytest.approx(0.5623351446188083, abs=1e-15)
        assert entropy(m) == pytest.approx(entropy_by_summation([0.25, 0.75]), abs=1e-15)

    @given(st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=12), st.randoms())
    def test_permutation_invariant(self, raw, random_src):
        w = normalize_weights(raw)
        shuffled = list(w)
        random_src.shuffle(shuffled)
        assert entropy(np.array(shuffled)) == pytest.approx(entropy(w), abs=1e-12)

    @given(st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=12),
           st.floats(1e-6, 1e6))
    def test_scaling_invariant(self, raw, k):
        w = np.array(raw)
        assert entropy(normalize_weights(k * w)) == pytest.approx(
            entropy(normalize_weights(w)), abs=1e-10
        )

    @given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=12))
    def test_bounds(self, raw):
        if sum(raw) <= 0:
            return
        w = normalize_weights(raw)
        h = entropy(w)
        assert -1e-12 <= h <= np.log(len(w)) + 1e-12

    @pytest.mark.parametrize("vector,message", [
        ([2.0, -1.0], "negative weight at index 1: -1.0"),
        ([np.nan, 1.0], "non-finite weight at index 0"),
        ([0.0, 0.0], "all-zero weight vector cannot be normalized"),
    ])
    def test_bare_vector_is_checked_as_weights(self, vector, message):
        # a bare vector goes through normalize_weights, so no entry is dropped
        with pytest.raises(ValidationError) as refusal:
            entropy(vector)
        assert str(refusal.value) == message
        assert entropy([2.0, 2.0]) == pytest.approx(np.log(2), abs=1e-15)

    def test_extremes(self):
        n = 7
        assert entropy(np.full(n, 1.0 / n)) == pytest.approx(np.log(n), abs=1e-12)
        dirac = np.zeros(n)
        dirac[3] = 1.0
        assert entropy(dirac) == 0.0


class TestNormalize:
    def test_symmetric_split(self):
        assert np.allclose(normalize_weights([2.0, 2.0]), [0.5, 0.5])

    def test_linear_scaling(self):
        assert np.allclose(normalize_weights([1.0, 0.0, 3.0]), [0.25, 0.0, 0.75])

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError):
            normalize_weights([0.0, 0.0])

    def test_negative_names_index(self):
        with pytest.raises(ValidationError, match="index 2"):
            normalize_weights([0.5, 0.5, -0.1])

    @pytest.mark.parametrize("weights, match", [
        ([[0.5, 0.5]], "1-d"),
        ([], "non-empty"),
        ([0.5, np.inf], "non-finite weight at index 1"),
        ([np.nan, 0.5], "non-finite weight at index 0"),
    ])
    def test_malformed_vector_rejected(self, weights, match):
        with pytest.raises(ValidationError, match=match):
            normalize_weights(weights)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_sum(self, tmp_path):
        # 1e308 + 1e308 overflows; dividing by the largest weight first does not
        assert np.array_equal(normalize_weights([1e308, 1e308, 0.0]), [0.5, 0.5, 0.0])
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"support": [[0.0], [1.0]], "weights": [1e308, 3e307]}))
        assert np.allclose(load_measure(path).weights, [1 / 1.3, 0.3 / 1.3], rtol=1e-15)

    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1e300), st.floats(1e307, 1.7e308)),
                    min_size=1, max_size=100).filter(any))
    def test_sums_to_one(self, raw):
        # one division is within rounding of 1, on the overflowing-sum path
        # too: each of the two sums of up to 100 nonnegative terms is off by
        # under 100 ulp
        assert abs(normalize_weights(raw).sum() - 1.0) <= 1e-13


class TestDiscreteMeasure:
    def test_weights_normalized_at_construction(self):
        m = DiscreteMeasure([[0.0], [1.0]], [3.0, 1.0])
        assert np.allclose(m.weights, [0.75, 0.25])

    def test_one_dim_support_promoted(self):
        m = DiscreteMeasure([0.0, 1.0, 2.0], [1, 1, 1])
        assert m.support.shape == (3, 1)
        assert m.dim == 1

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            DiscreteMeasure([[0.0], [1.0]], [1.0])

    @pytest.mark.parametrize("support, match", [
        (np.zeros((2, 1, 1)), r"\(n, d\)"),
        ([[0.0], [np.nan]], "non-finite"),
        ([[0.0], [np.inf]], "non-finite"),
        ([[0.0], [1.0, 2.0]], "support must be a rectangular array of numbers"),
        ([["a"], ["b"]], "support must be a rectangular array of numbers"),
    ])
    def test_malformed_support_rejected(self, support, match):
        with pytest.raises(ValidationError, match=match):
            DiscreteMeasure(support, [1.0, 1.0])

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(ValidationError,
                           match="weights has an integer beyond the float range"):
            DiscreteMeasure([[0.0], [1.0]], [1, 10**400])

    def test_immutable(self):
        m = DiscreteMeasure([[0.0], [1.0]], [1, 1])
        with pytest.raises(ValueError):
            m.weights[0] = 0.3

    def test_callers_arrays_stay_writeable_and_apart(self, rng):
        pts = rng.uniform(size=(4, 2))
        weights = np.full(4, 0.25)
        m = DiscreteMeasure(pts, weights)
        assert pts.flags.writeable and weights.flags.writeable
        pts[0, 0] = 7.0
        weights[0] = 3.0
        assert m.support[0, 0] != 7.0
        assert np.array_equal(m.weights, np.full(4, 0.25))


class TestMeasureCollection:
    def test_needs_two(self):
        m = DiscreteMeasure([[0.0]], [1.0])
        with pytest.raises(ValidationError):
            MeasureCollection([m])

    def test_mixed_dimensions_rejected(self):
        m1 = DiscreteMeasure([[0.0]], [1.0])
        m2 = DiscreteMeasure([[0.0, 1.0]], [1.0])
        with pytest.raises(ValidationError, match="dimension"):
            MeasureCollection([m1, m2])

    def test_sizes(self):
        m1 = DiscreteMeasure([[0.0], [1.0]], [1, 1])
        m2 = DiscreteMeasure([[2.0]], [1.0])
        coll = MeasureCollection([m1, m2])
        assert coll.s == 2
        assert coll.sizes == (2, 1)

    def test_is_the_tuple_it_validates(self):
        m1 = DiscreteMeasure([[0.0], [1.0]], [1, 1])
        m2 = DiscreteMeasure([[2.0]], [1.0])
        coll = MeasureCollection(iter([m1, m2]))
        assert isinstance(coll, tuple) and coll == (m1, m2)
        assert coll[-1] is m2 and coll[:1] == (m1,)
        assert not hasattr(coll, "measures")


class TestSampleGmm:
    def test_single_component(self):
        m = sample_gmm([(0.0, 1.0, 1.0)], n=3, seed=1)
        assert m.n == 3
        assert np.allclose(m.weights, 1.0 / 3)

    def test_two_components_interval(self):
        m = sample_gmm([(-5.0, 1.0, 0.5), (5.0, 1.0, 0.5)], n=25, interval=(-10, 10), seed=2)
        assert m.n == 25
        assert m.support.min() >= -10 and m.support.max() <= 10
        assert np.allclose(m.weights, 0.04)

    def test_deterministic(self):
        a = sample_gmm([(0.0, 2.0, 1.0)], n=10, seed=33)
        b = sample_gmm([(0.0, 2.0, 1.0)], n=10, seed=33)
        assert np.array_equal(a.support, b.support)

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_bad_seed_refused(self, seed):
        with pytest.raises(ValidationError, match=rf"seed must be an integer >= 0, got {seed!r}$"):
            sample_gmm([(0.0, 1.0, 1.0)], n=2, seed=seed)

    def test_seed_none_or_generator_passes(self):
        assert sample_gmm([(0.0, 1.0, 1.0)], n=2, seed=None).n == 2
        a = sample_gmm([(0.0, 1.0, 1.0)], n=4, seed=np.random.default_rng(7))
        b = sample_gmm([(0.0, 1.0, 1.0)], n=4, seed=7)
        assert np.array_equal(a.support, b.support)

    def test_empty_components(self):
        with pytest.raises(ValidationError):
            sample_gmm([], n=5, seed=0)

    def test_bad_interval(self):
        with pytest.raises(ValidationError):
            sample_gmm([(0.0, 1.0, 1.0)], n=5, interval=(3.0, -3.0), seed=0)

    def test_no_samples(self):
        with pytest.raises(ValidationError, match=">= 1"):
            sample_gmm([(0.0, 1.0, 1.0)], n=0, seed=0)

    def test_interval_out_of_reach(self):
        # no mass inside (-1, 1) in double precision, on either side of it:
        # refused before any draw
        for mean in (100.0, -100.0):
            with pytest.raises(ValidationError, match="no mixture component reaches"):
                sample_gmm([(mean, 0.1, 1.0)], n=1, interval=(-1.0, 1.0), seed=0)

    def test_interval_mass_too_small_for_rejection_sampling(self):
        # mass about 1.3e-12 inside (-1, 1): positive, so the draws run and
        # rejection sampling gives up after 10_000 draws
        with pytest.raises(ValidationError, match="10000 draws produced 0/1"):
            sample_gmm([(8.0, 1.0, 1.0)], n=1, interval=(-1.0, 1.0), seed=0)

    def test_one_reachable_component_suffices(self):
        m = sample_gmm([(100.0, 0.1, 0.5), (0.0, 1.0, 0.5)], n=5, interval=(-1.0, 1.0), seed=4)
        assert np.all(np.abs(m.support) <= 1.0)

    @staticmethod
    def sample_by_choice(components, n, interval, seed):
        """The sampler as a plain loop that draws each component with
        Generator.choice; counts the draws it takes."""
        means, stds, weights = np.asarray(components, dtype=float).T
        rng = np.random.default_rng(seed)
        points, draws = [], 0
        while len(points) < n:
            k = rng.choice(len(components), p=weights / weights.sum())
            x = rng.normal(means[k], stds[k])
            draws += 1
            if interval[0] <= x <= interval[1]:
                points.append(x)
        return np.array(points), draws

    @pytest.mark.parametrize("components, interval, tight", [
        ([(-5.0, 1.0, 0.2), (0.0, 2.0, 0.5), (5.0, 1.0, 0.3)], (-10.0, 10.0), False),
        ([(-5.0, 1.0, 0.5), (0.0, 2.0, 0.0), (5.0, 1.0, 0.5)], (-10.0, 10.0), False),
        ([(1.0, 3.0, 2.0)], (-10.0, 10.0), False),
        ([(-3.0, 1.0, 0.3), (3.0, 1.0, 0.7)], (-0.5, 0.5), True),
    ], ids=["three", "zero-weight", "single", "tight"])
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2026])
    def test_draws_match_generator_choice(self, components, interval, tight, seed):
        expected, draws = self.sample_by_choice(components, 40, interval, seed)
        if tight:
            assert draws > 40, "the interval rejects no draw"
        m = sample_gmm(components, n=40, interval=interval, seed=seed)
        assert np.array_equal(m.support[:, 0], expected)


class TestFileFormats:
    def test_measure_roundtrip(self, tmp_path):
        m = DiscreteMeasure([[0.5, -1.25], [3.0, 4.0]], [0.3, 0.7])
        path = tmp_path / "m.json"
        save_measure(m, path)
        back = load_measure(path)
        assert np.array_equal(back.support, m.support)
        assert np.array_equal(back.weights, m.weights)

    def test_load_names_path_on_garbage(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("not json at all")
        with pytest.raises(ValidationError, match="broken.json"):
            load_measure(path)

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"points": [1, 2]}))
        with pytest.raises(ValidationError, match="support"):
            load_measure(path)
