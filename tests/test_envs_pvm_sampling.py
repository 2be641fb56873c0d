"""Unit tests for the portfolio-vector memory and the batch sampler."""

import numpy as np
import pytest

from repro.envs import GeometricBatchSampler, PortfolioVectorMemory
from repro.utils.rng import make_rng


class TestPVM:
    def test_initial_uniform(self):
        pvm = PortfolioVectorMemory(10, 3)
        w = pvm.read([0, 5, 9])
        assert w.shape == (3, 4)
        assert np.allclose(w, 0.25)

    def test_write_read_roundtrip(self):
        pvm = PortfolioVectorMemory(10, 2)
        w = np.array([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])
        pvm.write([2, 7], w)
        assert np.allclose(pvm.read([2, 7]), w)
        # Unwritten slots stay uniform.
        assert np.allclose(pvm.read([3]), 1.0 / 3)

    def test_read_returns_copy(self):
        pvm = PortfolioVectorMemory(5, 2)
        w = pvm.read([0])
        w[:] = 9.0
        assert np.allclose(pvm.read([0]), 1.0 / 3)

    def test_write_validation(self):
        pvm = PortfolioVectorMemory(5, 2)
        with pytest.raises(ValueError):
            pvm.write([0], np.array([[0.5, 0.5, 0.5]]))  # not simplex
        with pytest.raises(ValueError):
            pvm.write([0], np.array([[1.5, -0.25, -0.25]]))
        with pytest.raises(ValueError):
            pvm.write([0], np.ones((2, 3)) / 3)  # count mismatch

    def test_bounds(self):
        pvm = PortfolioVectorMemory(5, 2)
        with pytest.raises(IndexError):
            pvm.read([5])
        with pytest.raises(IndexError):
            pvm.write([-1], np.full((1, 3), 1.0 / 3))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PortfolioVectorMemory(0, 3)


class TestSampler:
    def test_batches_consecutive_in_range(self):
        s = GeometricBatchSampler(10, 99, 8, rng=np.random.default_rng(0))
        for _ in range(50):
            batch = s.sample()
            assert batch.shape == (8,)
            assert np.all(np.diff(batch) == 1)
            assert batch[0] >= 10 and batch[-1] <= 99

    def test_distribution_monotone_toward_present(self):
        s = GeometricBatchSampler(0, 99, 5, bias=0.05, rng=np.random.default_rng(0))
        probs = s.start_distribution()
        assert np.all(np.diff(probs) > 0)  # later starts more likely
        assert probs.sum() == pytest.approx(1.0)

    def test_higher_bias_more_concentrated(self):
        lo = GeometricBatchSampler(0, 199, 5, bias=0.001)
        hi = GeometricBatchSampler(0, 199, 5, bias=0.1)
        assert hi.start_distribution()[-1] > lo.start_distribution()[-1]

    def test_validation(self):
        with pytest.raises(ValueError):
            GeometricBatchSampler(0, 3, 10)  # range too short
        with pytest.raises(ValueError):
            GeometricBatchSampler(0, 99, 0)
        with pytest.raises(ValueError):
            GeometricBatchSampler(0, 99, 5, bias=1.5)

    def test_seeded_reproducible(self):
        a = GeometricBatchSampler(0, 99, 5, rng=np.random.default_rng(3))
        b = GeometricBatchSampler(0, 99, 5, rng=np.random.default_rng(3))
        assert np.array_equal(a.sample(), b.sample())


def test_for_seed_matches_explicit_rng_stream():
    direct = GeometricBatchSampler(10, 300, 8, rng=make_rng(17))
    derived = GeometricBatchSampler.for_seed(10, 300, 8, seed=17)
    for _ in range(50):
        assert np.array_equal(direct.sample(), derived.sample())


def test_for_seed_streams_are_independent():
    a = GeometricBatchSampler.for_seed(10, 300, 8, seed=17)
    b = GeometricBatchSampler.for_seed(10, 300, 8, seed=18)
    draws_a = np.concatenate([a.sample() for _ in range(20)])
    draws_b = np.concatenate([b.sample() for _ in range(20)])
    assert not np.array_equal(draws_a, draws_b)

    # A seed's stream must not depend on how many other samplers exist:
    # re-derive seed 17 after seed 18 has drawn and the stream repeats.
    again = GeometricBatchSampler.for_seed(10, 300, 8, seed=17)
    assert np.array_equal(
        draws_a, np.concatenate([again.sample() for _ in range(20)])
    )
