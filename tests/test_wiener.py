"""Seeded Wiener-path sampling, coarsening, and distributional sanity."""

import numpy as np
import pytest
from scipy import stats

from sllgfem.wiener import WienerPath, coarsen, sample_path


def test_same_seed_is_bit_identical():
    a = sample_path(12, q=3, J=64, T=2.0)
    b = sample_path(12, q=3, J=64, T=2.0)
    assert np.array_equal(a.increments, b.increments)


def test_distinct_streams_differ():
    a = sample_path(12, q=1, J=64, T=1.0, stream=0)
    b = sample_path(12, q=1, J=64, T=1.0, stream=1)
    assert not np.array_equal(a.increments, b.increments)


def test_distinct_seeds_differ():
    a = sample_path(0, q=1, J=64, T=1.0)
    b = sample_path(1, q=1, J=64, T=1.0)
    assert not np.array_equal(a.increments, b.increments)


@pytest.mark.parametrize("seed, stream, name", [
    (2**64, 0, "seed"), (-1, 0, "seed"),
    (0, 2**64, "stream"), (0, -1, "stream")],
    ids=["seed-2^64", "seed-minus-1", "stream-2^64", "stream-minus-1"])
def test_seed_and_stream_outside_the_key_range_raise(seed, stream, name):
    # a mask would alias 2^64 onto 0 and -1 onto 2^64 - 1
    with pytest.raises(ValueError, match=f"^{name} must lie in"):
        sample_path(seed, q=1, J=4, T=1.0, stream=stream)


def test_largest_seed_and_stream_are_their_own_keys():
    top = 2**64 - 1
    paths = [sample_path(seed, q=1, J=16, T=1.0, stream=stream).increments
             for seed, stream in ((top, 0), (0, top), (0, 0), (top, top))]
    for i in range(4):
        for j in range(i):
            assert not np.array_equal(paths[i], paths[j])


def test_step_and_shape():
    p = sample_path(5, q=2, J=50, T=0.5)
    assert p.increments.shape == (50, 2)
    assert (p.J, p.q) == (50, 2)
    assert p.k == pytest.approx(0.01)
    assert p.k * p.J == pytest.approx(0.5, abs=1e-16)


def test_increment_sample_mean_clt_bound():
    # |mean| of n iid N(0, k) draws stays below 4 sigma/sqrt(n)
    p = sample_path(7, q=1, J=100_000, T=100.0)
    k = p.k
    mean = p.increments.mean()
    assert abs(mean) <= 4.0 * np.sqrt(k / 100_000)


def test_increment_sample_variance_within_5_percent():
    p = sample_path(8, q=1, J=100_000, T=100.0)
    var = p.increments.var(ddof=1)
    assert abs(var - p.k) <= 0.05 * p.k


def test_normalized_increments_pass_ks():
    p = sample_path(9, q=1, J=100_000, T=1.0)
    z = p.increments.ravel() / np.sqrt(p.k)
    stat, pvalue = stats.kstest(z, "norm")
    assert pvalue > 0.01


def test_coarsen_factor_one_is_identity():
    p = sample_path(4, q=2, J=16, T=1.0)
    assert coarsen(p, 1) is p


def test_coarsen_pairs_sum_exactly():
    p = sample_path(4, q=2, J=4, T=1.0)
    c = coarsen(p, 2)
    assert c.J == 2
    assert c.k == pytest.approx(2 * p.k)
    np.testing.assert_array_equal(c.increments[0],
                                  p.increments[0] + p.increments[1])
    np.testing.assert_array_equal(c.increments[1],
                                  p.increments[2] + p.increments[3])


def test_coarsen_composes():
    p = sample_path(11, q=3, J=64, T=1.0)
    twice = coarsen(coarsen(p, 2), 2)
    once = coarsen(p, 4)
    assert twice.J == once.J == 16
    np.testing.assert_allclose(twice.increments, once.increments,
                               rtol=0, atol=1e-12)


def test_coarsen_preserves_endpoint():
    p = sample_path(11, q=2, J=128, T=1.0)
    WT = p.increments.sum(axis=0)
    for factor in (2, 4, 8, 128):
        c = coarsen(p, factor)
        np.testing.assert_allclose(c.increments.sum(axis=0), WT, atol=1e-12)
        assert c.k * c.J == pytest.approx(p.k * p.J, abs=1e-15)


def test_coarsen_rejects_bad_factor():
    p = sample_path(4, q=1, J=12, T=1.0)
    with pytest.raises(ValueError):
        coarsen(p, 3)
    with pytest.raises(ValueError):
        coarsen(p, 8)  # does not divide 12
    with pytest.raises(ValueError):
        coarsen(p, 0)


def test_sample_path_argument_validation():
    with pytest.raises(ValueError):
        sample_path(0, q=0, J=10, T=1.0)
    with pytest.raises(ValueError):
        sample_path(0, q=1, J=0, T=1.0)
    with pytest.raises(ValueError):
        sample_path(0, q=1, J=10, T=0.0)


def test_path_rejects_nonfinite_and_misshapen():
    with pytest.raises(ValueError):
        WienerPath(k=0.25, increments=np.full((4, 1), np.nan))
    with pytest.raises(ValueError):
        WienerPath(k=0.25, increments=np.zeros(4))


def test_increments_are_read_only():
    p = sample_path(2, q=1, J=8, T=1.0)
    with pytest.raises(ValueError):
        p.increments[0, 0] = 1.0

