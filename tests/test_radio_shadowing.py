"""Tests for the spatially correlated shadowing field."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio.shadowing import ShadowingField


class TestDeterminism:
    def test_same_position_same_value(self):
        field = ShadowingField(sigma_db=3.0, link_seed=1)
        assert field.sample(2.3, 4.5) == field.sample(2.3, 4.5)

    def test_same_seed_same_field(self):
        a = ShadowingField(sigma_db=3.0, link_seed=9)
        b = ShadowingField(sigma_db=3.0, link_seed=9)
        assert a.sample(1.0, 1.0) == b.sample(1.0, 1.0)

    def test_different_seed_different_field(self):
        a = ShadowingField(sigma_db=3.0, link_seed=1)
        b = ShadowingField(sigma_db=3.0, link_seed=2)
        samples_a = [a.sample(x, 0.0) for x in range(10)]
        samples_b = [b.sample(x, 0.0) for x in range(10)]
        assert samples_a != samples_b


class TestStatistics:
    def test_zero_sigma_is_zero_everywhere(self):
        field = ShadowingField(sigma_db=0.0)
        assert field.sample(3.0, 7.0) == 0.0

    def test_marginal_std_close_to_sigma(self):
        field = ShadowingField(sigma_db=4.0, correlation_distance_m=1.0, link_seed=3)
        rng = np.random.default_rng(0)
        # Sample far apart (decorrelated) positions at cell centres.
        values = [
            field.sample(float(x) + 0.0, float(y) + 0.0)
            for x in range(0, 300, 10)
            for y in range(0, 30, 10)
        ]
        std = np.std(values)
        # Bilinear interpolation shrinks variance somewhat; accept a
        # broad band around sigma.
        assert 1.5 < std < 6.0

    def test_nearby_points_are_similar(self):
        field = ShadowingField(sigma_db=4.0, correlation_distance_m=5.0, link_seed=3)
        base = field.sample(10.0, 10.0)
        near = field.sample(10.3, 10.1)
        far_values = [field.sample(10.0 + 50.0 * k, 10.0 + 35.0 * k) for k in range(1, 8)]
        assert abs(near - base) < 2.0
        # Far samples should spread much more than the near difference.
        assert np.std(far_values) > abs(near - base)


class TestValidation:
    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            ShadowingField(sigma_db=-1.0)

    def test_rejects_nonpositive_correlation(self):
        with pytest.raises(ValueError):
            ShadowingField(correlation_distance_m=0.0)


class TestSampleMany:
    def test_matches_scalar_bitwise(self):
        field = ShadowingField(sigma_db=3.0, link_seed=11)
        fresh = ShadowingField(sigma_db=3.0, link_seed=11)
        xs = np.array([0.1, 5.3, -2.7, 5.3, 100.0])
        ys = np.array([0.2, -1.1, 3.3, -1.1, 42.0])
        vec = field.sample_many(xs, ys)
        for i in range(len(xs)):
            assert vec[i] == fresh.sample(float(xs[i]), float(ys[i]))

    def test_two_dimensional_input(self):
        field = ShadowingField(sigma_db=3.0, link_seed=3)
        fresh = ShadowingField(sigma_db=3.0, link_seed=3)
        xs = np.arange(6.0).reshape(2, 3)
        ys = xs + 0.5
        vec = field.sample_many(xs, ys)
        assert vec.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                assert vec[i, j] == fresh.sample(xs[i, j], ys[i, j])

    def test_zero_sigma_shape(self):
        field = ShadowingField(sigma_db=0.0)
        assert field.sample_many(np.zeros((3, 2)), np.zeros((3, 2))).shape == (3, 2)

    def test_empty_input(self):
        field = ShadowingField(sigma_db=3.0, link_seed=3)
        assert field.sample_many(np.zeros(0), np.zeros(0)).shape == (0,)


@st.composite
def cell_positions(draw):
    """A correlation distance and positions on both sides of zero,
    often exactly on a cell edge (a multiple of the distance)."""
    corr = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    edge = st.integers(-8, 8).map(lambda k: k * corr)
    coord = st.one_of(st.floats(-12.0, 12.0, allow_nan=False), edge)
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=24))
    return corr, points


@settings(max_examples=150, deadline=None)
@given(case=cell_positions(), seed=st.integers(0, 2**32 - 1))
def test_sample_many_is_sample_bitwise(case, seed):
    """The cell-table gather reads exactly the scalar path's corners,
    for one position, a row and a (2, n) block alike."""
    corr, points = case
    field = ShadowingField(sigma_db=3.0, correlation_distance_m=corr, link_seed=seed)
    oracle = ShadowingField(sigma_db=3.0, correlation_distance_m=corr, link_seed=seed)
    xs = np.array([x for x, _ in points])
    ys = np.array([y for _, y in points])
    expected = np.array([oracle.sample(x, y) for x, y in points])
    assert field.sample_many(xs, ys).tobytes() == expected.tobytes()
    block = field.sample_many(np.stack([xs, xs[::-1]]), np.stack([ys, ys[::-1]]))
    assert block.tobytes() == np.stack([expected, expected[::-1]]).tobytes()
    assert field.sample_many(xs[0], ys[0]) == expected[0]
