"""Tests for the spatially correlated shadowing field."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio.channel import ChannelModel
from repro.radio.shadowing import ShadowingField, sample_fields


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


@st.composite
def field_samples(draw):
    """Up to four fields (some with sigma 0, cell sizes may differ) and
    samples that name them in any order, at positions on both sides of
    zero and often exactly on a cell edge."""
    specs = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.5, 3.0]),
                st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                st.integers(0, 2**32 - 1),
            ),
            min_size=1,
            max_size=4,
        )
    )
    edge = st.integers(-8, 8).map(lambda k: k * 1.5)
    coord = st.one_of(st.floats(-12.0, 12.0, allow_nan=False), edge)
    rows = draw(
        st.lists(
            st.tuples(st.integers(0, len(specs) - 1), coord, coord), max_size=30
        )
    )
    return specs, rows


def _fields(specs):
    return [
        ShadowingField(sigma_db=s, correlation_distance_m=c, link_seed=seed)
        for s, c, seed in specs
    ]


@settings(max_examples=150, deadline=None)
@given(case=field_samples())
def test_sample_fields_is_sample_bitwise(case):
    """One gather over mixed fields reads exactly each field's scalar
    corners, including sigma-0 fields and an empty query."""
    specs, rows = case
    which = np.array([k for k, _, _ in rows], dtype=np.intp)
    xs = np.array([x for _, x, _ in rows], dtype=float)
    ys = np.array([y for _, _, y in rows], dtype=float)
    oracle = _fields(specs)
    expected = np.array(
        [oracle[k].sample(x, y) for k, x, y in rows], dtype=float
    ).reshape(xs.shape)
    got = sample_fields(_fields(specs), which, xs, ys)
    assert got.shape == xs.shape
    assert got.tobytes() == expected.tobytes()


def test_sample_fields_broadcasts_one_field_per_column():
    """A ``(devices, samples)`` block with one field index per column,
    as the columnar drive asks for it."""
    fields = _fields([(3.0, 2.0, 1), (3.0, 2.0, 2), (0.0, 2.0, 3)])
    oracle = _fields([(3.0, 2.0, 1), (3.0, 2.0, 2), (0.0, 2.0, 3)])
    which = np.array([2, 0, 1, 0, 1])
    xs = np.linspace(-5.0, 9.0, 15).reshape(3, 5)
    ys = xs[::-1] * 0.5
    got = sample_fields(fields, which, xs, ys)
    for d in range(3):
        for i, k in enumerate(which):
            assert got[d, i] == oracle[k].sample(xs[d, i], ys[d, i])


def test_channel_shadowing_is_each_transmitters_field():
    channel = ChannelModel(seed=5)
    tx_ids = ["1-2", "1-1", "1-2", "1-3", "1-1"]
    xs = np.array([0.5, -3.0, 4.0, 2.0, 2.0])
    ys = np.array([1.0, 2.0, -1.0, 2.0, 2.0])
    got = channel.shadowing_db(tx_ids, xs, ys)
    fresh = ChannelModel(seed=5)
    expected = [
        fresh._shadow_field(t).sample(x, y) for t, x, y in zip(tx_ids, xs, ys)
    ]
    assert got.tolist() == expected
    assert channel.shadowing_db([], np.zeros(0), np.zeros(0)).shape == (0,)
