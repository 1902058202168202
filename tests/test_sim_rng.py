"""Tests for deterministic RNG streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ble.advertiser import ADV_DELAY_MAX_S
from repro.sim.rng import RngStreams, derive_seed, derive_seeds, first_random


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "fading") == derive_seed(42, "fading")

    def test_differs_by_name(self):
        assert derive_seed(42, "fading") != derive_seed(42, "mobility")

    def test_differs_by_master(self):
        assert derive_seed(1, "fading") != derive_seed(2, "fading")

    def test_fits_in_64_bits(self):
        assert 0 <= derive_seed(0, "x") < 2**64


class TestDeriveSeeds:
    """The batch form equals one :func:`derive_seed` per name."""

    @pytest.mark.parametrize("master", [0, 2**64 - 1])
    @pytest.mark.parametrize(
        "names",
        [
            [f"adv-jitter:{k}" for k in range(64)],
            ["fading", "ümlaut", "天気", "emoji 🚀", "", "a:b:c"],
            ["same", "same"],
            [],
        ],
    )
    def test_equals_derive_seed_per_name(self, master, names):
        seeds = derive_seeds(master, names)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [derive_seed(master, name) for name in names]


class TestRngStreams:
    def test_same_name_returns_same_generator(self):
        streams = RngStreams(0)
        assert streams.get("a") is streams.get("a")

    def test_different_names_are_independent_generators(self):
        streams = RngStreams(0)
        assert streams.get("a") is not streams.get("b")

    def test_streams_reproducible_across_instances(self):
        a = RngStreams(7).get("chan").random(5)
        b = RngStreams(7).get("chan").random(5)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ_between_names(self):
        streams = RngStreams(7)
        a = streams.get("a").random(5)
        b = streams.get("b").random(5)
        assert not np.array_equal(a, b)

    def test_reset_restarts_sequences(self):
        streams = RngStreams(3)
        first = streams.get("x").random(4)
        streams.reset()
        again = streams.get("x").random(4)
        np.testing.assert_array_equal(first, again)

    def test_spawn_creates_independent_family(self):
        parent = RngStreams(3)
        child1 = parent.spawn("phone:alice")
        child2 = parent.spawn("phone:bob")
        assert child1.master_seed != child2.master_seed
        assert not np.array_equal(
            child1.get("c").random(3), child2.get("c").random(3)
        )

    def test_spawn_deterministic(self):
        a = RngStreams(3).spawn("p").get("c").random(3)
        b = RngStreams(3).spawn("p").get("c").random(3)
        np.testing.assert_array_equal(a, b)

    def test_repr_lists_streams(self):
        streams = RngStreams(0)
        streams.get("zeta")
        assert "zeta" in repr(streams)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def assert_first_random_is_the_generators(seeds):
    """``first_random`` equals ``default_rng(s).random()`` bitwise, and
    the advDelay scaling equals ``uniform(0, ADV_DELAY_MAX_S)``."""
    seeds = [int(s) for s in seeds]
    got = first_random(np.array(seeds, dtype=np.uint64))
    randoms = [np.random.default_rng(s).random() for s in seeds]
    uniforms = [np.random.default_rng(s).uniform(0.0, ADV_DELAY_MAX_S) for s in seeds]
    assert got.shape == (len(seeds),)
    np.testing.assert_array_equal(_bits(got), _bits(randoms))
    np.testing.assert_array_equal(_bits(ADV_DELAY_MAX_S * got), _bits(uniforms))


class TestFirstRandom:
    """The batch kernel against one generator per seed."""

    @pytest.mark.parametrize(
        "seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1], ids=hex
    )
    def test_edge_seeds(self, seed):
        # One entropy word below 2**32, two from it on.
        assert_first_random_is_the_generators([seed])

    def test_edge_seeds_in_one_batch(self):
        assert_first_random_is_the_generators(
            [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        )

    def test_derived_seeds(self):
        assert_first_random_is_the_generators(
            [derive_seed(0xB1E, f"adv-jitter:{k}") for k in range(200)]
        )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
    def test_any_seeds(self, seeds):
        assert_first_random_is_the_generators(seeds)

    def test_empty(self):
        out = first_random(np.array([], dtype=np.uint64))
        assert out.shape == (0,) and out.dtype == np.float64

    def test_shape_is_kept(self):
        seeds = np.arange(6, dtype=np.uint64).reshape(2, 3)
        out = first_random(seeds)
        assert out.shape == (2, 3)
        np.testing.assert_array_equal(_bits(out.ravel()), _bits(first_random(seeds.ravel())))
        assert first_random(np.uint64(5)).shape == ()
