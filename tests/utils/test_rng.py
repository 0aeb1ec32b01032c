"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import as_generator, batched_uniform, derive_seed, spawn_streams
from tests.reference import batched_exponential


class TestAsGenerator:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert as_generator(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(9)
        a = as_generator(seq)
        assert isinstance(a, np.random.Generator)


class TestSpawnStreams:
    def test_streams_are_deterministic(self):
        a = spawn_streams(7, ["x", "y"])
        b = spawn_streams(7, ["x", "y"])
        assert a["x"].random() == b["x"].random()
        assert a["y"].random() == b["y"].random()

    def test_streams_are_independent(self):
        streams = spawn_streams(7, ["x", "y"])
        x = streams["x"].random(1000)
        y = streams["y"].random(1000)
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.1

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            spawn_streams(1, ["a", "a"])

    def test_order_matters_not_name_hash(self):
        a = spawn_streams(3, ["first", "second"])
        b = spawn_streams(3, ["second", "first"])
        # Stream identity is positional: the first-spawned child matches.
        assert a["first"].random() == b["second"].random()

    def test_generator_root_accepted(self):
        streams = spawn_streams(np.random.default_rng(5), ["a"])
        assert isinstance(streams["a"], np.random.Generator)


class TestDeriveSeed:
    def test_none_passthrough(self):
        assert derive_seed(None, 3) is None

    def test_deterministic(self):
        assert derive_seed(10, 2) == derive_seed(10, 2)

    def test_distinct_across_runs(self):
        seeds = {derive_seed(10, r) for r in range(50)}
        assert len(seeds) == 50

    def test_distinct_across_adjacent_roots(self):
        # SeedSequence composition avoids the classic seed+index collision:
        # root 10 run 1 must differ from root 11 run 0.
        assert derive_seed(10, 1) != derive_seed(11, 0)

    def test_negative_run_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(1, -1)


class TestBatchedDraws:
    """The stream-consumption contract the batched backend stands on.

    Every bit-exactness guarantee of the batched PHY/sensing engine path
    reduces to these two facts: an array draw produces the same values
    as the equivalent sequence of scalar draws AND leaves the generator
    in the same state, so scalar and batched backends can be swapped
    mid-simulation (or mid-checkpoint) without shifting any later draw.
    """

    def test_uniform_matches_scalar_sequence(self, rng_pair):
        batched_rng, scalar_rng = rng_pair
        batch = batched_uniform(batched_rng, 257)
        scalars = np.array([scalar_rng.random() for _ in range(257)])
        assert np.array_equal(batch, scalars)

    def test_uniform_leaves_identical_state(self, rng_pair):
        batched_rng, scalar_rng = rng_pair
        batched_uniform(batched_rng, 100)
        for _ in range(100):
            scalar_rng.random()
        assert batched_rng.bit_generator.state == scalar_rng.bit_generator.state
        assert batched_rng.random() == scalar_rng.random()

    def test_exponential_matches_scalar_sequence(self, rng_pair):
        batched_rng, scalar_rng = rng_pair
        scales = np.abs(np.random.default_rng(9).normal(2.0, 1.5, 301)) + 0.05
        batch = batched_exponential(batched_rng, scales)
        scalars = np.array([scalar_rng.exponential(s) for s in scales])
        assert np.array_equal(batch, scalars)

    def test_exponential_leaves_identical_state(self, rng_pair):
        batched_rng, scalar_rng = rng_pair
        scales = np.linspace(0.1, 5.0, 64)
        batched_exponential(batched_rng, scales)
        for s in scales:
            scalar_rng.exponential(s)
        assert batched_rng.bit_generator.state == scalar_rng.bit_generator.state

    def test_empty_batches(self, rng_pair):
        batched_rng, scalar_rng = rng_pair
        assert batched_uniform(batched_rng, 0).size == 0
        assert batched_exponential(batched_rng, []).size == 0
        # Zero-size draws must not consume the stream.
        assert batched_rng.bit_generator.state == scalar_rng.bit_generator.state

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            batched_uniform(as_generator(0), -1)
