"""Tests for deterministic RNG stream derivation."""

from hypothesis import given
from hypothesis import strategies as st

from repro.utils.rng import derive_rng, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_context_sensitivity(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_root_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_no_concatenation_collision(self):
        # ("ab",) must differ from ("a", "b"): field separation matters.
        assert derive_seed(0, "ab") != derive_seed(0, "a", "b")

    def test_64_bit_range(self):
        seed = derive_seed(123, "x")
        assert 0 <= seed < 2**64

    @given(st.integers(0, 2**32), st.text(max_size=10))
    def test_stable_under_repetition(self, root, label):
        assert derive_seed(root, label) == derive_seed(root, label)


class TestDeriveRng:
    def test_streams_reproducible(self):
        a = derive_rng(9, "noise", 0).standard_normal(5)
        b = derive_rng(9, "noise", 0).standard_normal(5)
        assert (a == b).all()

    def test_streams_independent(self):
        a = derive_rng(9, "noise", 0).standard_normal(5)
        b = derive_rng(9, "noise", 1).standard_normal(5)
        assert not (a == b).all()


class TestDeriveBytes:
    def test_deterministic_and_context_bound(self):
        from repro.utils.rng import derive_bytes

        assert derive_bytes(16, 7, "nonce", 0) == derive_bytes(16, 7, "nonce", 0)
        assert derive_bytes(16, 7, "nonce", 0) != derive_bytes(16, 7, "nonce", 1)
        assert len(derive_bytes(5, 7, "x")) == 5

    def test_length_bounds(self):
        import pytest

        from repro.utils.rng import derive_bytes

        with pytest.raises(ValueError):
            derive_bytes(33, 7)
        assert derive_bytes(0, 7) == b""


class TestDeriveStandardNormalsBatch:
    def test_matches_per_stream_draws(self):
        import numpy as np

        from repro.utils.rng import derive_standard_normals

        suffixes = [f"component.{i}" for i in range(64)] + [0, 1, 2, (3, "z")]
        batched = derive_standard_normals(11, ("die", 4, "neff"), suffixes)
        for suffix, value in zip(suffixes, batched):
            expected = derive_rng(11, "die", 4, "neff", suffix).standard_normal()
            assert value == expected, suffix

    def test_covers_narrow_seeds(self):
        # Seeds below 2**32 take the single-entropy-word SeedSequence
        # path; exercise the vectorized equivalent on both partitions.
        from repro.utils.rng import _pcg64_states
        import numpy as np

        probe = [0, 1, 2**16, 2**32 - 1, 2**32, 2**40, 2**64 - 1]
        for seed, state in zip(probe, _pcg64_states(probe)):
            generator = np.random.Generator(np.random.PCG64(0))
            generator.bit_generator.state = state
            assert generator.standard_normal() == \
                np.random.default_rng(seed).standard_normal()


class TestDerivedGenerators:
    def test_streams_match_default_rng_around_the_crossover(self):
        import numpy as np

        from repro.utils.rng import _BATCHED_GENERATORS_MIN, derived_generators

        for count in (1, _BATCHED_GENERATORS_MIN - 1, _BATCHED_GENERATORS_MIN,
                      _BATCHED_GENERATORS_MIN + 1):
            seeds = [derive_seed(5, "noise", i) for i in range(count - 1)]
            seeds.append(7)     # one narrow seed on the batched path too
            drawn = [rng.normal(size=(3, 5)) for rng in derived_generators(seeds)]
            assert len(drawn) == count
            for seed, draw in zip(seeds, drawn):
                assert np.array_equal(
                    draw, np.random.default_rng(seed).normal(size=(3, 5))
                ), (count, seed)
