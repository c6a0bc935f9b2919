"""Tests for the utilities layer (rng streams, validation)."""

import numpy as np
import pytest

from repro.utils.rng import (
    PURPOSE_PARTITION,
    PURPOSE_THRESHOLDS,
    RngFactory,
    as_seed_sequence,
    spawn_rng,
)
from repro.utils.validation import (
    check_fraction,
    check_positive,
    ensure_float_array,
    ensure_int_array,
)


class TestSeedSequences:
    def test_int_seed(self):
        seq = as_seed_sequence(42)
        assert seq.entropy == 42

    def test_sequence_passthrough(self):
        seq = np.random.SeedSequence(7)
        assert as_seed_sequence(seq) is seq

    def test_none_gives_fresh(self):
        a = as_seed_sequence(None)
        b = as_seed_sequence(None)
        assert a.entropy != b.entropy

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            as_seed_sequence(-1)

    def test_bad_type(self):
        with pytest.raises(TypeError):
            as_seed_sequence("seed")


class TestSpawnRng:
    def test_path_determinism(self):
        a = spawn_rng(5, 1, 2).random(4)
        b = spawn_rng(5, 1, 2).random(4)
        assert np.array_equal(a, b)

    def test_distinct_paths_distinct_streams(self):
        a = spawn_rng(5, 1, 2).random(4)
        b = spawn_rng(5, 1, 3).random(4)
        c = spawn_rng(5, 2, 2).random(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_empty_path(self):
        a = spawn_rng(9).random(3)
        b = spawn_rng(9).random(3)
        assert np.array_equal(a, b)


class TestRngFactory:
    def test_purpose_phase_scoping(self):
        f = RngFactory(3)
        a = f.for_purpose(PURPOSE_PARTITION, phase=0).integers(0, 100, 5)
        b = f.for_purpose(PURPOSE_PARTITION, phase=1).integers(0, 100, 5)
        c = f.for_purpose(PURPOSE_THRESHOLDS, phase=0).integers(0, 100, 5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_reconstructible(self):
        a = RngFactory(3).for_purpose(2, 5).random(3)
        b = RngFactory(3).for_purpose(2, 5).random(3)
        assert np.array_equal(a, b)

    def test_child_namespaces(self):
        f = RngFactory(3)
        a = f.child(1).for_purpose(0).random(3)
        b = f.child(2).for_purpose(0).random(3)
        assert not np.array_equal(a, b)

    def test_root_property(self):
        f = RngFactory(11)
        assert f.root.entropy == 11


class TestValidation:
    def test_check_positive(self):
        assert check_positive("x", 1.5) == 1.5
        with pytest.raises(ValueError):
            check_positive("x", 0.0)
        assert check_positive("x", 0.0, strict=False) == 0.0
        with pytest.raises(ValueError):
            check_positive("x", -1.0, strict=False)
        with pytest.raises(ValueError):
            check_positive("x", float("inf"))

    def test_check_fraction(self):
        assert check_fraction("eps", 0.1) == 0.1
        with pytest.raises(ValueError):
            check_fraction("eps", 0.5)
        with pytest.raises(ValueError):
            check_fraction("eps", 0.0)

    def test_ensure_int_array(self):
        out = ensure_int_array("a", [1, 2, 3])
        assert out.dtype == np.int64
        with pytest.raises(ValueError):
            ensure_int_array("a", [[1], [2]])

    def test_ensure_float_array(self):
        out = ensure_float_array("a", [1.0, 2.0])
        assert out.dtype == np.float64
        with pytest.raises(ValueError):
            ensure_float_array("a", [1.0, float("nan")])
        # non-finite allowed when requested
        out = ensure_float_array("a", [1.0, float("inf")], require_finite=False)
        assert np.isinf(out[1])
