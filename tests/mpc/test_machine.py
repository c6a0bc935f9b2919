"""Tests for bounded-memory machines."""

import numpy as np
import pytest

from repro.mpc.exceptions import MemoryLimitExceeded
from repro.mpc.machine import Machine


class TestMachineStorage:
    def test_store_load_free(self):
        m = Machine(0, 100)
        m.store("a", np.zeros(10))
        assert m.used_words == 10
        assert m.load("a").shape == (10,)
        m.free("a")
        assert m.used_words == 0
        with pytest.raises(KeyError):
            m.load("a")

    def test_replace_updates_usage(self):
        m = Machine(0, 100)
        m.store("a", np.zeros(40))
        m.store("a", np.zeros(10))
        assert m.used_words == 10

    def test_capacity_enforced(self):
        m = Machine(0, 100)
        with pytest.raises(MemoryLimitExceeded) as ei:
            m.store("big", np.zeros(101))
        assert ei.value.machine_id == 0
        assert ei.value.key == "big"

    def test_rollback_on_failure(self):
        m = Machine(0, 100)
        m.store("a", np.zeros(50))
        with pytest.raises(MemoryLimitExceeded):
            m.store("b", np.zeros(60))
        assert m.used_words == 50
        with pytest.raises(KeyError):
            m.load("b")

    def test_replace_may_free_room(self):
        m = Machine(0, 100)
        m.store("a", np.zeros(90))
        m.store("a", np.zeros(30))  # replacement computed against new total
        m.store("b", np.zeros(60))
        assert m.used_words == 90

    def test_high_water_tracks_peak(self):
        m = Machine(0, 100)
        m.store("a", np.zeros(80))
        m.free("a")
        m.store("b", np.zeros(10))
        assert m.high_water == 80
        assert m.used_words == 10

    def test_unbounded_machine(self):
        m = Machine(1, None)
        m.store("huge", np.zeros(10**6))
        assert m.used_words == 10**6

    def test_free_missing_is_noop(self):
        m = Machine(0, 10)
        m.free("nope")

    def test_load_missing_raises(self):
        m = Machine(0, 10)
        with pytest.raises(KeyError):
            m.load("nope")
