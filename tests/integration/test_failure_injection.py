"""Failure injection: model violations must surface, never corrupt results."""

import pytest

from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.core.params import MPCParameters
from repro.graphs.generators import gnp_average_degree
from repro.graphs.weights import uniform_weights
from repro.mpc.exceptions import DeadMachineError, MPCError


@pytest.fixture
def workload():
    g = gnp_average_degree(300, 20.0, seed=70)
    return g.with_weights(uniform_weights(g.n, seed=71))


class TestFailureInjection:
    def test_machine_death_surfaces(self, workload):
        """Killing a worker mid-run raises DeadMachineError — the algorithm
        has no fault tolerance (neither does the paper) and must say so."""
        with pytest.raises(DeadMachineError):
            minimum_weight_vertex_cover(
                workload, eps=0.1, seed=72, engine="cluster", kill_schedule={3: [1]}
            )

    def test_coordinator_death_surfaces(self, workload):
        with pytest.raises(DeadMachineError):
            minimum_weight_vertex_cover(
                workload, eps=0.1, seed=72, engine="cluster", kill_schedule={2: [0]}
            )

    def test_death_after_completion_harmless(self, workload):
        """A kill scheduled after the run's last round never fires."""
        res = minimum_weight_vertex_cover(
            workload, eps=0.1, seed=73, engine="cluster", kill_schedule={10**6: [1]}
        )
        assert res.verify(workload)

    def test_capacity_squeeze_raises_mpc_error(self, workload):
        """An unreasonably small memory factor must produce a model
        violation, not a wrong answer."""
        params = MPCParameters(eps=0.1, memory_factor=0.05)
        with pytest.raises(MPCError):
            minimum_weight_vertex_cover(
                workload, params=params, seed=74, engine="cluster"
            )

    def test_vectorized_rejects_kill_schedule(self, workload):
        with pytest.raises(ValueError):
            minimum_weight_vertex_cover(
                workload, eps=0.1, seed=75, engine="vectorized", kill_schedule={0: [1]}
            )
