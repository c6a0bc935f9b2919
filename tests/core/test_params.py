"""Tests for MPCParameters: validation, presets, derived formulas."""

import pytest

from repro.core.params import MPCParameters


class TestValidation:
    def test_defaults_valid(self):
        p = MPCParameters()
        assert p.eps == 0.1

    @pytest.mark.parametrize("eps", [0.0, 0.5, -0.1, 0.7])
    def test_eps_range(self, eps):
        with pytest.raises(ValueError):
            MPCParameters(eps=eps)

    def test_exponent_range(self):
        with pytest.raises(ValueError):
            MPCParameters(high_degree_exponent=1.0)
        with pytest.raises(ValueError):
            MPCParameters(high_degree_exponent=0.0)

    def test_unknown_rules(self):
        with pytest.raises(ValueError):
            MPCParameters(iteration_rule="magic")
        with pytest.raises(ValueError):
            MPCParameters(stop_rule="never")

    def test_bias_validation(self):
        with pytest.raises(ValueError):
            MPCParameters(bias_coeff=-1.0)
        with pytest.raises(ValueError):
            MPCParameters(bias_growth=0.0)

    def test_with_override(self):
        p = MPCParameters(eps=0.1).with_(eps=0.2)
        assert p.eps == 0.2


class TestDerived:
    def test_machines_sqrt(self):
        p = MPCParameters()
        assert p.num_machines(100.0) == 10
        assert p.num_machines(101.0) == 11  # ceil
        assert p.num_machines(1.0) == p.min_machines

    def test_iterations_practical_target(self):
        # practical rule hits the paper's decay target (1-eps)^I <= d^{-1/20}.
        p = MPCParameters(eps=0.1)
        for d in (16.0, 64.0, 1024.0):
            m = p.num_machines(d)
            I = p.iterations_per_phase(d, m)
            assert (1 - p.eps) ** I <= d ** (-1 / 20) + 1e-12
            assert I >= 1

    def test_iterations_paper_formula(self):
        # The verbatim paper formula: I = floor(log m / (10 log 15)); for any
        # machine count below 15^10 this is 0 — the documented degeneracy.
        p = MPCParameters.paper()
        assert p.iterations_per_phase(100.0, 10) == 0
        huge_m = int(15**10 * 2)
        assert p.iterations_per_phase(1.0, huge_m) == 1

    def test_iterations_override(self):
        p = MPCParameters(iterations_override=5)
        assert p.iterations_per_phase(1e6, 1000) == 5

    def test_high_degree_cutoff(self):
        p = MPCParameters()
        assert p.high_degree_cutoff(100.0) == pytest.approx(100.0**0.95)
        assert p.high_degree_cutoff(0.0) == 0.0

    def test_capacity(self):
        p = MPCParameters(memory_factor=16.0)
        assert p.machine_capacity_words(1000) == 16000
        assert p.final_phase_edge_capacity(1000) == 2000

    def test_stop_rule_practical(self):
        p = MPCParameters()
        n = 1000
        cap = p.final_phase_edge_capacity(n)
        assert p.should_continue(n=n, nonfrozen_edges=cap + 1, avg_degree=50.0)
        assert not p.should_continue(n=n, nonfrozen_edges=cap, avg_degree=50.0)

    def test_stop_rule_paper_never_continues_at_laptop_scale(self):
        # log^30 n dwarfs every feasible degree: the paper loop never runs.
        p = MPCParameters.paper()
        assert not p.should_continue(n=10**6, nonfrozen_edges=10**9, avg_degree=2000.0)

    def test_bias_schedule(self):
        p = MPCParameters(bias_coeff=2.0, bias_growth=15.0, bias_machine_exponent=-0.2)
        assert p.bias(0, 32) == pytest.approx(2.0 * 32 ** (-0.2))
        assert p.bias(2, 32) == pytest.approx(2.0 * 225 * 32 ** (-0.2))

    def test_bias_zero_fast_path(self):
        p = MPCParameters(bias_coeff=0.0)
        assert p.bias(3, 10) == 0.0

    def test_growth_factor(self):
        assert MPCParameters(eps=0.2).growth_factor() == pytest.approx(1.25)

    def test_paper_preset_constants(self):
        p = MPCParameters.paper(eps=0.05)
        assert p.bias_coeff == 2.0
        assert p.bias_growth == 15.0
        assert p.stop_rule == "paper"
        assert p.iteration_rule == "paper"
        assert p.eps == 0.05
