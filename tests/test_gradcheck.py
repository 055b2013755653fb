"""Self-diagnostic suite behavior, including a caught gradient fault."""

import pytest

from exitweave.backbone import BackboneConfig
from exitweave.errors import ConfigError
from exitweave.gradcheck import PARAM_CAP, run_suites
from exitweave.wpn import WpnConfig


TINY_BB = BackboneConfig(3, (4, 3), 3)
TINY_WPN = WpnConfig(2, hidden_width=8, hidden_depth=1, delta=0.6)


class TestRunSuites:
    def test_all_four_suites_pass_on_tiny_instance(self):
        results = run_suites(TINY_BB, TINY_WPN, seed=0, q=0.75)
        assert [r.name for r in results] == [
            "backbone_per_sample", "weight_gradient", "wpn_backward", "end_to_end",
        ]
        for r in results:
            assert r.passed, f"{r.name}: {r.max_rel_err} vs {r.tolerance}"
            assert r.max_rel_err < r.tolerance

    def test_seeds_vary_but_still_pass(self):
        for seed in (1, 2, 3):
            results = run_suites(TINY_BB, TINY_WPN, seed=seed, q=0.5)
            assert all(r.passed for r in results)

    def test_sabotage_flips_per_sample_suite(self, flipped_weighted_grad):
        results = run_suites(TINY_BB, TINY_WPN, seed=0, q=0.75)
        assert not results[0].passed
        assert results[0].max_rel_err > results[0].tolerance

    def test_param_cap_enforced(self):
        big = BackboneConfig(64, (64, 64), 10)
        with pytest.raises(ConfigError, match="parameter"):
            run_suites(big, WpnConfig(2), seed=0)

    def test_param_cap_value(self):
        assert PARAM_CAP == 2000
