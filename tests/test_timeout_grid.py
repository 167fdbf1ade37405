"""Tests for the timeout-grid configuration (Table 3 / Figs. 14-15 shared)."""

from __future__ import annotations

import pytest

from repro.experiments.api import ExperimentSpec
from repro.experiments.timeout_grid import STANDARD_GRID, TimeoutConfig, run_grid


class TestGridDefinitions:
    def test_every_paper_row_present(self):
        for label in (
            "ch1, ll=100ms, dhcp=600ms, 7if",
            "ch1, ll=100ms, dhcp=400ms, 7if",
            "ch1, ll=100ms, dhcp=200ms, 7if",
            "3ch, ll=100ms, dhcp=200ms, 7if",
            "ch1, default timers, 7if",
            "3ch, default timers, 7if",
            "ch1, default timers, 1if",
            "2ch(1,6), default timers, 7if",
        ):
            assert label in STANDARD_GRID, label

    def test_reduced_configs_carry_reduced_timers(self):
        config = STANDARD_GRID["ch1, ll=100ms, dhcp=200ms, 7if"].spider_config()
        assert config.ll_timeout_s == pytest.approx(0.1)
        assert config.dhcp_timeout_s == pytest.approx(0.2)
        assert config.use_lease_cache

    def test_default_configs_match_stock_timers(self):
        config = STANDARD_GRID["ch1, default timers, 7if"].spider_config()
        assert config.ll_timeout_s == pytest.approx(1.0)
        assert config.dhcp_timeout_s == pytest.approx(1.0)
        assert config.dhcp_idle_after_failure_s == pytest.approx(60.0)
        assert not config.use_lease_cache

    def test_interface_counts_respected(self):
        assert STANDARD_GRID["ch1, default timers, 1if"].spider_config().num_interfaces == 1
        assert STANDARD_GRID["ch1, default timers, 7if"].spider_config().num_interfaces == 7

    def test_channel_sets_match_labels(self):
        assert STANDARD_GRID["3ch, default timers, 7if"].mode.channels == [1, 6, 11]
        assert STANDARD_GRID["2ch(1,6), default timers, 7if"].mode.channels == [1, 6]
        assert STANDARD_GRID["ch1, default timers, 7if"].mode.channels == [1]


class TestGridExecution:
    def test_selected_labels_only(self):
        grid = run_grid(
            ExperimentSpec(seeds=(0,), duration_s=50.0),
            ("ch1, ll=100ms, dhcp=200ms, 7if",),
        )
        assert set(grid) == {"ch1, ll=100ms, dhcp=200ms, 7if"}

    def test_results_carry_join_logs(self):
        grid = run_grid(
            ExperimentSpec(seeds=(0,), duration_s=50.0),
            ("ch1, ll=100ms, dhcp=200ms, 7if",),
        )
        metrics = grid["ch1, ll=100ms, dhcp=200ms, 7if"]
        assert metrics.trials[0].join_log is not None
