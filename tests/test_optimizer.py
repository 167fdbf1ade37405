"""Tests for the throughput-maximization framework (Eq. 8-10)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.fig4_optimal_schedule import Fig4Spec
from repro.model.join_model import JoinModelParams, expected_join_fraction
from repro.model.optimizer import (
    ChannelState,
    dividing_speed,
    dividing_speed_of,
    optimal_schedule,
    sweep_speeds,
)

FAST_PARAMS = JoinModelParams(beta_min_s=0.5, beta_max_s=5.0)


class TestChannelState:
    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            ChannelState(1, joined_bps=-1.0)


class TestOptimalSchedule:
    def test_single_joined_channel_gets_capped_time(self):
        channels = [ChannelState(1, joined_bps=0.5 * 11e6)]
        result = optimal_schedule(channels, 20.0, params=FAST_PARAMS, grid_steps=10)
        # Eq. 9: f1 <= B1j/Bw = 0.5.
        assert result.fraction(1) == pytest.approx(0.5, abs=0.05)

    def test_fully_provisioned_channel_takes_everything(self):
        channels = [ChannelState(1, joined_bps=11e6)]
        result = optimal_schedule(channels, 20.0, params=FAST_PARAMS, grid_steps=10)
        assert result.fraction(1) >= 0.95

    def test_empty_channel_gets_nothing(self):
        channels = [ChannelState(1, joined_bps=5e6), ChannelState(2)]
        result = optimal_schedule(channels, 20.0, params=FAST_PARAMS, grid_steps=10)
        assert result.fraction(2) == pytest.approx(0.0, abs=0.01)

    def test_eq9_constraint_holds_at_optimum(self):
        channels = [
            ChannelState(1, joined_bps=0.75 * 11e6),
            ChannelState(2, available_bps=0.25 * 11e6),
        ]
        result = optimal_schedule(channels, 40.0, params=FAST_PARAMS, grid_steps=10)
        for state in channels:
            f = result.fraction(state.channel)
            joined_fraction = (
                expected_join_fraction(FAST_PARAMS, f, 40.0) if f > 0 else 0.0
            )
            cap = (state.joined_bps + joined_fraction * state.available_bps) / 11e6
            assert f <= cap + 1e-6

    def test_eq10_switching_budget_holds(self):
        channels = [
            ChannelState(1, joined_bps=6e6),
            ChannelState(2, joined_bps=6e6),
        ]
        result = optimal_schedule(channels, 20.0, params=FAST_PARAMS, grid_steps=10)
        overhead = FAST_PARAMS.switch_delay_s / FAST_PARAMS.period_s
        used = sum(
            f + (overhead if f > 0 else 0.0) for f in result.fractions.values()
        )
        assert used <= 1.0 + 1e-6

    def test_total_equals_sum_of_channels(self):
        channels = [ChannelState(1, joined_bps=4e6), ChannelState(2, joined_bps=4e6)]
        result = optimal_schedule(channels, 20.0, params=FAST_PARAMS, grid_steps=10)
        assert result.total_throughput_bps == pytest.approx(
            sum(result.throughput_bps.values())
        )

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            optimal_schedule([], 20.0)
        with pytest.raises(ValueError):
            optimal_schedule([ChannelState(1)], 0.0)

    @pytest.mark.parametrize(
        "grid, match",
        [
            ({"grid_steps": 0}, "grid_steps"),
            ({"grid_steps": -2}, "grid_steps"),
            ({"refine_rounds": -1}, "refine_rounds"),
        ],
    )
    def test_bad_grid_rejected(self, grid, match):
        channels = [ChannelState(1, joined_bps=4e6), ChannelState(2, available_bps=4e6)]
        with pytest.raises(ValueError, match=match):
            optimal_schedule(channels, 20.0, params=FAST_PARAMS, **grid)

    @settings(max_examples=10, deadline=None)
    @given(
        joined_share=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        available_share=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_fractions_always_feasible(self, joined_share, available_share):
        channels = [
            ChannelState(1, joined_bps=joined_share * 11e6),
            ChannelState(2, available_bps=available_share * 11e6),
        ]
        result = optimal_schedule(channels, 10.0, params=FAST_PARAMS, grid_steps=6, refine_rounds=1)
        assert sum(result.fractions.values()) <= 1.0 + 1e-6
        assert all(0.0 <= f <= 1.0 for f in result.fractions.values())


class TestSpeedBehaviour:
    def test_slow_speed_visits_join_channel(self):
        channels = [
            ChannelState(1, joined_bps=0.5 * 11e6),
            ChannelState(2, available_bps=0.5 * 11e6),
        ]
        results = dict(
            (speed, result)
            for speed, result in sweep_speeds(
                channels, [2.5, 20.0], params=FAST_PARAMS, grid_steps=10
            )
        )
        assert results[2.5].fraction(2) > results[20.0].fraction(2)

    def test_dividing_speed_exists_for_weak_secondary(self):
        channels = [
            ChannelState(1, joined_bps=0.75 * 11e6),
            ChannelState(2, available_bps=0.25 * 11e6),
        ]
        divide = dividing_speed(
            channels,
            params=JoinModelParams(beta_min_s=0.5, beta_max_s=10.0),
            speed_grid=[2.5, 5.0, 10.0, 20.0, 40.0],
        )
        assert divide < math.inf

    def test_sweep_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError):
            sweep_speeds([ChannelState(1, joined_bps=1e6)], [0.0])

    @pytest.mark.parametrize("grid_steps", [0, -2])
    def test_sweep_rejects_bad_grid(self, grid_steps):
        with pytest.raises(ValueError, match="grid_steps"):
            sweep_speeds([ChannelState(1, joined_bps=1e6)], [], grid_steps=grid_steps)

    def test_dividing_speed_reads_a_finished_sweep(self):
        channels = [
            ChannelState(1, joined_bps=0.75 * 11e6),
            ChannelState(2, available_bps=0.25 * 11e6),
        ]
        params = JoinModelParams(beta_min_s=0.5, beta_max_s=10.0)
        speeds = [2.5, 10.0, 20.0, 40.0]
        sweep = sweep_speeds(channels, speeds, params=params)
        assert dividing_speed_of(channels, sweep) == dividing_speed(
            channels, params=params, speed_grid=speeds
        )
        assert dividing_speed_of(channels, sweep[:1]) == math.inf


class TestFig4SpecInputs:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"speeds_mps": ()},
            {"speeds_mps": (5.0, 0.0)},
            {"speeds_mps": (-2.5,)},
            {"grid_steps": 0},
            {"range_m": 0.0},
            {"bw_bps": -1.0},
        ],
    )
    def test_bad_input_fails_at_the_spec(self, overrides):
        with pytest.raises(ValueError):
            Fig4Spec(**overrides)
