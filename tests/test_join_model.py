"""Unit and property tests for the analytical join model (Eq. 1-7)."""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.join_model import (
    JoinModelParams,
    expected_join_fraction,
    join_probability,
    join_probability_series,
    q_round_pair,
    q_segment,
)
from repro.experiments import fig4_optimal_schedule
from repro.experiments.fig2_join_validation import Fig2Spec
from repro.model import join_model, join_sim
from repro.model.join_sim import simulate_join_probability

PAPER = JoinModelParams(
    period_s=0.5,
    switch_delay_s=7e-3,
    request_spacing_s=0.1,
    beta_min_s=0.5,
    beta_max_s=5.0,
    loss_rate=0.1,
)


class TestParams:
    def test_defaults_valid(self):
        JoinModelParams()

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            JoinModelParams(period_s=0.0)
        with pytest.raises(ValueError):
            JoinModelParams(loss_rate=1.0)
        with pytest.raises(ValueError):
            JoinModelParams(beta_min_s=2.0, beta_max_s=1.0)
        with pytest.raises(ValueError):
            JoinModelParams(switch_delay_s=-0.1)

    def test_requests_per_round_formula(self):
        params = JoinModelParams(period_s=0.5, switch_delay_s=7e-3, request_spacing_s=0.1)
        # ceil((0.5*0.5 - 0.007)/0.1) = ceil(2.43) = 3
        assert params.requests_per_round(0.5) == 3
        assert params.requests_per_round(1.0) == 5

    def test_no_requests_when_dwell_below_switch_delay(self):
        params = JoinModelParams(period_s=0.5, switch_delay_s=0.06, request_spacing_s=0.1)
        assert params.requests_per_round(0.1) == 0

    def test_with_beta_max(self):
        assert PAPER.with_beta_max(8.0).beta_max_s == 8.0


class TestQSegment:
    def test_probability_bounds(self):
        for m in (1, 2):
            for n in (m, m + 1, m + 5):
                for k in (1, 2, 3):
                    q = q_segment(PAPER, 0.4, m, n, k)
                    assert 0.0 <= q <= 1.0

    def test_n_before_m_is_zero(self):
        assert q_segment(PAPER, 0.5, 3, 2, 1) == 0.0

    def test_far_future_round_unreachable(self):
        # Response latency <= k*c + beta_max; far-away rounds can't match.
        assert q_segment(PAPER, 0.5, 1, 100, 1) == 0.0

    def test_degenerate_beta_point_mass(self):
        params = JoinModelParams(beta_min_s=1.0, beta_max_s=1.0)
        total = sum(q_segment(params, 1.0, 1, n, 1) for n in range(1, 10))
        assert total == pytest.approx(1.0)

    def test_full_time_on_channel_covers_all_arrivals(self):
        # With f=1 the on-window is the whole round: any response time in
        # some round n succeeds, so summing q over n approaches 1.
        total = sum(q_segment(PAPER, 1.0, 1, n, 1) for n in range(1, 50))
        assert total == pytest.approx(1.0, abs=0.05)


class TestJoinProbability:
    def test_zero_fraction_never_joins(self):
        assert join_probability(PAPER, 0.0, 4.0) == 0.0

    def test_zero_time_never_joins(self):
        assert join_probability(PAPER, 0.5, 0.0) == 0.0

    def test_full_attention_with_short_beta_always_joins(self):
        params = JoinModelParams(beta_min_s=0.1, beta_max_s=0.3, loss_rate=0.0)
        assert join_probability(params, 1.0, 10.0) == pytest.approx(1.0, abs=1e-6)

    def test_monotone_in_fraction(self):
        probabilities = [join_probability(PAPER, f, 4.0) for f in (0.1, 0.3, 0.5, 0.8, 1.0)]
        assert probabilities == sorted(probabilities)

    def test_monotone_in_time(self):
        probabilities = [join_probability(PAPER, 0.3, t) for t in (1.0, 2.0, 4.0, 8.0)]
        assert probabilities == sorted(probabilities)

    def test_decreasing_in_beta_max(self):
        values = [
            join_probability(PAPER.with_beta_max(bm), 0.25, 4.0)
            for bm in (1.0, 3.0, 5.0, 10.0)
        ]
        assert values == sorted(values, reverse=True)

    def test_decreasing_in_loss(self):
        from dataclasses import replace

        lossless = join_probability(replace(PAPER, loss_rate=0.0), 0.25, 4.0)
        lossy = join_probability(replace(PAPER, loss_rate=0.4), 0.25, 4.0)
        assert lossless > lossy

    def test_series_is_cumulative(self):
        series = join_probability_series(PAPER, 0.4, 4.0)
        assert series[0] == 0.0
        assert all(b >= a for a, b in zip(series, series[1:]))
        assert len(series) == int(4.0 / PAPER.period_s) + 1

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            join_probability(PAPER, -0.1, 4.0)
        with pytest.raises(ValueError):
            join_probability(PAPER, 1.1, 4.0)
        with pytest.raises(ValueError):
            join_probability(PAPER, 0.5, -1.0)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_non_finite_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="time_in_range_s"):
            join_probability_series(PAPER, 0.5, horizon)

    @settings(max_examples=30, deadline=None)
    @given(
        fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        rounds=st.integers(min_value=0, max_value=12),
    )
    def test_probability_always_in_unit_interval(self, fraction, rounds):
        p = join_probability(PAPER, fraction, rounds * PAPER.period_s)
        assert 0.0 <= p <= 1.0


class TestExpectedJoinFraction:
    def test_bounds(self):
        value = expected_join_fraction(PAPER, 0.5, 10.0)
        assert 0.0 <= value <= 1.0

    def test_zero_horizon(self):
        assert expected_join_fraction(PAPER, 0.5, 0.0) == 0.0

    def test_increases_with_fraction(self):
        low = expected_join_fraction(PAPER, 0.1, 10.0)
        high = expected_join_fraction(PAPER, 0.9, 10.0)
        assert high > low

    def test_long_horizon_approaches_one(self):
        params = JoinModelParams(beta_min_s=0.5, beta_max_s=1.0, loss_rate=0.0)
        assert expected_join_fraction(params, 1.0, 300.0) > 0.95


class TestModelVsSimulation:
    """The Fig. 2 validation, at test scale."""

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 1.0])
    def test_agreement_within_sampling_error(self, fraction):
        model = join_probability(PAPER, fraction, 4.0)
        sim = simulate_join_probability(
            PAPER, fraction, 4.0, runs=12, trials_per_run=100, seed=3
        )
        assert abs(model - sim.mean) < max(4.0 * sim.std / (12 ** 0.5), 0.05)

    def test_simulation_respects_bounds(self):
        result = simulate_join_probability(PAPER, 0.4, 4.0, runs=5, trials_per_run=50)
        assert 0.0 <= result.mean <= 1.0
        assert result.std >= 0.0

    def test_simulation_deterministic_for_seed(self):
        a = simulate_join_probability(PAPER, 0.4, 4.0, runs=5, trials_per_run=50, seed=9)
        b = simulate_join_probability(PAPER, 0.4, 4.0, runs=5, trials_per_run=50, seed=9)
        assert a.mean == b.mean

    def test_simulation_invalid_inputs(self):
        with pytest.raises(ValueError):
            simulate_join_probability(PAPER, 0.4, 4.0, runs=0)


def _double_loop_series(params, fraction, time_in_range_s):
    """The quadratic form of Eq. 7: multiply every round pair ``(m, n)``."""
    rounds = int(time_in_range_s / params.period_s)
    series = [0.0]
    no_join = 1.0
    for n in range(1, rounds + 1):
        for m in range(1, n + 1):
            no_join *= q_round_pair(params, fraction, m, n)
        series.append(1.0 - no_join)
    return series


ORACLE_PARAMS = {
    "paper": PAPER.with_beta_max(10.0),
    "point-mass-beta": replace(PAPER, beta_min_s=1.0, beta_max_s=1.0),
    "no-switch-delay": replace(PAPER, switch_delay_s=0.0),
}


class TestLinearSeries:
    """The running-product series against the pairwise double loop."""

    @pytest.mark.parametrize("variant", sorted(ORACLE_PARAMS))
    @pytest.mark.parametrize("loss_rate", [0.0, 0.1, 0.9])
    @pytest.mark.parametrize("fraction", [0.0, 0.01, 0.5, 1.0])
    def test_matches_double_loop(self, variant, loss_rate, fraction):
        params = replace(ORACLE_PARAMS[variant], loss_rate=loss_rate)
        fast = join_probability_series(params, fraction, 20.3)
        slow = _double_loop_series(params, fraction, 20.3)
        assert len(fast) == len(slow) == 41
        assert max(abs(a - b) for a, b in zip(fast, slow)) <= 1e-12

    @pytest.mark.parametrize("variant", sorted(ORACLE_PARAMS))
    @pytest.mark.parametrize("fraction", [0.01, 0.5])
    def test_matches_double_loop_at_fig4_slowest_speed(self, variant, fraction):
        # 2.5 m/s through a 100 m range: an 80 s encounter, 160 rounds.
        params = ORACLE_PARAMS[variant]
        fast = join_probability_series(params, fraction, 80.0)
        slow = _double_loop_series(params, fraction, 80.0)
        assert len(fast) == len(slow) == 161
        assert max(abs(a - b) for a, b in zip(fast, slow)) <= 1e-12

    @pytest.mark.parametrize("fraction", [0.01, 0.3, 1.0])
    @pytest.mark.parametrize("horizon", [0.0, 4.0, 80.0])
    def test_q_segment_calls_linear_in_rounds(self, monkeypatch, fraction, horizon):
        calls = 0
        original = join_model.q_segment

        def counted(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(join_model, "q_segment", counted)
        params = replace(PAPER, switch_delay_s=0.0)
        join_probability_series(params, fraction, horizon)
        rounds = int(horizon / params.period_s)
        assert calls <= rounds * params.requests_per_round(fraction)


#: Default fig4 as the pairwise double loop computed it:
#: (scenario, ch1 bandwidth per speed, ch2 bandwidth per speed, dividing speed).
FIG4_DEFAULT = [
    (
        "75/25",
        [8078125.0, 8164062.5, 8250000.0, 8250000.0, 8250000.0, 8250000.0],
        [2578125.0, 2492187.5, 2363281.25, 2019531.25, 1546875.0, 0.0],
        20.0,
    ),
    (
        "25/75",
        [2664062.5, 2750000.0, 2750000.0, 2750000.0, 2750000.0, 2750000.0],
        [7992187.5, 7906250.0, 7777343.75, 7519531.25, 7261718.75, 5886718.75],
        math.inf,
    ),
    (
        "50/50",
        [5371093.75, 5457031.25, 5500000.0, 5500000.0, 5500000.0, 5500000.0],
        [5285156.25, 5199218.75, 5070312.5, 4855468.75, 4597656.25, 2964843.75],
        math.inf,
    ),
]


def test_default_fig4_is_pinned():
    result = fig4_optimal_schedule.run_spec().unwrap()
    assert [
        (s.name, s.ch1_bandwidth_bps, s.ch2_bandwidth_bps, s.dividing_speed_mps)
        for s in result.scenarios
    ] == FIG4_DEFAULT


def _per_draw_trial(params, fraction, rounds, rng):
    """The Monte-Carlo trial with every attribute read inside the draw loop."""
    requests = params.requests_per_round(fraction)
    if requests == 0 or rounds == 0:
        return False
    d = params.period_s
    on_window = d * fraction
    for m in range(1, rounds + 1):
        for k in range(1, requests + 1):
            if rng.random() < params.loss_rate:
                continue
            if rng.random() < params.loss_rate:
                continue
            beta = rng.uniform(params.beta_min_s, params.beta_max_s)
            arrival = params.switch_delay_s + (k - 1) * params.request_spacing_s + beta
            j = math.floor(arrival / d)
            if m + j > rounds:
                continue
            if arrival - j * d <= on_window:
                return True
    return False


class TestJoinSimDraws:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize(
        "params, fraction, horizon",
        [
            (PAPER, 0.3, 4.0),
            (PAPER.with_beta_max(10.0), 1.0, 10.0),
            (replace(PAPER, loss_rate=0.5, switch_delay_s=0.0), 0.1, 4.0),
            (replace(PAPER, beta_min_s=1.0, beta_max_s=1.0), 0.5, 3.0),
        ],
    )
    def test_hoisted_trial_draws_the_same_stream(
        self, monkeypatch, seed, params, fraction, horizon
    ):
        hoisted = simulate_join_probability(
            params, fraction, horizon, runs=6, trials_per_run=40, seed=seed
        )
        monkeypatch.setattr(join_sim, "_single_trial", _per_draw_trial)
        per_draw = simulate_join_probability(
            params, fraction, horizon, runs=6, trials_per_run=40, seed=seed
        )
        assert (hoisted.mean, hoisted.std) == (per_draw.mean, per_draw.std)

    def test_trial_consumes_the_same_draws(self):
        a, b = random.Random(5), random.Random(5)
        outcomes = [
            (join_sim._single_trial(PAPER, 0.4, 8, a), _per_draw_trial(PAPER, 0.4, 8, b))
            for _ in range(200)
        ]
        assert all(x == y for x, y in outcomes)
        assert a.random() == b.random()


class TestFig2SpecInputs:
    @pytest.mark.parametrize(
        "overrides",
        [{"runs": 0}, {"trials_per_run": 0}, {"fractions": ()}],
    )
    def test_bad_input_fails_at_the_spec(self, overrides):
        with pytest.raises(ValueError):
            Fig2Spec(**overrides)
