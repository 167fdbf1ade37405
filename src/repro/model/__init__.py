"""Analytical framework: join model (Eq. 1-7) and optimizer (Eq. 8-10)."""

from .join_model import (
    JoinModelParams,
    expected_join_fraction,
    join_probability,
    join_probability_series,
    q_round_pair,
    q_segment,
)
from .join_sim import JoinSimResult, simulate_join_curve, simulate_join_probability
from .optimizer import (
    FIG4_SCENARIOS,
    ChannelState,
    OptimizationResult,
    dividing_speed,
    dividing_speed_of,
    optimal_schedule,
    sweep_speeds,
)

__all__ = [
    "JoinModelParams",
    "expected_join_fraction",
    "join_probability",
    "join_probability_series",
    "q_round_pair",
    "q_segment",
    "JoinSimResult",
    "simulate_join_curve",
    "simulate_join_probability",
    "FIG4_SCENARIOS",
    "ChannelState",
    "OptimizationResult",
    "dividing_speed",
    "dividing_speed_of",
    "optimal_schedule",
    "sweep_speeds",
]
