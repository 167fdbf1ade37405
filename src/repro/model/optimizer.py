"""Throughput-maximization framework (§2.1.3, Eq. 8-10).

Given the channels' *joined* bandwidth ``B_i^j`` (APs the node already holds
leases on) and *available* bandwidth ``B_i^a`` (APs it would have to join),
choose the channel fractions ``f_i`` maximizing aggregate throughput

    max  T · Σ_i f_i · B_w                                   (Eq. 8)
    s.t. f_i ≤ (B_i^j + J_i(f_i, T) · B_i^a) / B_w            (Eq. 9)
         Σ_i (f_i·D + ⌈f_i⌉·w) ≤ D                            (Eq. 10)

where ``J_i`` is the expected joined-time fraction from the join model (the
paper's ``E[X_i]`` normalized by the encounter length ``T``), and
``T = 2·range/speed`` for a drive-by encounter.  The solver is an exhaustive
grid search with local refinement — the problem is tiny (k ≤ 3 channels) and
the constraint surface is monotone in ``f_i``, so the grid is reliable.

The headline output is Fig. 4: per-channel optimal bandwidth versus speed
for three offered-bandwidth splits, exhibiting the *dividing speed*
(≈10 m/s) above which single-channel operation is optimal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .join_model import JoinModelParams, expected_join_fraction

__all__ = [
    "ChannelState",
    "OptimizationResult",
    "optimal_schedule",
    "sweep_speeds",
    "dividing_speed",
    "dividing_speed_of",
    "FIG4_SCENARIOS",
]

#: Default wireless bandwidth (the paper's Bw), bits/second.
DEFAULT_BW_BPS = 11e6
#: Practical Wi-Fi range assumed by the paper, metres.
DEFAULT_RANGE_M = 100.0

#: The three Fig. 4 scenarios: (joined share on ch1, available share on ch2).
FIG4_SCENARIOS: Dict[str, Tuple[float, float]] = {
    "75/25": (0.75, 0.25),
    "25/75": (0.25, 0.75),
    "50/50": (0.50, 0.50),
}


@dataclass(frozen=True)
class ChannelState:
    """Bandwidth situation on one channel.

    ``joined_bps`` is ``B_i^j`` (already usable); ``available_bps`` is
    ``B_i^a`` (usable only once a join completes).
    """

    channel: int
    joined_bps: float = 0.0
    available_bps: float = 0.0

    def __post_init__(self) -> None:
        if self.joined_bps < 0 or self.available_bps < 0:
            raise ValueError("bandwidths must be non-negative")


@dataclass
class OptimizationResult:
    """The optimal schedule and its predicted per-channel throughput."""

    fractions: Dict[int, float]
    throughput_bps: Dict[int, float]
    total_throughput_bps: float
    time_in_range_s: float

    def fraction(self, channel: int) -> float:
        """The fraction assigned to ``channel`` (0 when unscheduled)."""
        return self.fractions.get(channel, 0.0)


def _check_grid(grid_steps: int, refine_rounds: int = 0) -> None:
    """Reject a solver grid that cannot be searched."""
    if grid_steps < 1:
        raise ValueError(f"grid_steps must be at least 1, got {grid_steps!r}")
    if refine_rounds < 0:
        raise ValueError(f"refine_rounds must be non-negative, got {refine_rounds!r}")


def _cap_fraction(
    state: ChannelState,
    fraction: float,
    time_in_range_s: float,
    params: JoinModelParams,
    bw_bps: float,
) -> float:
    """Right-hand side of Eq. 9 for a candidate ``f_i``."""
    joined_fraction = 0.0
    if state.available_bps > 0 and fraction > 0:
        joined_fraction = expected_join_fraction(params, fraction, time_in_range_s)
    return (state.joined_bps + joined_fraction * state.available_bps) / bw_bps


def optimal_schedule(
    channels: Sequence[ChannelState],
    time_in_range_s: float,
    params: Optional[JoinModelParams] = None,
    bw_bps: float = DEFAULT_BW_BPS,
    grid_steps: int = 20,
    refine_rounds: int = 2,
) -> OptimizationResult:
    """Solve Eq. 8-10 by grid search over the fraction simplex.

    ``grid_steps`` controls the coarse grid granularity (1/grid_steps);
    each refinement round re-grids around the incumbent with 4x finer
    resolution.
    """
    if not channels:
        raise ValueError("need at least one channel")
    if time_in_range_s <= 0:
        raise ValueError("time_in_range_s must be positive")
    _check_grid(grid_steps, refine_rounds)
    params = params or JoinModelParams()
    switching_budget = params.switch_delay_s / params.period_s

    # Precompute each channel's Eq. 9 cap on a fraction lattice; the cap is
    # monotone non-decreasing in f, so lattice interpolation is safe.
    def caps_for(values: Sequence[float]) -> List[Dict[float, float]]:
        table: List[Dict[float, float]] = []
        for state in channels:
            table.append(
                {
                    f: _cap_fraction(state, f, time_in_range_s, params, bw_bps)
                    for f in values
                }
            )
        return table

    def search(
        grids: List[Sequence[float]], caps: List[Dict[float, float]]
    ) -> Tuple[float, Tuple[float, ...]]:
        best_value = -1.0
        best_point: Tuple[float, ...] = tuple(0.0 for _ in channels)
        for point in itertools.product(*grids):
            used = sum(f + (switching_budget if f > 0 else 0.0) for f in point)
            if used > 1.0 + 1e-9:
                continue
            feasible = all(
                f <= caps[i][f] + 1e-12 for i, f in enumerate(point)
            )
            if not feasible:
                continue
            value = sum(point)
            if value > best_value:
                best_value = value
                best_point = point
        return best_value, best_point

    step = 1.0 / grid_steps
    grid = [round(i * step, 10) for i in range(grid_steps + 1)]
    caps = caps_for(grid)
    value, point = search([grid] * len(channels), caps)

    for _ in range(refine_rounds):
        step /= 4.0
        grids: List[Sequence[float]] = []
        values_needed = set()
        for f in point:
            local = [
                min(max(f + j * step, 0.0), 1.0) for j in range(-4, 5)
            ]
            local = sorted(set(round(v, 10) for v in local))
            grids.append(local)
            values_needed.update(local)
        caps = caps_for(sorted(values_needed))
        value, point = search(grids, caps)

    fractions = {state.channel: f for state, f in zip(channels, point)}
    throughput = {
        state.channel: f * bw_bps for state, f in zip(channels, point)
    }
    return OptimizationResult(
        fractions=fractions,
        throughput_bps=throughput,
        total_throughput_bps=sum(throughput.values()),
        time_in_range_s=time_in_range_s,
    )


def sweep_speeds(
    channels: Sequence[ChannelState],
    speeds_mps: Sequence[float],
    params: Optional[JoinModelParams] = None,
    bw_bps: float = DEFAULT_BW_BPS,
    range_m: float = DEFAULT_RANGE_M,
    grid_steps: int = 20,
) -> List[Tuple[float, OptimizationResult]]:
    """Fig. 4's x-axis: solve the schedule at each speed (T = 2·range/v)."""
    _check_grid(grid_steps)
    results = []
    for speed in speeds_mps:
        if speed <= 0:
            raise ValueError(f"speed must be positive: {speed!r}")
        horizon = 2.0 * range_m / speed
        results.append(
            (
                speed,
                optimal_schedule(
                    channels, horizon, params=params, bw_bps=bw_bps, grid_steps=grid_steps
                ),
            )
        )
    return results


def dividing_speed(
    channels: Sequence[ChannelState],
    params: Optional[JoinModelParams] = None,
    bw_bps: float = DEFAULT_BW_BPS,
    range_m: float = DEFAULT_RANGE_M,
    speed_grid: Optional[Sequence[float]] = None,
    secondary_threshold: float = 0.02,
) -> float:
    """The speed above which the optimizer stops visiting the join channel.

    Solves the schedule at every speed of ``speed_grid`` and reads the
    answer off the sweep with :func:`dividing_speed_of`.
    """
    speeds = list(speed_grid or [2.5, 3.3, 5.0, 6.6, 8.0, 10.0, 12.5, 15.0, 20.0])
    return dividing_speed_of(
        channels,
        sweep_speeds(channels, speeds, params=params, bw_bps=bw_bps, range_m=range_m),
        secondary_threshold=secondary_threshold,
    )


def dividing_speed_of(
    channels: Sequence[ChannelState],
    results: Sequence[Tuple[float, OptimizationResult]],
    secondary_threshold: float = 0.02,
) -> float:
    """The dividing speed of a finished :func:`sweep_speeds` sweep.

    Returns the first swept speed at which every channel with zero joined
    bandwidth receives at most ``secondary_threshold`` of the schedule
    (``inf`` if switching stays profitable at every swept speed).
    """
    join_only = [state.channel for state in channels if state.joined_bps == 0.0]
    for speed, result in results:
        if all(result.fraction(c) <= secondary_threshold for c in join_only):
            return speed
    return math.inf
