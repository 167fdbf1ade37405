"""Figure 4: optimal per-channel bandwidth versus speed (two channels).

Paper setting: Bw = 11 Mb/s, Wi-Fi range 100 m, βmax = 10 s, βmin = 500 ms,
speeds {2.5, 3.3, 5, 6.6, 10, 20} m/s, three offered-bandwidth splits
between the already-joined channel 1 and the must-join channel 2:
(75/25), (25/75), (50/50) of Bw.

The reproduction target is the *dividing speed*: below it the optimizer
schedules time on channel 2; above it, channel 1 takes everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..analysis.reporting import format_series
from ..model.join_model import JoinModelParams
from ..model.optimizer import (
    DEFAULT_BW_BPS,
    DEFAULT_RANGE_M,
    FIG4_SCENARIOS,
    ChannelState,
    dividing_speed_of,
    sweep_speeds,
)
from .api import ExperimentSpec, register

__all__ = ["Fig4Spec", "Fig4Scenario", "Fig4Result", "run_spec"]

PAPER_SPEEDS_MPS = (2.5, 3.3, 5.0, 6.6, 10.0, 20.0)
FIG4_MODEL_PARAMS = JoinModelParams(beta_min_s=0.5, beta_max_s=10.0)


@dataclass
class Fig4Scenario:
    """One offered-bandwidth split's speed sweep."""
    name: str
    speeds_mps: List[float]
    ch1_bandwidth_bps: List[float]
    ch2_bandwidth_bps: List[float]
    dividing_speed_mps: float


@dataclass
class Fig4Result:
    """All Fig. 4 scenarios."""
    scenarios: List[Fig4Scenario]

    def render(self) -> str:
        """Render the result as printable text."""
        blocks = []
        for scenario in self.scenarios:
            blocks.append(
                format_series(
                    f"Fig4 [{scenario.name}] ch1 bw",
                    scenario.speeds_mps,
                    [b / 1e3 for b in scenario.ch1_bandwidth_bps],
                    "speed(m/s)",
                    "kbps",
                )
            )
            blocks.append(
                format_series(
                    f"Fig4 [{scenario.name}] ch2 bw",
                    scenario.speeds_mps,
                    [b / 1e3 for b in scenario.ch2_bandwidth_bps],
                    "speed(m/s)",
                    "kbps",
                )
            )
            blocks.append(
                f"  dividing speed [{scenario.name}]: {scenario.dividing_speed_mps:g} m/s"
            )
        return "\n".join(blocks)


@dataclass(frozen=True)
class Fig4Spec(ExperimentSpec):
    """Spec for Figure 4 (pure analytic optimizer; ``seeds``/``town`` unused)."""

    speeds_mps: Tuple[float, ...] = PAPER_SPEEDS_MPS
    bw_bps: float = DEFAULT_BW_BPS
    range_m: float = DEFAULT_RANGE_M
    grid_steps: int = 16

    def __post_init__(self) -> None:
        if not self.speeds_mps or min(self.speeds_mps) <= 0:
            raise ValueError(
                f"speeds_mps must be non-empty and positive, got {self.speeds_mps!r}"
            )
        if self.grid_steps < 1:
            raise ValueError(f"grid_steps must be at least 1, got {self.grid_steps!r}")
        if self.range_m <= 0 or self.bw_bps <= 0:
            raise ValueError(
                f"range_m and bw_bps must be positive, got {self.range_m!r} and {self.bw_bps!r}"
            )


@register("fig4", Fig4Spec, summary="optimal per-channel bandwidth vs speed")
def run_spec(spec: Fig4Spec) -> Fig4Result:
    out: List[Fig4Scenario] = []
    for name, (joined_share, available_share) in FIG4_SCENARIOS.items():
        channels = [
            ChannelState(1, joined_bps=joined_share * spec.bw_bps),
            ChannelState(2, available_bps=available_share * spec.bw_bps),
        ]
        sweep = sweep_speeds(
            channels,
            spec.speeds_mps,
            params=FIG4_MODEL_PARAMS,
            bw_bps=spec.bw_bps,
            range_m=spec.range_m,
            grid_steps=spec.grid_steps,
        )
        out.append(
            Fig4Scenario(
                name=name,
                speeds_mps=list(spec.speeds_mps),
                ch1_bandwidth_bps=[r.throughput_bps.get(1, 0.0) for _, r in sweep],
                ch2_bandwidth_bps=[r.throughput_bps.get(2, 0.0) for _, r in sweep],
                dividing_speed_mps=dividing_speed_of(channels, sweep),
            )
        )
    return Fig4Result(scenarios=out)
