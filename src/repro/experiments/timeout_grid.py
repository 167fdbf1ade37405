"""Shared runner for the join-timeout experiments (Table 3, Figs. 14, 15).

All three artifacts come from the same kind of drive: Spider with seven
interfaces, a channel schedule, and a (link-layer timeout, DHCP timeout)
pair, measuring join outcomes rather than traffic.  This module defines the
configuration grid once; each per-artifact module runs the cells it reads.
Cells they share become identical trial specs, so with the trial cache on
each drive is simulated once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence

from ..core.link_manager import SpiderConfig
from ..core.schedule import OperationMode
from ..core.spider import ORTHOGONAL_CHANNELS, SpiderClient
from .api import ExperimentSpec
from .common import AggregatedMetrics, TownTrialSpec, aggregate_town_trials

__all__ = ["TimeoutConfig", "run_grid", "STANDARD_GRID"]

THREE_CHANNEL_MODE = OperationMode.equal_split(ORTHOGONAL_CHANNELS, 0.6)
TWO_CHANNEL_MODE = OperationMode.equal_split((1, 6), 0.4)
CH1_MODE = OperationMode.single_channel(1)


@dataclass(frozen=True)
class TimeoutConfig:
    """One cell of the timeout grid."""

    label: str
    mode: OperationMode
    num_interfaces: int = 7
    ll_timeout_s: float = 0.1
    dhcp_timeout_s: float = 0.2
    default_timers: bool = False  # stock 1 s timers, no cache, 60 s idle

    def spider_config(self) -> SpiderConfig:
        """The SpiderConfig this grid cell runs with."""
        if self.default_timers:
            return SpiderConfig.stock_timers(self.mode, self.num_interfaces)
        return replace(
            SpiderConfig.spider_defaults(self.mode, self.num_interfaces),
            ll_timeout_s=self.ll_timeout_s,
            dhcp_timeout_s=self.dhcp_timeout_s,
        )


#: The union of configurations Table 3 and Figs. 14/15 reference.
STANDARD_GRID: Dict[str, TimeoutConfig] = {
    "ch1, ll=100ms, dhcp=600ms, 7if": TimeoutConfig(
        "ch1, ll=100ms, dhcp=600ms, 7if", CH1_MODE, dhcp_timeout_s=0.6
    ),
    "ch1, ll=100ms, dhcp=400ms, 7if": TimeoutConfig(
        "ch1, ll=100ms, dhcp=400ms, 7if", CH1_MODE, dhcp_timeout_s=0.4
    ),
    "ch1, ll=100ms, dhcp=200ms, 7if": TimeoutConfig(
        "ch1, ll=100ms, dhcp=200ms, 7if", CH1_MODE, dhcp_timeout_s=0.2
    ),
    "3ch, ll=100ms, dhcp=200ms, 7if": TimeoutConfig(
        "3ch, ll=100ms, dhcp=200ms, 7if", THREE_CHANNEL_MODE, dhcp_timeout_s=0.2
    ),
    "ch1, default timers, 7if": TimeoutConfig(
        "ch1, default timers, 7if", CH1_MODE, default_timers=True
    ),
    "3ch, default timers, 7if": TimeoutConfig(
        "3ch, default timers, 7if", THREE_CHANNEL_MODE, default_timers=True
    ),
    "ch1, default timers, 1if": TimeoutConfig(
        "ch1, default timers, 1if", CH1_MODE, num_interfaces=1, default_timers=True
    ),
    "2ch(1,6), default timers, 7if": TimeoutConfig(
        "2ch(1,6), default timers, 7if", TWO_CHANNEL_MODE, default_timers=True
    ),
}


@dataclass(frozen=True)
class _GridFactory:
    """Picklable factory for one timeout-grid cell."""

    config: TimeoutConfig

    def __call__(self, sim, world, mobility):
        return SpiderClient(
            sim,
            world,
            mobility,
            self.config.spider_config(),
            client_id="grid",
            enable_traffic=False,
        )


def run_grid(
    spec: ExperimentSpec, labels: Optional[Sequence[str]] = None
) -> Dict[str, AggregatedMetrics]:
    """Run the selected grid cells over ``spec.seeds``; join-log aggregates.

    All ``cell x seed`` drives are fanned out as one batch (see
    :mod:`repro.runner`); results regroup per cell in seed order, so the
    parallel grid is bit-identical to the serial one.  The spec's run
    options reach every trial through
    :func:`~repro.experiments.common.aggregate_town_trials`.
    """
    selected = labels if labels is not None else list(STANDARD_GRID)
    specs = [
        TownTrialSpec(
            factory=_GridFactory(STANDARD_GRID[label]),
            label=label,
            seed=seed,
            duration_s=spec.duration_s,
            town=spec.town,
        )
        for label in selected
        for seed in spec.seeds
    ]
    return aggregate_town_trials(specs, spec)
