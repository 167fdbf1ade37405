"""Figure 2: join probability — analytical model vs Monte-Carlo simulation.

Paper setting: D = 500 ms, t = 4 s in range, βmin = 500 ms,
βmax ∈ {5 s, 10 s}, w = 7 ms, c = 100 ms, h = 10 %.  The model (Eq. 7) and
the simulation must agree within sampling error across the fraction sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..analysis.reporting import format_series
from ..model.join_model import JoinModelParams, join_probability
from ..model.join_sim import JoinSimResult, simulate_join_probability
from .api import ExperimentSpec, register

__all__ = ["Fig2Spec", "Fig2Point", "Fig2Result", "run_spec"]

PAPER_PARAMS = JoinModelParams(
    period_s=0.5,
    switch_delay_s=7.0e-3,
    request_spacing_s=0.1,
    beta_min_s=0.5,
    loss_rate=0.1,
)
TIME_IN_RANGE_S = 4.0


@dataclass
class Fig2Point:
    """One fraction's model and simulation values."""
    fraction: float
    model_probability: float
    sim_mean: float
    sim_std: float


@dataclass
class Fig2Result:
    """One curve pair per βmax."""

    curves: Dict[float, List[Fig2Point]]

    def max_model_sim_gap(self) -> float:
        """Largest |model - simulation| gap across all points."""
        return max(
            abs(p.model_probability - p.sim_mean)
            for pts in self.curves.values()
            for p in pts
        )

    def render(self) -> str:
        """Render both curve pairs plus the largest model-sim gap."""
        blocks = []
        for beta_max, points in sorted(self.curves.items()):
            xs = [p.fraction for p in points]
            blocks.append(
                format_series(
                    f"Fig2 model (bmax={beta_max:g}s)",
                    xs,
                    [p.model_probability for p in points],
                    "f_i",
                    "p(join)",
                )
            )
            blocks.append(
                format_series(
                    f"Fig2 sim   (bmax={beta_max:g}s)",
                    xs,
                    [p.sim_mean for p in points],
                    "f_i",
                    "p(join)",
                )
            )
        if any(self.curves.values()):
            blocks.append(f"max |model - sim| = {self.max_model_sim_gap():.3f}")
        return "\n".join(blocks)


@dataclass(frozen=True)
class Fig2Spec(ExperimentSpec):
    """Spec for Figure 2 (uses ``seeds[0]`` as the Monte-Carlo seed)."""

    beta_maxes_s: Tuple[float, ...] = (5.0, 10.0)
    fractions: Tuple[float, ...] = tuple(round(0.1 * i, 2) for i in range(1, 11))
    runs: int = 30
    trials_per_run: int = 100

    def __post_init__(self) -> None:
        if self.runs < 1 or self.trials_per_run < 1:
            raise ValueError(
                f"runs and trials_per_run must be at least 1, "
                f"got {self.runs!r} and {self.trials_per_run!r}"
            )
        if not self.fractions:
            raise ValueError("fractions must name at least one channel fraction")


@register("fig2", Fig2Spec, summary="join probability: model vs Monte-Carlo")
def run_spec(spec: Fig2Spec) -> Fig2Result:
    curves: Dict[float, List[Fig2Point]] = {}
    for beta_max in spec.beta_maxes_s:
        params = PAPER_PARAMS.with_beta_max(beta_max)
        points = []
        for fraction in spec.fractions:
            model_p = join_probability(params, fraction, TIME_IN_RANGE_S)
            sim: JoinSimResult = simulate_join_probability(
                params,
                fraction,
                TIME_IN_RANGE_S,
                runs=spec.runs,
                trials_per_run=spec.trials_per_run,
                seed=spec.seed,
            )
            points.append(
                Fig2Point(
                    fraction=fraction,
                    model_probability=model_p,
                    sim_mean=sim.mean,
                    sim_std=sim.std,
                )
            )
        curves[beta_max] = points
    return Fig2Result(curves=curves)
