"""Monte-Carlo twin of the analytical join model (Fig. 2's validation).

The simulation makes *exactly* the same assumptions as Eq. 1-7 — one-shot
join handshake, uniform response latency, fixed request spacing, i.i.d.
message loss — but samples outcomes instead of integrating them.  Agreement
between :func:`simulate_join_probability` and
:func:`~repro.model.join_model.join_probability` internally validates the
closed form, reproducing Fig. 2.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List

from .join_model import JoinModelParams

__all__ = ["JoinSimResult", "simulate_join_probability", "simulate_join_curve"]


@dataclass
class JoinSimResult:
    """Aggregate of repeated Monte-Carlo runs."""

    mean: float
    std: float
    runs: int
    trials_per_run: int


def _single_trial(
    params: JoinModelParams, fraction: float, rounds: int, rng: random.Random
) -> bool:
    """One in-range encounter: did any request complete a join?"""
    requests = params.requests_per_round(fraction)
    if requests == 0 or rounds == 0:
        return False
    d = params.period_s
    on_window = d * fraction
    loss = params.loss_rate
    beta_min = params.beta_min_s
    beta_span = params.beta_max_s - beta_min
    # Offset of request k's response, before its latency, measured from the
    # start of round m's on-channel window (Eq. 1-2).
    offsets = [
        params.switch_delay_s + (k - 1) * params.request_spacing_s
        for k in range(1, requests + 1)
    ]
    rand = rng.random
    for m in range(1, rounds + 1):
        for offset in offsets:
            if rand() < loss or rand() < loss:  # request or response lost
                continue
            # beta_min + beta_span * rand() is random.uniform(beta_min, beta_max).
            arrival = offset + (beta_min + beta_span * rand())
            j = math.floor(arrival / d)
            if m + j > rounds:
                continue  # response lands after the encounter ends
            if arrival - j * d <= on_window:
                return True
    return False


def simulate_join_probability(
    params: JoinModelParams,
    fraction: float,
    time_in_range_s: float,
    runs: int = 100,
    trials_per_run: int = 100,
    seed: int = 0,
) -> JoinSimResult:
    """Estimate ``p(f_i, t)`` by sampling, mirroring the paper's protocol:
    each run averages ``trials_per_run`` independent encounters, and the
    reported mean/std are across ``runs`` differently-seeded runs.
    """
    if runs <= 0 or trials_per_run <= 0:
        raise ValueError("runs and trials_per_run must be positive")
    rounds = int(time_in_range_s / params.period_s)
    run_means: List[float] = []
    for run in range(runs):
        rng = random.Random(f"{seed}/{run}")
        successes = sum(
            _single_trial(params, fraction, rounds, rng)
            for _ in range(trials_per_run)
        )
        run_means.append(successes / trials_per_run)
    mean = sum(run_means) / runs
    variance = sum((x - mean) ** 2 for x in run_means) / max(runs - 1, 1)
    return JoinSimResult(
        mean=mean, std=math.sqrt(variance), runs=runs, trials_per_run=trials_per_run
    )


def simulate_join_curve(
    params: JoinModelParams,
    fractions: List[float],
    time_in_range_s: float,
    runs: int = 100,
    trials_per_run: int = 100,
    seed: int = 0,
) -> List[JoinSimResult]:
    """Convenience sweep over channel fractions (the Fig. 2 x-axis)."""
    return [
        simulate_join_probability(
            params, f, time_in_range_s, runs=runs, trials_per_run=trials_per_run, seed=seed
        )
        for f in fractions
    ]
