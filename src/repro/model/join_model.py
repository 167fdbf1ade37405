"""The paper's analytical join model (§2.1.1, Eq. 1-7).

A mobile node is in range of an AP on channel *i* for ``t ≈ s·D`` seconds
and spends a fraction ``f_i`` of every scheduling period ``D`` on that
channel.  Joining succeeds when a join *request* (sent every ``c`` seconds
while on-channel, after the switching delay ``w``) has its *response* —
whose latency is uniform on ``[βmin, βmax]`` — arrive while the node is
back on the channel.  Messages are independently lost with probability
``h``, so a request/response pair survives with probability ``(1-h)²``.

The public surface mirrors the equations:

* :func:`q_segment` — Eq. 5, the success probability of the request sent in
  segment ``k`` of round ``m`` being answered within round ``n``.
* :func:`q_round_pair` — Eq. 6, the probability that *no* request from
  round ``m`` completes in round ``n`` on a lossy channel.
* :func:`join_probability` — Eq. 7, ``p(f_i, t)``.
* :func:`expected_join_fraction` — the normalized ``E[X_i]`` the
  optimization framework consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List

__all__ = [
    "JoinModelParams",
    "q_segment",
    "q_round_pair",
    "join_probability",
    "join_probability_series",
    "expected_join_fraction",
]


@dataclass(frozen=True)
class JoinModelParams:
    """Model constants, with the paper's defaults.

    ``period_s`` is ``D``; ``switch_delay_s`` is ``w``; ``request_spacing_s``
    is ``c``; ``beta_min_s``/``beta_max_s`` bound the AP response time; and
    ``loss_rate`` is ``h``.
    """

    period_s: float = 0.5
    switch_delay_s: float = 7.0e-3
    request_spacing_s: float = 0.1
    beta_min_s: float = 0.5
    beta_max_s: float = 10.0
    loss_rate: float = 0.1

    def __post_init__(self) -> None:
        if self.period_s <= 0 or self.request_spacing_s <= 0:
            raise ValueError("period_s and request_spacing_s must be positive")
        if self.switch_delay_s < 0:
            raise ValueError("switch_delay_s must be non-negative")
        if not 0 <= self.loss_rate < 1:
            raise ValueError(f"loss_rate must be in [0, 1): {self.loss_rate!r}")
        if self.beta_min_s < 0 or self.beta_max_s < self.beta_min_s:
            raise ValueError("need 0 <= beta_min_s <= beta_max_s")

    def with_beta_max(self, beta_max_s: float) -> "JoinModelParams":
        """Copy of the parameters with a different beta_max."""
        return replace(self, beta_max_s=beta_max_s)

    def requests_per_round(self, fraction: float) -> int:
        """Number of request segments per round, ``⌈(D·f_i - w)/c⌉`` (Eq. 6)."""
        usable = self.period_s * fraction - self.switch_delay_s
        if usable <= 0:
            return 0
        return int(math.ceil(usable / self.request_spacing_s - 1e-12))


def q_segment(params: JoinModelParams, fraction: float, m: int, n: int, k: int) -> float:
    """Eq. 5: probability the round-``m`` segment-``k`` request completes in
    round ``n`` of a lossless channel.

    The request's completion time ``k·c + β`` is uniform on
    ``[α_k^min, α_k^max]``; success requires it to land inside
    ``[δ_{m,n}^min, δ_{m,n}^max]`` — the on-channel window of round ``n``.
    """
    if n < m or k < 1:
        return 0.0
    c = params.request_spacing_s
    alpha_min = k * c + params.beta_min_s
    alpha_max = k * c + params.beta_max_s
    delta_min = (n - m) * params.period_s + c - params.switch_delay_s
    delta_max = (n - m + fraction) * params.period_s + c - params.switch_delay_s
    if delta_min > alpha_max or delta_max < alpha_min:
        return 0.0
    if alpha_max == alpha_min:  # degenerate uniform: a point mass
        return 1.0 if delta_min <= alpha_min <= delta_max else 0.0
    overlap = min(alpha_max, delta_max) - max(alpha_min, delta_min)
    return max(overlap, 0.0) / (alpha_max - alpha_min)


def q_round_pair(params: JoinModelParams, fraction: float, m: int, n: int) -> float:
    """Eq. 6: probability that no round-``m`` request joins in round ``n``."""
    survive = (1.0 - params.loss_rate) ** 2
    product = 1.0
    for k in range(1, params.requests_per_round(fraction) + 1):
        product *= 1.0 - q_segment(params, fraction, m, n, k) * survive
    return product


def join_probability(params: JoinModelParams, fraction: float, time_in_range_s: float) -> float:
    """Eq. 7: ``p(f_i, t)`` — at least one lease within ``t`` seconds."""
    return join_probability_series(params, fraction, time_in_range_s)[-1]


def join_probability_series(
    params: JoinModelParams, fraction: float, time_in_range_s: float
) -> List[float]:
    """``p(f_i, r·D)`` for r = 0..⌊t/D⌋, computed incrementally.

    Index ``r`` of the returned list is the join probability after ``r``
    complete rounds; index 0 is always 0.

    Eq. 5 depends on rounds ``m`` and ``n`` only through their gap, so
    ``q(m, n) = Q(n - m)``.  Round ``r`` therefore multiplies the no-join
    product by ``C_r = Q(0)·…·Q(r-1) = C_{r-1}·Q(r-1)``, and the series
    costs one :func:`q_round_pair` per round: O(rounds·K) ``q_segment``
    calls for ``K`` requests per round.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1]: {fraction!r}")
    if not 0.0 <= time_in_range_s < math.inf:
        raise ValueError(
            f"time_in_range_s must be finite and non-negative: {time_in_range_s!r}"
        )
    rounds = int(time_in_range_s / params.period_s)
    series = [0.0]
    no_join = 1.0  # Π q(m, n, h) over all pairs m <= n <= r
    newest = 1.0  # C_r: Π q(m, r, h) over m <= r, the pairs ending in round r
    for r in range(1, rounds + 1):
        newest *= q_round_pair(params, fraction, 1, r)
        no_join *= newest
        series.append(1.0 - no_join)
    return series


def expected_join_fraction(
    params: JoinModelParams, fraction: float, time_in_range_s: float
) -> float:
    """Normalized ``E[X_i]``: the expected fraction of the encounter during
    which the node is already joined.

    The paper (§2.1.3) writes ``E[X_i] = Σ_t p(f_i, t)``, which integrates
    the join CDF over the encounter; dividing by ``T`` normalizes it to the
    joined-time fraction used in constraint Eq. 9 (so an AP joined
    instantly contributes its full offered bandwidth, and one never joined
    contributes none).
    """
    if time_in_range_s <= 0:
        return 0.0
    series = join_probability_series(params, fraction, time_in_range_s)
    if len(series) <= 1:
        return 0.0
    # Trapezoid over the per-round CDF samples, normalized by the horizon.
    total = 0.0
    for left, right in zip(series[:-1], series[1:]):
        total += 0.5 * (left + right) * params.period_s
    return min(total / time_in_range_s, 1.0)
