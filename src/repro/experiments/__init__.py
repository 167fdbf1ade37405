"""One module per paper table/figure, plus shared harnesses.

Each module exposes one entry point, ``run_spec(spec) -> TrialResult`` —
the spec→result contract defined in :mod:`repro.experiments.api` — and
``python -m repro <name>`` runs it from the shell.  Results are structured
data with a ``render()`` method that prints the rows/series the paper
reports plus the paper's claims about them; specs carry the shared
vocabulary (seeds, duration, town, workers, run options) so the benchmark
harness and the CLI can trade accuracy for time uniformly.

Importing this package registers every experiment in
:data:`repro.experiments.api.REGISTRY` (registration happens at module
import, in the order below).  Experiments that read the same drives share
them through the trial cache (``python -m repro table2 --cache`` then
``python -m repro fig11-13 --cache`` replays the Table 2 drives).
"""

from . import api
from . import (
    ap_density,
    appendix_knapsack,
    channel_assign,
    common,
    dense_town,
    fig2_join_validation,
    fig3_beta_sensitivity,
    fig4_optimal_schedule,
    fig5_association,
    fig6_dhcp,
    fig7_tcp_fraction,
    fig8_tcp_dwell,
    fig10_micro,
    fig11_13_cdfs,
    fig14_join_timeouts,
    fig15_join_policies,
    fig16_17_usability,
    fault_sweep,
    fleet,
    speed_sweep,
    table1_switch_latency,
    table2_configs,
    table3_dhcp_failures,
    table4_channels,
    timeout_grid,
    town_runs,
    transport_matrix,
)

__all__ = [
    "api",
    "ap_density",
    "appendix_knapsack",
    "channel_assign",
    "common",
    "dense_town",
    "fig2_join_validation",
    "fig3_beta_sensitivity",
    "fig4_optimal_schedule",
    "fig5_association",
    "fig6_dhcp",
    "fig7_tcp_fraction",
    "fig8_tcp_dwell",
    "fig10_micro",
    "fig11_13_cdfs",
    "fig14_join_timeouts",
    "fig15_join_policies",
    "fig16_17_usability",
    "fault_sweep",
    "fleet",
    "speed_sweep",
    "table1_switch_latency",
    "table2_configs",
    "table3_dhcp_failures",
    "table4_channels",
    "timeout_grid",
    "town_runs",
    "transport_matrix",
]
