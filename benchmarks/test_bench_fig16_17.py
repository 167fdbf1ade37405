"""Bench FIG16-17: user demand vs Spider supply."""

from conftest import suite_spec
from repro.experiments import fig16_17_usability


def test_bench_fig16_17(benchmark, report, bench_cache):
    spec = suite_spec(fig16_17_usability.UsabilitySpec, bench_cache)
    result = benchmark.pedantic(
        lambda: fig16_17_usability.run_spec(spec).unwrap(), rounds=1, iterations=1
    )
    coverage = result.supply_covers_demand_fraction()
    report("Figs 16-17 (usability study)", result.render())
    # "Spider can support all the TCP flows that users need": the typical
    # Spider connection outlives the bulk of user flows.
    assert coverage > 0.6
