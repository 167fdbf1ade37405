"""Bench FIG15: join delay per scheduling policy."""

from conftest import grid_spec
from repro.experiments import fig15_join_policies


def test_bench_fig15(benchmark, report, bench_cache):
    spec = grid_spec(fig15_join_policies.Fig15Spec, bench_cache)
    result = benchmark.pedantic(
        lambda: fig15_join_policies.run_spec(spec).unwrap(),
        rounds=1,
        iterations=1,
    )
    report("Fig 15 (join delay per policy)", result.render())
    # Single channel with reduced timeouts is the fastest join policy.
    assert result.fastest_policy() == "ch1, ll=100ms, dhcp=200ms, 7if"
