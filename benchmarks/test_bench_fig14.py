"""Bench FIG14: join time vs DHCP timeout."""

from conftest import grid_spec
from repro.experiments import fig14_join_timeouts


def test_bench_fig14(benchmark, report, bench_cache):
    spec = grid_spec(fig14_join_timeouts.Fig14Spec, bench_cache)
    result = benchmark.pedantic(
        lambda: fig14_join_timeouts.run_spec(spec).unwrap(),
        rounds=1,
        iterations=1,
    )
    report("Fig 14 (join time vs dhcp timeout)", result.render())
    # Reduced timers improve the median join; multi-channel slows it.
    assert result.median("ch1, ll=100ms, dhcp=200ms, 7if") < result.median(
        "ch1, default timers, 7if"
    )
    assert result.median("3ch, default timers, 7if") > result.median(
        "ch1, default timers, 7if"
    )
