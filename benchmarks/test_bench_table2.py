"""Bench TAB2: average throughput and connectivity per configuration."""

from conftest import suite_spec
from repro.experiments import table2_configs
from repro.experiments.town_runs import (
    CONFIG_CH1_MULTI_AP,
    CONFIG_CH6_SINGLE_AP_CAMBRIDGE,
    CONFIG_MULTI_CH_MULTI_AP,
    CONFIG_STOCK,
)


def test_bench_table2(benchmark, report, bench_cache):
    spec = suite_spec(table2_configs.Table2Spec, bench_cache)
    result = benchmark.pedantic(
        lambda: table2_configs.run_spec(spec).unwrap(), rounds=1, iterations=1
    )
    rows = result.by_label()
    gain = result.multi_ap_gain()
    cambridge = rows[CONFIG_CH6_SINGLE_AP_CAMBRIDGE].throughput_kBps
    cabernet = table2_configs.CABERNET_THROUGHPUT_KBPS
    report("Table 2 (throughput & connectivity)", result.render())
    # Headline orderings of the paper.
    assert result.best_connectivity_label() == CONFIG_MULTI_CH_MULTI_AP
    assert rows[CONFIG_CH1_MULTI_AP].throughput_kBps > rows[CONFIG_STOCK].throughput_kBps
    assert gain > 1.15
    assert cambridge > 4.0 * cabernet
