"""Unit tests for the CI bench-regression gate and the BENCH_perf merge."""

from __future__ import annotations

import importlib.metadata
import importlib.util
import json
import os
import platform
from pathlib import Path

import pytest

_BENCHMARKS = Path(__file__).parent.parent / "benchmarks"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, _BENCHMARKS / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = _load("check_perf_regression", "check_perf_regression.py")
bench_conftest = _load("bench_conftest", "conftest.py")


def payload(**rates):
    return {
        "schema": 1,
        "results": {
            name: {"events_per_sec": value, "wall_s": 1.0}
            for name, value in rates.items()
        },
    }


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestIterRates:
    def test_extracts_all_rate_fields(self):
        data = {
            "results": {
                "a": {"events_per_sec": 10.0, "wall_s": 2.0},
                "b": {"serial_events_per_sec": 5.0},
                "c": {"speedup": 2.0},
            }
        }
        # Speedup ratios are gateable (so --strict can pin them) but the
        # default compare() sweep skips them — see the strict-only tests.
        assert dict(check.iter_rates(data)) == {
            "a.events_per_sec": 10.0,
            "b.serial_events_per_sec": 5.0,
            "c.speedup": 2.0,
        }

    def test_speedup_skipped_by_default_sweep(self):
        data = {"results": {"c": {"speedup": 2.0}}}
        passed, regressed = check.compare(
            data, {"results": {"c": {"speedup": 1.0}}}, threshold=0.10
        )
        assert not passed and not regressed

    def test_speedup_gated_when_pinned_strict(self):
        base = {"results": {"c": {"speedup": 2.0}}}
        cur = {"results": {"c": {"speedup": 1.0}}}
        passed, regressed = check.compare(
            base, cur, threshold=0.10, strict={"c.speedup": 0.2}
        )
        assert "c.speedup" in regressed and not passed

    def test_ignores_non_dict_results(self):
        assert dict(check.iter_rates({"results": {"a": 3}})) == {}


class TestCompare:
    def test_within_threshold_passes(self):
        passed, regressed = check.compare(
            payload(x=100.0), payload(x=95.0), threshold=0.10
        )
        assert "x.events_per_sec" in passed and not regressed

    def test_drop_beyond_threshold_regresses(self):
        passed, regressed = check.compare(
            payload(x=100.0), payload(x=85.0), threshold=0.10
        )
        assert "x.events_per_sec" in regressed and not passed

    def test_improvement_passes(self):
        passed, regressed = check.compare(
            payload(x=100.0), payload(x=180.0), threshold=0.10
        )
        assert passed["x.events_per_sec"][2] == pytest.approx(1.8)

    def test_unshared_metrics_not_compared(self):
        passed, regressed = check.compare(
            payload(x=100.0), payload(y=1.0), threshold=0.10
        )
        assert not passed and not regressed


class TestMain:
    def test_exit_zero_when_no_regression(self, tmp_path, capsys):
        base = write(tmp_path, "base.json", payload(x=100.0, y=50.0))
        cur = write(tmp_path, "cur.json", payload(x=120.0, y=49.0))
        assert check.main([base, cur]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        base = write(tmp_path, "base.json", payload(x=100.0))
        cur = write(tmp_path, "cur.json", payload(x=80.0))
        assert check.main([base, cur]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_exit_two_when_nothing_shared(self, tmp_path, capsys):
        base = write(tmp_path, "base.json", payload(x=100.0))
        cur = write(tmp_path, "cur.json", payload(y=80.0))
        assert check.main([base, cur]) == 2

    def test_threshold_flag(self, tmp_path):
        base = write(tmp_path, "base.json", payload(x=100.0))
        cur = write(tmp_path, "cur.json", payload(x=80.0))
        assert check.main([base, cur, "--threshold", "0.25"]) == 0

    def test_strict_gate_tightens_one_metric(self, tmp_path):
        base = write(tmp_path, "base.json", payload(x=100.0, y=100.0))
        cur = write(tmp_path, "cur.json", payload(x=95.0, y=95.0))
        assert check.main([base, cur]) == 0
        assert (
            check.main([base, cur, "--strict", "y.events_per_sec:0.02"]) == 1
        )

    def test_unknown_strict_gate_is_a_config_error(self, tmp_path, capsys):
        base = write(tmp_path, "base.json", payload(x=100.0))
        cur = write(tmp_path, "cur.json", payload(x=100.0))
        rc = check.main([base, cur, "--strict", "bogus.events_per_sec:0.02"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown gate(s) bogus.events_per_sec" in err
        assert "x.events_per_sec" in err  # tells you what exists


class TestList:
    def test_list_prints_gates_and_baselines(self, tmp_path, capsys):
        base = write(tmp_path, "base.json", payload(x=100.0, y=50.0))
        assert check.main(["--list", base]) == 0
        out = capsys.readouterr().out
        assert "x.events_per_sec" in out and "y.events_per_sec" in out
        assert "100.0" in out and "50.0" in out

    def test_list_needs_no_current_file(self, tmp_path):
        base = write(tmp_path, "base.json", payload(x=100.0))
        assert check.main(["--list", base]) == 0

    def test_list_exit_two_when_no_gates(self, tmp_path, capsys):
        base = write(tmp_path, "base.json", {"results": {}})
        assert check.main(["--list", base]) == 2
        assert "no events/sec gates" in capsys.readouterr().err

    def test_missing_current_without_list_errors(self, tmp_path, capsys):
        base = write(tmp_path, "base.json", payload(x=100.0))
        with pytest.raises(SystemExit) as excinfo:
            check.main([base])
        assert excinfo.value.code == 2


class TestMergePerfResults:
    """``merge_perf_results`` keeps other benches' entries, not the old host."""

    def test_stale_host_stamp_is_refreshed(self, tmp_path, monkeypatch):
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps({
            "schema": 1,
            "cpu_count": 1,
            "python": "2.7.18",
            "numpy": "0.0.1",
            "bench_seeds": 2,
            "results": {"old": {"wall_s": 1.0}},
        }))
        monkeypatch.setattr(bench_conftest, "_BENCH_PERF_PATH", path)
        bench_conftest.merge_perf_results(
            {"new": {"wall_s": 2.0}}, bench_seeds=1
        )
        merged = json.loads(path.read_text())
        try:
            numpy = importlib.metadata.version("numpy")
        except importlib.metadata.PackageNotFoundError:
            numpy = None
        assert merged["cpu_count"] == os.cpu_count()
        assert merged["python"] == platform.python_version()
        assert merged["numpy"] == numpy
        assert merged["bench_seeds"] == 1
        assert merged["schema"] == 1
        assert merged["results"] == {
            "new": {"wall_s": 2.0},
            "old": {"wall_s": 1.0},
        }
