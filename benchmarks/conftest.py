"""Benchmark-suite fixtures and result reporting.

Every benchmark regenerates one paper table/figure and registers its
rendered rows/series through the ``report`` fixture; the terminal summary
prints them all after the timing table, and a copy lands in
``benchmarks/output/`` so ``bench_output.txt`` runs are self-contained.

Scale knobs (environment variables):

``REPRO_BENCH_SEEDS``      number of seeds for town runs (default 2)
``REPRO_BENCH_DURATION``   seconds of simulated driving per trial (default 600)
``REPRO_BENCH_WORKERS``    worker processes for trial fan-out (default 1 =
                           serial; 0 = one per core).  Results are merged
                           deterministically, so any worker count produces
                           the same tables.
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
from pathlib import Path
from typing import Dict

import pytest

_REPORTS: Dict[str, str] = {}
_OUTPUT_DIR = Path(__file__).parent / "output"
_BENCH_PERF_PATH = Path(__file__).parent.parent / "BENCH_perf.json"


def bench_seeds() -> tuple:
    return tuple(range(int(os.environ.get("REPRO_BENCH_SEEDS", "2"))))


def bench_duration() -> float:
    return float(os.environ.get("REPRO_BENCH_DURATION", "600"))


def bench_workers() -> int:
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
    return workers if workers > 0 else (os.cpu_count() or 1)


def _host_stamp() -> dict:
    """The host a bench ran on: cores, Python and numpy (``None`` if absent)."""
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
    }


def merge_perf_results(results: Dict[str, dict], **meta) -> None:
    """Merge entries into ``BENCH_perf.json`` without clobbering others.

    Several bench modules contribute to the same file (the perf harness,
    the fault sweep); each merges its own keys so partial runs — e.g. CI
    jobs running a single module — still leave every other module's
    numbers in place.  The host stamp is rewritten on every merge, so it
    names the host of the latest run rather than the one that created the
    file.
    """
    payload: dict = {"schema": 1}
    if _BENCH_PERF_PATH.exists():
        try:
            payload = json.loads(_BENCH_PERF_PATH.read_text())
        except ValueError:
            pass
    merged = dict(payload.pop("results", {}))
    merged.update(results)
    payload.update(_host_stamp())
    payload.update(meta)
    payload["results"] = {key: merged[key] for key in sorted(merged)}
    _BENCH_PERF_PATH.write_text(json.dumps(payload, indent=2) + "\n")


@pytest.fixture
def report():
    """Register a rendered experiment output under a label."""

    def _register(label: str, text: str) -> None:
        _REPORTS[label] = text
        _OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
        safe = label.replace("/", "_").replace(" ", "_").lower()
        (_OUTPUT_DIR / f"{safe}.txt").write_text(text + "\n")

    return _register


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.section("paper tables & figures (reproduced)")
    for label in sorted(_REPORTS):
        terminalreporter.write_line("")
        terminalreporter.write_line(f"===== {label} =====")
        for line in _REPORTS[label].splitlines():
            terminalreporter.write_line(line)


# ----------------------------------------------------------------------
# Shared drives (one fresh trial cache per session)
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def bench_cache(tmp_path_factory):
    """Spec fields that share drives between benches via the trial cache.

    Table 2, Figs. 11-13 and Figs. 16-17 build identical trial specs for
    the configurations they share, as do Table 3 and Figs. 14-15, so the
    first bench of each group simulates the drives and the rest replay
    them.  The directory is new every session: no entry from older code
    is ever read.  The session's hit/miss line joins the terminal summary.
    """
    from repro.cache import resolve_cache

    cache_dir = str(tmp_path_factory.mktemp("bench_cache"))
    yield dict(cache=True, cache_dir=cache_dir)
    _REPORTS["trial cache"] = resolve_cache(True, cache_dir).describe()


def suite_spec(spec_cls, bench_cache, **fields):
    """A spec at bench scale for the Table 2 configuration drives."""
    return spec_cls(
        seeds=bench_seeds(),
        duration_s=bench_duration(),
        workers=bench_workers(),
        **bench_cache,
        **fields,
    )


def grid_spec(spec_cls, bench_cache, **fields):
    """A spec at bench scale for the join-timeout grid drives."""
    return spec_cls(
        seeds=bench_seeds(),
        duration_s=min(bench_duration(), 420.0),
        workers=bench_workers(),
        **bench_cache,
        **fields,
    )
