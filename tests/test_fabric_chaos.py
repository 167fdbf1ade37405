"""An interrupted sweep resumes from the cache and matches a clean run.

The chaos harness that once drove this scenario through the distributed
sweep fabric is deleted; :func:`repro.runner.run_jobs` is the only
dispatch path.  Its contract is the same: trials that finished before an
interrupt are banked in the cache, and a rerun over the same jobs replays
them as hits and yields the clean-run bytes.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest

from repro.cache import TrialCache
from repro.runner import pool
from repro.runner.pool import TrialInterrupted, TrialJob, run_jobs


def _spin(seed, marker=None):
    """Deterministic busy work; interrupts once while ``marker`` exists."""
    if marker is not None and Path(marker).exists():
        Path(marker).unlink()
        raise KeyboardInterrupt
    acc = seed & 0xFFFFFFFF
    for _ in range(200):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
    return acc


class TestChaosWithCache:
    def test_interrupted_then_resumed_sweep_matches_clean_run(
        self, tmp_path, monkeypatch
    ):
        marker = tmp_path / "interrupt-once"
        marker.touch()
        jobs = [
            TrialJob(_spin, (i, str(marker) if i == 2 else None), tag=("c", i))
            for i in range(5)
        ]
        cache = TrialCache(tmp_path / "cache", fingerprint="pin")
        with pytest.raises(TrialInterrupted) as excinfo:
            run_jobs(jobs, workers=1, cache=cache)
        assert [r is not None for r in excinfo.value.partial] == [
            True, True, False, False, False,
        ]
        assert cache.stats["stores"] == 2

        dispatched = []
        real = pool._dispatch_jobs

        def spy(batch, workers, timeout_s, retries):
            dispatched.append([job.tag for job in batch])
            return real(batch, workers, timeout_s, retries)

        monkeypatch.setattr(pool, "_dispatch_jobs", spy)
        resumed = run_jobs(jobs, workers=2, cache=cache)
        # The two banked trials replay as hits; only the rest re-run.
        assert dispatched == [[("c", 2), ("c", 3), ("c", 4)]]

        clean = run_jobs(jobs, workers=1)
        assert pickle.dumps(resumed) == pickle.dumps(clean)
