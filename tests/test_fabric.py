"""Sweep guarantees that outlived the distributed sweep fabric.

The fabric (coordinator, leasing, HTTP workers) is deleted, and
:func:`repro.runner.run_jobs` is the only dispatch path.  The guarantees
these tests once pinned against the fabric are guarantees of that path
too, so they are kept here under their old names: an empty batch is a
no-op, any worker count yields the serial envelopes, a retried-out
failure comes back as the serial envelope, a warm cache replays a sweep
without dispatching it, and distinct tags never share a cache entry.
"""

from __future__ import annotations

import pickle

from repro.cache import TrialCache
from repro.runner import pool
from repro.runner.pool import TrialJob, TrialResult, run_jobs


def _double(x):
    return 2 * x


def _fail(x):
    raise ValueError(f"boom {x}")


def _jobs(n):
    return [TrialJob(_double, (i,), tag=("t", i)) for i in range(n)]


def _counting_dispatch(monkeypatch):
    """Record how many jobs reach the pool on each dispatch."""
    dispatched = []
    real = pool._dispatch_jobs

    def spy(jobs, workers, timeout_s, retries):
        dispatched.append(len(jobs))
        return real(jobs, workers, timeout_s, retries)

    monkeypatch.setattr(pool, "_dispatch_jobs", spy)
    return dispatched


class TestRetryAndQuarantine:
    def test_quarantine_envelope_matches_serial(self):
        # A job that fails every attempt is quarantined with the same
        # envelope whether the pool or the serial path ran it.
        jobs = [TrialJob(_fail, (3,), tag=("t", 3)), TrialJob(_double, (4,), tag=("t", 4))]
        serial = run_jobs(jobs, workers=1, retries=1)
        parallel = run_jobs(jobs, workers=2, retries=1)
        assert serial[0] == TrialResult(
            ok=False, error="ValueError: boom 3", attempts=2, tag=("t", 3)
        )
        assert pickle.dumps(parallel) == pickle.dumps(serial)


class TestDedupeAndCache:
    def test_different_tags_do_not_dedupe(self, tmp_path, monkeypatch):
        # The content address covers the whole job, tag included.
        cache = TrialCache(tmp_path, fingerprint="pin")
        same = TrialJob(_double, (5,), tag=("a", 5))
        other = TrialJob(_double, (5,), tag=("b", 5))
        assert cache.key_for(same) == cache.key_for(TrialJob(_double, (5,), tag=("a", 5)))
        assert cache.key_for(same) != cache.key_for(other)

        dispatched = _counting_dispatch(monkeypatch)
        results = run_jobs([same, other], workers=1, cache=cache)
        assert dispatched == [2]  # both ran; neither was served from the other
        assert [r.tag for r in results] == [("a", 5), ("b", 5)]
        assert cache.stats["hits"] == 0

    def test_cache_hit_resumes_without_leasing(self, tmp_path, monkeypatch):
        cache = TrialCache(tmp_path, fingerprint="pin")
        finished = run_jobs(_jobs(2), workers=1, cache=cache)
        # A restarted sweep (fresh cache handle, same directory) resumes
        # from cache hits: nothing reaches the pool.
        dispatched = _counting_dispatch(monkeypatch)
        resumed_cache = TrialCache(tmp_path, fingerprint="pin")
        resumed = run_jobs(_jobs(2), workers=2, cache=resumed_cache)
        assert dispatched == []
        assert resumed == finished
        assert resumed_cache.stats["hits"] == 2


class TestInProcessFabric:
    def test_matches_serial_without_chaos(self):
        serial = run_jobs(_jobs(5), workers=1)
        parallel = run_jobs(_jobs(5), workers=3)
        assert [r.value for r in serial] == [0, 2, 4, 6, 8]
        assert pickle.dumps(parallel) == pickle.dumps(serial)

    def test_empty_batch(self, tmp_path):
        assert run_jobs([]) == []
        assert run_jobs([], workers=2) == []
        assert run_jobs([], cache=TrialCache(tmp_path, fingerprint="pin")) == []
