"""Telemetry determinism across process layouts.

The subsystem's transport promise (see ``repro.runner.pool``): snapshots
captured inside worker processes and merged in submission order are
bit-identical to a serial run, and a fleet trial's per-vehicle slices
partition its shared capture.  The hypothesis properties pin the merge
algebra itself — order-preserving chunking never changes the merged
result, and replica snapshots deduplicate by key.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import OperationMode
from repro.experiments.common import run_town_trials
from repro.experiments.fleet import _run_fleet
from repro.experiments.town_runs import spider_factory
from repro.obs.telemetry import Telemetry, merge_snapshots


def _spider():
    return spider_factory(OperationMode.single_channel(1), 7)


# ----------------------------------------------------------------------
# Pool workers: serial vs parallel captures
# ----------------------------------------------------------------------
class TestWorkerDeterminism:
    def test_serial_and_parallel_telemetry_agree(self):
        serial = run_town_trials(
            _spider(), "det", seeds=(0, 1), duration_s=60.0,
            workers=1, telemetry=True,
        )
        parallel = run_town_trials(
            _spider(), "det", seeds=(0, 1), duration_s=60.0,
            workers=2, telemetry=True,
        )
        for s_trial, p_trial in zip(serial.trials, parallel.trials):
            # Wall-clock profiling legitimately differs across layouts;
            # the deterministic projection must not.
            assert (
                s_trial.telemetry.deterministic()
                == p_trial.telemetry.deterministic()
            )
        assert (
            serial.merged_telemetry().deterministic()
            == parallel.merged_telemetry().deterministic()
        )


# ----------------------------------------------------------------------
# Fleet: per-vehicle slices of one shared capture
# ----------------------------------------------------------------------
class TestFleetVehicleTelemetry:
    def test_vehicle_slices_are_disjoint_by_prefix(self):
        row = _run_fleet(
            2, seed=1, duration_s=45.0, town_preset="amherst", telemetry=True
        )
        veh0, veh1 = row.vehicle_telemetry
        names0 = {c[0] for c in veh0.counters}
        names1 = {c[0] for c in veh1.counters}
        assert names0 and all(n.startswith("veh0.") for n in names0)
        assert names1 and all(n.startswith("veh1.") for n in names1)


# ----------------------------------------------------------------------
# Merge algebra properties
# ----------------------------------------------------------------------
_NAMES = ("alpha", "beta", "gamma")
_BOUNDS = (1.0, 5.0)


def _contiguous_chunks(items, count):
    """``items`` cut into at most ``count`` non-empty, order-preserving runs."""
    bounds = [len(items) * k // count for k in range(count + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:]) if a < b]


@st.composite
def _snapshots(draw, keyed: bool):
    """A small synthetic capture; integer-valued so merges are exact."""
    tele = Telemetry(
        key=("syn", draw(st.integers(0, 2**30))) if keyed else ()
    )
    for name in draw(st.lists(st.sampled_from(_NAMES), max_size=4)):
        tele.counter("c." + name).inc(draw(st.integers(0, 100)))
    for name in draw(st.lists(st.sampled_from(_NAMES), max_size=2)):
        tele.gauge("g." + name).set(draw(st.integers(0, 100)))
    for value in draw(st.lists(st.integers(0, 10), max_size=3)):
        tele.histogram("h", bounds=_BOUNDS).observe(float(value))
    for name in draw(st.lists(st.sampled_from(_NAMES), max_size=2)):
        tele.begin_span("s." + name).end()
    return tele.snapshot()


class TestMergeProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        snaps=st.lists(_snapshots(keyed=False), max_size=8),
        count=st.integers(min_value=1, max_value=5),
    )
    def test_chunked_merge_equals_flat_merge(self, snaps, count):
        """Merging per-chunk then across chunks == merging everything.

        Merging is associative over order-preserving chunks, so any
        grouping of results that keeps submission order merges to the
        same snapshot.
        """
        flat = merge_snapshots(snaps, key=("final",))
        chunks = _contiguous_chunks(snaps, count)
        chunked = merge_snapshots(
            [
                merge_snapshots(chunk, key=("chunk", i))
                for i, chunk in enumerate(chunks)
            ],
            key=("final",),
        )
        assert chunked == flat

    @settings(max_examples=60, deadline=None)
    @given(
        snaps=st.lists(
            _snapshots(keyed=True), max_size=6,
            unique_by=lambda s: s.key,
        ),
        dup_index=st.integers(min_value=0, max_value=5),
    )
    def test_replicas_never_double_count(self, snaps, dup_index):
        """Re-merging a snapshot already contributed is a no-op."""
        base = merge_snapshots(snaps, key=("final",))
        if not snaps:
            return
        replica = snaps[dup_index % len(snaps)]
        with_replica = merge_snapshots(
            snaps + [replica], key=("final",)
        )
        assert with_replica == base
