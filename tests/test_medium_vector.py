"""Unit tests for the vectorized delivery index (``repro.sim.medium_vec``).

The medium puts an array-backed candidate prefilter in front of its
delivery scan.  These tests pin its contract at the unit level: the
vector path is the default wherever numpy imports, the graceful scalar
fallback (and its obs counter) when numpy is missing, the constructor's
non-finite parameter validation, and — most importantly — byte-identical
delivery traces between the scalar and vectorized paths across every
candidate-selection regime (static bins, cached broadcast tables, mobile
snapshots, the unbounded-mobility escape, and AP fail/recover cycles).
Whole-trial A/B determinism lives in ``tests/test_vector_determinism``.
"""

from __future__ import annotations

import math

import pytest

from repro.obs.telemetry import Telemetry
from repro.sim import medium_vec, radio
from repro.sim.engine import Simulator
from repro.sim.frames import BROADCAST, Frame, FrameKind
from repro.sim.medium_vec import SNAPSHOT_MIN_MOBILES, argsort_scan, make_index
from repro.sim.mobility import (
    LinearMobility,
    LoopMobility,
    StaticPosition,
    VariableSpeedLoopMobility,
)
from repro.sim.radio import Medium


class RecordingStation:
    """Mobile station that records what arrives and when."""

    max_speed_mps = 0.0

    def __init__(self, station_id, x=0.0, y=0.0, channel=1):
        self.station_id = station_id
        self.x, self.y = x, y
        self.channel = channel
        self.sim = None
        self.received = []

    def position(self):
        return (self.x, self.y)

    def tuned_channel(self):
        return self.channel

    def accepts(self, dst):
        return dst == self.station_id

    def on_frame(self, frame, rssi):
        self.received.append((frame.src, frame.kind, frame.size, rssi, self.sim.now))


class StaticStation(RecordingStation):
    """Static station (binned like an AP; accepts only its own id)."""

    is_static = True
    accepts_only_own_id = True


class MovingStation(RecordingStation):
    """Mobile station drifting along x at a declared speed bound."""

    def __init__(self, station_id, x=0.0, y=0.0, channel=1, speed_mps=5.0):
        super().__init__(station_id, x=x, y=y, channel=channel)
        self.speed_mps = speed_mps
        self.max_speed_mps = speed_mps

    def position(self):
        return (self.x + self.speed_mps * self.sim.now, self.y)


class UnboundedStation(RecordingStation):
    """Mobile station with no usable speed bound (snapshot escape hatch)."""

    max_speed_mps = None


def mgmt_frame(src, dst, channel=1, size=80):
    return Frame(kind=FrameKind.BEACON, src=src, dst=dst, size=size, channel=channel)


def data_frame(src, dst, channel=1, size=200):
    return Frame(kind=FrameKind.DATA, src=src, dst=dst, size=size, channel=channel)


def trace_of(stations):
    return {s.station_id: s.received for s in stations}


class TestEnvironmentToggle:
    """The install environment picks the path: vectorized when numpy imports."""

    def test_default_is_vectorized(self):
        pytest.importorskip("numpy")
        assert Medium(Simulator(seed=0)).vector_delivery


class TestNumpyFallback:
    def test_make_index_returns_none_without_numpy(self, monkeypatch):
        monkeypatch.setattr(medium_vec, "_np", None)
        assert make_index(Medium(Simulator(seed=0), vector_delivery=False)) is None

    def test_medium_falls_back_to_scalar(self, monkeypatch):
        monkeypatch.setattr(medium_vec, "_np", None)
        medium = Medium(Simulator(seed=0), vector_delivery=True)
        assert not medium.vector_delivery
        assert medium._vec is None

    def test_fallback_increments_obs_counter(self, monkeypatch):
        monkeypatch.setattr(medium_vec, "_np", None)
        tele = Telemetry(enabled=True)
        Medium(Simulator(seed=0, telemetry=tele), vector_delivery=True)
        assert tele.counter("medium.vector_fallbacks").value == 1

    def test_counter_stays_zero_when_vector_engages(self):
        pytest.importorskip("numpy")
        tele = Telemetry(enabled=True)
        medium = Medium(Simulator(seed=0, telemetry=tele), vector_delivery=True)
        assert medium.vector_delivery
        assert tele.counter("medium.vector_fallbacks").value == 0

    def test_counter_is_nondeterministic(self):
        """The fallback count reflects installed packages, not the seed, so
        it must stay out of the deterministic telemetry projection."""
        tele = Telemetry(enabled=True)
        Medium(Simulator(seed=0, telemetry=tele), vector_delivery=False)
        names = [name for name, _ in tele.snapshot().counters]
        assert "medium.vector_fallbacks" not in names

    def test_argsort_scan_returns_none_without_numpy(self, monkeypatch):
        monkeypatch.setattr(medium_vec, "_np", None)
        assert argsort_scan([1.0, 2.0], ["a", "b"]) is None


class TestConstructorValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_loss_rate(self, bad):
        with pytest.raises(ValueError, match="loss_rate"):
            Medium(Simulator(seed=0), loss_rate=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_bad_data_rate(self, bad):
        with pytest.raises(ValueError, match="data_rate_bps"):
            Medium(Simulator(seed=0), data_rate_bps=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -5.0])
    def test_rejects_bad_range(self, bad):
        with pytest.raises(ValueError, match="range_m"):
            Medium(Simulator(seed=0), range_m=bad)


pytestmark_numpy = pytest.mark.skipif(
    medium_vec._np is None, reason="vector path requires numpy"
)


@pytestmark_numpy
class TestVectorScalarEquivalence:
    """Scalar and vectorized delivery must be byte-identical.

    ``VECTOR_MIN_STATIONS`` is pinned to 0 so the vector path engages on
    these small, hand-auditable worlds; the ``loss_rate`` is non-zero in
    most cases so any divergence in candidate *order* (not just the set)
    desynchronizes the loss stream and shows up as a trace mismatch.
    """

    @pytest.fixture(autouse=True)
    def _engage_vector_everywhere(self, monkeypatch):
        monkeypatch.setattr(radio, "VECTOR_MIN_STATIONS", 0)

    def _run(self, vector, populate, drive, seed=7, loss_rate=0.3):
        sim = Simulator(seed=seed)
        medium = Medium(sim, loss_rate=loss_rate, vector_delivery=vector)
        stations = populate(sim, medium)
        drive(sim, medium, stations)
        sim.run(until=5.0)
        return trace_of(stations), medium.frames_delivered, medium.frames_lost

    def _assert_identical(self, populate, drive, **kwargs):
        scalar = self._run(False, populate, drive, **kwargs)
        vector = self._run(True, populate, drive, **kwargs)
        assert scalar == vector
        return vector

    def test_static_broadcast_and_unicast(self):
        def populate(sim, medium):
            stations = [
                StaticStation(f"ap{i}", x=20.0 * i, channel=1) for i in range(10)
            ]
            sender = RecordingStation("veh", x=50.0)
            for s in stations + [sender]:
                s.sim = sim
                medium.register(s)
            return stations + [sender]

        def drive(sim, medium, stations):
            sender = stations[-1]
            medium.transmit(sender, mgmt_frame("veh", BROADCAST))
            medium.transmit(sender, data_frame("veh", "ap3"))
            medium.transmit(sender, data_frame("veh", "ap9"))  # out of range

        trace, delivered, _lost = self._assert_identical(populate, drive)
        assert delivered or any(trace.values())  # the world is not degenerate

    def test_broadcast_from_static_uses_cached_table(self):
        """Repeat beacons from the same AP hit the cached receiver table;
        the cache must not change what arrives or when."""

        def populate(sim, medium):
            aps = [StaticStation(f"ap{i}", x=15.0 * i) for i in range(9)]
            for ap in aps:
                ap.sim = sim
                medium.register(ap)
            return aps

        def drive(sim, medium, stations):
            for _ in range(4):
                medium.transmit(stations[2], mgmt_frame("ap2", BROADCAST))

        trace, _d, _l = self._assert_identical(populate, drive)
        assert any(trace.values())

    def test_mixed_static_mobile_registration_order(self):
        """Interleaved static/mobile registration: survivors must merge in
        registration-sequence order so loss draws line up."""

        def populate(sim, medium):
            stations = []
            for i in range(12):
                cls = StaticStation if i % 2 == 0 else RecordingStation
                s = cls(f"s{i}", x=8.0 * i)
                s.sim = sim
                medium.register(s)
                stations.append(s)
            return stations

        def drive(sim, medium, stations):
            for _ in range(6):
                medium.transmit(stations[5], mgmt_frame("s5", BROADCAST))

        self._assert_identical(populate, drive)

    def test_ap_fail_recover_cycle(self):
        """Unregister + re-register (AP fault injection) keeps the two
        paths in lockstep — re-registration assigns a fresh sequence
        number, which both paths must honour."""

        def populate(sim, medium):
            aps = [StaticStation(f"ap{i}", x=10.0 * i) for i in range(10)]
            veh = RecordingStation("veh", x=40.0)
            for s in aps + [veh]:
                s.sim = sim
                medium.register(s)

            def fail_recover():
                medium.unregister("ap4")
                sim.schedule(1.0, lambda: (medium.register(aps[4])))

            sim.schedule(1.0, fail_recover)
            return aps + [veh]

        def drive(sim, medium, stations):
            veh = stations[-1]
            for k in range(8):
                sim.schedule(0.5 * k, medium.transmit, veh, mgmt_frame("veh", BROADCAST))

        self._assert_identical(populate, drive)

    def test_snapshot_path_with_moving_fleet(self):
        """More than ``SNAPSHOT_MIN_MOBILES`` moving stations engage the
        snapshot + per-sender candidate cache; drift across the slack
        budget forces rebuilds mid-run."""

        def populate(sim, medium):
            fleet = [
                MovingStation(f"veh{i}", x=30.0 * i, speed_mps=10.0)
                for i in range(SNAPSHOT_MIN_MOBILES + 4)
            ]
            for s in fleet:
                s.sim = sim
                medium.register(s)
            return fleet

        def drive(sim, medium, stations):
            for k in range(10):
                sender = stations[k % len(stations)]
                sim.schedule(
                    0.45 * k,
                    lambda s=sender: medium.transmit(
                        s, mgmt_frame(s.station_id, BROADCAST)
                    ),
                )

        trace, delivered, _lost = self._assert_identical(populate, drive)
        assert delivered > 0

    def test_unbounded_mobile_disables_snapshot(self):
        """One station without a speed bound poisons the snapshot for its
        membership generation; the exact scan must still match scalar."""

        def populate(sim, medium):
            fleet = [
                MovingStation(f"veh{i}", x=25.0 * i, speed_mps=8.0)
                for i in range(SNAPSHOT_MIN_MOBILES + 2)
            ]
            fleet.append(UnboundedStation("ghost", x=10.0))
            for s in fleet:
                s.sim = sim
                medium.register(s)
            return fleet

        def drive(sim, medium, stations):
            for k in range(6):
                sim.schedule(
                    0.5 * k,
                    lambda s=stations[0]: medium.transmit(
                        s, mgmt_frame(s.station_id, BROADCAST)
                    ),
                )

        self._assert_identical(populate, drive)

    def test_unicast_between_mobiles(self):
        def populate(sim, medium):
            fleet = [
                MovingStation(f"veh{i}", x=12.0 * i, speed_mps=3.0)
                for i in range(SNAPSHOT_MIN_MOBILES + 2)
            ]
            for s in fleet:
                s.sim = sim
                medium.register(s)
            return fleet

        def drive(sim, medium, stations):
            for k in range(5):
                sim.schedule(
                    0.4 * k,
                    lambda: medium.transmit(stations[0], data_frame("veh0", "veh3")),
                )

        self._assert_identical(populate, drive)

    def test_cross_channel_isolation(self):
        def populate(sim, medium):
            stations = []
            for chan in (1, 6, 11):
                for i in range(4):
                    s = StaticStation(f"ap{chan}_{i}", x=20.0 * i, channel=chan)
                    s.sim = sim
                    medium.register(s)
                    stations.append(s)
            return stations

        def drive(sim, medium, stations):
            medium.transmit(stations[0], mgmt_frame("ap1_0", BROADCAST, channel=1))
            medium.transmit(stations[4], mgmt_frame("ap6_0", BROADCAST, channel=6))

        trace, _d, _l = self._assert_identical(populate, drive, loss_rate=0.0)
        # No cross-channel leakage: receivers only hear their own channel.
        for sid, received in trace.items():
            chan = sid.split("_")[0]
            assert all(src.startswith(chan) for src, *_ in received)

    def test_exact_range_boundary(self):
        """A receiver exactly at ``range_m`` is in range on both paths
        (the prefilter margin must not flip the boundary case)."""

        def populate(sim, medium):
            aps = [StaticStation(f"ap{i}", x=100.0 + i * 300.0) for i in range(8)]
            edge = StaticStation("edge", x=100.0)  # exactly range_m from sender
            veh = RecordingStation("veh", x=0.0)
            for s in aps + [edge, veh]:
                s.sim = sim
                medium.register(s)
            return aps + [edge, veh]

        def drive(sim, medium, stations):
            medium.transmit(stations[-1], mgmt_frame("veh", BROADCAST))

        trace, _d, _l = self._assert_identical(populate, drive, loss_rate=0.0)
        assert len(trace["edge"]) == 1


@pytestmark_numpy
class TestArgsortScan:
    def test_matches_python_tuple_sort(self):
        rng_entries = [
            (-50.0 - (i * 7 % 13), f"bssid{i:03d}") for i in range(80)
        ]
        rssis = [r for r, _ in rng_entries]
        bssids = [b for _, b in rng_entries]
        order = argsort_scan(rssis, bssids)
        vec_sorted = [(rssis[i], bssids[i]) for i in order]
        py_sorted = sorted(zip(rssis, bssids), key=lambda e: (-e[0], e[1]))
        assert vec_sorted == py_sorted

    def test_bssid_tie_break(self):
        rssis = [-60.0] * 5
        bssids = ["e", "a", "c", "b", "d"]
        order = argsort_scan(rssis, bssids)
        assert [bssids[i] for i in order] == ["a", "b", "c", "d", "e"]


class TestMobilityBounds:
    """The snapshot drift allowance leans on ``max_speed_mps`` being a
    true Lipschitz bound; pin the declared values and the batch API."""

    def test_declared_bounds(self):
        assert StaticPosition(1.0).max_speed_mps == 0.0
        assert LinearMobility(13.0).max_speed_mps == 13.0
        assert LoopMobility(9.0, loop_length_m=500.0).max_speed_mps == 9.0
        vs = VariableSpeedLoopMobility(
            [(5.0, 4.0), (5.0, 11.0)], loop_length_m=500.0
        )
        assert vs.max_speed_mps == 11.0

    @pytest.mark.parametrize(
        "model",
        [
            StaticPosition(3.0, y=4.0),
            LinearMobility(10.0, start_x=5.0),
            LoopMobility(8.0, loop_length_m=400.0, start_arc_m=30.0),
            VariableSpeedLoopMobility([(2.0, 3.0), (3.0, 9.0)], loop_length_m=400.0),
        ],
    )
    def test_positions_at_matches_scalar(self, model):
        ts = [0.0, 0.5, 1.25, 4.0, 9.75]
        assert model.positions_at(ts) == [model.position_at(t) for t in ts]

    @pytest.mark.parametrize(
        "model",
        [
            LinearMobility(10.0),
            LoopMobility(8.0, loop_length_m=400.0),
            VariableSpeedLoopMobility([(2.0, 3.0), (3.0, 9.0)], loop_length_m=400.0),
        ],
    )
    def test_bound_is_lipschitz(self, model):
        ts = [0.1 * k for k in range(100)]
        positions = model.positions_at(ts)
        for (x0, y0), (x1, y1), t0, t1 in zip(
            positions, positions[1:], ts, ts[1:]
        ):
            moved = math.hypot(x1 - x0, y1 - y0)
            assert moved <= model.max_speed_mps * (t1 - t0) + 1e-9
