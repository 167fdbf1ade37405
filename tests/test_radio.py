"""Unit tests for the wireless medium."""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from repro.sim.frames import BROADCAST, Frame, FrameKind
from repro.sim.radio import (
    DATA_RETRY_LIMIT,
    FRAME_OVERHEAD_S,
    PROPAGATION_DELAY_S,
    Medium,
    rssi_from_distance,
)


class FakeStation:
    """Minimal Station implementation for medium tests."""

    def __init__(self, station_id, x=0.0, y=0.0, channel=1):
        self.station_id = station_id
        self.x, self.y = x, y
        self.channel = channel
        self.received = []
        self.failed = []

    def position(self):
        return (self.x, self.y)

    def tuned_channel(self):
        return self.channel

    def accepts(self, dst):
        return dst == self.station_id

    def on_frame(self, frame, rssi):
        self.received.append((frame, rssi))

    def on_delivery_failed(self, frame):
        self.failed.append(frame)


def mgmt_frame(src, dst, channel=1, kind=FrameKind.BEACON, size=80):
    return Frame(kind=kind, src=src, dst=dst, size=size, channel=channel)


def data_frame(src, dst, channel=1, size=1452):
    return Frame(kind=FrameKind.DATA, src=src, dst=dst, size=size, channel=channel)


@pytest.fixture
def medium(sim):
    return Medium(sim, loss_rate=0.0)


class TestDelivery:
    def test_unicast_reaches_addressee(self, sim, medium):
        a = FakeStation("a")
        b = FakeStation("b", x=50.0)
        medium.register(a)
        medium.register(b)
        medium.transmit(a, mgmt_frame("a", "b"))
        sim.run()
        assert len(b.received) == 1

    def test_unicast_skips_other_stations(self, sim, medium):
        a, b, c = FakeStation("a"), FakeStation("b", x=10), FakeStation("c", x=20)
        for s in (a, b, c):
            medium.register(s)
        medium.transmit(a, mgmt_frame("a", "b"))
        sim.run()
        assert len(b.received) == 1
        assert c.received == []

    def test_broadcast_reaches_everyone_in_range(self, sim, medium):
        a = FakeStation("a")
        others = [FakeStation(f"s{i}", x=10.0 * i) for i in range(1, 4)]
        medium.register(a)
        for s in others:
            medium.register(s)
        medium.transmit(a, mgmt_frame("a", BROADCAST))
        sim.run()
        assert all(len(s.received) == 1 for s in others)

    def test_out_of_range_station_misses_frame(self, sim, medium):
        a = FakeStation("a")
        far = FakeStation("far", x=medium.range_m + 1.0)
        medium.register(a)
        medium.register(far)
        medium.transmit(a, mgmt_frame("a", "far"))
        sim.run()
        assert far.received == []

    def test_boundary_of_range_still_delivers(self, sim, medium):
        a = FakeStation("a")
        edge = FakeStation("edge", x=medium.range_m)
        medium.register(a)
        medium.register(edge)
        medium.transmit(a, mgmt_frame("a", "edge"))
        sim.run()
        assert len(edge.received) == 1

    def test_wrong_channel_is_isolated(self, sim, medium):
        a = FakeStation("a", channel=1)
        b = FakeStation("b", x=10, channel=6)
        medium.register(a)
        medium.register(b)
        medium.transmit(a, mgmt_frame("a", "b", channel=1))
        sim.run()
        assert b.received == []

    def test_sender_does_not_hear_itself(self, sim, medium):
        a = FakeStation("a")
        medium.register(a)
        medium.transmit(a, mgmt_frame("a", BROADCAST))
        sim.run()
        assert a.received == []

    def test_rssi_decreases_with_distance(self, sim, medium):
        a = FakeStation("a")
        near = FakeStation("near", x=5.0)
        far = FakeStation("far", x=90.0)
        for s in (a, near, far):
            medium.register(s)
        medium.transmit(a, mgmt_frame("a", BROADCAST))
        sim.run()
        assert near.received[0][1] > far.received[0][1]

    def test_delivery_hook_invoked(self, sim, medium):
        seen = []
        medium.delivery_hooks.append(lambda f, sid: seen.append(sid))
        a, b = FakeStation("a"), FakeStation("b", x=10)
        medium.register(a)
        medium.register(b)
        medium.transmit(a, mgmt_frame("a", "b"))
        sim.run()
        assert seen == ["b"]

    def test_duplicate_registration_rejected(self, medium):
        medium.register(FakeStation("a"))
        with pytest.raises(ValueError):
            medium.register(FakeStation("a"))

    def test_unregistered_sender_drops_frame_in_flight(self, sim, medium):
        a, b = FakeStation("a"), FakeStation("b", x=10)
        medium.register(a)
        medium.register(b)
        medium.transmit(a, mgmt_frame("a", "b"))
        medium.unregister("a")
        sim.run()
        assert b.received == []


class TestAirtimeAndSerialization:
    def test_airtime_scales_with_size(self, medium):
        small = mgmt_frame("a", "b", size=100)
        big = mgmt_frame("a", "b", size=1000)
        assert medium.airtime(big) > medium.airtime(small)

    def test_airtime_includes_fixed_overhead(self, medium):
        tiny = mgmt_frame("a", "b", size=1)
        assert medium.airtime(tiny) >= FRAME_OVERHEAD_S

    def test_channel_serializes_back_to_back_frames(self, sim, medium):
        a, b = FakeStation("a"), FakeStation("b", x=10)
        medium.register(a)
        medium.register(b)
        done1 = medium.transmit(a, mgmt_frame("a", "b"))
        done2 = medium.transmit(a, mgmt_frame("a", "b"))
        assert done2 >= done1 + medium.airtime(mgmt_frame("a", "b")) - 1e-12

    def test_different_channels_do_not_serialize(self, sim, medium):
        a = FakeStation("a", channel=1)
        done1 = medium.transmit(a, mgmt_frame("a", "x", channel=1))
        done2 = medium.transmit(a, mgmt_frame("a", "y", channel=6))
        assert abs(done1 - done2) < 1e-9

    def test_retried_data_airtime_inflated_under_loss(self, sim):
        lossy = Medium(sim, loss_rate=0.2)
        clean = Medium(Simulator(seed=0), loss_rate=0.0)
        frame = data_frame("a", "b")
        assert lossy.airtime(frame) > clean.airtime(frame)

    def test_mgmt_airtime_not_inflated_under_loss(self, sim):
        lossy = Medium(sim, loss_rate=0.2)
        frame = mgmt_frame("a", "b")
        expected = frame.size * 8.0 / lossy.data_rate_bps + FRAME_OVERHEAD_S
        assert lossy.airtime(frame) == pytest.approx(expected)


class TestPerFrameDelivery:
    """Every frame is delivered by its own engine event at completion."""

    def _pair(self, sim, medium, channel=1):
        tx = FakeStation(f"tx{channel}", channel=channel)
        rx = FakeStation(f"rx{channel}", x=30.0, channel=channel)
        arrivals = []
        rx.on_frame = lambda frame, rssi: arrivals.append((frame.size, sim.now))
        medium.register(tx)
        medium.register(rx)
        return tx, rx, arrivals

    def test_delivery_in_completion_time_order(self, sim, medium):
        tx, rx, arrivals = self._pair(sim, medium)
        for i in range(4):
            medium.transmit(tx, mgmt_frame("tx1", "rx1", size=100 + i))
        sim.run(until=1.0)
        assert [size for size, _ in arrivals] == [100, 101, 102, 103]
        times = [t for _, t in arrivals]
        assert times == sorted(times)
        assert len(set(times)) == 4  # channel serialization separates them

    def test_arrival_clock_is_completion_plus_propagation(self, sim, medium):
        tx, rx, arrivals = self._pair(sim, medium)
        done_times = [medium.transmit(tx, mgmt_frame("tx1", "rx1")) for _ in range(3)]
        sim.run(until=1.0)
        assert [t for _, t in arrivals] == [d + PROPAGATION_DELAY_S for d in done_times]

    def test_frame_due_after_run_bound_arrives_next_run(self, sim, medium):
        tx, rx, arrivals = self._pair(sim, medium)
        done = medium.transmit(tx, mgmt_frame("tx1", "rx1"))
        sim.run(until=done / 2)
        assert arrivals == []
        sim.run(until=done + 1.0)
        assert [t for _, t in arrivals] == [done + PROPAGATION_DELAY_S]

    def test_delivers_again_after_idle(self, sim, medium):
        tx, rx, arrivals = self._pair(sim, medium)
        medium.transmit(tx, mgmt_frame("tx1", "rx1"))
        sim.run(until=1.0)
        assert len(arrivals) == 1
        medium.transmit(tx, mgmt_frame("tx1", "rx1"))
        sim.run(until=2.0)
        assert len(arrivals) == 2

    def test_channels_are_independent(self, sim, medium):
        pairs = {chan: self._pair(sim, medium, channel=chan) for chan in (1, 6)}
        done = {
            chan: medium.transmit(tx, mgmt_frame(tx.station_id, rx.station_id, channel=chan))
            for chan, (tx, rx, _arrivals) in pairs.items()
        }
        assert done[1] == done[6]  # neither channel waited for the other
        sim.run(until=1.0)
        for chan, (_tx, _rx, arrivals) in pairs.items():
            assert [t for _, t in arrivals] == [done[chan] + PROPAGATION_DELAY_S]


class TestAirtimeEdgeCases:
    def test_zero_length_frame_costs_exactly_the_overhead(self, medium):
        frame = mgmt_frame("a", "b", size=0)
        assert medium.airtime(frame) == FRAME_OVERHEAD_S

    def test_retried_airtime_is_exactly_base_over_one_minus_h(self, sim):
        h = 0.25
        medium = Medium(sim, loss_rate=h)
        frame = data_frame("a", "b", size=1452)
        base = frame.size * 8.0 / medium.data_rate_bps + FRAME_OVERHEAD_S
        # Bit-identical to the historical expression, not merely close:
        # the contention path reuses airtime() for busy horizons, so any
        # drift here would shift carrier-sense outcomes.
        assert medium.airtime(frame) == base / (1.0 - h)

    def test_broadcast_data_airtime_not_inflated(self, sim):
        medium = Medium(sim, loss_rate=0.3)
        frame = data_frame("a", BROADCAST)
        base = frame.size * 8.0 / medium.data_rate_bps + FRAME_OVERHEAD_S
        assert medium.airtime(frame) == pytest.approx(base)

    @pytest.mark.parametrize(
        "kind", [FrameKind.PING_REQUEST, FrameKind.PING_REPLY]
    )
    def test_ping_frames_count_as_data_plane(self, sim, kind):
        medium = Medium(sim, loss_rate=0.2)
        frame = Frame(kind=kind, src="a", dst="b", size=100, channel=1)
        base = frame.size * 8.0 / medium.data_rate_bps + FRAME_OVERHEAD_S
        assert medium.airtime(frame) == base / (1.0 - 0.2)
        assert medium.delivery_loss_probability(frame) == pytest.approx(
            0.2 ** (1 + DATA_RETRY_LIMIT)
        )


class _StepLoss:
    """A loss model whose rate jumps at a fixed time."""

    def __init__(self, before, after, step_at):
        self.before, self.after, self.step_at = before, after, step_at

    def loss_rate_at(self, now):
        return self.after if now >= self.step_at else self.before


class TestEffectiveLoss:
    def test_stationary_matches_delivery_loss_probability(self, sim):
        medium = Medium(sim, loss_rate=0.1)
        assert medium._effective_loss(data_frame("a", "b")) == pytest.approx(
            medium.delivery_loss_probability(data_frame("a", "b"))
        )
        assert medium._effective_loss(mgmt_frame("a", "b")) == pytest.approx(0.1)

    def test_bursty_model_overrides_stationary_rate(self, sim):
        medium = Medium(sim, loss_rate=0.1)
        medium.set_bursty_loss(_StepLoss(before=0.1, after=0.8, step_at=5.0))
        frame = mgmt_frame("a", "b")
        assert medium._effective_loss(frame) == pytest.approx(0.1)
        sim.run(until=6.0)
        assert medium._effective_loss(frame) == pytest.approx(0.8)
        medium.clear_bursty_loss()
        assert medium.bursty_loss is None
        assert medium._effective_loss(frame) == pytest.approx(0.1)

    def test_retry_exponent_stacks_on_the_bursty_rate(self, sim):
        medium = Medium(sim, loss_rate=0.05)
        medium.set_bursty_loss(_StepLoss(before=0.5, after=0.5, step_at=0.0))
        # Unicast data sees the *bursty* rate raised to the retry power,
        # not the stationary one: 0.5^(1+retries), not 0.05^(1+retries).
        assert medium._effective_loss(data_frame("a", "b")) == pytest.approx(
            0.5 ** (1 + DATA_RETRY_LIMIT)
        )
        # Broadcast data keeps the raw bursty rate (no link-layer retries).
        assert medium._effective_loss(data_frame("a", BROADCAST)) == pytest.approx(0.5)

    def test_airtime_ignores_the_bursty_model(self, sim):
        medium = Medium(sim, loss_rate=0.1)
        frame = data_frame("a", "b")
        before = medium.airtime(frame)
        medium.set_bursty_loss(_StepLoss(before=0.9, after=0.9, step_at=0.0))
        # airtime() models the *average* retry cost; the burst only moves
        # the per-delivery coin flip.
        assert medium.airtime(frame) == before


class TestLossModel:
    def test_zero_loss_delivers_everything(self, sim):
        medium = Medium(sim, loss_rate=0.0)
        a, b = FakeStation("a"), FakeStation("b", x=10)
        medium.register(a)
        medium.register(b)
        for _ in range(50):
            medium.transmit(a, mgmt_frame("a", "b"))
        sim.run()
        assert len(b.received) == 50

    def test_mgmt_frames_lose_at_raw_rate(self, sim):
        medium = Medium(sim, loss_rate=0.5)
        a, b = FakeStation("a"), FakeStation("b", x=10)
        medium.register(a)
        medium.register(b)
        n = 400
        for _ in range(n):
            medium.transmit(a, mgmt_frame("a", "b"))
        sim.run()
        assert 0.35 * n < len(b.received) < 0.65 * n

    def test_data_frames_survive_thanks_to_link_layer_retries(self, sim):
        medium = Medium(sim, loss_rate=0.2)
        a, b = FakeStation("a"), FakeStation("b", x=10)
        medium.register(a)
        medium.register(b)
        n = 200
        for _ in range(n):
            medium.transmit(a, data_frame("a", "b"))
        sim.run()
        # Residual loss is 0.2^(1+retries) ~ 0.16%, so near-total delivery.
        assert len(b.received) >= n - 4

    def test_residual_loss_probability_formula(self, sim):
        medium = Medium(sim, loss_rate=0.1)
        assert medium.delivery_loss_probability(data_frame("a", "b")) == pytest.approx(
            0.1 ** (1 + DATA_RETRY_LIMIT)
        )
        assert medium.delivery_loss_probability(mgmt_frame("a", "b")) == pytest.approx(0.1)

    def test_invalid_loss_rate_rejected(self, sim):
        with pytest.raises(ValueError):
            Medium(sim, loss_rate=1.0)


class TestDeliveryFailureFeedback:
    def test_sender_notified_when_receiver_unreachable(self, sim, medium):
        a = FakeStation("a")
        gone = FakeStation("gone", x=500.0)  # out of range
        medium.register(a)
        medium.register(gone)
        medium.transmit(a, data_frame("a", "gone"))
        sim.run()
        assert len(a.failed) == 1

    def test_no_notification_when_delivered(self, sim, medium):
        a, b = FakeStation("a"), FakeStation("b", x=10)
        medium.register(a)
        medium.register(b)
        medium.transmit(a, data_frame("a", "b"))
        sim.run()
        assert a.failed == []

    def test_no_notification_for_broadcast(self, sim, medium):
        a = FakeStation("a")
        medium.register(a)
        medium.transmit(a, mgmt_frame("a", BROADCAST))
        sim.run()
        assert a.failed == []

    def test_random_loss_does_not_trigger_failure_feedback(self, sim):
        # Residual random loss is a lost frame *after* retries; the medium
        # only reports "no reachable receiver" (asleep/out of range).
        medium = Medium(sim, loss_rate=0.9)
        a, b = FakeStation("a"), FakeStation("b", x=10)
        medium.register(a)
        medium.register(b)
        for _ in range(30):
            medium.transmit(a, mgmt_frame("a", "b", kind=FrameKind.AUTH_REQUEST))
        sim.run()
        assert a.failed == []


class TestRssiModel:
    def test_monotone_decreasing(self):
        assert rssi_from_distance(1) > rssi_from_distance(10) > rssi_from_distance(100)

    def test_clamps_below_one_metre(self):
        assert rssi_from_distance(0.1) == rssi_from_distance(1.0)

    def test_plausible_dbm_values(self):
        assert -95.0 < rssi_from_distance(100.0) < -80.0
        assert -45.0 < rssi_from_distance(1.0) < -35.0


class StaticStation(FakeStation):
    """A FakeStation that opts into the static (AP-style) index."""

    is_static = True


class TestStaticStationIndex:
    def test_static_receiver_in_neighbouring_bin_gets_frame(self, sim, medium):
        sender = FakeStation("veh", x=99.0)
        # Exactly at the range edge, one spatial bin over.
        ap = StaticStation("ap", x=199.0)
        medium.register(sender)
        medium.register(ap)
        medium.transmit(sender, mgmt_frame("veh", BROADCAST))
        sim.run()
        assert len(ap.received) == 1

    def test_far_static_station_not_probed(self, sim, medium):
        sender = FakeStation("veh")
        far = StaticStation("ap-far", x=1000.0)
        medium.register(sender)
        medium.register(far)
        medium.transmit(sender, mgmt_frame("veh", BROADCAST))
        sim.run()
        assert far.received == []

    def test_static_station_on_other_channel_skipped(self, sim, medium):
        sender = FakeStation("veh", channel=1)
        other = StaticStation("ap6", x=10.0, channel=6)
        near = StaticStation("ap1", x=10.0, channel=1)
        medium.register(sender)
        medium.register(other)
        medium.register(near)
        medium.transmit(sender, mgmt_frame("veh", BROADCAST, channel=1))
        sim.run()
        assert len(near.received) == 1
        assert other.received == []

    def test_unregistered_static_station_stops_receiving(self, sim, medium):
        sender = FakeStation("veh")
        ap = StaticStation("ap", x=10.0)
        medium.register(sender)
        medium.register(ap)
        medium.unregister("ap")
        medium.transmit(sender, mgmt_frame("veh", BROADCAST))
        sim.run()
        assert ap.received == []

    def test_delivery_order_follows_registration_order(self, sim, medium):
        """Mixed mobile/static receivers hear a broadcast in registration
        order — the invariant that keeps indexed delivery bit-identical."""
        order = []
        sender = FakeStation("veh", x=5.0)
        stations = [
            StaticStation("ap-a", x=10.0),
            FakeStation("mob-b", x=20.0),
            StaticStation("ap-c", x=30.0),
            FakeStation("mob-d", x=40.0),
        ]
        medium.register(sender)
        for station in stations:
            station.on_frame = (
                lambda frame, rssi, sid=station.station_id: order.append(sid)
            )
            medium.register(station)
        medium.transmit(sender, mgmt_frame("veh", BROADCAST))
        sim.run()
        assert order == ["ap-a", "mob-b", "ap-c", "mob-d"]

    def test_negative_coordinates_bin_correctly(self, sim, medium):
        sender = FakeStation("veh", x=-5.0, y=-5.0)
        ap = StaticStation("ap", x=-80.0, y=-40.0)
        medium.register(sender)
        medium.register(ap)
        medium.transmit(sender, mgmt_frame("veh", BROADCAST))
        sim.run()
        assert len(ap.received) == 1
