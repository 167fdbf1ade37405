"""Unit tests for the TCP Reno model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.frames import TcpSegment
from repro.sim.tcp import TcpReceiver, TcpSender, TransportSpec


class Pipe:
    """Deterministic sender→receiver pipe with controllable behaviour."""

    def __init__(self, sim, one_way_s=0.05, drop=None):
        self.sim = sim
        self.one_way_s = one_way_s
        self.drop = drop or (lambda segment: False)
        self.sender: TcpSender = None
        self.receiver: TcpReceiver = None
        self.delivered_bytes = 0
        self.segments_seen = []

    def build(self, total_bytes=None, transport=None, on_complete=None):
        self.sender = TcpSender(
            self.sim,
            flow_id="f1",
            src_ip="server",
            dst_ip="client",
            transmit=self._down,
            transport=transport,
            total_bytes=total_bytes,
            on_complete=on_complete,
        )
        self.receiver = TcpReceiver(
            self.sim,
            flow_id="f1",
            src_ip="client",
            dst_ip="server",
            send_ack=self._up,
            on_deliver=self._count,
        )
        return self.sender, self.receiver

    def _count(self, n):
        self.delivered_bytes += n

    def _down(self, segment: TcpSegment) -> None:
        self.segments_seen.append(segment)
        if self.drop(segment):
            return
        self.sim.schedule(self.one_way_s, self.receiver.on_segment, segment)

    def _up(self, ack: TcpSegment) -> None:
        self.sim.schedule(self.one_way_s, self.sender.on_ack, ack)


class TestBasicTransfer:
    def test_finite_transfer_completes(self, sim):
        pipe = Pipe(sim)
        done = []
        sender, receiver = pipe.build(total_bytes=50_000, on_complete=lambda: done.append(sim.now))
        sender.start()
        sim.run(until=60.0)
        assert done
        assert receiver.bytes_delivered == 50_000
        assert sender.closed

    def test_delivery_callback_counts_all_bytes(self, sim):
        pipe = Pipe(sim)
        sender, _ = pipe.build(total_bytes=30_000)
        sender.start()
        sim.run(until=60.0)
        assert pipe.delivered_bytes == 30_000

    def test_infinite_flow_keeps_sending(self, sim):
        pipe = Pipe(sim)
        sender, receiver = pipe.build(total_bytes=None)
        sender.start()
        sim.run(until=5.0)
        assert receiver.bytes_delivered > 100_000

    def test_delivered_never_exceeds_sent(self, sim):
        pipe = Pipe(sim)
        sender, receiver = pipe.build()
        sender.start()
        sim.run(until=3.0)
        assert receiver.bytes_delivered <= sender.snd_nxt

    def test_close_stops_transmission(self, sim):
        pipe = Pipe(sim)
        sender, _ = pipe.build()
        sender.start()
        sim.run(until=1.0)
        sent_before = sender.segments_sent
        sender.close()
        sim.run(until=3.0)
        assert sender.segments_sent == sent_before


class TestSlowStartAndCongestionAvoidance:
    def test_cwnd_grows_exponentially_in_slow_start(self, sim):
        pipe = Pipe(sim, one_way_s=0.1)
        transport = TransportSpec(
            initial_cwnd_segments=1.0, initial_ssthresh_segments=1000.0
        )
        sender, _ = pipe.build(transport=transport)
        sender.start()
        sim.run(until=0.25)   # ~1 RTT
        cwnd_1rtt = sender.cwnd
        sim.run(until=0.45)   # ~2 RTT
        cwnd_2rtt = sender.cwnd
        assert cwnd_2rtt >= 1.8 * cwnd_1rtt

    def test_cwnd_capped_by_receiver_window(self, sim):
        pipe = Pipe(sim, one_way_s=0.01)
        transport = TransportSpec(max_cwnd_segments=10.0)
        sender, _ = pipe.build(transport=transport)
        sender.start()
        sim.run(until=5.0)
        assert sender.cwnd <= 10.0
        assert sender.flight_bytes <= 10 * transport.mss

    def test_linear_growth_after_ssthresh(self, sim):
        pipe = Pipe(sim, one_way_s=0.05)
        transport = TransportSpec(
            initial_ssthresh_segments=4.0, max_cwnd_segments=1000.0
        )
        sender, _ = pipe.build(transport=transport)
        sender.start()
        sim.run(until=1.0)
        cwnd_a = sender.cwnd
        sim.run(until=2.0)
        cwnd_b = sender.cwnd
        # Congestion avoidance adds about 1 segment per RTT (10 RTTs here).
        assert 4.0 < cwnd_a < cwnd_b
        assert cwnd_b - cwnd_a < 15.0


class TestLossRecovery:
    def test_single_loss_recovered_by_fast_retransmit(self, sim):
        lost = {"done": False}

        def drop(segment):
            if not lost["done"] and segment.seq == 14000 and not segment.retransmit:
                lost["done"] = True
                return True
            return False

        pipe = Pipe(sim, drop=drop)
        sender, receiver = pipe.build(total_bytes=100_000)
        sender.start()
        sim.run(until=30.0)
        assert receiver.bytes_delivered == 100_000
        assert sender.fast_retransmits >= 1

    def test_burst_loss_recovered_by_rto_and_go_back_n(self, sim):
        window = {"active": False}

        def drop(segment):
            # Black out everything in [0.5, 1.0) once.
            if 0.5 <= sim.now < 1.0 and not segment.retransmit:
                window["active"] = True
                return True
            return False

        pipe = Pipe(sim, drop=drop)
        sender, receiver = pipe.build(total_bytes=200_000)
        sender.start()
        sim.run(until=60.0)
        assert window["active"]
        assert receiver.bytes_delivered == 200_000
        assert sender.timeouts >= 1

    def test_rto_collapses_cwnd(self, sim):
        pipe = Pipe(sim, drop=lambda s: 0.4 <= sim.now < 1.2)
        sender, _ = pipe.build()
        sender.start()
        sim.run(until=1.3)
        assert sender.timeouts >= 1
        assert sender.cwnd <= 2.0

    def test_rto_backs_off_exponentially(self, sim):
        pipe = Pipe(sim, drop=lambda s: sim.now >= 0.3)  # permanent blackout

        sender, _ = pipe.build()
        sender.start()
        sim.run(until=20.0)
        assert sender.timeouts >= 3
        assert sender.rto > 1.0

    def test_late_cumulative_ack_above_rewound_snd_nxt_accepted(self, sim):
        """Regression: the go-back-N deadlock."""
        sender = TcpSender(
            sim, "f", "s", "c", transmit=lambda seg: None, transport=TransportSpec()
        )
        sender.start()
        sent_high = sender.snd_nxt
        assert sent_high > 0
        # Simulate an RTO rewind, then a late full ACK.
        sender._on_rto()
        assert sender.snd_nxt < sent_high
        sender.on_ack(TcpSegment("f", "c", "s", ack=sent_high, is_ack=True))
        assert sender.snd_una == sent_high

    def test_ack_beyond_max_sent_ignored(self, sim):
        sender = TcpSender(sim, "f", "s", "c", transmit=lambda seg: None)
        sender.start()
        before = sender.snd_una
        sender.on_ack(TcpSegment("f", "c", "s", ack=10**9, is_ack=True))
        assert sender.snd_una == before

    def test_karn_no_rtt_sample_from_retransmits(self, sim):
        pipe = Pipe(sim, drop=lambda s: 0.2 <= sim.now < 2.0)
        sender, _ = pipe.build()
        sender.start()
        sim.run(until=1.9)
        assert sender._rtt_probe_ack is None


class TestReceiver:
    def make_receiver(self, sim, acks):
        return TcpReceiver(
            sim, "f", "c", "s", send_ack=acks.append, on_deliver=lambda n: None
        )

    def seg(self, seq, length):
        return TcpSegment("f", "s", "c", seq=seq, payload_bytes=length)

    def test_in_order_delivery(self, sim):
        acks = []
        receiver = self.make_receiver(sim, acks)
        receiver.on_segment(self.seg(0, 100))
        receiver.on_segment(self.seg(100, 100))
        assert receiver.rcv_nxt == 200
        assert acks[-1].ack == 200

    def test_gap_generates_duplicate_acks(self, sim):
        acks = []
        receiver = self.make_receiver(sim, acks)
        receiver.on_segment(self.seg(0, 100))
        receiver.on_segment(self.seg(200, 100))
        receiver.on_segment(self.seg(300, 100))
        assert [a.ack for a in acks] == [100, 100, 100]

    def test_gap_fill_drains_out_of_order_queue(self, sim):
        acks = []
        receiver = self.make_receiver(sim, acks)
        receiver.on_segment(self.seg(100, 100))
        receiver.on_segment(self.seg(200, 100))
        receiver.on_segment(self.seg(0, 100))
        assert receiver.rcv_nxt == 300
        assert acks[-1].ack == 300

    def test_duplicate_segment_counted_and_reacked(self, sim):
        acks = []
        receiver = self.make_receiver(sim, acks)
        receiver.on_segment(self.seg(0, 100))
        receiver.on_segment(self.seg(0, 100))
        assert receiver.duplicate_segments == 1
        assert acks[-1].ack == 100

    def test_overlapping_segment_advances_partially(self, sim):
        acks = []
        receiver = self.make_receiver(sim, acks)
        receiver.on_segment(self.seg(0, 100))
        receiver.on_segment(self.seg(50, 100))  # overlaps first half
        assert receiver.rcv_nxt == 150

    def test_empty_segment_ignored(self, sim):
        acks = []
        receiver = self.make_receiver(sim, acks)
        receiver.on_segment(self.seg(0, 0))
        assert acks == []

    @settings(max_examples=30, deadline=None)
    @given(order=st.permutations(list(range(10))))
    def test_any_arrival_order_reassembles_fully(self, order):
        sim = Simulator(seed=0)
        delivered = []
        receiver = TcpReceiver(
            sim, "f", "c", "s", send_ack=lambda a: None, on_deliver=delivered.append
        )
        for index in order:
            receiver.on_segment(
                TcpSegment("f", "s", "c", seq=index * 100, payload_bytes=100)
            )
        assert receiver.rcv_nxt == 1000
        assert sum(delivered) == 1000


class TestDeprecationShim:
    def test_transport_kwarg_does_not_warn(self, sim):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sender = TcpSender(
                sim, "f", "s", "c", transmit=lambda seg: None,
                transport=TransportSpec(cc="cubic"),
            )
        assert sender.cc.name == "cubic"


class TestLazyRtoTimer:
    """PR 3 made the RTO timer lazy: ACKs overwrite a logical deadline and
    the standing engine event re-arms itself instead of being cancelled and
    rescheduled per ACK.  These tests pin the observable contract."""

    def test_acks_leave_standing_event_at_or_before_deadline(self, sim):
        pipe = Pipe(sim, one_way_s=0.05)
        sender, _ = pipe.build(total_bytes=200_000)
        sender.start()
        sim.run(until=0.3)
        handle = sender._timer
        assert handle is not None and handle.pending
        assert handle.time <= sender._rto_deadline

    def test_stale_fire_is_a_noop_on_healthy_flow(self, sim):
        pipe = Pipe(sim, one_way_s=0.05)
        sender, _ = pipe.build(total_bytes=None)
        sender.start()
        sim.run(until=0.01)
        first_event_time = sender._timer.time
        sim.run(until=first_event_time + 1.0)
        # The original engine event fired long ago, but ACKs kept pushing
        # the logical deadline out, so no spurious RTO happened.
        assert sender.timeouts == 0

    def test_rto_still_fires_when_acks_stop(self, sim):
        blackhole = {"on": False}
        pipe = Pipe(sim, drop=lambda segment: blackhole["on"])
        sender, _ = pipe.build(total_bytes=None)
        sender.start()
        sim.run(until=1.0)
        assert sender.timeouts == 0
        blackhole["on"] = True
        sim.run(until=1.0 + 4.0 * sender.rto)
        assert sender.timeouts >= 1

    def test_shrunken_deadline_moves_standing_event(self, sim):
        pipe = Pipe(sim)
        sender, _ = pipe.build(total_bytes=None)
        sender.start()
        sim.run(until=0.05)
        standing = sender._timer.time
        sender._arm(sim.now + 10.0)
        # Growing the deadline leaves the early standing event in place
        # (it will fire as a no-op and chase the new deadline).
        assert sender._timer.time == standing
        sender._arm(sim.now + 0.5)
        # Shrinking it below the standing event must move the event, or
        # the RTO would fire late.
        assert sender._timer.time == pytest.approx(sim.now + 0.5)
        assert sender._timer.time < standing

    def test_close_disarms_logically_and_physically(self, sim):
        import math as _math

        pipe = Pipe(sim)
        sender, _ = pipe.build(total_bytes=None)
        sender.start()
        sim.run(until=0.2)
        sender.close()
        assert sender._rto_deadline == _math.inf
        assert sender._timer is None or not sender._timer.pending
        timeouts_before = sender.timeouts
        sim.run(until=5.0)
        assert sender.timeouts == timeouts_before
