"""Wireless medium: channels, range, airtime serialization, and loss.

The model is deliberately at the granularity the paper's analysis needs:

* **Channels** are orthogonal; a frame on channel 6 is invisible on 1 and 11.
* **Airtime** on a channel is serialized FIFO — a transmission begins when the
  channel is free, so stations sharing a channel share its capacity.  This is
  a first-order stand-in for CSMA/CA that preserves the "wireless bandwidth
  Bw is split among users of the channel" behaviour Eq. 8 assumes.  The
  serialization is *global* per channel; pass a
  :class:`~repro.sim.contention.ContentionSpec` to replace it with CSMA/CA
  per-cell spatial reuse (carrier-sense domains, backoff, hidden-terminal
  collisions) for dense multi-cell worlds.
* **Range** is a disk of radius ``range_m`` (the paper assumes 100 m).
* **Loss** is i.i.d. per delivery with probability ``loss_rate`` (the model's
  ``h``) for management-plane frames — beacons, probes, the association
  handshake, DHCP — matching the per-message loss the join model assumes.
  Unicast *data* frames (TCP segments, pings) additionally benefit from
  802.11 link-layer retransmission: their residual loss is
  ``h^(1+retry_limit)`` and their airtime is inflated by the expected
  number of transmissions ``1/(1-h)``.
* **RSSI** follows a log-distance path-loss curve and is reported to
  receivers so AP selection can break ties on signal strength.

Stations are any objects satisfying :class:`Station`; mobile clients and APs
both register with the medium.

Observability: delivered frames are visible to ``delivery_hooks``
subscribers such as :class:`repro.sim.tracing.FrameTrace`; frames killed by
the loss draw never reach the hooks and surface only through the
``medium.drops`` counter in :mod:`repro.obs` (mirroring ``frames_lost``).
"""

from __future__ import annotations

import logging
import math
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Protocol, Tuple

from .contention import ContentionSpec, ContentionState
from .engine import Simulator
from .frames import BROADCAST, Frame, FrameKind

__all__ = [
    "Station",
    "Medium",
    "rssi_from_distance",
    "BACKLOG_WARN_S",
]

logger = logging.getLogger(__name__)

#: Frame kinds that enjoy 802.11 link-layer retransmission (data plane).
_RETRIED_KINDS = frozenset(
    {FrameKind.DATA, FrameKind.PING_REQUEST, FrameKind.PING_REPLY}
)

#: 802.11 retry limit applied to data-plane unicast frames.
DATA_RETRY_LIMIT = 3

#: Per-frame fixed MAC/PHY overhead added to airtime, seconds (preamble,
#: DIFS/SIFS, link-layer ACK).  A round number in the right regime.
FRAME_OVERHEAD_S = 3.0e-4

#: One-way propagation delay, seconds.  Negligible at Wi-Fi ranges but kept
#: non-zero so event ordering between tx and rx is unambiguous.
PROPAGATION_DELAY_S = 1.0e-6

#: A channel backlog (time a new frame waits for the air) beyond this many
#: seconds of sim time indicates the medium is saturated — the dense-world
#: failure mode the contention model exists to fix.  Crossing it bumps the
#: ``medium.backlog_warnings`` counter (once per channel) and logs.
BACKLOG_WARN_S = 1.0

#: Below this many registered stations the scalar scan (with its cached
#: candidate lists) beats the array round-trip, so the vector index engages
#: only once the world is dense enough to pay for it.  Both paths are
#: byte-identical, so the crossover may be chosen — and even crossed
#: mid-run as stations register — purely on speed.
VECTOR_MIN_STATIONS = 64


def rssi_from_distance(distance_m: float) -> float:
    """Log-distance path-loss RSSI estimate in dBm.

    Calibrated so that ~1 m gives -40 dBm and 100 m (edge of the paper's
    assumed range) gives roughly -90 dBm.
    """
    d = max(distance_m, 1.0)
    return -40.0 - 25.0 * math.log10(d)


class Station(Protocol):
    """What the medium requires of a registered radio endpoint.

    Stations may additionally expose ``is_static = True`` to promise that
    their position *and* tuned channel never change after registration
    (true of access points).  The medium indexes static stations by channel
    and coarse spatial bin so delivery never iterates the whole town.
    """

    station_id: str

    def position(self) -> Tuple[float, float]:
        """Current (x, y) coordinates in metres."""
        ...

    def tuned_channel(self) -> Optional[int]:
        """Channel the radio is listening on, or None if off/resetting."""
        ...

    def accepts(self, dst: str) -> bool:
        """True if a unicast frame addressed to ``dst`` is for this station.

        A physical client NIC accepts the MAC of every virtual interface it
        hosts; an AP accepts its BSSID.
        """
        ...

    def on_frame(self, frame: Frame, rssi: float) -> None:
        """Deliver a received frame."""
        ...


class Medium:
    """The shared wireless medium.

    Parameters
    ----------
    sim:
        Owning simulator.
    data_rate_bps:
        Channel bit rate; the paper's Bw = 11 Mb/s by default.
    range_m:
        Radio range (disk model); 100 m per the paper.
    loss_rate:
        i.i.d. per-delivery frame-loss probability ``h``.
    vector_delivery:
        Prefilter receivers with the numpy-backed index
        (:mod:`repro.sim.medium_vec`) when numpy imports; ``False`` keeps
        the scalar scan.  Both paths deliver byte-identically.
    """

    def __init__(
        self,
        sim: Simulator,
        data_rate_bps: float = 11e6,
        range_m: float = 100.0,
        loss_rate: float = 0.1,
        vector_delivery: bool = True,
        contention: Optional[ContentionSpec] = None,
    ):
        # ``isfinite`` guards are explicit: ``nan`` slips through plain
        # ``<=`` comparisons (every comparison with nan is False) and
        # ``inf`` satisfies ``> 0``, yet both poison airtime and range
        # arithmetic far from here.
        if not math.isfinite(loss_rate) or not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1): {loss_rate!r}")
        if not math.isfinite(data_rate_bps) or data_rate_bps <= 0:
            raise ValueError(
                f"data_rate_bps must be positive and finite: {data_rate_bps!r}"
            )
        if not math.isfinite(range_m) or range_m <= 0:
            raise ValueError(f"range_m must be positive and finite: {range_m!r}")
        self.sim = sim
        self.data_rate_bps = data_rate_bps
        self.range_m = range_m
        self.loss_rate = loss_rate
        self._one_minus_loss = 1.0 - loss_rate
        self._stations: Dict[str, Station] = {}
        self._busy_until: Dict[int, float] = {}
        self._rng = sim.rng("medium.loss")
        # Optional bursty-loss override (Gilbert–Elliott chain installed by
        # the fault injector).  None means the i.i.d. ``loss_rate`` applies.
        self._bursty = None
        # Delivery-path index.  Static stations (APs: fixed position, fixed
        # channel) are binned by (channel, cell) with cell edge = range_m,
        # so any in-range static receiver is in the 3x3 neighbourhood of
        # the sender's cell.  Mobile stations (a handful of vehicles vs.
        # hundreds of APs) are kept in a flat dict and always probed.
        # ``_reg_seq`` preserves registration order: candidates are visited
        # in that order so loss draws and callbacks consume randomness
        # exactly as the un-indexed implementation did.  Each transmitted
        # frame is delivered by its own engine event at completion time.
        self._bin_m = max(range_m, 1.0)
        self._static_bins: Dict[Tuple[int, int, int], List[Station]] = {}
        self._static_where: Dict[str, Tuple[int, int, int]] = {}
        self._mobile: Dict[str, Station] = {}
        self._reg_seq: Dict[str, int] = {}
        self._reg_counter = 0
        # Candidate lists are a pure function of (channel, sender cell) and
        # the registration set: static bins never move and the mobile list
        # is membership-only.  Cache them and invalidate on (un)register so
        # the delivery hot path skips the 3x3 bin walk and the sort.
        self._cand_cache: Dict[Tuple[int, int, int], List[Station]] = {}
        #: Optional observers called as fn(frame, receiver_id) on delivery.
        self.delivery_hooks: List[Callable[[Frame, str], None]] = []
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_lost = 0
        # Lost frames never reach delivery_hooks, so FrameTrace
        # (sim/tracing.py) cannot see them; the obs counter is the only
        # place drops surface.  Cached here so the disabled path pays a
        # single no-op call on the (rare) loss branch.
        self._obs_drops = sim.telemetry.counter("medium.drops")
        # Channel backlog diagnosis: ``channel_busy_until`` was consulted
        # internally but never exposed, so a saturated channel (the dense
        # world's 10+ s beacon backlogs) was invisible from telemetry.  The
        # gauge tracks the high-water wait a frame saw before its airtime
        # began; the counter trips once per channel past BACKLOG_WARN_S.
        # Both are created unconditionally (like ``medium.drops``) so every
        # telemetry export carries them and A/B runs stay byte-comparable.
        self._obs_backlog = sim.telemetry.gauge("medium.backlog_s")
        self._obs_backlog_warnings = sim.telemetry.counter("medium.backlog_warnings")
        self._backlog_warned: set = set()
        # Vectorized candidate selection (repro.sim.medium_vec): numpy
        # arrays prune receiver candidates, the exact scalar predicates
        # confirm survivors, and the shared apply loop below consumes the
        # loss stream in registration order — byte-identical results, one
        # array pass instead of a Python scan.  Created unconditionally so
        # the counter appears (at zero) in every telemetry export and A/B
        # runs stay byte-comparable; nondeterministic because its value
        # reflects the host's installed packages, not the seed.
        self._obs_vector_fallbacks = sim.telemetry.counter(
            "medium.vector_fallbacks", deterministic=False
        )
        self._vec = None
        if vector_delivery:
            from .medium_vec import make_index

            self._vec = make_index(self)
            if self._vec is None:
                # numpy missing: graceful scalar fallback, surfaced only
                # through the obs counter (per-Medium, so one per world).
                self._obs_vector_fallbacks.inc()
        self.vector_delivery = self._vec is not None
        # CSMA/CA contention with per-cell spatial reuse (see
        # repro.sim.contention).  Built last: the state machine reuses the
        # spatial binning configured above.  ``None`` and a disabled spec
        # are byte-identical — the state (and its dedicated RNG stream)
        # only exists when the model is actually on.
        self.contention_spec = contention
        self.contention: Optional[ContentionState] = None
        if contention is not None and contention.enabled:
            self.contention = ContentionState(self, contention)
        #: Frames destroyed by hidden-terminal collisions (contention mode
        #: only; mirrored by the ``contention.collisions`` obs counter).
        self.frames_collided = 0
        # Contention mode models each sender as a NIC with a FIFO transmit
        # queue whose *head* frame contends for the air; frames arriving
        # while the head is contending or in flight wait their turn.  A
        # sender_id key exists exactly while that sender has a head frame
        # outstanding.  (The legacy path needs none of this — its global
        # per-channel FIFO orders everything.)
        self._tx_queues: Dict[str, Deque[Frame]] = {}
        # Head frame currently *deferring* (contending but not yet
        # granted), per sender.  A management frame may preempt a
        # deferring data head — the NIC's internal priority scheduler —
        # whereas a granted head is already on the air and cannot be
        # recalled.
        self._tx_contending: Dict[str, Frame] = {}
        # Per-sender contention-chain generation, bumped on every
        # _transmit_contended entry.  Pending retry events carry the
        # generation they were scheduled under and no-op on mismatch.
        # Frame identity is not enough: a preempted head can be
        # re-promoted from the queue and defer again *before* its old
        # retry event fires, and that event would then see the same
        # frame object contending and fork a second concurrent chain.
        # Entries are never removed — monotonicity is the safety
        # property, and a re-registered sender id must not restart at a
        # generation an orphaned event might still carry.
        self._tx_gen: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def _cell_of(self, channel: int, x: float, y: float) -> Tuple[int, int, int]:
        return (channel, int(x // self._bin_m), int(y // self._bin_m))

    def register(self, station: Station) -> None:
        """Add a station; id collisions are programming errors."""
        if station.station_id in self._stations:
            raise ValueError(f"duplicate station id {station.station_id!r}")
        self._stations[station.station_id] = station
        self._reg_seq[station.station_id] = self._reg_counter
        self._reg_counter += 1
        self._cand_cache.clear()
        channel = station.tuned_channel()
        if getattr(station, "is_static", False) and channel is not None:
            x, y = station.position()
            cell = self._cell_of(channel, x, y)
            self._static_bins.setdefault(cell, []).append(station)
            self._static_where[station.station_id] = cell
            if self._vec is not None:
                self._vec.add_static(station, channel, x, y)
        else:
            self._mobile[station.station_id] = station
            if self._vec is not None:
                self._vec.mobiles_changed()

    def unregister(self, station_id: str) -> None:
        """Remove a station from the medium."""
        self._stations.pop(station_id, None)
        self._reg_seq.pop(station_id, None)
        was_mobile = self._mobile.pop(station_id, None) is not None
        self._cand_cache.clear()
        cell = self._static_where.pop(station_id, None)
        if cell is not None:
            bucket = self._static_bins.get(cell, [])
            self._static_bins[cell] = [
                s for s in bucket if s.station_id != station_id
            ]
            if self._vec is not None:
                self._vec.remove_static(station_id, cell[0])
        elif was_mobile and self._vec is not None:
            self._vec.mobiles_changed()

    def stations(self) -> List[Station]:
        """All registered stations."""
        return list(self._stations.values())

    # ------------------------------------------------------------------
    def _is_retried(self, frame: Frame) -> bool:
        # Identity comparisons: enum members are singletons and the
        # frozenset-membership version spent measurable time in
        # ``Enum.__hash__`` on the delivery hot path.
        kind = frame.kind
        return (
            kind is FrameKind.DATA
            or kind is FrameKind.PING_REQUEST
            or kind is FrameKind.PING_REPLY
        ) and frame.dst != BROADCAST

    def airtime(self, frame: Frame) -> float:
        """Seconds of channel time a frame occupies.

        Data-plane unicast frames include the expected cost of link-layer
        retransmissions (``1/(1-h)`` transmissions on average).
        """
        base = frame.size * 8.0 / self.data_rate_bps + FRAME_OVERHEAD_S
        kind = frame.kind
        if (
            self.loss_rate > 0.0
            and (
                kind is FrameKind.DATA
                or kind is FrameKind.PING_REQUEST
                or kind is FrameKind.PING_REPLY
            )
            and frame.dst != BROADCAST
        ):
            # Division (not multiply-by-reciprocal) keeps the result
            # bit-identical to the historical ``base / (1 - h)``.
            return base / self._one_minus_loss
        return base

    def delivery_loss_probability(self, frame: Frame) -> float:
        """Residual loss probability after any link-layer retries.

        Reports the *stationary* (i.i.d. ``loss_rate``) figure; when a
        bursty model is installed the delivery path evaluates the
        time-varying rate via :meth:`_effective_loss` instead.
        """
        if self._is_retried(frame):
            return self.loss_rate ** (1 + DATA_RETRY_LIMIT)
        return self.loss_rate

    # ------------------------------------------------------------------
    # Bursty-loss override (fault injection)
    # ------------------------------------------------------------------
    def set_bursty_loss(self, model) -> None:
        """Route per-delivery loss through ``model.loss_rate_at(now)``.

        ``airtime`` keeps using the stationary ``loss_rate`` (it models the
        *average* retry cost); only the delivery coin-flip goes bursty.
        """
        self._bursty = model

    def clear_bursty_loss(self) -> None:
        """Return to the i.i.d. ``loss_rate`` model."""
        self._bursty = None

    @property
    def bursty_loss(self):
        """The installed bursty-loss model, if any."""
        return self._bursty

    def _effective_loss(self, frame: Frame) -> float:
        if self._bursty is None:
            h = self.loss_rate
        else:
            h = self._bursty.loss_rate_at(self.sim.now)
        kind = frame.kind
        if (
            kind is FrameKind.DATA
            or kind is FrameKind.PING_REQUEST
            or kind is FrameKind.PING_REPLY
        ) and frame.dst != BROADCAST:
            return h ** (1 + DATA_RETRY_LIMIT)
        return h

    def channel_busy_until(self, channel: int) -> float:
        """Absolute time the channel's current transmissions end.

        Under contention this is the latest busy horizon over the
        channel's carrier-sense cells — a diagnosis aid, not a sense
        point (sensing is per-cell).
        """
        if self.contention is not None:
            return self.contention.busy_until(channel)
        return self._busy_until.get(channel, 0.0)

    def _note_backlog(self, channel: int, wait_s: float) -> None:
        """Record the airtime wait a frame saw before transmitting."""
        self._obs_backlog.set_max(wait_s)
        if wait_s > BACKLOG_WARN_S and channel not in self._backlog_warned:
            self._backlog_warned.add(channel)
            self._obs_backlog_warnings.inc()
            logger.warning(
                "channel %d backlog %.2fs of sim time exceeds %.1fs: "
                "the medium is saturated (consider the contention model)",
                channel,
                wait_s,
                BACKLOG_WARN_S,
            )

    def transmit(self, sender: Station, frame: Frame) -> float:
        """Queue a frame for transmission on ``frame.channel``.

        Without contention, returns the absolute time at which the
        transmission completes.  The channel is serialized: the frame
        starts when the channel frees up.  Delivery (including the
        in-range and tuned checks) happens at completion time, so
        stations that moved away or retuned mid-flight miss the frame —
        exactly the hazard the join model studies.

        With contention enabled, serialization is per carrier-sense cell
        instead of global: the frame contends via CSMA/CA (DIFS + slotted
        backoff), and may collide with hidden terminals.  The completion
        time is then unknowable at transmit time (it depends on future
        backoff draws and queue preemption), so the return value is only
        a lower-bound *estimate* — do not pace off it.
        """
        now = self.sim.now
        channel = frame.channel
        if self.contention is not None:
            queue = self._tx_queues.get(sender.station_id)
            if queue is not None:
                # A frame from this sender is already contending or in
                # flight: queue behind it (one head frame per NIC, like
                # real hardware — also what keeps a TCP burst in order).
                # Management frames jump ahead of queued data (WMM-style
                # access categories): an AP mid-download must still answer
                # probes and handshakes before draining a ~30 ms TCP
                # burst, or every join under load times out.
                kind = frame.kind
                if (
                    kind is FrameKind.DATA
                    or kind is FrameKind.PING_REQUEST
                    or kind is FrameKind.PING_REPLY
                ):
                    queue.append(frame)
                    return now + self.airtime(frame)
                index = len(queue)
                for i, queued in enumerate(queue):
                    qk = queued.kind
                    if (
                        qk is FrameKind.DATA
                        or qk is FrameKind.PING_REQUEST
                        or qk is FrameKind.PING_REPLY
                    ):
                        index = i
                        break
                head = self._tx_contending.get(sender.station_id)
                hk = head.kind if head is not None else None
                if (
                    hk is FrameKind.DATA
                    or hk is FrameKind.PING_REQUEST
                    or hk is FrameKind.PING_REPLY
                ):
                    # The head is a data frame still *deferring* (its
                    # airtime is not booked): preempt it.  The handshake
                    # contends now (bumping the sender's chain
                    # generation, which orphans the data head's pending
                    # retry event); the data frame re-queues ahead of
                    # the other data.  A granted head is on the air and
                    # cannot be recalled.
                    queue.insert(index, head)
                    return self._transmit_contended(sender, frame, now)
                queue.insert(index, frame)
                return now + self.airtime(frame)
            self._tx_queues[sender.station_id] = deque()
            return self._transmit_contended(sender, frame, now)
        start = max(now, self._busy_until.get(channel, 0.0))
        done = start + self.airtime(frame)
        self._busy_until[channel] = done
        self.frames_sent += 1
        if start > now:
            self._note_backlog(channel, start - now)
        self.sim.schedule_fire(
            done + PROPAGATION_DELAY_S, self._deliver, sender.station_id, frame
        )
        return done

    def _transmit_contended(
        self,
        sender: Station,
        frame: Frame,
        first_attempt_s: float,
        airtime: Optional[float] = None,
        priority: bool = False,
    ) -> float:
        """CSMA/CA transmit for a sender's head frame: book or retry.

        An idle-medium grant books the frame's airtime and schedules its
        delivery; a busy medium books nothing and schedules a fresh
        attempt (re-sensing at the sender's then-current position) when
        the sensed air frees up.  ``first_attempt_s`` rides along so the
        backlog gauge reports the wait since the frame *first* tried,
        across every retry.  Each entry here starts a new contention
        chain for the sender: the generation bump invalidates any retry
        event still pending from a previous chain.  Returns the
        (possibly estimated) completion time; callers ignore it.
        """
        sender_id = sender.station_id
        gen = self._tx_gen.get(sender_id, 0) + 1
        self._tx_gen[sender_id] = gen
        sx, sy = sender.position()
        if airtime is None:
            # Computed once per frame and carried through every retry —
            # frame size never changes mid-chain.  (The position *is*
            # re-read per attempt: the sender may have moved.)
            airtime = self.airtime(frame)
            kind = frame.kind
            priority = not (
                kind is FrameKind.DATA
                or kind is FrameKind.PING_REQUEST
                or kind is FrameKind.PING_REPLY
            )
        granted, a, b = self.contention.acquire(
            sender_id, frame.channel, sx, sy, airtime, priority=priority
        )
        if not granted:
            self._tx_contending[sender_id] = frame
            # Fire-and-forget: stale retries are invalidated by the
            # generation token, never cancelled, so no handle is needed.
            self.sim.schedule_fire(
                a,
                self._retry_contended,
                sender_id,
                frame,
                first_attempt_s,
                gen,
                airtime,
                priority,
            )
            return a + airtime
        self._tx_contending.pop(sender_id, None)
        start, done = a, b
        self.frames_sent += 1
        if start > first_attempt_s:
            self._note_backlog(frame.channel, start - first_attempt_s)
        self.sim.schedule_fire(
            done + PROPAGATION_DELAY_S,
            self._deliver_contended,
            sender_id,
            frame,
            start,
            done,
        )
        return done

    def _retry_contended(
        self,
        sender_id: str,
        frame: Frame,
        first_attempt_s: float,
        gen: int,
        airtime: Optional[float] = None,
        priority: bool = False,
    ) -> None:
        """Re-contend for a deferred head frame."""
        if self._tx_gen.get(sender_id) != gen:
            # The sender's chain moved on while this retry sat in the
            # heap — a management frame preempted the head (it went back
            # into the queue), or the head was already re-promoted and
            # is contending under a newer generation.  Frame identity
            # cannot distinguish those cases (the same frame object may
            # legitimately be deferring again), so stale events check
            # the generation and no-op.
            return
        sender = self._stations.get(sender_id)
        if sender is None:
            # Sender vanished while waiting (e.g., torn down): its queued
            # frames die with it.
            self._tx_queues.pop(sender_id, None)
            self._tx_contending.pop(sender_id, None)
            return
        self._transmit_contended(sender, frame, first_attempt_s, airtime, priority)

    def _advance_tx_queue(self, sender_id: str) -> None:
        """The head frame finished: promote the next queued frame, if any."""
        queue = self._tx_queues.get(sender_id)
        if queue is None:
            return
        if not queue:
            del self._tx_queues[sender_id]
            return
        sender = self._stations.get(sender_id)
        if sender is None:
            del self._tx_queues[sender_id]
            return
        self._transmit_contended(sender, queue.popleft(), self.sim.now)

    def _deliver_contended(
        self, sender_id: str, frame: Frame, start: float, done: float
    ) -> None:
        """Delivery tail for the contention path: the scalar receiver scan
        plus the receiver-side hidden-terminal check.

        A candidate receiver whose own cell saw a foreign flight overlap
        ``[start, done)`` misses the frame without consuming a loss draw —
        interference destroyed it before channel noise got a say.
        Receivers outside the interferer's footprint still hear it.  A
        unicast frame whose destination was wiped fails exactly like an
        out-of-range one (the ACK never comes back), and additionally
        widens the sender's contention window.

        When the vector index is engaged, receiver resolution goes
        through the same survivor rows as the uncontended path (the rows
        carry each receiver's position and exact distance, which is all
        the per-receiver interference geometry needs) and
        :meth:`_apply_contended` runs the contended tail; otherwise the
        scalar candidate walk below does both.
        """
        sender = self._stations.get(sender_id)
        if sender is None:
            # Sender vanished mid-flight (e.g., torn down): its queued
            # frames die with it.
            self._tx_queues.pop(sender_id, None)
            self._tx_contending.pop(sender_id, None)
            return
        contention = self.contention
        sx, sy = sender.position()
        if self._vec is not None and len(self._stations) >= VECTOR_MIN_STATIONS:
            self._apply_contended(
                sender,
                frame,
                self._vec.survivors(sender_id, frame, sx, sy),
                start,
                done,
            )
            return
        receiver_reachable = False
        interfered_any = False
        loss_p = self._effective_loss(frame)
        channel = frame.channel
        dst = frame.dst
        broadcast = dst == BROADCAST
        range_m = self.range_m
        rng_random = self._rng.random
        hooks = self.delivery_hooks
        hypot = math.hypot
        for station, static_pos in self._candidates(channel, sx, sy):
            if station.station_id == sender_id:
                continue
            if static_pos is None:
                if station.tuned_channel() != channel:
                    continue
                if not broadcast and not station.accepts(dst):
                    continue
                rx, ry = station.position()
            else:
                if not broadcast and not station.accepts(dst):
                    continue
                rx, ry = static_pos
            distance = hypot(sx - rx, sy - ry)
            if distance > range_m:
                continue
            if contention.interfered(
                sender_id, channel, rx, ry, start, done, distance
            ):
                interfered_any = True
                continue
            receiver_reachable = True
            if rng_random() < loss_p:
                self.frames_lost += 1
                self._obs_drops.inc()
                continue
            self.frames_delivered += 1
            for hook in hooks:
                hook(frame, station.station_id)
            station.on_frame(frame, rssi_from_distance(distance))
        if interfered_any:
            self.frames_collided += 1
            contention.note_collision(
                sender_id, frame_failed=not broadcast and not receiver_reachable
            )
        if not broadcast and not receiver_reachable:
            failed = getattr(sender, "on_delivery_failed", None)
            if failed is not None:
                failed(frame)
        self._advance_tx_queue(sender_id)

    # ------------------------------------------------------------------
    def _candidates(
        self, frame_channel: int, sx: float, sy: float
    ) -> List[Tuple[Station, Optional[Tuple[float, float]]]]:
        """Receiver candidates: all mobiles + static stations near (sx, sy).

        Each entry is ``(station, pos)`` where ``pos`` is the fixed position
        of a static station (its ``is_static`` contract: position and tuned
        channel never change) or ``None`` for a mobile one, letting the
        delivery loop skip the per-frame position/tuned-channel calls for
        the static majority.  Sorted by registration order so the delivery
        loop is byte-for-byte deterministic with the historical scan over
        every station.  The list is a pure function of (channel, sender
        cell) and the current registration set, so it is cached until the
        next (un)register.
        """
        key = (frame_channel, int(sx // self._bin_m), int(sy // self._bin_m))
        cached = self._cand_cache.get(key)
        if cached is not None:
            return cached
        candidates: List[Tuple[Station, Optional[Tuple[float, float]]]] = [
            (s, None) for s in self._mobile.values()
        ]
        _, bx, by = key
        bins = self._static_bins
        for cx in (bx - 1, bx, bx + 1):
            for cy in (by - 1, by, by + 1):
                bucket = bins.get((frame_channel, cx, cy))
                if bucket:
                    candidates.extend((s, s.position()) for s in bucket)
        if len(candidates) > 1:
            seq = self._reg_seq
            candidates.sort(key=lambda c: seq[c[0].station_id])
        self._cand_cache[key] = candidates
        return candidates

    def _deliver(self, sender_id: str, frame: Frame) -> None:
        sender = self._stations.get(sender_id)
        if sender is None:
            return  # sender vanished mid-flight (e.g., torn down)
        sx, sy = sender.position()
        if self._vec is not None and len(self._stations) >= VECTOR_MIN_STATIONS:
            self._apply(
                sender, frame, self._vec.survivors(sender_id, frame, sx, sy)
            )
            return
        receiver_reachable = False
        loss_p = self._effective_loss(frame)
        channel = frame.channel
        dst = frame.dst
        broadcast = dst == BROADCAST
        range_m = self.range_m
        rng_random = self._rng.random
        hooks = self.delivery_hooks
        hypot = math.hypot
        for station, static_pos in self._candidates(channel, sx, sy):
            if station.station_id == sender_id:
                continue
            if static_pos is None:
                # Mobile: channel and position can change frame to frame.
                if station.tuned_channel() != channel:
                    continue
                if not broadcast and not station.accepts(dst):
                    continue
                rx, ry = station.position()
            else:
                # Static: the bin key already guarantees the channel match.
                if not broadcast and not station.accepts(dst):
                    continue
                rx, ry = static_pos
            distance = hypot(sx - rx, sy - ry)
            if distance > range_m:
                continue
            receiver_reachable = True
            if rng_random() < loss_p:
                self.frames_lost += 1
                self._obs_drops.inc()
                continue
            self.frames_delivered += 1
            for hook in hooks:
                hook(frame, station.station_id)
            station.on_frame(frame, rssi_from_distance(distance))
        if not broadcast and not receiver_reachable:
            # No eligible receiver: the link-layer ACK never comes back.
            # Senders that care (APs re-queueing toward sleeping clients)
            # implement on_delivery_failed.
            failed = getattr(sender, "on_delivery_failed", None)
            if failed is not None:
                failed(frame)

    def _apply(self, sender: Station, frame: Frame, survivors: List) -> None:
        """Deliver to a pre-resolved receiver list (the vector path's tail).

        ``survivors`` holds ``(seq, station, rssi, ignores_beacons, rx,
        ry, distance)`` rows in registration order, every row already
        past the exact channel, ``accepts`` and range predicates — so the
        loss draws taken here consume the ``medium.loss`` stream exactly
        as the scalar scan in :meth:`_deliver` does: one draw per
        in-range receiver, in registration order, interleaved with the
        receiver callbacks just like the scalar loop.  Beacon deliveries
        to stations declaring ``ignores_beacons`` skip the no-op
        ``on_frame`` call — counters, hooks, and the loss draw still
        happen, keeping every observable identical.  (The position/
        distance columns exist for :meth:`_apply_contended`.)
        """
        loss_p = self._effective_loss(frame)
        rng_random = self._rng.random
        hooks = self.delivery_hooks
        beacon = frame.kind is FrameKind.BEACON
        lost = 0
        delivered = 0
        for _seq, station, rssi, ignores_beacons, _rx, _ry, _dist in survivors:
            if rng_random() < loss_p:
                lost += 1
                continue
            delivered += 1
            if hooks:
                for hook in hooks:
                    hook(frame, station.station_id)
            if beacon and ignores_beacons:
                continue
            station.on_frame(frame, rssi)
        if delivered:
            self.frames_delivered += delivered
        if lost:
            self.frames_lost += lost
            self._obs_drops.inc(lost)
        if frame.dst != BROADCAST and not survivors:
            failed = getattr(sender, "on_delivery_failed", None)
            if failed is not None:
                failed(frame)

    def _apply_contended(
        self,
        sender: Station,
        frame: Frame,
        survivors: List,
        start: float,
        done: float,
    ) -> None:
        """Contended delivery to pre-resolved receivers (vector tail).

        Mirrors the scalar loop in :meth:`_deliver_contended` row for
        row: survivor rows arrive in registration order with the exact
        ``math.hypot`` distance the scalar walk would compute, each row
        runs the same receiver-side :meth:`ContentionState.interfered`
        check first (a wiped receiver consumes no loss draw), and the
        collision/window/failed-delivery accounting at the tail is the
        same code shape — so results, counters, and both RNG streams stay
        byte-identical whichever path resolved the receivers.
        """
        contention = self.contention
        sender_id = sender.station_id
        channel = frame.channel
        broadcast = frame.dst == BROADCAST
        loss_p = self._effective_loss(frame)
        rng_random = self._rng.random
        hooks = self.delivery_hooks
        beacon = frame.kind is FrameKind.BEACON
        # Flags are precomputed per delivery (one batched state call):
        # they consume no randomness and mid-delivery bookings can never
        # overlap this delivery, so the early evaluation is invisible to
        # the draw streams and the scalar walk's answers.
        wiped = (
            contention.interfered_rows(sender_id, channel, survivors, start, done)
            if survivors
            else ()
        )
        receiver_reachable = False
        interfered_any = False
        for hit, (_seq, station, rssi, ignores_beacons, _rx, _ry, _dist) in zip(
            wiped, survivors
        ):
            if hit:
                interfered_any = True
                continue
            receiver_reachable = True
            if rng_random() < loss_p:
                self.frames_lost += 1
                self._obs_drops.inc()
                continue
            self.frames_delivered += 1
            for hook in hooks:
                hook(frame, station.station_id)
            if beacon and ignores_beacons:
                continue
            station.on_frame(frame, rssi)
        if interfered_any:
            self.frames_collided += 1
            contention.note_collision(
                sender_id, frame_failed=not broadcast and not receiver_reachable
            )
        if not broadcast and not receiver_reachable:
            failed = getattr(sender, "on_delivery_failed", None)
            if failed is not None:
                failed(frame)
        self._advance_tx_queue(sender_id)
