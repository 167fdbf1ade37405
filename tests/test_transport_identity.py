"""Byte-identity: Reno behind the CC interface matches the legacy path.

The refactor's contract: extracting congestion control into
:mod:`repro.sim.cc` must not change a single byte of any default-transport
result.  Equivalent selections — ``transport=None`` (the historical
default), an explicit ``TransportSpec()`` (what ``--cc reno`` builds), and
a spec rebuilt from its own ``TcpParams`` view — must produce identical
metrics *and* identical telemetry snapshots across the table2/fig8 grids.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.common import TownTrialSpec, run_town_trial_spec
from repro.experiments.api import run_experiment
from repro.experiments.fig7_tcp_fraction import Fig7Spec, measure_lab_throughput
from repro.experiments.town_runs import standard_factories
from repro.sim.cc import TransportSpec
from repro.sim.engine import Simulator
from repro.sim.frames import TcpSegment
from repro.sim.tcp import TcpParams, TcpReceiver, TcpSender

TABLE2_LABELS = tuple(standard_factories())


def run_cell(label: str, seed: int, transport):
    spec = TownTrialSpec(
        factory=standard_factories()[label],
        label=label,
        seed=seed,
        duration_s=40.0,
        telemetry=True,
        transport=transport,
    )
    return run_town_trial_spec(spec)


def strip_telemetry(metrics):
    """The metric fields alone (telemetry compared separately)."""
    from dataclasses import replace

    return replace(metrics, telemetry=None)


class TestTable2GridIdentity:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        label=st.sampled_from(TABLE2_LABELS),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_explicit_reno_is_byte_identical_to_default(self, label, seed):
        default = run_cell(label, seed, transport=None)
        explicit = run_cell(label, seed, transport=TransportSpec())
        assert pickle.dumps(strip_telemetry(default)) == pickle.dumps(
            strip_telemetry(explicit)
        )
        # Telemetry too: per-CC instruments register only for non-default
        # transports, so the exports match byte for byte.
        assert default.telemetry is not None
        assert pickle.dumps(default.telemetry.deterministic()) == pickle.dumps(
            explicit.telemetry.deterministic()
        )

    def test_legacy_params_spec_matches_transport_spec(self):
        """The controllers' ``TcpParams`` view carries every numeric knob."""
        spec = TransportSpec(mss=1000, rto_min_s=0.3)
        assert spec.params() == TcpParams(mss=1000, rto_min_s=0.3)
        assert TransportSpec(**vars(spec.params())) == spec


class TestFig8Identity:
    @pytest.mark.parametrize("dwell_ms", [66.0, 300.0])
    def test_lab_throughput_identical(self, dwell_ms):
        from repro.core.schedule import OperationMode

        period_s = 3.0 * dwell_ms / 1e3
        mode = OperationMode.equal_split((1, 6, 11), period_s)
        default = measure_lab_throughput(mode, measure_s=20.0)
        explicit = measure_lab_throughput(
            mode, measure_s=20.0, transport=TransportSpec()
        )
        assert default == explicit


class TestFig7Transport:
    """fig7 runs the spec's transport as given: its TCP knobs reach the lab
    client instead of being reset to the defaults."""

    @staticmethod
    def _kbps(transport):
        spec = Fig7Spec(fractions=(1.0,), measure_s=10.0, transport=transport)
        return run_experiment("fig7", spec).unwrap().throughput_kbps[0]

    @pytest.mark.parametrize(
        "transport",
        [TransportSpec(max_cwnd_segments=2.0), TransportSpec(mss=300)],
        ids=["max_cwnd_2", "mss_300"],
    )
    def test_tcp_knobs_change_throughput(self, transport):
        assert self._kbps(transport) < 0.5 * self._kbps(None)


class TestSegmentTraceIdentity:
    """At the TCP layer: the default, an explicit spec, and a spec rebuilt
    from its ``TcpParams`` view all emit the identical segment trace under
    identical loss."""

    def run_pipe(self, build_sender):
        sim = Simulator(seed=3)
        trace = []
        holder = {}

        def down(segment: TcpSegment) -> None:
            trace.append(
                (sim.now, segment.seq, segment.payload_bytes, segment.retransmit)
            )
            if (segment.seq // 1400) % 7 == 3 and not segment.retransmit:
                return  # deterministic drop pattern
            sim.schedule(0.05, receiver.on_segment, segment)

        def up(ack: TcpSegment) -> None:
            sim.schedule(0.05, holder["sender"].on_ack, ack)

        receiver = TcpReceiver(
            sim, "f", "c", "s", send_ack=up, on_deliver=lambda n: None
        )
        holder["sender"] = build_sender(sim, down)
        holder["sender"].start()
        sim.run(until=30.0)
        return trace

    def test_all_three_construction_paths_identical(self):
        def default(sim, down):
            return TcpSender(sim, "f", "s", "c", transmit=down, total_bytes=80_000)

        def via_transport(sim, down):
            return TcpSender(
                sim, "f", "s", "c", transmit=down, total_bytes=80_000,
                transport=TransportSpec(),
            )

        def via_params_view(sim, down):
            return TcpSender(
                sim, "f", "s", "c", transmit=down, total_bytes=80_000,
                transport=TransportSpec(**vars(TransportSpec().params())),
            )

        traces = [
            self.run_pipe(build)
            for build in (default, via_transport, via_params_view)
        ]
        assert traces[0] == traces[1] == traces[2]
        assert len(traces[0]) > 50  # the run actually did something
