"""Tests for the synthetic town and lab workload generators."""

from __future__ import annotations

import math

import pytest

from repro.sim.engine import Simulator
from repro.sim.frames import DhcpMessage, DhcpType
from repro.workloads.town import PRESETS, TownConfig, build_town, lab_topology


class TestTownConfig:
    def test_presets_valid(self):
        for name, config in PRESETS.items():
            assert config.expected_ap_count > 0, name

    def test_channel_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TownConfig(channel_mix={1: 0.5, 6: 0.2})

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            TownConfig(loop_length_m=0.0)


class TestBuildTown:
    def test_deterministic_for_seed(self):
        town_a = build_town(Simulator(seed=11), preset="amherst")
        town_b = build_town(Simulator(seed=11), preset="amherst")
        assert [ap.channel for ap in town_a.aps] == [ap.channel for ap in town_b.aps]
        assert town_a.ap_arc_positions == town_b.ap_arc_positions

    def test_different_seeds_differ(self):
        town_a = build_town(Simulator(seed=1), preset="amherst")
        town_b = build_town(Simulator(seed=2), preset="amherst")
        assert town_a.ap_arc_positions != town_b.ap_arc_positions

    def test_ap_count_near_expected(self):
        counts = [
            len(build_town(Simulator(seed=s), preset="amherst").aps) for s in range(6)
        ]
        expected = PRESETS["amherst"].expected_ap_count
        mean = sum(counts) / len(counts)
        assert 0.5 * expected < mean < 1.6 * expected

    def test_channel_mix_roughly_honoured(self):
        channels = []
        for seed in range(8):
            town = build_town(Simulator(seed=seed), preset="amherst")
            channels.extend(ap.channel for ap in town.aps)
        on_core = sum(1 for c in channels if c in (1, 6, 11)) / len(channels)
        assert on_core > 0.85  # 95% nominally

    def test_denser_preset_has_more_aps(self):
        sparse = [len(build_town(Simulator(seed=s), preset="sparse").aps) for s in range(4)]
        dense = [len(build_town(Simulator(seed=s), preset="dense").aps) for s in range(4)]
        assert sum(dense) > sum(sparse)

    def test_aps_offset_from_route(self):
        config = PRESETS["amherst"]
        town = build_town(Simulator(seed=3), config=None, preset="amherst")
        radius = config.loop_length_m / (2 * math.pi)
        for ap in town.aps:
            x, y = ap.position()
            distance = math.hypot(x, y)
            assert distance >= radius + config.offset_range_m[0] - 1.0
            assert distance <= radius + config.offset_range_m[1] + 1.0

    def test_uniform_placement_mode(self):
        from dataclasses import replace

        config = replace(PRESETS["amherst"], clustered=False)
        town = build_town(Simulator(seed=5), config=config)
        assert len(town.aps) > 0

    def test_config_and_preset_mutually_exclusive(self):
        with pytest.raises(ValueError):
            build_town(Simulator(seed=0), config=PRESETS["amherst"], preset="amherst")

    def test_vehicle_mobility_on_route(self):
        town = build_town(Simulator(seed=0), preset="amherst")
        mobility = town.make_vehicle_mobility(10.0)
        x, y = mobility.position_at(0.0)
        radius = town.config.loop_length_m / (2 * math.pi)
        assert math.hypot(x, y) == pytest.approx(radius)

    def test_channel_counts_helper(self):
        town = build_town(Simulator(seed=0), preset="amherst")
        counts = town.channel_counts()
        assert sum(counts.values()) == len(town.aps)


def _dhcp_streams(sim):
    return sorted(name for name in sim._streams if name.startswith("town.dhcp."))


def _discover(ap, transaction_id):
    offers = []
    message = DhcpMessage(DhcpType.DISCOVER, transaction_id, "02:00:00:00:00:01")
    ap.dhcp.handle(message, lambda reply, delay: offers.append(delay))
    return offers


class TestLazyDhcpStreams:
    """Per-AP DHCP streams exist only for APs that answered a DISCOVER."""

    def test_city_build_creates_no_dhcp_stream(self):
        sim = Simulator(seed=3)
        town = build_town(sim, preset="city")
        assert len(town.aps) > 1000
        assert _dhcp_streams(sim) == []

    def test_one_response_creates_exactly_one_stream(self):
        sim = Simulator(seed=3)
        town = build_town(sim, preset="city")
        assert len(_discover(town.aps[7], transaction_id=1)) == 1
        assert _dhcp_streams(sim) == ["town.dhcp.7"]
        # A retransmitted DISCOVER of the same transaction draws nothing.
        _discover(town.aps[7], transaction_id=1)
        assert _dhcp_streams(sim) == ["town.dhcp.7"]

    def test_delays_do_not_depend_on_stream_creation_order(self):
        lazy_sim = Simulator(seed=3)
        lazy = build_town(lazy_sim, preset="amherst")
        eager_sim = Simulator(seed=3)
        for i in reversed(range(len(lazy.aps))):
            eager_sim.rng(f"town.dhcp.{i}")
        eager = build_town(eager_sim, preset="amherst")
        picks = (0, len(lazy.aps) // 2, len(lazy.aps) - 1)
        lazy_delays = [_discover(lazy.aps[i], 1) + _discover(lazy.aps[i], 2) for i in picks]
        eager_delays = [_discover(eager.aps[i], 1) + _discover(eager.aps[i], 2) for i in picks]
        assert lazy_delays == eager_delays


class TestLabTopology:
    def test_builds_requested_aps(self, sim):
        world, aps, client_pos = lab_topology(sim, [(1, 2e6), (11, 3e6)])
        assert [ap.channel for ap in aps] == [1, 11]
        assert aps[0].backhaul_rate_bps == 2e6
        assert client_pos.position_at(0.0) == (0.0, 0.0)

    def test_aps_within_client_range(self, sim):
        world, aps, _ = lab_topology(sim, [(1, 1e6)] * 3)
        for ap in aps:
            x, y = ap.position()
            assert math.hypot(x, y) < world.medium.range_m

    def test_deterministic_dhcp_delay(self, sim):
        world, aps, _ = lab_topology(sim, [(1, 1e6)], dhcp_delay_s=0.7)
        assert aps[0].dhcp.response_delay() == 0.7

    def test_empty_spec_rejected(self, sim):
        with pytest.raises(ValueError):
            lab_topology(sim, [])
