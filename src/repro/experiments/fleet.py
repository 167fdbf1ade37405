"""Fleet experiment: several Spider vehicles sharing one town.

The paper's §2.2 measurements ran on five vehicles simultaneously.  This
experiment puts ``n`` Spider clients (single-channel multi-AP) on the same
loop, staggered along the route, and measures how per-vehicle and aggregate
performance scale.  Vehicles contend for three resources the substrate
models explicitly: channel airtime, per-AP backhaul, and the LMM's
one-interface-per-AP rule (two vehicles *can* share an AP — they are
different stations — but they split its backhaul).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..analysis.reporting import format_table
from ..core.schedule import OperationMode
from ..obs.telemetry import Telemetry, TelemetrySnapshot
from ..runner import TrialJob, run_jobs
from ..sim.cc import TransportSpec
from ..sim.contention import ContentionSpec
from ..sim.engine import Simulator
from ..workloads.town import build_town
from .api import ExperimentSpec, register
from .common import fleet_totals, start_fleet

__all__ = [
    "FleetSpec",
    "FleetRow",
    "FleetResult",
    "run_spec",
]


@dataclass
class FleetRow:
    """One fleet size's per-vehicle and aggregate outcomes."""
    vehicles: int
    per_vehicle_kBps: float
    aggregate_kBps: float
    mean_connectivity_pct: float
    #: Per-vehicle telemetry slices (``veh{i}.``-scoped) in vehicle order
    #: when the trial ran with telemetry; ``None`` otherwise.
    vehicle_telemetry: Optional[Tuple[TelemetrySnapshot, ...]] = None


@dataclass
class FleetResult:
    """All fleet rows."""
    rows: List[FleetRow]
    #: Per-vehicle snapshots in (fleet size, seed, vehicle) order when the
    #: spec ran with ``telemetry=True`` — the generic ``--telemetry``
    #: export picks these up via ``repro.obs.collect_snapshots``.
    telemetry: Optional[Tuple[TelemetrySnapshot, ...]] = None

    def aggregate_grows(self) -> bool:
        """Whether aggregate fleet throughput is (weakly) increasing."""
        aggregates = [r.aggregate_kBps for r in self.rows]
        return all(b >= 0.8 * a for a, b in zip(aggregates, aggregates[1:]))

    def per_vehicle_declines_gracefully(self) -> bool:
        """Per-vehicle share shrinks with fleet size but never collapses."""
        per = [r.per_vehicle_kBps for r in self.rows]
        return per[-1] > 0.2 * per[0]

    def render(self) -> str:
        """Render the result as printable text."""
        return format_table(
            ["vehicles", "per-vehicle", "aggregate", "mean connectivity"],
            [
                (
                    r.vehicles,
                    f"{r.per_vehicle_kBps:.1f} kB/s",
                    f"{r.aggregate_kBps:.1f} kB/s",
                    f"{r.mean_connectivity_pct:.1f}%",
                )
                for r in self.rows
            ],
            title="Fleet scaling: Spider vehicles sharing one town",
        )


def _run_fleet(
    n_vehicles: int,
    seed: int,
    duration_s: float,
    town_preset: str,
    telemetry: bool = False,
    transport: Optional[TransportSpec] = None,
    contention: Optional[ContentionSpec] = None,
) -> FleetRow:
    """Drive the staggered ``n_vehicles`` fleet once and fold it into a row.

    Vehicles interact through shared airtime, backhaul, and the LMM's
    one-interface-per-AP rule, so the whole fleet is one coupled
    simulation, a pure function of the seed.  With ``telemetry=True`` the
    row carries each vehicle's ``"veh{i}."``-scoped slice of the shared
    capture, in vehicle order.
    """
    tele = (
        Telemetry(enabled=True, key=("fleet", n_vehicles, seed))
        if telemetry
        else None
    )
    sim = Simulator(seed=seed, telemetry=tele)
    town = build_town(sim, preset=town_preset, transport=transport, contention=contention)
    clients = start_fleet(town, n_vehicles, 10.0, OperationMode.single_channel(1))
    sim.run(until=duration_s)
    snapshots = None
    if tele is not None:
        snap = tele.snapshot()
        snapshots = tuple(snap.scoped(f"veh{i}.") for i in range(n_vehicles))
    totals = fleet_totals(clients, duration_s)
    return FleetRow(
        vehicles=n_vehicles,
        per_vehicle_kBps=totals.aggregate_kBps / n_vehicles,
        aggregate_kBps=totals.aggregate_kBps,
        mean_connectivity_pct=totals.mean_connectivity_pct,
        vehicle_telemetry=snapshots,
    )


@dataclass(frozen=True)
class FleetSpec(ExperimentSpec):
    """Spec for fleet scaling (base ``town`` names the town preset)."""

    seeds: Tuple[int, ...] = (0,)
    fleet_sizes: Tuple[int, ...] = (1, 2, 5)

    def __post_init__(self) -> None:
        for size in self.fleet_sizes:
            if size < 1:
                raise ValueError(f"fleet sizes must be at least 1, got {size!r}")


@register("fleet", FleetSpec, summary="fleet scaling on one shared town")
def run_spec(spec: FleetSpec) -> FleetResult:
    """Every ``(fleet size, seed)`` drive is an independent simulation, so
    the whole grid fans out through :mod:`repro.runner`; per-size
    aggregation happens on the deterministically ordered results.
    """
    jobs = [
        TrialJob(
            _run_fleet,
            (
                size,
                seed,
                spec.duration_s,
                spec.town,
                spec.telemetry,
                spec.transport,
                spec.contention,
            ),
            tag=(size, seed),
        )
        for size in spec.fleet_sizes
        for seed in spec.seeds
    ]
    envelopes = run_jobs(
        jobs, workers=spec.workers, timeout_s=spec.timeout_s, retries=spec.retries
    )
    by_size: dict = {}
    for job, result in zip(jobs, envelopes):
        by_size.setdefault(job.tag[0], []).append(result.unwrap())
    rows = []
    snapshots: List[TelemetrySnapshot] = []
    for size in spec.fleet_sizes:
        per_seed = by_size[size]
        n = len(per_seed)
        for r in per_seed:
            if r.vehicle_telemetry:
                snapshots.extend(r.vehicle_telemetry)
        rows.append(
            FleetRow(
                vehicles=size,
                per_vehicle_kBps=sum(r.per_vehicle_kBps for r in per_seed) / n,
                aggregate_kBps=sum(r.aggregate_kBps for r in per_seed) / n,
                mean_connectivity_pct=sum(
                    r.mean_connectivity_pct for r in per_seed
                ) / n,
            )
        )
    return FleetResult(rows=rows, telemetry=tuple(snapshots) or None)
