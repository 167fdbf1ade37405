"""Shared harness for the per-figure/table experiment modules.

Every §4 experiment is "drive a client around a synthetic town and collect
the four metrics".  :func:`run_town_trial` executes one such run for any
client (Spider in any configuration, or the stock baseline);
:func:`run_town_trials` averages over seeds.  Experiment modules supply a
client factory and post-process the returned :class:`TownRunMetrics`.

Trials are independent — each builds its own :class:`Simulator` from its
seed — so :func:`run_town_trials` and the suite-level helpers fan them out
across worker processes via :mod:`repro.runner`.  A trial's outcome is a
pure function of its :class:`TownTrialSpec`, which is what makes the
parallel path bit-identical to the serial one.  Factories passed to the
parallel path must be picklable (module-level functions or dataclass
callables, as in :mod:`repro.experiments.town_runs`); unpicklable ad-hoc
factories silently fall back to serial execution.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..obs.telemetry import Telemetry, TelemetrySnapshot, merge_snapshots
from ..runner import TrialJob, TrialResult, run_jobs, unwrap_all
from ..sim.cc import TransportSpec
from ..sim.contention import ContentionSpec
from ..sim.engine import Simulator
from ..sim.faults import FaultPlan, install_faults
from ..sim.metrics import JoinLog
from ..sim.mobility import MobilityModel
from ..sim.world import World
from ..workloads.town import TownConfig, build_town

if TYPE_CHECKING:
    from .api import ExperimentSpec

__all__ = [
    "ClientFactory",
    "TownRunMetrics",
    "AggregatedMetrics",
    "TownTrialSpec",
    "run_town_trial",
    "run_town_trial_spec",
    "run_town_trials",
    "run_town_trial_specs",
    "run_town_trial_envelopes",
    "salvage_town_trials",
    "aggregate_town_trials",
    "DEFAULT_TRIAL_DURATION_S",
    "DEFAULT_VEHICLE_SPEED_MPS",
]

#: Default per-trial simulated duration.  The paper drives 30-60 minutes;
#: quick benches use 300 s and the full mode passes more.
DEFAULT_TRIAL_DURATION_S = 300.0
#: Vehicular speed for town circuits (≈22 mph, the paper's threshold case).
DEFAULT_VEHICLE_SPEED_MPS = 10.0

#: A client factory builds a started-able client from (sim, world, mobility).
ClientFactory = Callable[[Simulator, World, MobilityModel], object]


@dataclass
class TownRunMetrics:
    """Everything an experiment might need from one town run."""

    label: str
    seed: int
    duration_s: float
    average_throughput_kBps: float
    connectivity_pct: float
    connection_durations_s: List[float]
    disruption_durations_s: List[float]
    instantaneous_kBps: List[float]
    join_log: JoinLog
    links_established: int
    events_processed: int
    #: Per-trial :mod:`repro.obs` capture (``None`` unless the trial ran
    #: with ``telemetry=True``).  Snapshots are frozen and picklable, so
    #: they ride the TrialResult envelope across worker processes and are
    #: merged deterministically on the submitting side.
    telemetry: Optional[TelemetrySnapshot] = None


def run_town_trial(
    factory: ClientFactory,
    label: str,
    seed: int = 0,
    duration_s: float = DEFAULT_TRIAL_DURATION_S,
    town: Union[str, TownConfig, None] = "amherst",
    speed_mps: float = DEFAULT_VEHICLE_SPEED_MPS,
    faults: Optional[FaultPlan] = None,
    telemetry: bool = False,
    transport: Optional[TransportSpec] = None,
    contention: Optional[ContentionSpec] = None,
) -> TownRunMetrics:
    """Build a town, drive one client around it, and collect metrics.

    ``faults`` installs a :class:`~repro.sim.faults.FaultPlan` against the
    town's infrastructure before the client starts; ``None`` (or an empty
    plan) leaves the run untouched — and consumes zero extra randomness, so
    fault-free metrics are unchanged by the subsystem's existence.

    ``telemetry=True`` attaches a :class:`repro.obs.Telemetry` registry to
    the simulator and returns its snapshot on the metrics object.
    Telemetry neither schedules events nor consumes RNG, so the metric
    fields are bit-identical with it on or off.

    ``transport`` selects the world-wide congestion controller and AP
    connection-splitting (``None`` keeps the historical Reno/no-split
    default, byte-identical to runs predating the transport subsystem).

    ``contention`` selects the CSMA/CA multi-cell MAC (``None`` keeps the
    historical global per-channel airtime FIFO, byte-identical to runs
    predating the contention subsystem).
    """
    tele = Telemetry(enabled=True, key=("town", label, seed)) if telemetry else None
    sim = Simulator(seed=seed, telemetry=tele)
    if isinstance(town, TownConfig):
        instance = build_town(
            sim, config=town, transport=transport, contention=contention
        )
    else:
        instance = build_town(
            sim,
            preset=town or "amherst",
            transport=transport,
            contention=contention,
        )
    mobility = instance.make_vehicle_mobility(speed_mps)
    install_faults(sim, instance.world, faults)
    client = factory(sim, instance.world, mobility)
    client.start()
    sim.run(until=duration_s)
    recorder = client.recorder
    return TownRunMetrics(
        label=label,
        seed=seed,
        duration_s=duration_s,
        average_throughput_kBps=recorder.average_throughput_bps(duration_s) / 1e3,
        connectivity_pct=100.0 * recorder.connectivity_fraction(duration_s),
        connection_durations_s=recorder.connection_durations(duration_s),
        disruption_durations_s=recorder.disruption_durations(duration_s),
        instantaneous_kBps=[
            b / 1e3 for b in recorder.instantaneous_bandwidths_bps(duration_s)
        ],
        join_log=client.join_log,
        links_established=client.links_established,
        events_processed=sim.events_processed,
        telemetry=tele.snapshot() if tele is not None else None,
    )


@dataclass
class AggregatedMetrics:
    """Seed-averaged metrics with pooled distributions."""

    label: str
    trials: List[TownRunMetrics]

    @property
    def average_throughput_kBps(self) -> float:
        """Mean delivered throughput in kilobytes/second."""
        return _mean([t.average_throughput_kBps for t in self.trials])

    @property
    def connectivity_pct(self) -> float:
        """Mean connectivity percentage across trials."""
        return _mean([t.connectivity_pct for t in self.trials])

    @property
    def connection_durations_s(self) -> List[float]:
        """Pooled connection durations across trials."""
        return [d for t in self.trials for d in t.connection_durations_s]

    @property
    def disruption_durations_s(self) -> List[float]:
        """Pooled disruption durations across trials."""
        return [d for t in self.trials for d in t.disruption_durations_s]

    @property
    def instantaneous_kBps(self) -> List[float]:
        """Pooled instantaneous bandwidth samples (kB/s)."""
        return [b for t in self.trials for b in t.instantaneous_kBps]

    def pooled_join_times(self) -> List[float]:
        """Join times pooled across all trials."""
        return [jt for t in self.trials for jt in t.join_log.join_times()]

    def pooled_association_times(self) -> List[float]:
        """Association times pooled across all trials."""
        return [a for t in self.trials for a in t.join_log.association_times()]

    def pooled_dhcp_times(self) -> List[float]:
        """DHCP times pooled across all trials."""
        return [d for t in self.trials for d in t.join_log.dhcp_times()]

    def dhcp_failure_rates(self) -> List[float]:
        """Per-trial DHCP failure rates (NaN-free)."""
        rates = [t.join_log.dhcp_failure_rate() for t in self.trials]
        return [r for r in rates if r == r]  # drop NaN

    def merged_telemetry(self) -> Optional[TelemetrySnapshot]:
        """All trials' telemetry merged in seed order, or ``None``.

        Trials arrive in spec (seed) order regardless of worker layout, so
        the merge is deterministic — the same discipline the metric
        aggregation relies on.
        """
        snaps = [t.telemetry for t in self.trials if t.telemetry is not None]
        if not snaps:
            return None
        return merge_snapshots(snaps, key=("label", self.label))


@dataclass(frozen=True)
class TownTrialSpec:
    """A picklable description of one town trial.

    Running a spec (in any process) yields the same :class:`TownRunMetrics`
    because the simulator is rebuilt from scratch from these fields alone.
    """

    factory: ClientFactory
    label: str
    seed: int = 0
    duration_s: float = DEFAULT_TRIAL_DURATION_S
    town: Union[str, TownConfig, None] = "amherst"
    speed_mps: float = DEFAULT_VEHICLE_SPEED_MPS
    faults: Optional[FaultPlan] = None
    telemetry: bool = False
    #: ``None`` (the default) leaves the world on its historical Reno /
    #: no-split transport, producing results byte-identical to specs that
    #: predate the field.
    transport: Optional[TransportSpec] = None
    #: ``None`` (the default) keeps the historical global per-channel
    #: airtime FIFO; a :class:`~repro.sim.contention.ContentionSpec`
    #: switches the trial's medium to the CSMA/CA multi-cell MAC.
    contention: Optional[ContentionSpec] = None


def run_town_trial_spec(spec: TownTrialSpec) -> TownRunMetrics:
    """Execute one :class:`TownTrialSpec` (the worker-side entry point)."""
    return run_town_trial(
        spec.factory,
        spec.label,
        seed=spec.seed,
        duration_s=spec.duration_s,
        town=spec.town,
        speed_mps=spec.speed_mps,
        faults=spec.faults,
        telemetry=spec.telemetry,
        transport=spec.transport,
        contention=spec.contention,
    )


def run_town_trial_envelopes(
    specs: Sequence[TownTrialSpec],
    workers: Optional[int] = None,
    timeout_s: Optional[float] = None,
    retries: Optional[int] = None,
    cache: Optional[object] = None,
) -> List[TrialResult]:
    """Fan trial specs across workers; envelopes in spec order.

    Callers flatten their whole ``config x seed`` grid into one batch so
    the pool balances across all of it, then regroup the ordered results.
    Each envelope's ``tag`` is ``(label, seed)``; failed trials come back
    as ``ok=False`` without disturbing their siblings.

    ``cache`` resolves via :func:`repro.cache.resolve_cache`; because a
    trial spec is frozen and picklable, its content address covers the
    factory, seed, duration, town, fault plan, and telemetry flag, so an
    already-computed trial — snapshot included — is replayed from the
    cache instead of re-simulated.
    """
    jobs = [
        TrialJob(run_town_trial_spec, (spec,), tag=(spec.label, spec.seed))
        for spec in specs
    ]
    return run_jobs(
        jobs, workers=workers, timeout_s=timeout_s, retries=retries, cache=cache
    )


def run_town_trial_specs(
    specs: Sequence[TownTrialSpec],
    workers: Optional[int] = None,
) -> List[TownRunMetrics]:
    """Strict fan-out: metrics in spec order, or :class:`TrialError`.

    Use :func:`run_town_trial_envelopes` plus :func:`salvage_town_trials`
    when partial results are worth keeping.
    """
    return unwrap_all(run_town_trial_envelopes(specs, workers=workers))


def salvage_town_trials(
    specs: Sequence[TownTrialSpec],
    envelopes: Sequence[TrialResult],
) -> List[Tuple[TownTrialSpec, TownRunMetrics]]:
    """Pair each successful envelope with its spec, warning per failure.

    Suites aggregate whatever completed instead of losing an overnight run
    to one bad trial; the warning keeps the loss visible in logs.
    """
    kept: List[Tuple[TownTrialSpec, TownRunMetrics]] = []
    for spec, result in zip(specs, envelopes):
        if result.ok:
            kept.append((spec, result.value))
        else:
            warnings.warn(
                f"dropping trial {result.tag!r} after {result.attempts} "
                f"attempt(s): {result.error}"
            )
    return kept


def aggregate_town_trials(
    specs: Sequence[TownTrialSpec],
    experiment: Optional["ExperimentSpec"] = None,
    strict: bool = False,
    cache: Optional[object] = None,
) -> Dict[str, AggregatedMetrics]:
    """Fan specs out and regroup the results per label, in spec order.

    The single aggregation path behind every experiment that runs town
    trials, and the one place an experiment's shared run options reach
    its trials.  From ``experiment`` (an
    :class:`~repro.experiments.api.ExperimentSpec`): ``telemetry`` (when
    on), ``transport`` and ``contention`` (when set) replace every trial
    spec's own, and ``workers``/``timeout_s``/``retries`` drive the
    fan-out.  ``None`` leaves the trial specs as given and the runner
    knobs at their environment defaults.

    ``strict`` raises :class:`~repro.runner.TrialError` on the first failed
    trial instead of salvaging the survivors.  Iteration follows spec
    order, so per-label trial lists stay in seed order and parallel
    aggregates are bit-identical to serial ones.
    """
    workers = timeout_s = retries = None
    if experiment is not None:
        specs = [_with_run_options(spec, experiment) for spec in specs]
        workers = experiment.workers
        timeout_s = experiment.timeout_s
        retries = experiment.retries
    envelopes = run_town_trial_envelopes(
        specs, workers=workers, timeout_s=timeout_s, retries=retries, cache=cache
    )
    if strict:
        pairs = list(zip(specs, unwrap_all(envelopes)))
    else:
        pairs = salvage_town_trials(specs, envelopes)
    per_label: Dict[str, AggregatedMetrics] = {}
    for spec, trial in pairs:
        per_label.setdefault(
            spec.label, AggregatedMetrics(label=spec.label, trials=[])
        ).trials.append(trial)
    return per_label


def _with_run_options(
    spec: TownTrialSpec, experiment: "ExperimentSpec"
) -> TownTrialSpec:
    """``spec`` with the experiment's telemetry, transport and contention."""
    if experiment.telemetry:
        spec = replace(spec, telemetry=True)
    if experiment.transport is not None:
        spec = replace(spec, transport=experiment.transport)
    if experiment.contention is not None:
        spec = replace(spec, contention=experiment.contention)
    return spec


def run_town_trials(
    factory: ClientFactory,
    label: str,
    seeds: Sequence[int] = (0, 1),
    duration_s: float = DEFAULT_TRIAL_DURATION_S,
    town: Union[str, TownConfig, None] = "amherst",
    speed_mps: float = DEFAULT_VEHICLE_SPEED_MPS,
    workers: Optional[int] = None,
    telemetry: bool = False,
    transport: Optional[TransportSpec] = None,
    contention: Optional[ContentionSpec] = None,
) -> AggregatedMetrics:
    """Repeat :func:`run_town_trial` over seeds and aggregate.

    ``workers`` > 1 runs the seeds in parallel processes; results are
    merged in seed order, so the aggregate is bit-identical to a serial
    run.  ``None`` defers to the ``REPRO_WORKERS`` environment variable
    (default: serial).
    """
    specs = [
        TownTrialSpec(
            factory=factory,
            label=label,
            seed=seed,
            duration_s=duration_s,
            town=town,
            speed_mps=speed_mps,
            telemetry=telemetry,
            transport=transport,
            contention=contention,
        )
        for seed in seeds
    ]
    return AggregatedMetrics(
        label=label, trials=run_town_trial_specs(specs, workers=workers)
    )


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else float("nan")
