"""The benchmark's workloads: what each timed region runs and how it is checked.

Every workload is a closed loop: one experiment at a time from one
process, ``workers=1``, the trial cache off except for ``table2-warm``.
A workload seed maps into the ``seeds`` of the experiment specs (through
:func:`trial_seeds`); the program receives only specs.  Why each
workload exists and which layers it skips is in ``README.md``.

This module is imported by the parent (for the workload table) without
importing ``repro``; everything that touches ``repro`` imports it inside
the function.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    #: World seeds per run.  Where a world's cost depends on its seeded
    #: layout, a run times a panel of worlds so the run's figures do not
    #: hinge on one draw.
    panel: int
    #: Fill a trial cache before the timed region (``table2-warm``).
    cached: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("town-table2", panel=1),
        Workload("city-contended", panel=12),
        Workload("model-sweeps", panel=1),
        Workload("table2-warm", panel=1, cached=True),
    )
}

#: Simulated seconds per Table 2 trial (town-table2 and table2-warm).
TABLE2_DURATION_S = 60.0
#: Simulated seconds of the contended city drive.
CITY_DURATION_S = 1.0
CITY_VEHICLES = 250
#: A city world counts as city-scale from this many APs; the panel mean
#: must reach :data:`CITY_MEAN_MIN_APS` (the preset expects 1,200).
CITY_MIN_APS = 800
CITY_MEAN_MIN_APS = 1000
#: Fig. 4 speeds: the three-speed trim of the paper's six (about 5 s).
FIG4_SPEEDS_MPS = (6.6, 10.0, 20.0)
#: Significant digits kept of every float before hashing a result.
DIGEST_DIGITS = 9


def trial_seeds(workload: Workload, seed: int) -> List[int]:
    """The world seeds one run of ``workload`` at ``seed`` times."""
    if workload.panel == 1:
        return [seed]
    rng = random.Random(f"perfbench/{workload.name}/{seed}")
    return rng.sample(range(1 << 31), workload.panel)


# ---------------------------------------------------------------------------
# Specs and the timed region
# ---------------------------------------------------------------------------
def table2_spec(seed: int, cache_dir: Optional[str] = None):
    from repro.experiments.table2_configs import Table2Spec

    return Table2Spec(
        seeds=(seed,),
        duration_s=TABLE2_DURATION_S,
        workers=1,
        cache=cache_dir is not None,
        cache_dir=cache_dir,
    )


def specs(name: str, seed: int, cache_dir: Optional[str] = None) -> List[Tuple[str, Any]]:
    """``(experiment, spec)`` pairs one timed region runs, in order."""
    if name == "town-table2":
        return [("table2", table2_spec(seed))]
    if name == "table2-warm":
        return [("table2", table2_spec(seed, cache_dir))]
    if name == "city-contended":
        from repro.experiments.dense_town import DenseTownSpec
        from repro.sim.contention import ContentionSpec

        return [(
            "dense-town",
            DenseTownSpec(
                seeds=(seed,),
                duration_s=CITY_DURATION_S,
                town="city",
                n_vehicles=CITY_VEHICLES,
                channels=(1,),
                contention=ContentionSpec(),
                workers=1,
                cache=False,
            ),
        )]
    if name == "model-sweeps":
        from repro.experiments.fig2_join_validation import Fig2Spec
        from repro.experiments.fig3_beta_sensitivity import Fig3Spec
        from repro.experiments.fig4_optimal_schedule import Fig4Spec

        return [
            ("fig2", Fig2Spec(seeds=(seed,), workers=1, cache=False)),
            ("fig3", Fig3Spec(seeds=(seed,), workers=1, cache=False)),
            ("fig4", Fig4Spec(seeds=(seed,), speeds_mps=FIG4_SPEEDS_MPS, workers=1, cache=False)),
        ]
    raise KeyError(name)


def execute(pairs: List[Tuple[str, Any]]) -> List[Tuple[str, Any, Optional[str]]]:
    """The timed region: run each experiment and render it, as the CLI does."""
    from repro.cache import resolve_cache
    from repro.experiments import api

    out = []
    for experiment, spec in pairs:
        envelope = api.run_experiment(experiment, spec)
        text = envelope.value.render() if envelope.ok else None
        if spec.cache:
            text = f"{text}\n{resolve_cache(True, spec.cache_dir).describe()}"
        out.append((experiment, envelope, text))
    return out


# ---------------------------------------------------------------------------
# Output checks, counts and the result digest
# ---------------------------------------------------------------------------
def _rounded(value: Any) -> Any:
    if isinstance(value, float):
        return float(f"{value:.{DIGEST_DIGITS}g}") if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {str(k): _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return value


def digest(outcome: List[Tuple[str, Any, Optional[str]]]) -> str:
    """Hash of every result row, floats rounded to :data:`DIGEST_DIGITS`.

    Rounding keeps the digest when a change only reorders float
    arithmetic (the model agrees to ~1e-12); simulation rows are exact
    either way.
    """
    from repro.experiments.api import to_jsonable

    rows = [
        [experiment, _rounded(to_jsonable(envelope.value)) if envelope.ok else envelope.error]
        for experiment, envelope, _text in outcome
    ]
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _finite_nonneg(x: float) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x >= 0


def _table2_trials() -> int:
    from repro.experiments import town_runs

    return len(town_runs.standard_factories()) + len(town_runs.cambridge_factories())


def evaluate(pairs, outcome) -> Dict[str, Any]:
    """Check one timed region's outputs and count its work.

    Returns ``attempted`` operations (trials, or experiments for the
    model sweeps), ``failed`` ones (failed envelopes, trials a suite
    dropped, failed checks), the check messages, the logical events and
    facts the parent checks across a run.
    """
    problems: List[str] = []
    attempted = 0
    failed = 0
    events = 0
    facts: Dict[str, Any] = {}
    for (experiment, spec), (_, envelope, text) in zip(pairs, outcome):
        if experiment == "table2":
            ops = _table2_trials() * len(spec.seeds)
        elif experiment == "dense-town":
            ops = len(spec.seeds)
        else:
            ops = 1
        attempted += ops
        if not envelope.ok:
            problems.append(f"{experiment}: envelope not ok: {envelope.error}")
            failed += ops
            continue
        result = envelope.value
        before = len(problems)
        dropped = 0
        if not text:
            problems.append(f"{experiment}: empty rendering")
        if experiment == "table2":
            # The suite salvages what completed and drops a failed trial
            # with only a warning: count the trials that did not come back.
            trials = [t for label in result.suite.labels() for t in result.suite[label].trials]
            dropped = ops - len(trials)
            # A replay from the trial cache processes no simulation
            # event: each replayed trial counts as one.
            events += len(trials) if spec.cache else sum(t.events_processed for t in trials)
            for row in result.rows:
                if not _finite_nonneg(row.throughput_kBps):
                    problems.append(f"table2 {row.label}: throughput {row.throughput_kBps!r}")
                if not 0.0 <= row.connectivity_pct <= 100.0:
                    problems.append(f"table2 {row.label}: connectivity {row.connectivity_pct!r}")
        elif experiment == "dense-town":
            if len(result.rows) != len(spec.seeds):
                problems.append(f"dense-town: {len(result.rows)} rows for {len(spec.seeds)} seeds")
            for row in result.rows:
                events += row.events_processed
                facts["aps"] = row.ap_count
                if row.ap_count < CITY_MIN_APS:
                    problems.append(f"dense-town seed {row.seed}: only {row.ap_count} APs")
                if row.vehicles != CITY_VEHICLES:
                    problems.append(f"dense-town seed {row.seed}: {row.vehicles} vehicles")
                if not 0.0 <= row.join_completion_rate <= 1.0:
                    problems.append(f"dense-town: join completion {row.join_completion_rate!r}")
                if not _finite_nonneg(row.aggregate_kBps):
                    problems.append(f"dense-town: throughput {row.aggregate_kBps!r}")
                if not 0.0 <= row.mean_connectivity_pct <= 100.0:
                    problems.append(f"dense-town: connectivity {row.mean_connectivity_pct!r}")
        elif experiment == "fig2":
            events += len(spec.beta_maxes_s) * len(spec.fractions) * spec.runs * spec.trials_per_run
            for points in result.curves.values():
                for p in points:
                    if not (0.0 <= p.model_probability <= 1.0 and 0.0 <= p.sim_mean <= 1.0):
                        problems.append(f"fig2: probability out of [0, 1] at f={p.fraction}")
        elif experiment == "fig3":
            for fraction, ps in result.curves.items():
                if not all(0.0 <= p <= 1.0 for p in ps):
                    problems.append(f"fig3: probability out of [0, 1] at f={fraction}")
        elif experiment == "fig4":
            grid = set(spec.speeds_mps)
            for s in result.scenarios:
                if not (s.dividing_speed_mps in grid or s.dividing_speed_mps == math.inf):
                    problems.append(f"fig4 {s.name}: dividing speed {s.dividing_speed_mps!r}")
                if not all(map(_finite_nonneg, s.ch1_bandwidth_bps + s.ch2_bandwidth_bps)):
                    problems.append(f"fig4 {s.name}: bandwidth not finite and >= 0")
        checks_failed = len(problems) - before
        if dropped:
            problems.append(f"{experiment}: {dropped} of {ops} trials dropped")
        failed += min(dropped + checks_failed, ops)
    return {
        "attempted": attempted,
        "failed": min(failed, attempted),
        "problems": problems,
        "events": events,
        "digest": digest(outcome),
        "facts": facts,
    }
