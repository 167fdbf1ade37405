"""The shared run options reach every trial an experiment submits.

``ExperimentSpec`` carries the options every experiment shares: the runner
knobs (``workers``, ``timeout_s``, ``retries``) and the run options
(``telemetry``, ``transport``, ``contention``).  An experiment that drops
one runs something other than what the CLI asked for, without a warning.
These tests capture what each experiment submits to the runner and check
that nothing was dropped on the way.
"""

from __future__ import annotations

import inspect

import pytest

from repro.experiments import channel_assign, common, dense_town, fleet
from repro.experiments.api import REGISTRY, run_experiment
from repro.experiments.common import run_town_trial
from repro.experiments.fig11_13_cdfs import Fig11to13Spec
from repro.experiments.town_runs import CONFIG_CH1_MULTI_AP, standard_factories
from repro.sim.cc import TransportSpec
from repro.sim.contention import ContentionSpec

#: Experiments that simulate in-process (analytic models and lab
#: topologies): they submit no trial jobs, so there is nothing to capture.
IN_PROCESS = {
    "fig2", "fig3", "fig4", "fig7", "fig8", "fig10", "table1", "knapsack",
    "density",
}

#: Modules that hand trial jobs to the runner.
FAN_OUT_MODULES = (common, fleet, dense_town, channel_assign)

#: Distinct from every default, so a dropped option shows.
OPTIONS = dict(
    seeds=(0,),
    duration_s=5.0,
    workers=1,
    timeout_s=77.0,
    retries=3,
    telemetry=True,
    transport=TransportSpec(cc="cubic"),
    contention=ContentionSpec(beacon_stagger=True),
    cache=False,
)

#: Transport is the transport matrix's own axis: its cells keep theirs.
OWN_TRANSPORT = {"transport-matrix": TransportSpec(cc="reno", split=False)}
TOY = {"transport-matrix": dict(ccs=("reno",), splits=(False,))}


class _Submitted(Exception):
    """Stops the experiment at its first fan-out."""


def _capture_fan_out(monkeypatch):
    captured = []

    def fake_run_jobs(jobs, **kwargs):
        captured.append((list(jobs), kwargs))
        raise _Submitted

    for module in FAN_OUT_MODULES:
        monkeypatch.setattr(module, "run_jobs", fake_run_jobs)
    return captured


def _carried(job):
    """``(contention, transport, telemetry)`` one trial job will run with."""
    bound = inspect.signature(job.fn).bind(*job.args, **dict(job.kwargs))
    bound.apply_defaults()
    args = bound.arguments
    trial = args.get("spec")
    if trial is not None:
        return trial.contention, trial.transport, trial.telemetry
    return args["contention"], args["transport"], args["telemetry"]


@pytest.mark.parametrize("name", list(REGISTRY))
def test_trials_carry_the_shared_options(name, monkeypatch):
    if name in IN_PROCESS:
        pytest.skip("simulates in-process: no trial fan-out")
    spec = REGISTRY[name].spec_cls(**OPTIONS, **TOY.get(name, {}))
    captured = _capture_fan_out(monkeypatch)
    envelope = run_experiment(name, spec)
    assert not envelope.ok and "_Submitted" in envelope.error, envelope.error
    jobs, kwargs = captured[0]
    assert jobs
    transport = OWN_TRANSPORT.get(name, OPTIONS["transport"])
    for job in jobs:
        assert _carried(job) == (OPTIONS["contention"], transport, True), job.tag
    assert (kwargs["workers"], kwargs["timeout_s"], kwargs["retries"]) == (
        1, 77.0, 3,
    )


class TestSuiteContention:
    """``--contention`` reaches the configuration-suite trials that Table 2,
    Figs. 11-13 and Figs. 16-17 share."""

    DURATION_S = 20.0

    def test_suite_trial_is_the_contended_trial(self):
        contention = ContentionSpec()
        spec = Fig11to13Spec(
            seeds=(0,),
            duration_s=self.DURATION_S,
            labels=(CONFIG_CH1_MULTI_AP,),
            contention=contention,
            cache=False,
        )
        result = run_experiment("fig11-13", spec).unwrap()
        factory = standard_factories()[CONFIG_CH1_MULTI_AP]

        def trial(contention):
            return run_town_trial(
                factory,
                CONFIG_CH1_MULTI_AP,
                seed=0,
                duration_s=self.DURATION_S,
                contention=contention,
            )

        contended = trial(contention)
        assert (
            result.instantaneous_kBps[CONFIG_CH1_MULTI_AP]
            == contended.instantaneous_kBps
        )
        # The check has teeth only if contention changes this trial.
        assert contended.instantaneous_kBps != trial(None).instantaneous_kBps
