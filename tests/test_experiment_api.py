"""Tests for the unified experiment spec→result API and its CLI front.

Every experiment module exposes one entry point,
``run_spec(spec) -> TrialResult``, and registers itself in
``repro.experiments.api.REGISTRY``.  These tests pin the registry, the
envelope semantics, and the shared CLI flag vocabulary.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.experiments import (
    ap_density,
    appendix_knapsack,
    fig3_beta_sensitivity,
    fig4_optimal_schedule,
)
from repro.experiments.api import (
    REGISTRY,
    Experiment,
    ExperimentSpec,
    experiment_names,
    get_experiment,
    run_experiment,
    spec_from_options,
    to_jsonable,
)
from repro.runner import TrialResult


#: Every experiment ``python -m repro list`` offers.
EXPERIMENT_NAMES = {
    "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig10",
    "fig11-13", "fig14", "fig15", "fig16-17", "table1", "table2", "table3",
    "table4", "density", "speed-sweep", "fault-sweep", "dense-town", "fleet",
    "knapsack", "transport-matrix", "channel-assign",
}


class TestRegistry:
    def test_every_cli_experiment_is_registered(self):
        """Importing the package alone registers every experiment (a fresh
        interpreter, so no other test's imports can fill the registry)."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "import repro.experiments.api as api; print(' '.join(api.REGISTRY))",
            ],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert set(out.split()) == EXPERIMENT_NAMES
        assert set(REGISTRY) == EXPERIMENT_NAMES

    def test_entries_are_well_formed(self):
        for name, experiment in REGISTRY.items():
            assert experiment.name == name
            assert issubclass(experiment.spec_cls, ExperimentSpec)
            assert callable(experiment.runner)
            assert experiment.summary, name

    def test_lookup_helpers(self):
        assert experiment_names() == list(REGISTRY)
        assert get_experiment("fig3") is REGISTRY["fig3"]
        assert get_experiment("nope") is None

    def test_run_experiment_unknown_name_raises(self):
        with pytest.raises(KeyError):
            run_experiment("nope")


class TestRunPath:
    """What a run imports beyond the experiment package itself."""

    #: The cache is the only subsystem every run activates; a warm re-run's
    #: wall time is mostly start-up, so anything else here is a regression.
    ALLOWED_RUN_IMPORTS = {"repro.cache", "hashlib", "_hashlib", "_blake2"}

    def test_first_run_imports_only_the_cache(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(src)
        script = (
            "import sys\n"
            "import repro.experiments\n"
            "from repro.experiments.api import run_experiment\n"
            "from repro.experiments.fig3_beta_sensitivity import Fig3Spec\n"
            "before = set(sys.modules)\n"
            "assert run_experiment('fig3', Fig3Spec()).ok\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert set(out.split()) <= self.ALLOWED_RUN_IMPORTS, out


class TestEnvelope:
    def test_none_spec_uses_defaults(self):
        envelope = fig4_optimal_schedule.run_spec()
        assert envelope.ok
        assert envelope.tag[0] == "fig4"
        assert envelope.tag[1] == fig4_optimal_schedule.Fig4Spec()

    def test_wrong_spec_type_is_error_envelope(self):
        envelope = fig4_optimal_schedule.run_spec(
            fig3_beta_sensitivity.Fig3Spec()
        )
        assert not envelope.ok
        assert "Fig4Spec" in envelope.error

    def test_runner_exception_becomes_error_envelope(self):
        @dataclass(frozen=True)
        class BoomSpec(ExperimentSpec):
            pass

        def _boom(spec):
            raise RuntimeError("kaboom")

        from repro.experiments.api import _execute

        experiment = Experiment("boom", BoomSpec, _boom)
        envelope = _execute(experiment, BoomSpec())
        assert not envelope.ok
        assert envelope.error == "RuntimeError: kaboom"

    def test_unwrap_restores_raise_semantics(self):
        envelope = TrialResult(ok=False, error="bad")
        with pytest.raises(Exception):
            envelope.unwrap()


class TestSpecVocabulary:
    def test_seed_property_is_first_seed(self):
        assert ExperimentSpec(seeds=(7, 9)).seed == 7
        assert ExperimentSpec(seeds=()).seed == 0

    def test_spec_from_options_drops_none_and_unknown(self):
        spec = spec_from_options(
            fig3_beta_sensitivity.Fig3Spec,
            seeds=None,
            duration_s=None,
            workers=3,
            no_such_field=42,
        )
        assert spec == fig3_beta_sensitivity.Fig3Spec(workers=3)

    def test_spec_from_options_applies_overrides(self):
        spec = spec_from_options(
            ap_density.DensitySpec, seeds=(5,), duration_s=30.0
        )
        assert spec.seeds == (5,)
        assert spec.duration_s == 30.0
        assert spec.towns == ap_density.DensitySpec().towns


class TestToJsonable:
    def test_nested_dataclasses_and_tuples(self):
        spec = appendix_knapsack.KnapsackSpec(sizes=(1, 2))
        data = to_jsonable(spec)
        assert data["sizes"] == [1, 2]
        assert data["seeds"] == [0, 1]
        json.dumps(data)  # round-trippable

    def test_dict_keys_stringified_and_fallback_repr(self):
        data = to_jsonable({1: object()})
        assert list(data) == ["1"]
        assert isinstance(data["1"], str)
        json.dumps(data)


class TestCliFlags:
    def test_seed_and_duration_flags_flow_into_spec(self, capsys):
        assert main(["table1", "--seed", "4", "--duration", "1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_trials_flag_expands_seed_range(self):
        from repro.__main__ import _seeds_from_flags

        assert _seeds_from_flags(None, None) is None
        assert _seeds_from_flags(5, None) == (5,)
        assert _seeds_from_flags(None, 3) == (0, 1, 2)
        assert _seeds_from_flags(4, 3) == (4, 5, 6)

    def test_trials_must_be_positive(self, capsys):
        assert main(["fig3", "--trials", "0"]) == 2
        assert "--trials" in capsys.readouterr().err

    def test_json_out_writes_envelope(self, tmp_path, capsys):
        out = tmp_path / "fig3.json"
        assert main(["fig3", "--json-out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert payload["tag"][0] == "fig3"
        assert "Fig3" in capsys.readouterr().out

    def test_failed_envelope_exits_nonzero(self, capsys, monkeypatch):
        def _boom(spec):
            raise RuntimeError("kaboom")

        experiment = REGISTRY["fig3"]
        monkeypatch.setitem(
            REGISTRY,
            "fig3",
            Experiment("fig3", experiment.spec_cls, _boom, experiment.summary),
        )
        assert main(["fig3"]) == 1
        assert "kaboom" in capsys.readouterr().err
