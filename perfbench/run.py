#!/usr/bin/env python3
"""The repository benchmark: one workload at one seed, every metric with its unit.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload city-contended --seed 1 --seconds 25 --trace 0

Each timed region runs in a fresh interpreter (``perfbench/child.py``)
with every ``REPRO_*`` variable removed, so a developer's shell cannot
switch the code path being measured.  The run repeats timed regions until
``--seconds`` have passed (a workload with a panel of world seeds times
every seed once, then repeats the first, so that two runs of one seed are
compared), checks every output, and prints one JSON object as its last
line: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced regions over the same seeds and reports the
per-layer metrics (see ``perfbench/tracer.py``), the tracing overhead
against the untraced twins, and asserts that the traced and untraced
results are identical and that the layers a workload bypasses read zero.

Exit status: 0 when every check passed, 1 when an output check failed,
2 when the benchmark cannot run here (no ``src/repro``, bad arguments).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer metrics of a traced run: name -> unit.
PER_LAYER = {
    "engine.events": "count",
    "engine.dispatched": "count",
    "engine.compactions": "count",
    "engine.self_s": "s",
    "radio.transmits": "count",
    "radio.frames_delivered": "count",
    "radio.beacons_unheard": "count",
    "radio.frames_per_delivery_event": "ratio",
    "radio.self_s": "s",
    "medium_vec.calls": "count",
    "medium_vec.self_s": "s",
    "contention.acquires": "count",
    "contention.deferrals": "count",
    "contention.grant_ratio": "ratio",
    "contention.collisions": "count",
    "contention.self_s": "s",
    "ap.frames_in": "count",
    "ap.self_s": "s",
    "nic.frames_in": "count",
    "nic.tunes": "count",
    "nic.self_s": "s",
    "join.attempts": "count",
    "join.success_ratio": "ratio",
    "dhcp.retransmits": "count",
    "mac.self_s": "s",
    "dhcp.self_s": "s",
    "tcp.segments": "count",
    "tcp.rto_fired": "count",
    "tcp.self_s": "s",
    "cc.self_s": "s",
    "core.switches": "count",
    "core.self_s": "s",
    "workloads.build_s": "s",
    "workloads.aps": "count",
    "workloads.self_s": "s",
    "model.q_segment_calls": "count",
    "model.series_calls": "count",
    "model.self_s": "s",
    "runner.jobs": "count",
    "runner.self_s": "s",
    "experiments.self_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.bytes_read": "B",
    "cache.fingerprint_s": "s",
    "cache.self_s": "s",
    "other.self_s": "s",
    "setup.import_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
    "failed_frac": "ratio",
}

#: Layers a workload never enters: their traced figures must read zero.
BYPASSED = {
    "town-table2": ("contention.acquires", "model.q_segment_calls"),
    "city-contended": ("model.q_segment_calls",),
    "model-sweeps": ("engine.events",),
    "table2-warm": ("engine.events", "cache.misses"),
}

#: Workloads whose result events are the engine's: the tracer's
#: ``engine.events`` must equal the rows' ``events_processed``.
ENGINE_EVENTS = ("town-table2", "city-contended")

#: The run stops launching children after :data:`RUN_LIMIT_S` and kills
#: a child still running at :data:`HARD_LIMIT_S`, so it ends within three
#: minutes.
RUN_LIMIT_S = 120.0
HARD_LIMIT_S = 170.0

OUT_DIR = ".perfbench_out"

#: Seconds per round of the host-speed kernel (``hostspeed.kernel``) on
#: the reference host, a 2-core Intel Xeon VM running Python 3.11.7, at
#: its typical speed.  Every time a child measures is scaled by this over
#: the mean round time the child sampled around and during its timed
#: region, so the figures read as seconds on the reference host.
REFERENCE_ROUND_S = 4.8e-7


def pinned_env(root: Path) -> Dict[str, str]:
    """The child environment: no ``REPRO_*`` or ``PYTHON*`` knobs but ours."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(("REPRO_", "PYTHON"))
    }
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        PYTHONNOUSERSITE="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def host_stamp(root: Path) -> Dict[str, Any]:
    """Where the figures were measured."""
    model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    commit = dirty = None
    if (root / ".git").exists():
        head = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        status = subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30,
        )
        if head.returncode == 0:
            commit = head.stdout.strip()
            dirty = bool(status.stdout.strip())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy,
        "commit": commit,
        "dirty": dirty,
    }


class Runner:
    """Launches children and collects their results and problems."""

    def __init__(self, root: Path, workload: wl.Workload, seed: int):
        self.root = root
        self.workload = workload
        self.env = pinned_env(root)
        self.started = time.monotonic()
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.setups: List[float] = []
        self.raw: Dict[str, List[float]] = {"setup_s": [], "wall_s": [], "host_round_s": []}
        self.imports: List[float] = []
        self.cache_dir: Optional[str] = None
        self.out = root / OUT_DIR
        self.out.mkdir(exist_ok=True)
        self.seed = seed

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def child(self, seed: int, trace: bool = False) -> Optional[Dict[str, Any]]:
        request = {"workload": self.workload.name, "seed": seed, "trace": trace}
        if self.cache_dir is not None:
            request["cache_dir"] = self.cache_dir
        if trace:
            request["spans_out"] = str(self.out / f"spans-{self.workload.name}-{self.seed}.json")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(request)],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=max(HARD_LIMIT_S - self.elapsed(), 1.0),
            )
        except subprocess.TimeoutExpired:
            proc = None
        result = None
        if proc is not None and proc.returncode == 0 and proc.stdout.strip():
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result is None:
            tail = "timed out" if proc is None else proc.stderr.strip()[-2000:]
            self.problems.append(f"child for seed {seed} failed: {tail}")
            self.attempted += 1
            self.failed += 1
            return None
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.problems.extend(f"seed {seed}: {p}" for p in result["problems"])
        # Scale every time this child measured to the reference speed.
        scale = REFERENCE_ROUND_S / result["host_round_s"]
        result["scale"] = scale
        setup = result["ready"] - spawned
        self.setups.append(setup * scale)
        self.raw["setup_s"].append(setup)
        self.raw["wall_s"].append(result["wall_s"])
        self.raw["host_round_s"].append(result["host_round_s"])
        self.imports.append(result["import_s"] * scale)
        return result

    def __enter__(self) -> "Runner":
        # Compile every module once so no timed child pays bytecode
        # compilation, which a user's repeated runs never do.
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(self.root / "src" / "repro")],
            cwd=self.root, env=self.env, capture_output=True, timeout=RUN_LIMIT_S,
        )
        if self.workload.cached:
            path = self.out / f"cache-{self.workload.name}-{os.getpid()}"
            shutil.rmtree(path, ignore_errors=True)
            self.cache_dir = str(path)
        return self

    def __exit__(self, *exc) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)

    def fill(self, seeds: List[int]) -> Dict[int, str]:
        """Fill the trial cache (untimed); the cold digests, per seed."""
        cold = {}
        for seed in seeds:
            result = self.child(seed)
            if result is not None:
                cold[seed] = result["digest"]
        return cold


def same(values: List[Any]) -> bool:
    return all(v == values[0] for v in values)


def measure(runner: Runner, seeds: List[int], seconds: float) -> Dict[str, Any]:
    """Untraced run: the end-to-end metrics."""
    cold = runner.fill(seeds) if runner.workload.cached else {}
    by_seed: Dict[int, List[Dict[str, Any]]] = {s: [] for s in seeds}
    plan = list(seeds) + [seeds[0]]  # every seed once, then a repeat
    deadline = time.monotonic() + seconds
    i = 0
    while runner.elapsed() < RUN_LIMIT_S and (i < len(plan) or time.monotonic() < deadline):
        seed = plan[i] if i < len(plan) else seeds[(i - len(plan) + 1) % len(seeds)]
        result = runner.child(seed)
        if result is not None:
            by_seed[seed].append(result)
        i += 1
    for seed, results in by_seed.items():
        if not results:
            runner.problems.append(f"seed {seed}: never timed")
            continue
        digests = [r["digest"] for r in results] + ([cold[seed]] if seed in cold else [])
        if not same(digests):
            runner.problems.append(f"seed {seed}: results differ between runs of one seed")
        if not same([r["events"] for r in results]):
            runner.problems.append(f"seed {seed}: event counts differ between runs")
    if len(by_seed[seeds[0]]) < 2:
        runner.problems.append(f"seed {seeds[0]}: not repeated, determinism unchecked")
    timed = {s: rs for s, rs in by_seed.items() if rs}
    if runner.workload.name == "city-contended" and timed:
        mean_aps = statistics.fmean(rs[0]["facts"]["aps"] for rs in timed.values())
        if mean_aps < wl.CITY_MEAN_MIN_APS:
            runner.problems.append(f"city panel averages {mean_aps} APs")

    def per_seed(key: str, scaled: bool = True) -> List[float]:
        return [
            statistics.median(r[key] * (r["scale"] if scaled else 1.0) for r in rs)
            for rs in timed.values()
        ]

    walls = per_seed("wall_s")
    events = sum(rs[0]["events"] for rs in timed.values())
    return {
        "wall_s": statistics.fmean(walls) if walls else 0.0,
        "cpu_s": statistics.fmean(per_seed("cpu_s")) if walls else 0.0,
        "events_per_s": events / sum(walls) if walls else 0.0,
        "peak_rss_mb": statistics.fmean(per_seed("peak_rss_mb", scaled=False)) if walls else 0.0,
        "setup_s": statistics.median(runner.setups) if runner.setups else 0.0,
    }


def trace(runner: Runner, seeds: List[int], seconds: float) -> Dict[str, Any]:
    """Traced run: per-layer metrics, each traced region next to an untraced twin."""
    cold = runner.fill(seeds) if runner.workload.cached else {}
    deadline = time.monotonic() + seconds
    layers: List[Dict[str, float]] = []
    plain_wall = traced_wall = 0.0
    i = 0
    while runner.elapsed() < RUN_LIMIT_S and (i == 0 or time.monotonic() < deadline):
        seed = seeds[i % len(seeds)]
        # Alternate which twin runs first so drift on the host cancels.
        order = (False, True) if i % 2 == 0 else (True, False)
        pair = {mode: runner.child(seed, trace=mode) for mode in order}
        i += 1
        plain, traced = pair[False], pair[True]
        if plain is None or traced is None:
            continue
        if plain["digest"] != traced["digest"] or cold.get(seed, plain["digest"]) != plain["digest"]:
            runner.problems.append(f"seed {seed}: traced and untraced results differ")
        got = {
            k: v * traced["scale"] if k.endswith("_s") else v
            for k, v in traced["layers"].items()
        }
        for key in BYPASSED.get(runner.workload.name, ()):
            if got[key] != 0:
                runner.problems.append(f"bypassed layer reads {key} = {got[key]}")
        if runner.workload.name in ENGINE_EVENTS and got["engine.events"] != traced["events"]:
            runner.problems.append(
                f"tracer counted {got['engine.events']} engine events, rows report {traced['events']}"
            )
        if runner.workload.cached and got["cache.hits"] != traced["attempted"]:
            runner.problems.append(
                f"cache.hits = {got['cache.hits']}, expected {traced['attempted']} trials"
            )
        layers.append(got)
        plain_wall += plain["wall_s"] * plain["scale"]
        traced_wall += traced["wall_s"] * traced["scale"]
    if not layers:
        runner.problems.append("no traced region completed")
        return {name: 0.0 for name in PER_LAYER}
    out = {name: statistics.fmean(l[name] for l in layers) for name in layers[0]}
    out["setup.import_s"] = statistics.median(runner.imports)
    out["trace.overhead_frac"] = traced_wall / plain_wall - 1.0 if plain_wall else 0.0
    out["failed_frac"] = runner.failed / runner.attempted if runner.attempted else 1.0
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {root}: nothing to measure", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    seeds = wl.trial_seeds(workload, args.seed)
    print("host " + json.dumps(host_stamp(root), sort_keys=True))
    print(f"workload {workload.name} seed {args.seed} world seeds {seeds}")
    with Runner(root, workload, args.seed) as runner:
        if args.trace:
            values = trace(runner, seeds, args.seconds)
            units = PER_LAYER
        else:
            values = measure(runner, seeds, args.seconds)
            units = END_TO_END
    print("unscaled medians: " + json.dumps(
        {k: statistics.median(v) for k, v in runner.raw.items() if v}, sort_keys=True
    ))
    for problem in runner.problems:
        print(f"CHECK FAILED: {problem}")
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:>16.6g} {unit}")
    correct = not runner.problems and runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
