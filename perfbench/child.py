"""One timed region in a fresh interpreter.

Run by ``run.py`` as ``python3 perfbench/child.py '<request json>'`` with
``src`` on ``PYTHONPATH``.  The request names the workload, the world
seed, whether to trace, and (for ``table2-warm``) the cache directory.
The child imports ``repro`` and its experiment registry (set-up), stamps
the monotonic clock, runs the timed region, checks its outputs and
prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import json
import resource
import sys
import time

_import_start = time.perf_counter()
import repro.experiments  # noqa: E402  (set-up: the package and its registry)

_import_s = time.perf_counter() - _import_start

import hostspeed  # noqa: E402  (sits next to this file)
import workloads  # noqa: E402


def _cpu_s() -> float:
    """CPU seconds of this process and its waited-for children (ns/us clocks)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def main() -> int:
    ready = time.monotonic()
    request = json.loads(sys.argv[1])
    name = request["workload"]
    pairs = workloads.specs(name, request["seed"], request.get("cache_dir"))
    tracer = None
    if request.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    speed = hostspeed.HostSpeed()
    speed.sample()
    cpu0 = _cpu_s()
    wall0 = time.perf_counter()
    with speed.during():
        if tracer is not None:
            tracer.start()
        outcome = workloads.execute(pairs)
        if tracer is not None:
            tracer.finish()
    wall_s = time.perf_counter() - wall0 - speed.spent_s
    cpu_s = _cpu_s() - cpu0 - speed.spent_cpu_s
    speed.sample()
    result = workloads.evaluate(pairs, outcome)
    result.update(
        ready=ready,
        import_s=_import_s,
        wall_s=wall_s,
        host_round_s=speed.mean_round_s,
        cpu_s=cpu_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        spans_out = request.get("spans_out")
        if spans_out:
            with open(spans_out, "w") as handle:
                json.dump(
                    {
                        "fields": ["name", "start_s", "end_s", "parent", "trial"],
                        "spans": tracer.spans,
                        "dropped": tracer.spans_dropped,
                    },
                    handle,
                )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
