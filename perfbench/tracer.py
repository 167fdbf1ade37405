"""Layer tracing from outside the program.

:func:`install` wraps the public entry points of each ``repro`` layer
(and every callback the engine dispatches) so that one timed region
yields, per layer, a self time, call counts and a few work ratios.  No
file under ``src/`` changes: the wrappers are installed on the imported
classes and modules of a fresh interpreter, and the interpreter exits
after one timed region.

Self time comes from a span stack.  Every timed boundary pushes a frame
``[layer, child_seconds]``; on exit the boundary's elapsed time minus the
time its children took is credited to its layer, and the elapsed time is
added to the parent's child time.  A call into the layer already on top
of the stack opens no new frame, so recursion inside a layer costs one
counter increment.  The root frame is the timed region itself: its self
time is the time no boundary claimed (``trace.unattributed_s``), and the
self times of all layers plus that figure add up to the traced wall time
by construction, which :meth:`Tracer.finish` checks.

Full span records (name, start, end, parent, trial id) are kept only at
coarse boundaries: trials, world builds, ``Simulator.run``, cache
operations and model calls.  Per-callback boundaries fold into per-layer
sums and counts, so memory stays bounded.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable, Dict, List, Optional

#: Module prefix -> layer name.  The longest matching prefix wins; a
#: ``repro`` module matching none of them is credited to ``other``.
LAYER_PREFIXES: Dict[str, str] = {
    "repro.sim.engine": "engine",
    "repro.sim.radio": "radio",
    "repro.sim.medium_vec": "medium_vec",
    "repro.sim.contention": "contention",
    "repro.sim.contention_vec": "contention",
    "repro.sim.ap": "ap",
    "repro.sim.nic": "nic",
    "repro.sim.mac": "mac",
    "repro.sim.dhcp": "dhcp",
    "repro.sim.tcp": "tcp",
    "repro.sim.cc": "cc",
    "repro.sim.stock_client": "core",
    "repro.core": "core",
    "repro.workloads": "workloads",
    "repro.model": "model",
    "repro.runner": "runner",
    "repro.experiments": "experiments",
    "repro.cache": "cache",
}

#: Every layer a self time is reported for, ``other`` last.
LAYERS = (
    "engine", "radio", "medium_vec", "contention", "ap", "nic", "mac",
    "dhcp", "tcp", "cc", "core", "workloads", "model", "runner",
    "experiments", "cache", "other",
)

#: Medium callbacks that deliver frames put on the air.
DELIVERY_CALLBACKS = frozenset({"_drain", "_deliver", "_deliver_contended"})

#: Full span records kept per traced region before further ones are
#: dropped (and counted in ``spans_dropped``).
SPAN_LIMIT = 100_000

ROOT = "unattributed"


def layer_of_module(module: Optional[str]) -> str:
    """The layer a ``repro`` module belongs to."""
    module = module or ""
    best = ""
    for prefix in LAYER_PREFIXES:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(best):
            best = prefix
    return LAYER_PREFIXES[best] if best else "other"


class Tracer:
    """Span stack, per-layer self times, counters and coarse span records."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.self_s[ROOT] = 0.0
        self.inclusive_s: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self.spans: List[list] = []
        self.spans_dropped = 0
        self._open: List[int] = []
        self.trial: Any = None
        self._callback_keys: Dict[Any, tuple] = {}
        self.tick_code: Any = None
        self._t0 = 0.0
        # Objects created during a Simulator.run whose counters are read
        # when that run ends (then released, so memory stays bounded).
        self.pending: Dict[str, list] = {
            "media": [], "drivers": [], "dhcp": [], "tcp": [], "joins": [],
        }
        self.caches: list = []

    # -- counters --------------------------------------------------------
    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- the timed region --------------------------------------------------
    def start(self) -> None:
        """Open the root frame: the timed region begins."""
        self.stack.append([ROOT, 0.0])
        self._t0 = self.clock()

    def finish(self) -> None:
        """Close the root frame and check that self times add up."""
        elapsed = self.clock() - self._t0
        frame = self.stack.pop()
        if self.stack or frame[0] != ROOT:
            raise RuntimeError("span stack not balanced at the end of the region")
        self.self_s[ROOT] += elapsed - frame[1]
        total = sum(self.self_s.values())
        if abs(total - elapsed) > 1e-6 * max(elapsed, 1.0):
            raise RuntimeError(
                f"self times add up to {total!r} s, traced wall is {elapsed!r} s"
            )

    # -- wrappers ----------------------------------------------------------
    def timed(
        self,
        layer: str,
        fn: Callable,
        count: Optional[str] = None,
        inclusive: Optional[str] = None,
    ) -> Callable:
        """Wrap ``fn`` as a boundary of ``layer``.

        ``count`` names a counter bumped per call; ``inclusive`` names a
        figure that accumulates the call's whole elapsed time (children
        included).
        """
        stack = self.stack
        clock = self.clock
        self_s = self.self_s
        counts = self.counts
        inc = self.inclusive_s

        def wrapper(*args, **kwargs):
            if count is not None:
                counts[count] = counts.get(count, 0) + 1
            if stack and stack[-1][0] == layer and inclusive is None:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if inclusive is not None:
                    inc[inclusive] = inc.get(inclusive, 0.0) + elapsed

        return functools.wraps(fn)(wrapper)

    def counted(self, count: str, fn: Callable) -> Callable:
        """Wrap ``fn`` to bump a counter and nothing else (hot inner calls)."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[count] = counts.get(count, 0) + 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def spanned(self, name: str, inner: Callable, trial: Optional[Callable] = None) -> Callable:
        """Record a full span around ``inner`` (already a timed wrapper).

        ``trial``, given the call's arguments, returns the trial id the
        span (and every span opened inside it) belongs to.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            previous = tracer.trial
            if trial is not None:
                tracer.trial = trial(*args, **kwargs)
            index = tracer._open_span(name)
            try:
                return inner(*args, **kwargs)
            finally:
                tracer._close_span(index)
                tracer.trial = previous

        return functools.wraps(inner)(wrapper)

    def _open_span(self, name: str) -> int:
        if len(self.spans) >= SPAN_LIMIT:
            self.spans_dropped += 1
            return -1
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock() - self._t0, None, parent, self.trial])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def _close_span(self, index: int) -> None:
        if index < 0:
            return
        self.spans[index][2] = self.clock() - self._t0
        self._open.pop()

    # -- engine callbacks ----------------------------------------------------
    def callback_key(self, fn: Callable) -> tuple:
        """``(layer, delivers_frames)`` for a callback, cached per code object.

        A periodic process's tick is credited to the module of the
        function it repeats, not to the engine that hosts the timer.
        """
        target = getattr(fn, "__func__", fn)
        code = getattr(target, "__code__", None)
        if code is not None and code is self.tick_code:
            target = fn.__self__.fn
            target = getattr(target, "__func__", target)
            code = getattr(target, "__code__", None)
        cache_key = code if code is not None else type(target)
        key = self._callback_keys.get(cache_key)
        if key is None:
            module = getattr(target, "__module__", None) or type(target).__module__
            name = getattr(target, "__name__", "")
            key = (
                layer_of_module(module),
                module == "repro.sim.radio" and name in DELIVERY_CALLBACKS,
            )
            self._callback_keys[cache_key] = key
        return key

    def make_dispatch(self) -> Callable:
        """The trampoline every scheduled callback is dispatched through."""
        stack = self.stack
        clock = self.clock
        self_s = self.self_s
        counts = self.counts

        def dispatch(key, fn, *args):
            layer, delivers = key
            counts["engine.dispatched"] = counts.get("engine.dispatched", 0) + 1
            if delivers:
                counts["radio.delivery_events"] = (
                    counts.get("radio.delivery_events", 0) + 1
                )
            if stack[-1][0] == layer:
                return fn(*args)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                stack[-1][1] += elapsed

        return dispatch


def _replace_everywhere(original: Any, replacement: Any) -> None:
    """Rebind ``original`` to ``replacement`` in every loaded ``repro`` module.

    Functions imported by name (``from .town import build_town``) are
    bound in each importing module, so each binding is patched.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of an imported ``repro``."""
    from repro import cache as cache_mod
    from repro.experiments import api
    from repro.model import join_model, join_sim, optimizer
    from repro.runner import pool
    from repro.sim import cc, dhcp, metrics, tcp
    from repro.sim.ap import AccessPoint
    from repro.sim.contention import ContentionState
    from repro.sim.engine import PeriodicProcess, Simulator
    from repro.sim.frames import FrameKind
    from repro.sim.medium_vec import VectorIndex
    from repro.sim.nic import WifiNic
    from repro.sim.radio import Medium
    from repro.core.driver import SpiderDriver
    from repro.workloads import town

    t = tracer
    pending = t.pending

    def method(cls, name, make):
        setattr(cls, name, make(cls.__dict__[name]))

    def function(module, name, make):
        original = getattr(module, name)
        _replace_everywhere(original, make(original))

    # Engine: every scheduled callback goes through the dispatch
    # trampoline, credited to the module that defines the callback.
    t.tick_code = PeriodicProcess._tick.__code__
    dispatch = t.make_dispatch()
    schedule_at = Simulator.schedule_at
    schedule_fire = Simulator.schedule_fire
    key_of = t.callback_key

    def traced_schedule_at(sim, when, fn, *args):
        return schedule_at(sim, when, dispatch, key_of(fn), fn, *args)

    def traced_schedule_fire(sim, when, fn, *args):
        return schedule_fire(sim, when, dispatch, key_of(fn), fn, *args)

    Simulator.schedule_at = functools.wraps(schedule_at)(traced_schedule_at)
    Simulator.schedule_fire = functools.wraps(schedule_fire)(traced_schedule_fire)

    def make_run(original):
        timed = t.timed("engine", original)

        def run(sim, *args, **kwargs):
            events, compactions = sim.events_processed, sim.compactions
            try:
                return timed(sim, *args, **kwargs)
            finally:
                t.add("engine.events", sim.events_processed - events)
                t.add("engine.compactions", sim.compactions - compactions)
                _fold_run(t)

        return t.spanned("sim.run", functools.wraps(original)(run))

    method(Simulator, "run", make_run)

    # Radio: transmissions, plus a delivery observer on every built world.
    method(Medium, "transmit", lambda f: t.timed("radio", f, count="radio.transmits"))
    method(
        VectorIndex, "survivors",
        lambda f: t.timed("medium_vec", f, count="medium_vec.calls"),
    )
    # A frame's delivery is the one private step read: whether any
    # receiver was in range (delivered, lost or collided) shows in the
    # medium's public counters around it, on every delivery path.
    beacon = FrameKind.BEACON

    def make_delivery(original):
        def deliver(medium, sender_id, frame, *args):
            before = medium.frames_delivered + medium.frames_lost + medium.frames_collided
            try:
                return original(medium, sender_id, frame, *args)
            finally:
                t.add("radio.deliveries")
                if frame.kind is beacon and before == (
                    medium.frames_delivered + medium.frames_lost + medium.frames_collided
                ):
                    t.add("radio.beacons_unheard")

        return functools.wraps(original)(deliver)

    method(Medium, "_deliver", make_delivery)
    method(Medium, "_deliver_contended", make_delivery)
    method(
        ContentionState, "acquire",
        lambda f: t.timed("contention", f, count="contention.acquires"),
    )
    method(AccessPoint, "on_frame", lambda f: t.timed("ap", f, count="ap.frames_in"))
    method(WifiNic, "on_frame", lambda f: t.timed("nic", f, count="nic.frames_in"))
    method(WifiNic, "tune", lambda f: t.timed("nic", f, count="nic.tunes"))
    method(dhcp.DhcpServer, "handle", lambda f: t.timed("dhcp", f))
    method(tcp.TcpSender, "on_ack", lambda f: t.timed("tcp", f))
    method(tcp.TcpReceiver, "on_segment", lambda f: t.timed("tcp", f, count="tcp.segments"))
    for cls in [cc.CongestionController, *_subclasses(cc.CongestionController)]:
        for name in ("on_ack", "on_rto", "on_fast_retransmit", "on_rtt_sample"):
            if name in cls.__dict__:
                method(cls, name, lambda f: t.timed("cc", f))
    method(SpiderDriver, "switch_once", lambda f: t.timed("core", f))
    method(SpiderDriver, "start", lambda f: t.timed("core", f))

    # Constructors and records whose counters are read when the run ends.
    def collecting(bucket):
        def make(original):
            def init(obj, *args, **kwargs):
                original(obj, *args, **kwargs)
                pending[bucket].append(obj)

            return functools.wraps(original)(init)

        return make

    method(SpiderDriver, "__init__", collecting("drivers"))
    method(dhcp.DhcpClient, "__init__", collecting("dhcp"))
    method(tcp.TcpSender, "__init__", collecting("tcp"))

    def make_new_attempt(original):
        def new_attempt(log, *args, **kwargs):
            attempt = original(log, *args, **kwargs)
            pending["joins"].append(attempt)
            return attempt

        return functools.wraps(original)(new_attempt)

    method(metrics.JoinLog, "new_attempt", make_new_attempt)

    # World construction.
    def make_build(original):
        timed = t.timed("workloads", original, inclusive="workloads.build_s")

        def build_town(*args, **kwargs):
            instance = timed(*args, **kwargs)
            t.add("workloads.aps", len(instance.aps))
            medium = instance.world.medium
            medium.delivery_hooks.append(_delivery_observer(t))
            pending["media"].append(medium)
            return instance

        return t.spanned("world.build", functools.wraps(original)(build_town))

    function(town, "build_town", make_build)

    # The analytic model.
    function(join_model, "q_segment", lambda f: t.counted("model.q_segment_calls", f))
    function(
        join_model, "join_probability_series",
        lambda f: t.timed("model", f, count="model.series_calls"),
    )
    function(
        join_sim, "simulate_join_probability",
        lambda f: t.spanned("model.join_sim", t.timed("model", f)),
    )
    function(
        optimizer, "optimal_schedule",
        lambda f: t.spanned("model.optimal_schedule", t.timed("model", f)),
    )

    # Runner, experiments and the trial cache.
    def make_run_jobs(original):
        timed = t.timed("runner", original)

        def run_jobs(jobs, *args, **kwargs):
            jobs = list(jobs)
            t.add("runner.jobs", len(jobs))
            return timed(jobs, *args, **kwargs)

        return functools.wraps(original)(run_jobs)

    function(pool, "run_jobs", make_run_jobs)
    method(
        pool.TrialJob, "run",
        lambda f: t.spanned("trial", t.timed("experiments", f), trial=lambda job: repr(job.tag)),
    )
    function(
        api, "run_experiment",
        lambda f: t.spanned(
            "experiment", t.timed("experiments", f), trial=lambda name, *a, **k: name
        ),
    )

    def make_cache_op(name):
        def make(original):
            timed = t.timed("cache", original)

            def op(store, *args, **kwargs):
                if store not in t.caches:
                    t.caches.append(store)
                return timed(store, *args, **kwargs)

            return t.spanned(name, functools.wraps(original)(op))

        return make

    method(cache_mod.TrialCache, "get", make_cache_op("cache.get"))
    method(cache_mod.TrialCache, "put", make_cache_op("cache.put"))
    function(
        cache_mod, "code_fingerprint",
        lambda f: t.spanned(
            "cache.fingerprint",
            t.timed("cache", f, inclusive="cache.fingerprint_s"),
        ),
    )


def _subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _delivery_observer(tracer: Tracer) -> Callable:
    counts = tracer.counts

    def observe(frame, receiver_id) -> None:
        counts["radio.frames_delivered"] = counts.get("radio.frames_delivered", 0) + 1

    return observe


def _fold_run(t: Tracer) -> None:
    """Read the counters of objects created for the run that just ended."""
    pending = t.pending
    for medium in pending["media"]:
        state = medium.contention
        if state is not None:
            t.add("contention.grants", state.grants)
            t.add("contention.deferrals", state.deferrals)
            t.add("contention.collisions", state.collisions)
    for driver in pending["drivers"]:
        t.add("core.switches", len(driver.switch_latencies_s))
    for client in pending["dhcp"]:
        t.add("dhcp.retransmits", client.retransmits)
    for sender in pending["tcp"]:
        t.add("tcp.rto_fired", sender.timeouts)
    joins = pending["joins"]
    t.add("join.attempts", len(joins))
    t.add("join.completed", sum(1 for a in joins if a.join_time_s is not None))
    for bucket in pending.values():
        bucket.clear()


def layer_metrics(t: Tracer) -> Dict[str, float]:
    """The per-layer figures of one traced region (see ``PER_LAYER``)."""
    c = t.counts.get
    acquires = c("contention.acquires", 0)
    joins = c("join.attempts", 0)
    delivery_events = c("radio.delivery_events", 0)
    cache_stats = {"hits": 0, "misses": 0, "bytes_read": 0}
    for store in t.caches:
        for key in cache_stats:
            cache_stats[key] += store.stats[key]
    out = {
        "engine.events": c("engine.events", 0),
        "engine.dispatched": c("engine.dispatched", 0),
        "engine.compactions": c("engine.compactions", 0),
        "radio.transmits": c("radio.transmits", 0),
        "radio.frames_delivered": c("radio.frames_delivered", 0),
        "radio.beacons_unheard": c("radio.beacons_unheard", 0),
        "radio.frames_per_delivery_event": (
            c("radio.deliveries", 0) / delivery_events if delivery_events else 0.0
        ),
        "medium_vec.calls": c("medium_vec.calls", 0),
        "contention.acquires": acquires,
        "contention.deferrals": c("contention.deferrals", 0),
        "contention.grant_ratio": c("contention.grants", 0) / acquires if acquires else 0.0,
        "contention.collisions": c("contention.collisions", 0),
        "ap.frames_in": c("ap.frames_in", 0),
        "nic.frames_in": c("nic.frames_in", 0),
        "nic.tunes": c("nic.tunes", 0),
        "join.attempts": joins,
        "join.success_ratio": c("join.completed", 0) / joins if joins else 0.0,
        "dhcp.retransmits": c("dhcp.retransmits", 0),
        "tcp.segments": c("tcp.segments", 0),
        "tcp.rto_fired": c("tcp.rto_fired", 0),
        "core.switches": c("core.switches", 0),
        "workloads.build_s": t.inclusive_s.get("workloads.build_s", 0.0),
        "workloads.aps": c("workloads.aps", 0),
        "model.q_segment_calls": c("model.q_segment_calls", 0),
        "model.series_calls": c("model.series_calls", 0),
        "runner.jobs": c("runner.jobs", 0),
        "cache.hits": cache_stats["hits"],
        "cache.misses": cache_stats["misses"],
        "cache.bytes_read": cache_stats["bytes_read"],
        "cache.fingerprint_s": t.inclusive_s.get("cache.fingerprint_s", 0.0),
        "trace.unattributed_s": t.self_s[ROOT],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = t.self_s[layer]
    return out
