"""In-memory span tracing around the program's layer boundaries.

:func:`install` wraps the names each caller in the program actually looks
up at call time — the stage functions imported into
``repro.flow.pipeline``, ``ArtifactCache.get``/``put``, ``FaultSimulator``,
``run_cell``, ``request_with_retry`` and ``RemoteCache`` — so the program
itself is unchanged and an untraced run executes none of this code.

A span is ``[name, start, end, parent index, operation id]`` and a count
is ``[name, time, amount, operation id]``.  Both are kept in memory and
written out as JSON lines when the run ends (:meth:`Tracer.dump`).  A
span's *self time* is its duration minus the durations of its direct
children; summed per name over the spans of one operation, self times add
up to the operation's duration.
"""

from __future__ import annotations

import json
import os
import threading
import types
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

Span = List[Any]  # [name, start, end, parent, op]
Count = List[Any]  # [name, time, amount, op]

#: Per-layer metrics, in the order ``BENCHMARK.json`` lists them, with units.
#: Times are calibrated seconds and every value is per measured pass.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("fsm.resolve_s", "s"),
    ("encoding.assign_s", "s"),
    ("encoding.assign_calls", "count"),
    ("bist.excite_s", "s"),
    ("logic.minimize_s", "s"),
    ("logic.minimize_calls", "count"),
    ("logic.literals_s", "s"),
    ("logic.terms_in", "count"),
    ("logic.terms_out", "count"),
    ("circuit.netlist_s", "s"),
    ("circuit.enumerate_s", "s"),
    ("circuit.compile_s", "s"),
    ("circuit.faultsim_s", "s"),
    ("circuit.faults", "count"),
    ("circuit.fault_cycles", "count"),
    ("circuit.detect_ratio", "ratio"),
    ("flow.pipeline_self_s", "s"),
    ("flow.cache_get_s", "s"),
    ("flow.cache_gets", "count"),
    ("flow.cache_hits", "count"),
    ("flow.cache_put_s", "s"),
    ("flow.cache_puts", "count"),
    ("flow.cache_put_kb", "kB"),
    ("flow.submit_s", "s"),
    ("flow.poll_s", "s"),
    ("flow.polls", "count"),
    ("flow.client_wait_s", "s"),
    ("flow.merge_s", "s"),
    ("flow.worker_claim_s", "s"),
    ("flow.worker_claims", "count"),
    ("flow.worker_empty_claims", "count"),
    ("flow.worker_cell_s", "s"),
    ("flow.worker_upload_s", "s"),
    ("flow.worker_idle_s", "s"),
    ("flow.remote_get_s", "s"),
    ("flow.remote_gets", "count"),
    ("flow.remote_put_s", "s"),
    ("flow.remote_puts", "count"),
    ("trace.sweep_s", "s"),
    ("trace.untraced_sweep_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.accounted_share", "ratio"),
)

#: Span name -> metric name of its summed self time.
SELF_TIME_METRICS: Dict[str, str] = {
    "fsm.resolve": "fsm.resolve_s",
    "encoding.assign": "encoding.assign_s",
    "bist.excite": "bist.excite_s",
    "logic.minimize": "logic.minimize_s",
    "logic.literals": "logic.literals_s",
    "circuit.netlist": "circuit.netlist_s",
    "circuit.enumerate": "circuit.enumerate_s",
    "circuit.compile": "circuit.compile_s",
    "circuit.faultsim": "circuit.faultsim_s",
    "flow.pipeline": "flow.pipeline_self_s",
    "flow.cache_get": "flow.cache_get_s",
    "flow.cache_put": "flow.cache_put_s",
    "flow.submit": "flow.submit_s",
    "flow.poll": "flow.poll_s",
    "flow.client_wait": "flow.client_wait_s",
    "flow.sweep": "flow.merge_s",
    "flow.worker_claim": "flow.worker_claim_s",
    "flow.worker_cell": "flow.worker_cell_s",
    "flow.worker_upload": "flow.worker_upload_s",
    "flow.worker_idle": "flow.worker_idle_s",
    "flow.remote_get": "flow.remote_get_s",
    "flow.remote_put": "flow.remote_put_s",
}

#: Span name -> metric name of its call count.
CALL_COUNT_METRICS: Dict[str, str] = {
    "encoding.assign": "encoding.assign_calls",
    "logic.minimize": "logic.minimize_calls",
    "flow.cache_get": "flow.cache_gets",
    "flow.cache_put": "flow.cache_puts",
    "flow.poll": "flow.polls",
    "flow.worker_claim": "flow.worker_claims",
    "flow.remote_get": "flow.remote_gets",
    "flow.remote_put": "flow.remote_puts",
}


class Tracer:
    """Records spans of one thread and counters, and patches the program.

    Calls from other threads (the coordinator's event loop, heartbeat
    threads) pass straight through unrecorded, so parent links stay exact.
    """

    def __init__(self, clock: Callable[[], float], role: str) -> None:
        self.clock = clock
        self.role = role
        self.spans: List[Span] = []
        self.counts: List[Count] = []
        self.op: Any = None
        self._stack: List[int] = []
        self._thread = threading.get_ident()
        self._undo: List[Tuple[Any, str, Any]] = []

    # ---------------------------------------------------------------- spans
    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        if threading.get_ident() != self._thread:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        span: Span = [name, self.clock(), 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = self.clock()

    def count(self, name: str, amount: float = 1) -> None:
        if threading.get_ident() == self._thread:
            self.counts.append([name, self.clock(), amount, self.op])

    def dump(self, path: str) -> None:
        """Write spans and counts, one JSON object per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({"span": span}) + "\n")
            for item in self.counts:
                handle.write(json.dumps({"count": item}) + "\n")

    # ------------------------------------------------------------- patching
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _wrap(self, module: Any, attr: str, name: str) -> None:
        fn = getattr(module, attr)
        call = self.call

        def traced(*args: Any, **kwargs: Any) -> Any:
            return call(name, fn, *args, **kwargs)

        self._patch(module, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> None:
    """Wrap every traced name of the program (undo with ``uninstall``)."""
    from repro.circuit import faults, netlist
    from repro.flow import cache, cells, pipeline, sweep
    from repro.flow.net import cache as net_cache
    from repro.flow.net import client

    call, count = tracer.call, tracer.count
    for module, attr, name in (
        (pipeline, "resolve_fsm", "fsm.resolve"),
        (sweep, "resolve_fsm", "fsm.resolve"),
        (cells, "rebuild_fsm", "fsm.resolve"),
        (pipeline, "assign_states", "encoding.assign"),
        (pipeline, "derive_excitation", "bist.excite"),
        (pipeline, "multilevel_literal_count", "logic.literals"),
        (netlist, "netlist_from_controller", "circuit.netlist"),
        (faults, "enumerate_faults", "circuit.enumerate"),
    ):
        tracer._wrap(module, attr, name)

    minimize = pipeline.minimize_excitation

    def minimize_excitation(*args: Any, **kwargs: Any) -> Any:
        result = call("logic.minimize", minimize, *args, **kwargs)
        count("logic.terms_in", result.initial_terms)
        count("logic.terms_out", result.final_terms)
        return result

    tracer._patch(pipeline, "minimize_excitation", minimize_excitation)

    base_simulator = faults.FaultSimulator

    class TracedFaultSimulator(base_simulator):  # type: ignore[misc, valid-type]
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            call("circuit.compile", super().__init__, *args, **kwargs)

        def coverage_for_random_patterns(self, *args: Any, **kwargs: Any) -> Any:
            result = call("circuit.faultsim", super().coverage_for_random_patterns,
                          *args, **kwargs)
            undetected = result.total_faults - len(result.detected)
            count("circuit.faults", result.total_faults)
            count("circuit.detected", len(result.detected))
            count("circuit.fault_cycles", sum(result.detection_cycle.values())
                  + undetected * result.cycles_simulated)
            return result

    tracer._patch(faults, "FaultSimulator", TracedFaultSimulator)

    local_get, local_put = cache.ArtifactCache.get, cache.ArtifactCache.put
    remote_get = net_cache.RemoteCache.get
    remote_fetch = net_cache.RemoteCache._remote_get
    remote_put = net_cache.RemoteCache.put

    def traced_get(getter: Callable[..., Any]) -> Callable[..., Any]:
        def get(self: Any, key: str) -> Any:
            payload = call("flow.cache_get", getter, self, key)
            count("flow.cache_hits", int(payload is not None))
            return payload

        return get

    def put(self: Any, key: str, payload: Mapping[str, Any]) -> None:
        call("flow.cache_put", local_put, self, key, payload)
        try:
            count("flow.cache_put_kb", os.stat(self.path_for(key)).st_size / 1024.0)
        except OSError:  # evicted by a bounded cache right after the write
            pass

    def fetch(self: Any, key: str) -> Any:
        return call("flow.remote_get", remote_fetch, self, key)

    def push(self: Any, key: str, payload: Mapping[str, Any]) -> None:
        call("flow.remote_put", remote_put, self, key, payload)

    tracer._patch(cache.ArtifactCache, "get", traced_get(local_get))
    tracer._patch(cache.ArtifactCache, "put", put)
    tracer._patch(net_cache.RemoteCache, "get", traced_get(remote_get))
    tracer._patch(net_cache.RemoteCache, "_remote_get", fetch)
    tracer._patch(net_cache.RemoteCache, "put", push)

    http = client.request_with_retry

    def request_with_retry(url: str, method: str = "GET", *args: Any, **kwargs: Any) -> Any:
        path = url.split("/api/v1/", 1)[-1]
        if path.startswith("runs"):
            name = "flow.poll" if method == "GET" else "flow.submit"
        elif path.startswith("claim"):
            name = "flow.worker_claim"
        elif path.startswith("results"):
            name = "flow.worker_upload"
        else:
            name = "flow.worker_register"
        response = call(name, http, url, method, *args, **kwargs)
        if name == "flow.worker_claim" and not response.get("cell") and not response.get("stop"):
            count("flow.worker_empty_claims")
        return response

    tracer._patch(client, "request_with_retry", request_with_retry)

    run_cell = client.run_cell

    def traced_run_cell(task: Mapping[str, Any], *args: Any, **kwargs: Any) -> Any:
        tracer.op = task.get("cell")
        try:
            return call("flow.worker_cell", run_cell, task, *args, **kwargs)
        finally:
            tracer.op = None

    tracer._patch(client, "run_cell", traced_run_cell)

    # The HTTP client module sleeps through ``time.sleep``: in a worker that
    # is the idle wait for work, in the sweep client the wait between polls.
    sleep_name = "flow.worker_idle" if tracer.role == "worker" else "flow.client_wait"
    real_time = client.time
    proxy = types.SimpleNamespace(**{k: getattr(real_time, k) for k in dir(real_time)
                                     if not k.startswith("__")})
    proxy.sleep = lambda seconds: call(sleep_name, real_time.sleep, seconds)
    tracer._patch(client, "time", proxy)


def self_times(spans: Iterable[Span]) -> List[Tuple[Span, float]]:
    """Each span with its self time (duration minus direct children)."""
    spans = list(spans)
    child_total = [0.0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            child_total[parent] += span[2] - span[1]
    return [(span, span[2] - span[1] - child_total[i]) for i, span in enumerate(spans)]


def load(path: str) -> Tuple[List[Span], List[Count]]:
    """Read a file written by :meth:`Tracer.dump`."""
    spans: List[Span] = []
    counts: List[Count] = []
    with open(path) as handle:
        for line in handle:
            item = json.loads(line)
            if "span" in item:
                spans.append(item["span"])
            else:
                counts.append(item["count"])
    return spans, counts


def aggregate(
    processes: Iterable[Tuple[List[Span], List[Count]]],
    factor_of: Callable[[float, Any], Optional[float]],
    passes: int,
) -> Dict[str, float]:
    """Per-pass per-layer metrics from the spans and counts of processes.

    ``factor_of(time, op)`` gives the calibration factor at that moment of
    that operation, or ``None`` outside the measured passes: spans and
    counts there are left out.
    """
    totals: Dict[str, float] = {metric: 0.0 for metric, _ in PER_LAYER}
    totals["circuit.detected"] = 0.0
    for spans, counts in processes:
        for span, own in self_times(spans):
            factor = factor_of(span[1], span[4])
            if factor is None:
                continue
            metric = SELF_TIME_METRICS.get(span[0])
            if metric is not None:
                totals[metric] += own * factor
            counted = CALL_COUNT_METRICS.get(span[0])
            if counted is not None:
                totals[counted] += 1
        for name, at, amount, op in counts:
            if name in totals and factor_of(at, op) is not None:
                totals[name] += amount
    detected = totals.pop("circuit.detected")
    per_pass = {name: value / passes for name, value in totals.items()}
    faults = totals["circuit.faults"]
    per_pass["circuit.detect_ratio"] = detected / faults if faults else 0.0
    return per_pass
