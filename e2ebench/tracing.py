"""Outside-in tracing for the benchmark's traced run.

The tracer wraps public entry points of the ``repro`` modules at the
names their callers look up (for example ``repro.imm.imm.select_seeds``,
which ``run_imm`` calls, and ``repro.service.service.run_imm``, which the
service calls).  No code under ``src/`` changes and ``repro.obs`` is not
used: each thread keeps its own span stack in a ``contextvars`` variable,
so spans opened by concurrent service workers never misparent.

Spans stay in memory and are written out once, at the end of the run.
A span's self time is its duration minus the part of it that its child
spans cover.  Pool workers are measured from ``/proc``, not by code that
runs inside them.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

MIB = 1024.0 * 1024.0

#: (name, unit, better) of every per-layer metric, in print order
LAYER_METRICS = (
    ("setup.first_s", "s", "lower"),
    ("graphs.load_s", "s", "lower"),
    ("rrr.sample_s", "s", "lower"),
    ("rrr.sets", "count", "lower"),
    ("rrr.sets_per_s", "1/s", "higher"),
    ("rrr.edges_examined", "count", "lower"),
    ("rrr.mean_set_size", "count", "lower"),
    ("rrr.concat_s", "s", "lower"),
    ("rrr.concat_calls", "count", "lower"),
    ("rrr.concat_mb", "MiB", "lower"),
    ("pool.sample_s", "s", "lower"),
    ("pool.calls", "count", "lower"),
    ("pool.worker_cpu_s", "s", "lower"),
    ("pool.worker_hwm_mb", "MiB", "lower"),
    ("pool.wait_frac", "ratio", "lower"),
    ("store.ensure_s", "s", "lower"),
    ("store.sampled_sets", "count", "lower"),
    ("store.reuse_frac", "ratio", "higher"),
    ("coverage.extend_s", "s", "lower"),
    ("coverage.calls", "count", "lower"),
    ("selection.s", "s", "lower"),
    ("selection.calls", "count", "lower"),
    ("selection.scans", "count", "lower"),
    ("imm.self_s", "s", "lower"),
    ("imm.phases", "count", "lower"),
    ("imm.theta", "count", "lower"),
    ("service.queue_wait_ms", "ms", "lower"),
    ("service.exec_ms", "ms", "lower"),
    ("service.latency_p90_ms", "ms", "lower"),
    ("service.cold", "count", "lower"),
    ("service.prefix", "count", "higher"),
    ("service.exact", "count", "higher"),
    ("service.sampled_sets", "count", "lower"),
    ("service.coalesced", "count", "higher"),
    ("memory.peak_charged_mb", "MiB", "lower"),
    ("memory.ledger_to_rss", "ratio", "higher"),
    ("memory.demotions", "count", "lower"),
    ("memory.overcommits", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    request: int | None
    phase: str
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Span recorder with one span stack per thread (contextvars).

    ``phase`` tags every span with the benchmark phase it started in
    (``setup``, ``loop`` or ``check``); the benchmark's main thread
    changes it only while no request is in flight.
    """

    def __init__(self):
        self.pid = os.getpid()
        self.phase = "setup"
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current = contextvars.ContextVar("span", default=None)
        self._request = contextvars.ContextVar("request", default=None)
        self._undo: list = []
        # InfluenceService.query -> _execute handoff: the worker thread
        # runs in its own context, so the client span and request id
        # travel with the query object
        self._handoff: dict[int, tuple[int, int | None]] = {}

    # -- spans -----------------------------------------------------------------
    @contextmanager
    def span(self, name: str, parent=None, request=None):
        rec = Span(
            id=next(self._ids),
            name=name,
            parent=self._current.get() if parent is None else parent,
            request=self._request.get() if request is None else request,
            phase=self.phase,
            thread=threading.get_ident(),
            start=time.perf_counter(),
        )
        span_token = self._current.set(rec.id)
        request_token = self._request.set(rec.request)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._request.reset(request_token)
            self._current.reset(span_token)
            with self._lock:
                self.spans.append(rec)

    def traced(self, func, name: str, before=None, after=None):
        """``func`` wrapped in a span; ``before(args, kwargs)`` returns a
        state handed to ``after(state, result, args, kwargs)``, whose dict
        lands in the span's attributes.  Calls from other processes (a
        forked pool worker inherits the wrapper) pass straight through."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return func(*args, **kwargs)
            with tracer.span(name) as rec:
                state = before(args, kwargs) if before else None
                result = func(*args, **kwargs)
                if after:
                    rec.attrs.update(after(state, result, args, kwargs))
                return result

        return wrapper

    def patch(self, owner, attr: str, name: str, before=None, after=None):
        """Replace ``owner.attr`` by its traced version until :meth:`uninstall`."""
        # read classmethods raw from the class dict so they stay classmethods
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.traced(raw.__func__, name, before, after))
        else:
            new = self.traced(raw, name, before, after)
        self.replace(owner, attr, new)

    def replace(self, owner, attr: str, new) -> None:
        """Set ``owner.attr`` to ``new`` until :meth:`uninstall`."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def request(self, rid: int):
        token = self._request.set(rid)
        try:
            yield
        finally:
            self._request.reset(token)

    # -- output ------------------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.id] = (s.end - s.start) - covered
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(s), default=float) + "\n")


# -- what each wrapped layer records --------------------------------------------
def _sample_after(state, result, args, kwargs):
    collection, trace = result
    return {
        "sets": collection.num_sets,
        "edges": trace.total_edges_examined(),
        "elements": int(collection.flat.size),
    }


def _concat_after(state, result, args, kwargs):
    parts = args[-1] if args else kwargs["parts"]
    built = len(parts) > 1
    nbytes = result.flat.nbytes + result.offsets.nbytes if built else 0
    return {"bytes": int(nbytes)}


def _ensure_before(args, kwargs):
    store = args[0]
    return store.num_cached


def _ensure_after(cached_before, result, args, kwargs):
    store, theta = args[0], (args[1] if len(args) > 1 else kwargs["theta"])
    return {
        "theta": int(theta),
        "reused": int(min(theta, cached_before)),
        "sampled": int(store.num_cached - cached_before),
    }


def _select_after(state, result, args, kwargs):
    return {"scans": result.stats.total_scans()}


def _imm_after(state, result, args, kwargs):
    return {"phases": len(result.phases), "theta": int(result.theta)}


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry point at the name its caller uses."""
    import repro.graphs.datasets as datasets
    import repro.graphs.weights as weights
    import repro.imm.imm as imm
    import repro.rrr as rrr
    import repro.service.service as service
    from repro.imm.coverage import CoverageIndex
    from repro.rrr.collection import RRRCollection
    from repro.rrr.parallel import SamplerPool
    from repro.rrr.store import RRRStore

    tracer.patch(datasets, "load_dataset", "graphs.load")
    tracer.patch(weights, "assign_ic_weights", "graphs.load")
    tracer.patch(weights, "assign_lt_weights", "graphs.load")

    # run_imm looks the sampler up once per call through its own module;
    # RRRStore and SamplerPool's small-request fallback import it from
    # repro.rrr at call time
    for module in (imm, rrr):
        lookup = module.get_sampler

        def get_sampler(model, lookup=lookup):
            return tracer.traced(lookup(model), "rrr.sample", after=_sample_after)

        tracer.replace(module, "get_sampler", get_sampler)

    tracer.patch(RRRCollection, "concat", "rrr.concat", after=_concat_after)
    tracer.patch(SamplerPool, "sample", "pool.sample")
    tracer.patch(RRRStore, "ensure", "store.ensure", before=_ensure_before, after=_ensure_after)
    tracer.patch(RRRStore, "coverage_index", "coverage.index")
    tracer.patch(CoverageIndex, "extend_to", "coverage.extend")
    tracer.patch(imm, "select_seeds", "selection", after=_select_after)
    tracer.patch(imm, "run_imm", "imm.run", after=_imm_after)
    tracer.patch(service, "run_imm", "imm.run", after=_imm_after)
    _install_service(tracer, service.InfluenceService)


def _install_service(tracer: Tracer, cls) -> None:
    query, execute = cls.query, cls._execute

    def traced_query(svc, q, *args, **kwargs):
        with tracer.span("service.query") as rec:
            tracer._handoff[id(q)] = (rec.id, rec.request)
            try:
                outcome = query(svc, q, *args, **kwargs)
            finally:
                tracer._handoff.pop(id(q), None)
            rec.attrs.update(
                tier=outcome.cache_tier,
                sampled=int(outcome.sampled_sets),
                coalesced=bool(outcome.coalesced),
                exec_s=float(outcome.seconds),
            )
            return outcome

    # the scheduler binds _execute when the service is built, so this
    # patch must precede InfluenceService construction
    def traced_execute(svc, job):
        parent, request = tracer._handoff.get(id(job.query), (None, None))
        with tracer.span("service.execute", parent=parent, request=request):
            return execute(svc, job)

    tracer.replace(cls, "query", functools.wraps(query)(traced_query))
    tracer.replace(cls, "_execute", functools.wraps(execute)(traced_execute))


# -- pool workers, read from /proc ----------------------------------------------
def _proc_status_kb(pid, field_name: str) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field_name + ":"):
                return float(line.split()[1])
    return 0.0


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set size (VmHWM) of ``pid`` in MiB."""
    return _proc_status_kb(pid, "VmHWM") / 1024.0


def worker_pids() -> list[int]:
    """Live child processes running this interpreter's own command line
    (forked pool workers), excluding helpers such as the resource tracker."""
    me = os.getpid()
    with open("/proc/self/cmdline", "rb") as fh:
        cmdline = fh.read()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            if ppid != me:
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                if fh.read() == cmdline:
                    pids.append(int(entry))
        except (OSError, IndexError, ValueError):
            continue  # exited while we looked
    return sorted(pids)


def worker_usage(pids) -> dict[int, tuple[float, float]]:
    """pid -> (user+system CPU seconds, VmHWM MiB) for each live pid."""
    tick = os.sysconf("SC_CLK_TCK")
    out = {}
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            cpu = (int(fields[11]) + int(fields[12])) / tick
            out[pid] = (cpu, vm_hwm_mb(pid))
        except (OSError, IndexError, ValueError):
            continue
    return out


def pool_usage(before: dict, after: dict) -> dict:
    """Worker count, CPU seconds spent between the two readings, and the
    highest worker VmHWM, for workers alive at both."""
    pids = [p for p in after if p in before]
    if not pids:
        return {}
    return {
        "n_jobs": len(pids),
        "cpu_s": sum(after[p][0] - before[p][0] for p in pids),
        "hwm_mb": max(after[p][1] for p in pids),
    }


# -- per-layer metrics ------------------------------------------------------------
def layer_metrics(tracer: Tracer, pool: dict, memory: dict, peak_rss_mb: float) -> dict:
    """Every per-layer metric except ``setup.first_s`` and
    ``trace.overhead_frac`` (both read from the untraced pass), as
    ``name -> (value, sample count)``."""
    self_s = tracer.self_times()
    loop = [s for s in tracer.spans if s.phase == "loop"]

    def named(*names):
        return [s for s in loop if s.name in names]

    def self_total(spans):
        return float(sum(self_s[s.id] for s in spans))

    def attr_total(spans, key):
        return float(sum(s.attrs.get(key, 0) for s in spans))

    m: dict[str, tuple[float, int]] = {}
    # graph loading happens in set-up: the median over the repeated
    # set-ups, each a "bench.setup" span the loads are children of
    setups = {s.id: 0.0 for s in tracer.spans if s.name == "bench.setup"}
    for s in tracer.spans:
        if s.name == "graphs.load" and s.parent in setups:
            setups[s.parent] += self_s[s.id]
    loads = list(setups.values())
    m["graphs.load_s"] = (float(np.median(loads)) if loads else 0.0, len(loads))

    samples = named("rrr.sample")
    sample_s = self_total(samples)
    sets = attr_total(samples, "sets")
    m["rrr.sample_s"] = (sample_s, len(samples))
    m["rrr.sets"] = (sets, len(samples))
    m["rrr.sets_per_s"] = (sets / sample_s if sample_s else 0.0, len(samples))
    m["rrr.edges_examined"] = (attr_total(samples, "edges"), len(samples))
    m["rrr.mean_set_size"] = (attr_total(samples, "elements") / sets if sets else 0.0, len(samples))

    concats = named("rrr.concat")
    m["rrr.concat_s"] = (self_total(concats), len(concats))
    m["rrr.concat_calls"] = (float(len(concats)), len(concats))
    m["rrr.concat_mb"] = (attr_total(concats, "bytes") / MIB, len(concats))

    pools = named("pool.sample")
    pool_s = float(sum(s.end - s.start for s in pools))
    cpu = pool.get("cpu_s", 0.0)
    n_jobs = pool.get("n_jobs", 0)
    m["pool.sample_s"] = (pool_s, len(pools))
    m["pool.calls"] = (float(len(pools)), len(pools))
    m["pool.worker_cpu_s"] = (cpu, n_jobs)
    m["pool.worker_hwm_mb"] = (pool.get("hwm_mb", 0.0), n_jobs)
    m["pool.wait_frac"] = (1.0 - cpu / (n_jobs * pool_s) if pool_s and n_jobs else 0.0, len(pools))

    ensures = named("store.ensure")
    theta = attr_total(ensures, "theta")
    m["store.ensure_s"] = (self_total(ensures), len(ensures))
    m["store.sampled_sets"] = (attr_total(ensures, "sampled"), len(ensures))
    m["store.reuse_frac"] = (attr_total(ensures, "reused") / theta if theta else 0.0, len(ensures))

    extends = named("coverage.extend")
    coverage = named("coverage.extend", "coverage.index")
    m["coverage.extend_s"] = (self_total(coverage), len(coverage))
    m["coverage.calls"] = (float(len(extends)), len(extends))

    selections = named("selection")
    m["selection.s"] = (self_total(selections), len(selections))
    m["selection.calls"] = (float(len(selections)), len(selections))
    m["selection.scans"] = (attr_total(selections, "scans"), len(selections))

    runs = named("imm.run")
    m["imm.self_s"] = (self_total(runs), len(runs))
    m["imm.phases"] = (attr_total(runs, "phases") / len(runs) if runs else 0.0, len(runs))
    m["imm.theta"] = (attr_total(runs, "theta") / len(runs) if runs else 0.0, len(runs))

    # a query that raised has no outcome to read
    queries = [s for s in named("service.query") if "tier" in s.attrs]
    latency = [(s.end - s.start) * 1000.0 for s in queries]
    exec_ms = [s.attrs["exec_s"] * 1000.0 for s in queries]
    wait = [lat - ex for lat, ex in zip(latency, exec_ms)]
    m["service.queue_wait_ms"] = (float(np.median(wait)) if wait else 0.0, len(wait))
    m["service.exec_ms"] = (float(np.median(exec_ms)) if exec_ms else 0.0, len(exec_ms))
    # a percentile is reported only when at least 10 samples lie beyond it
    p90 = float(np.quantile(latency, 0.9)) if latency else 0.0
    m["service.latency_p90_ms"] = (
        p90 if sum(lat > p90 for lat in latency) >= 10 else 0.0, len(latency)
    )
    for tier in ("cold", "prefix", "exact"):
        m[f"service.{tier}"] = (float(sum(s.attrs["tier"] == tier for s in queries)), len(queries))
    m["service.sampled_sets"] = (attr_total(queries, "sampled"), len(queries))
    m["service.coalesced"] = (attr_total(queries, "coalesced"), len(queries))

    peak = float(memory.get("peak_charged_bytes", 0))
    m["memory.peak_charged_mb"] = (peak / MIB, 1)
    m["memory.ledger_to_rss"] = (peak / MIB / peak_rss_mb if peak_rss_mb else 0.0, 1)
    m["memory.demotions"] = (float(memory.get("demotions", 0)), 1)
    m["memory.overcommits"] = (float(memory.get("overcommits", 0)), 1)
    return m
