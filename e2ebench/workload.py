"""One pass of one benchmark workload, in a fresh process.

``run.py`` starts this file as ``python3 e2ebench/workload.py --workload
W --seed N --seconds S --trace 0|1`` with ``PYTHONPATH=src`` and reads
the JSON object it prints last.  The pass:

1. sets up ``SETUPS`` times (graph generation and weighting, pool or
   service start, one untimed warm-up request on a stream no timed
   request uses) and keeps the last set-up;
2. draws the held-out oracle sample (untimed);
3. runs the closed loop: a client sends its next request only after the
   previous answer arrived;
4. checks the answers, untimed.

The graph comes from a fixed seed; the workload seed sets the request
parameters only.  Plan sizes are a pure function of ``(seed, seconds)``,
so a repeated run makes exactly the same requests.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import threading
import time
from pathlib import Path

import numpy as np

import repro  # noqa: F401  set-up time starts when this import ends

IMPORTED = time.perf_counter()

import repro.graphs.datasets as datasets  # noqa: E402
import repro.graphs.weights as weights  # noqa: E402
import repro.imm.imm as imm  # noqa: E402
from repro.imm.options import IMMOptions  # noqa: E402
from repro.memory.budget import governor  # noqa: E402
from repro.rrr.parallel import shutdown_pools  # noqa: E402
from repro.rrr.store import RRRStore  # noqa: E402
from repro.service.options import ServiceOptions  # noqa: E402
from repro.service.query import InfluenceQuery  # noqa: E402
from repro.service.service import InfluenceService  # noqa: E402

import tracing  # noqa: E402
from oracle import Oracle, valid_seeds  # noqa: E402

#: the SL recipe at small scale (48,476 vertices), from a fixed graph seed
DATASET, SCALE, GRAPH_SEED = "SL", "small", 20250101
K, EPSILON = 50, 0.2
SETUPS = 9
#: spawn-key tags that keep every stream of a run apart
SOLVE, SERVE, WARMUP, CHECK = 1, 2, 3, 4
#: serve: every (k, epsilon) cell of this grid is a distinct request per stream
CELLS = [(k, eps) for k in range(5, 55, 5) for eps in (0.20, 0.25, 0.30, 0.35, 0.40)]
#: serve: the two cells that set a stream's theta.  A stream asks the first,
#: then cells that need no more sets than it, then the second (which
#: dominates the grid), then the rest, so its cold queries sit at fixed
#: positions whatever the seed
WAVES = ((50, 0.30), (50, 0.20))
LOW = [cell for cell in CELLS if cell[1] >= WAVES[0][1] and cell != WAVES[0]]
HIGH = [cell for cell in CELLS if cell[1] < WAVES[0][1] and cell != WAVES[1]]
CLIENTS, STREAMS_PER_CLIENT, SERVE_CHECKS = 2, 4, 2


def stream(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tags))


def load_graph(model: str):
    graph = datasets.load_dataset(DATASET, SCALE, rng=GRAPH_SEED)
    assign = weights.assign_lt_weights if model == "LT" else weights.assign_ic_weights
    return assign(graph)


class Request:
    __slots__ = ("key", "k", "rid", "seconds", "seeds", "error", "tier", "degraded")

    def __init__(self, key, k):
        self.key, self.k, self.rid = key, k, None
        self.seconds, self.seeds, self.error = 0.0, None, None
        self.tier, self.degraded = None, False


class Loop:
    """A workload: set-up, a plan of per-client request lists, a closed loop."""

    model = "IC"
    n_jobs = 1

    def run(self, seed: int, plan, tracer) -> float:
        """One thread per client; each sends its next request only after
        the previous answer arrived.  Returns the loop's wall time."""
        def client(requests):
            for req in requests:
                timed(self.solve, seed, req, tracer)

        start = time.perf_counter()
        if len(plan) == 1:
            # a lone client calls from the main thread, as a script would;
            # a second thread would also get its own malloc arena and
            # change the process's peak RSS
            client(plan[0])
            return time.perf_counter() - start
        threads = [threading.Thread(target=client, args=(reqs,)) for reqs in plan]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - start

    def repeat_first(self, seed: int, first: Request) -> bool:
        again = Request(first.key, first.k)
        self.solve(seed, again)
        return np.array_equal(again.seeds, first.seeds)

    def contract_checks(self, seed: int, plan) -> dict:
        return {}


class ImmLoop(Loop):
    """Serial ``run_imm`` calls at k=50, epsilon=0.2, a fresh rng per call."""

    def __init__(self, model: str, n_jobs: int, nominal_call_s: float):
        self.model, self.n_jobs = model, n_jobs
        self.options = IMMOptions(model=model, n_jobs=n_jobs)
        self.nominal_call_s = nominal_call_s

    def setup(self, seed: int) -> None:
        self.graph = load_graph(self.model)
        # the warm-up starts the resident pool when n_jobs > 1
        imm.run_imm(self.graph, 5, 0.5, rng=stream(seed, WARMUP), options=self.options)

    def discard(self) -> None:
        shutdown_pools()

    def plan(self, seed: int, seconds: float) -> list[list[Request]]:
        calls = max(10, math.ceil(seconds / self.nominal_call_s))
        return [[Request(i, K) for i in range(calls)]]

    def solve(self, seed: int, req: Request) -> None:
        result = imm.run_imm(
            self.graph, K, EPSILON, rng=stream(seed, SOLVE, req.key), options=self.options
        )
        req.seeds = result.seeds

    def memory(self) -> dict:
        return governor().snapshot()

    def close(self) -> None:
        shutdown_pools()


class ServeLoop(Loop):
    """Two closed-loop clients against ``InfluenceService`` (default options).

    Each client owns 4 entropy streams, so the 8 streams fill
    ``max_substrates`` and no timed substrate is evicted.  Every stream
    asks distinct (k, epsilon) cells, so there are no exact-tier hits.
    Each stream is cold exactly twice, at its first cell and at its
    second wave cell (``WAVES``); the workload seed shuffles only the
    prefix-hit cells between and after them, so the tier counts and the
    sampled sets are the same for every seed.
    """

    def setup(self, seed: int) -> None:
        self.graph = load_graph(self.model)
        self.service = InfluenceService(ServiceOptions())
        self.service.register_graph("g", self.graph)
        # the warm-up stream is the least recently used substrate, so the
        # eighth timed stream evicts it and nothing else
        self.service.query(InfluenceQuery("g", 5, 0.5, entropy=(seed, WARMUP)))

    def discard(self) -> None:
        self.service.close()

    def plan(self, seed: int, seconds: float) -> list[list[Request]]:
        per_stream = min(len(CELLS), max(13, round(2.5 * seconds)))
        n_low = round((per_stream - 2) * len(LOW) / (len(LOW) + len(HIGH)))
        n_high = per_stream - 2 - n_low
        rng = stream(seed, SERVE)
        clients = []
        for c in range(CLIENTS):
            streams = []
            for s in range(STREAMS_PER_CLIENT):
                # choice without replacement also shuffles the picks
                low = [LOW[i] for i in rng.choice(len(LOW), n_low, replace=False)]
                high = [HIGH[i] for i in rng.choice(len(HIGH), n_high, replace=False)]
                streams.append([WAVES[0], *low, WAVES[1], *high])
            # a client visits its streams round-robin
            clients.append([
                Request(((seed, SERVE, c, s), streams[s][j]), streams[s][j][0])
                for j in range(per_stream)
                for s in range(STREAMS_PER_CLIENT)
            ])
        return clients

    def solve(self, seed: int, req: Request) -> None:
        entropy, (k, eps) = req.key
        outcome = self.service.query(InfluenceQuery("g", k, eps, entropy=entropy))
        req.seeds, req.tier, req.degraded = outcome.seeds, outcome.cache_tier, outcome.degraded

    def contract_checks(self, seed: int, plan) -> dict:
        """A seeded sample of served answers equals a direct ``run_imm``
        against a fresh store of the same stream identity."""
        answered = [r for client in plan for r in client if r.seeds is not None]
        pick = stream(seed, CHECK).choice(len(answered), SERVE_CHECKS, replace=False)
        opts, query_opts = self.service.options, IMMOptions()
        ok = True
        for i in pick:
            req = answered[i]
            entropy, (k, eps) = req.key
            store = RRRStore(
                self.graph, model=query_opts.model, entropy=entropy,
                chunk_sets=opts.chunk_sets, batch_size=query_opts.batch_size,
            )
            try:
                direct = imm.run_imm(self.graph, k, eps, options=query_opts, store=store)
            finally:
                store.close()
            ok = ok and np.array_equal(direct.seeds, req.seeds)
        return {"serve_equals_direct": ok}

    def memory(self) -> dict:
        return self.service.health()["memory"]

    def close(self) -> None:
        self.service.close()


WORKLOADS = {
    "imm-ic": lambda: ImmLoop("IC", 1, nominal_call_s=1.7),
    "imm-lt-jobs2": lambda: ImmLoop("LT", 2, nominal_call_s=0.75),
    "serve": ServeLoop,
}


def timed(solve, seed: int, req: Request, tracer) -> None:
    start = time.perf_counter()
    try:
        if tracer is None:
            solve(seed, req)
        else:
            with tracer.request(req.rid):
                solve(seed, req)
    except Exception as exc:  # a failed request is counted, not fatal
        req.error = f"{type(exc).__name__}: {exc}"
    req.seconds = time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, help="where a traced pass writes its spans")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    work = WORKLOADS[args.workload]()

    setups, start = [], IMPORTED
    for i in range(SETUPS):
        if i:
            work.discard()
            start = time.perf_counter()
        if tracer is None:
            work.setup(args.seed)
        else:
            with tracer.span("bench.setup"):
                work.setup(args.seed)
        setups.append(time.perf_counter() - start)

    if tracer is not None:
        tracer.phase = "oracle"
    oracle = Oracle(work.graph, work.model)

    plan = work.plan(args.seed, args.seconds)
    requests = [req for client in plan for req in client]
    for rid, req in enumerate(requests):
        req.rid = rid
    pids = tracing.worker_pids() if work.n_jobs > 1 else []
    before = tracing.worker_usage(pids)
    if tracer is not None:
        tracer.phase = "loop"
    loop_s = work.run(args.seed, plan, tracer)
    if tracer is not None:
        tracer.phase = "check"
    peak_rss_mb = tracing.vm_hwm_mb()
    after = tracing.worker_usage(pids)
    memory = work.memory()

    good = [
        r for r in requests
        if r.error is None and not r.degraded and valid_seeds(r.seeds, r.k, work.graph.n)
    ]
    checks = {"all_answers_valid": len(good) == len(requests)}
    first = requests[0]
    checks["first_request_repeats"] = first.seeds is not None and work.repeat_first(args.seed, first)
    checks.update(work.contract_checks(args.seed, plan))
    coverage = [oracle.coverage(r.seeds) for r in good]
    out = {
        "workload": args.workload,
        "setup_s": setups,
        "latency_ms": [r.seconds * 1000.0 for r in requests if r.error is None],
        "loop_s": loop_s,
        "attempted": len(requests),
        "ok": len(good),
        "errors": sorted({r.error for r in requests if r.error}),
        "peak_rss_mb": peak_rss_mb,
        "spread_frac": float(np.mean(coverage)) if coverage else 0.0,
        "spread_se": float(np.mean([oracle.standard_error(c) for c in coverage])) if coverage else 0.0,
        "oracle_sets": oracle.sets,
        "tiers": {t: sum(r.tier == t for r in requests) for t in ("cold", "prefix", "exact")}
        if any(r.tier for r in requests) else {},
        "checks": checks,
    }
    if tracer is not None:
        pool = tracing.pool_usage(before, after)
        layers = tracing.layer_metrics(tracer, pool, memory, peak_rss_mb)
        out["layers"] = {name: list(v) for name, v in layers.items()}
        tracer.uninstall()
        if args.spans is not None:
            tracer.write(args.spans)
    work.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
