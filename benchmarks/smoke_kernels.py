"""Host kernels smoke benchmark — writes ``BENCH_pr9_kernels.json``.

CI-sized check of the two hot-path kernels:

* **sampling** — IC RRR sampling on a *deep-cascade* recipe (a ring
  lattice whose cascades run for hundreds of rounds), timed in the same
  run for the library's key-set kernel and for the sorted-merge
  reference kernel kept as the test oracle (``tests/visited_oracle.py``).
  The reference re-merges the whole visited key array every lockstep
  round, so deep cascades are where a per-round cost proportional to
  the frontier pays off.
* **selection** — the fig3 sweep pattern (greedy selection over growing
  prefixes of one stream, across a small k-sweep) on a dense
  deep-cascade collection, run with ``coverage_scan='csr'`` vs
  ``'bitset'``, comparing the element-touch counters the two scans
  publish (scalar posting reads vs popcounted words).

Gates (exit code 1 on violation):

* kernel sampling is >= **3x** faster than the reference kernel on the
  deep-cascade recipe (same run, same host);
* **zero parity failures**: the kernel's collection and trace equal the
  reference's, and both scans select the same seeds in every cell;
* the bitset scan touches >= **2x** fewer elements (word popcounts vs
  scalar posting reads) over the fig3 sweep.

Run from the repository root::

    PYTHONPATH=src python benchmarks/smoke_kernels.py
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))  # the reference kernel lives in tests/

from repro import obs
from repro.imm.coverage import CoverageIndex
from repro.imm.seed_selection import select_seeds
from repro.rrr import get_sampler
from tests.visited_oracle import sample_with_oracle

# -- sampling: deep-cascade ring recipe -------------------------------------
RING_N = 8000
RING_NEIGHBORS = 4
RING_P = 0.6
#: the kernel-vs-reference gate: the reference costs O(|visited|) per
#: round, so this is kept CI-sized
GATE_SETS = 512
GATE_BATCH = 512
SPEEDUP_GATE = 3.0
#: the selection workload's collection
SAMPLE_SETS = 2000
BATCH_SIZE = 2048

# -- selection: the fig3 sweep pattern (smoke_selection conventions) over
#    a deep-cascade stream of SAMPLE_SETS ring sets -----------------------
PHASE_THETAS = (SAMPLE_SETS // 4, SAMPLE_SETS // 2, SAMPLE_SETS)
K_SWEEP = (4, 8, 16)


def _ring_graph():
    """A directed ring lattice: every vertex has in-edges from its
    ``RING_NEIGHBORS`` ring predecessors, all with probability
    ``RING_P`` — cascades crawl the ring for hundreds of rounds."""
    from repro.graphs.csc import DirectedGraph

    n, k = RING_N, RING_NEIGHBORS
    offsets = np.arange(1, k + 1)
    src = ((np.arange(n)[:, None] - offsets[None, :]) % n).reshape(-1)
    indptr = np.arange(n + 1) * k
    return DirectedGraph(indptr, src.astype(np.int32),
                         weights=np.full(n * k, RING_P))


def _identical_collections(a, b) -> bool:
    return bool(
        np.array_equal(a.flat, b.flat)
        and np.array_equal(a.offsets, b.offsets)
        and np.array_equal(a.sources, b.sources)
    )


def _identical_traces(a, b) -> bool:
    fields = ("sizes", "rounds", "edges_examined", "kept_mask", "sources")
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in fields)


def run_sampling(graph) -> dict:
    """Deep-cascade sampling: the kernel against the reference kernel."""
    sampler = get_sampler("IC")
    sampler(graph, 100, rng=1)  # warmup (allocator, caches)
    runs = {
        "kernel": lambda: sampler(graph, GATE_SETS, rng=11, batch_size=GATE_BATCH),
        "reference": lambda: sample_with_oracle(
            graph, GATE_SETS, "IC", rng=11, batch_size=GATE_BATCH
        ),
    }
    out = {}
    results = {}
    for name, run in runs.items():
        start = time.perf_counter()
        results[name] = run()
        seconds = time.perf_counter() - start
        out[name] = {
            "seconds": round(seconds, 4),
            "sets_per_second": round(GATE_SETS / seconds, 1),
        }
    coll, trace = results["kernel"]
    ref_coll, ref_trace = results["reference"]
    out["avg_set_size"] = round(coll.total_elements / coll.num_sets, 1)
    out["speedup"] = round(
        out["reference"]["seconds"] / max(out["kernel"]["seconds"], 1e-9), 3
    )
    out["parity"] = _identical_collections(coll, ref_coll) and _identical_traces(
        trace, ref_trace
    )
    return out


def run_selection(collection) -> dict:
    """The fig3 sweep per scan mode: wall-clock, element touches, parity."""
    out = {}
    all_seeds = {}
    for scan in ("csr", "bitset"):
        index = CoverageIndex(collection.n)
        seeds = []
        start = time.perf_counter()
        with obs.profiled() as handle:
            for k in K_SWEEP:
                for theta in PHASE_THETAS:
                    prefix = collection.prefix(theta)
                    index.extend_to(prefix)
                    sel = select_seeds(prefix, k, index=index, scan=scan)
                    seeds.append(sel.seeds.tolist())
        seconds = time.perf_counter() - start
        counters = handle.report().counters
        all_seeds[scan] = seeds
        out[scan] = {
            "seconds": round(seconds, 4),
            "element_touches": int(
                counters.get("selection.scan.posting_reads", 0)
                + counters.get("selection.scan.words_touched", 0)
            ),
        }
    out["touch_ratio"] = round(
        out["csr"]["element_touches"] / max(out["bitset"]["element_touches"], 1), 3
    )
    out["parity"] = all_seeds["csr"] == all_seeds["bitset"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(REPO / "BENCH_pr9_kernels.json"),
        help="output JSON path (default: <repo root>/BENCH_pr9_kernels.json)",
    )
    args = parser.parse_args(argv)

    graph = _ring_graph()
    sampling = run_sampling(graph)
    collection, _ = get_sampler("IC")(graph, SAMPLE_SETS, rng=11,
                                      batch_size=BATCH_SIZE)
    selection = run_selection(collection)

    report = {
        "benchmark": "pr9_kernels",
        "sampling_recipe": {
            "kind": "ring_lattice", "n": RING_N,
            "neighbors": RING_NEIGHBORS, "p": RING_P,
            "num_sets": GATE_SETS, "batch_size": GATE_BATCH,
        },
        "selection_recipe": {
            "num_sets": SAMPLE_SETS, "batch_size": BATCH_SIZE,
            "phase_thetas": list(PHASE_THETAS), "k_sweep": list(K_SWEEP),
        },
        "sampling": sampling,
        "selection": selection,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    print(f"[written to {args.out}]")

    failed = False
    if not sampling["parity"]:
        print("FAIL: the kernel's collection or trace differs from the reference")
        failed = True
    if not selection["parity"]:
        print("FAIL: coverage scans selected different seeds")
        failed = True
    if sampling["speedup"] < SPEEDUP_GATE:
        print(f"FAIL: kernel speedup over the reference "
              f"{sampling['speedup']:.2f} < {SPEEDUP_GATE}")
        failed = True
    if selection["touch_ratio"] < 2.0:
        print(f"FAIL: element-touch ratio {selection['touch_ratio']:.2f} < 2.0")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
