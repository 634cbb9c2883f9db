"""The batch loop shared by the IC and LT samplers.

Both samplers run the same outer loop: draw a batch of sources, run the
model's lockstep kernel over it, optionally strip the sources (§3.4),
append the kept sets to the store and the attempted ones to the trace.
Only the per-batch kernel differs, so it is passed in.

A kernel takes ``(sources, keyset)`` and returns ``(keys, sizes,
rounds, edges)``: the visited keys ``sid * n + v`` in ascending order
(sid-major, vertex-ascending — the paper's sorted-per-set layout; int32
or int64, as ``keyset.dtype``) and three batch-length int64 arrays.
``keyset`` is one :class:`KeySet` reused by every batch of the call;
the kernel clears it before use.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro import obs
from repro.graphs.csc import DirectedGraph
from repro.kernels.keyset import KeySet
from repro.rrr.collection import RRRBuilder, RRRCollection
from repro.rrr.trace import SampleTrace
from repro.utils.errors import ValidationError

#: Refuse to keep attempting sets past this multiple of the request — the
#: source-elimination loop would otherwise spin forever on an edgeless graph.
MAX_ATTEMPT_FACTOR = 64

#: keys per set the first key-set table holds before it must rehash:
#: RRR sets of the SL recipes average 24 (IC) and 55 (LT) vertices, and
#: a table too large for tiny sets costs only its clear per batch
KEYS_PER_SET_HINT = 16

BatchKernel = Callable[
    [np.ndarray, KeySet], "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]"
]


def _strip_sources(
    visited: np.ndarray, sizes: np.ndarray, sources: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Remove each set's source key from the sorted visited array."""
    source_keys = np.arange(sources.size, dtype=np.int64) * n + sources
    keep = np.ones(visited.size, dtype=bool)
    # sources are always present, once, in their own set
    keep[np.searchsorted(visited, source_keys)] = False
    return visited[keep], sizes - 1


def _flatten_kept(
    visited: np.ndarray, kept_mask: np.ndarray, n: int
) -> np.ndarray:
    """Per-set vertex ids of the kept sets, as the int32 flat store."""
    if kept_mask.all():
        return (visited % n).astype(np.int32)
    # one divmod pass yields both the per-element set id (for the kept
    # filter) and the vertex id (for the store)
    set_of_elem, flat_v = np.divmod(visited, n)
    return flat_v[kept_mask[set_of_elem]].astype(np.int32)


def sample_batches(
    graph: DirectedGraph,
    num_sets: int,
    gen: np.random.Generator,
    eliminate_sources: bool,
    batch_size: int,
    kernel: BatchKernel,
    span: str,
) -> tuple[RRRCollection, SampleTrace]:
    """Sample ``num_sets`` kept sets in batches of ``kernel`` traversals.

    With ``eliminate_sources`` the source vertex is stripped from every
    set and sets that become empty — exactly the former singletons — are
    discarded and do not count toward ``num_sets``; their traversal work
    still appears in the returned trace, which is what they cost the
    device.
    """
    builder = RRRBuilder(graph.n)
    trace_chunks: list[SampleTrace] = []
    widest = min(batch_size, max(num_sets, 256))  # no batch is wider
    keyset = KeySet(widest * min(graph.n, KEYS_PER_SET_HINT),
                    max_key=widest * graph.n - 1)
    attempts = 0
    raw_singletons = 0

    while builder.num_sets < num_sets:
        remaining = num_sets - builder.num_sets
        batch = int(min(batch_size, max(remaining, 256)))
        if attempts > MAX_ATTEMPT_FACTOR * max(num_sets, 1) + 1024:
            raise ValidationError(
                "source elimination discarded nearly every set "
                f"(attempted {attempts} for {num_sets}); the graph has too "
                "few edges for the requested sampling"
            )
        sources = gen.integers(0, graph.n, size=batch, dtype=np.int64)
        with obs.span(span):
            visited, sizes, rounds, edges = kernel(sources, keyset)
        attempts += batch
        raw_singletons += int(np.sum(sizes == 1))
        if obs.enabled():  # guard the argument-side sums, not just the sink
            obs.counter_add("rrr.sets_attempted", batch)
            obs.counter_add("rrr.edges_examined", int(edges.sum()))
            obs.observe("rrr.batch_size", batch)
        if eliminate_sources:
            visited, sizes = _strip_sources(visited, sizes, sources, graph.n)
            kept_mask = sizes > 0
        else:
            kept_mask = np.ones(batch, dtype=bool)
        # drop discarded sets from the store but keep them in the trace
        flat = _flatten_kept(visited, kept_mask, graph.n)
        builder.append_batch(flat, sizes[kept_mask], sources[kept_mask])
        if obs.enabled():
            kept = int(kept_mask.sum())
            obs.counter_add("rrr.sets_kept", kept)
            obs.counter_add("rrr.sets_discarded", batch - kept)
        trace_chunks.append(
            SampleTrace(
                sizes=sizes,
                rounds=rounds,
                edges_examined=edges,
                kept_mask=kept_mask,
                raw_singletons=0,
                sources=sources,
            )
        )

    builder.truncate_to(num_sets)
    collection = builder.finalize()
    obs.counter_add("rrr.sets_sampled", collection.num_sets)
    trace = SampleTrace.concat(trace_chunks)
    trace.raw_singletons = raw_singletons
    return collection, trace
