"""Reverse-reachable set sampling under the LT model (§3.3, host analogue).

Under LT the reverse process is a *walk*, not a BFS: a dequeued vertex
``u`` draws a threshold ``tau_u ~ U(0,1)`` and activates at most one
in-neighbor — the first whose inclusive prefix-sum of edge weights crosses
``tau_u`` (exactly what the device computes with a ``__shfl_up_sync`` warp
scan).  With probability ``1 - sum_w(u)`` no neighbor crosses and the walk
stops; it also stops on revisiting a vertex already in the set.

Vectorization: all walks advance one step per round.  Neighbor selection
for every walk is a *single* ``np.searchsorted`` over a globally sorted
array ``g[e] = target(e) + cum_w(e) / W(target(e))`` — each vertex's
segment occupies ``(v, v+1]``, so querying ``u + tau/W(u)`` lands on the
first crossing edge of ``u``'s own segment.  That array depends only on
the graph, so it is memoized per content fingerprint (store top-ups and
k/eps sweeps build it once).

Visited bookkeeping is the IC sampler's: one hash
:class:`~repro.kernels.keyset.KeySet` answers "already in this set?"
for the live walks, each round's new keys (already sorted, since live
walk ids strictly increase) are appended to a list, and one sort at
batch end yields the sorted-per-set layout.  A round costs O(live
walks).
"""

from __future__ import annotations

import threading

import numpy as np

from repro import obs
from repro.graphs.csc import DirectedGraph
from repro.kernels.keyset import KeySet
from repro.rrr.batching import sample_batches
from repro.rrr.collection import RRRCollection
from repro.rrr.trace import SampleTrace
from repro.utils.errors import ValidationError
from repro.utils.rng import as_generator

#: memoized selection indices, keyed by graph content fingerprint; small
#: and bounded — an index is one float64 per edge
_INDEX_CACHE_LIMIT = 8
_INDEX_CACHE: dict[str, np.ndarray] = {}
_INDEX_CACHE_LOCK = threading.Lock()


def _build_selection_index(graph: DirectedGraph) -> np.ndarray:
    """The globally sorted query array ``g`` described in the module docs.

    Segments of vertices with zero total in-weight are filled with a
    uniform ascending ramp so global sortedness holds; such vertices are
    never queried because their walks stop first (tau > 0 > W).
    """
    deg = graph.in_degrees()
    cumw = graph.in_weight_cumsum()
    totals = graph.total_in_weight()
    target = np.repeat(np.arange(graph.n, dtype=np.float64), deg)
    seg_total = np.repeat(totals, deg)
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = np.where(seg_total > 0.0, cumw / seg_total, 0.0)
    zero_seg = seg_total == 0.0
    if np.any(zero_seg):
        # uniform in-segment ramp keeps (v, v+1] ordering for never-queried segments
        within_rank = np.arange(graph.m, dtype=np.float64) - np.repeat(
            graph.indptr[:-1].astype(np.float64), deg
        )
        seg_deg = np.repeat(deg.astype(np.float64), deg)
        norm[zero_seg] = (within_rank[zero_seg] + 1.0) / seg_deg[zero_seg]
    return target + norm


def _selection_index(graph: DirectedGraph) -> np.ndarray:
    """Fetch (or build and cache) the graph's selection index."""
    key = graph.fingerprint()
    with _INDEX_CACHE_LOCK:
        cached = _INDEX_CACHE.get(key)
    if cached is not None:
        obs.counter_add("rrr.lt_index.reused", 1)
        return cached
    index = _build_selection_index(graph)
    with _INDEX_CACHE_LOCK:
        if key not in _INDEX_CACHE:
            if len(_INDEX_CACHE) >= _INDEX_CACHE_LIMIT:
                # drop the oldest entry; sweeps touch one or two graphs
                _INDEX_CACHE.pop(next(iter(_INDEX_CACHE)))
            _INDEX_CACHE[key] = index
        obs.counter_add("rrr.lt_index.built", 1)
    return index


def clear_selection_indices() -> None:
    """Drop every memoized LT selection index (test/teardown hook)."""
    with _INDEX_CACHE_LOCK:
        _INDEX_CACHE.clear()


def _walk_batch(
    graph: DirectedGraph,
    sources: np.ndarray,
    gen: np.random.Generator,
    selection_index: np.ndarray,
    keyset: KeySet,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep LT reverse walks for one batch of sources.

    Returns ``(visited_keys_sorted, sizes, rounds, edges_examined)``;
    keys are ``sid * n + v`` in ``keyset.dtype``.
    ``keyset`` is cleared and reused.
    """
    n = graph.n
    batch = sources.size
    indptr = graph.indptr
    indices = graph.indices
    deg = graph.in_degrees()
    totals = graph.total_in_weight()
    keyset.clear()

    sid = np.arange(batch, dtype=np.int64)
    seeds = sid * n + sources
    keyset.insert(seeds)
    found = [seeds.astype(keyset.dtype)]
    walk_sid, walk_v = sid, sources.copy()
    sizes = np.ones(batch, dtype=np.int64)
    rounds = np.zeros(batch, dtype=np.int64)
    edges = np.zeros(batch, dtype=np.int64)
    max_steps = n + 1  # a walk revisits within n distinct vertices

    for _ in range(max_steps):
        if walk_sid.size == 0:
            break
        rounds[walk_sid] += 1
        edges[walk_sid] += deg[walk_v]
        tau = gen.random(walk_sid.size)
        alive = (deg[walk_v] > 0) & (tau <= totals[walk_v])
        if not alive.any():
            break
        walk_sid, walk_v, tau = walk_sid[alive], walk_v[alive], tau[alive]
        # first in-neighbor whose inclusive prefix sum crosses tau
        query = walk_v + tau / totals[walk_v]
        pos = np.searchsorted(selection_index, query, side="left")
        pos = np.minimum(pos, indptr[walk_v + 1] - 1)  # numeric guard at tau ~ W
        chosen = indices[pos].astype(np.int64)
        keys = walk_sid * n + chosen
        fresh = keyset.insert(keys)
        found.append(keys[fresh].astype(keyset.dtype))
        # walks whose chosen vertex was already visited terminate here
        walk_sid, walk_v = walk_sid[fresh], chosen[fresh]
        sizes[walk_sid] += 1

    # sorted runs, one per round: a stable (merge-based) sort joins them,
    # in place once the runs are freed
    visited = np.concatenate(found)
    del found
    visited.sort(kind="stable")
    return visited, sizes, rounds, edges


def sample_rrr_lt(
    graph: DirectedGraph,
    num_sets: int,
    rng=None,
    eliminate_sources: bool = False,
    batch_size: int = 16384,
) -> tuple[RRRCollection, SampleTrace]:
    """Sample ``num_sets`` LT RRR sets; mirrors :func:`sample_rrr_ic`'s API."""
    if graph.weights is None:
        raise ValidationError("sample_rrr_lt requires LT edge weights")
    if num_sets < 0:
        raise ValidationError("num_sets must be non-negative")
    gen = as_generator(rng)
    selection_index = _selection_index(graph)

    def kernel(sources, keyset):
        return _walk_batch(graph, sources, gen, selection_index, keyset)

    return sample_batches(
        graph, num_sets, gen, eliminate_sources, batch_size, kernel, "rrr.batch.lt"
    )
