"""Sorted-merge reference kernels: the parity oracle for the samplers.

These are the samplers' former per-batch kernels, kept verbatim in
behaviour: the visited state is one sorted ``sid * n + v`` key array,
de-duplicated each round with ``np.unique`` + ``searchsorted`` and
re-merged in full.  Every round costs O(batch + |visited|), which is
why the library no longer runs them, but each step is obviously right,
so the production kernels must reproduce their output exactly: same
RNG draws in the same order, same keys, sizes, rounds and edges.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csc import DirectedGraph
from repro.utils.segments import segmented_arange


def _merge_new(visited: np.ndarray, pos: np.ndarray, new_keys: np.ndarray) -> np.ndarray:
    """Merge sorted ``new_keys`` (disjoint from ``visited``) into it."""
    target = pos + np.arange(new_keys.size, dtype=np.int64)
    merged = np.empty(visited.size + new_keys.size, dtype=np.int64)
    merged[target] = new_keys
    keep = np.ones(merged.size, dtype=bool)
    keep[target] = False
    merged[keep] = visited
    return merged


def reverse_bfs_batch(
    graph: DirectedGraph, sources: np.ndarray, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """IC lockstep reverse BFS: ``(keys, sizes, rounds, edges)``."""
    n = graph.n
    batch = sources.size
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    sid = np.arange(batch, dtype=np.int64)
    visited = np.sort(sid * n + sources)
    frontier_sid, frontier_v = sid, sources
    rounds = np.zeros(batch, dtype=np.int64)
    edges = np.zeros(batch, dtype=np.int64)

    while frontier_sid.size:
        rounds += np.bincount(frontier_sid, minlength=batch) > 0
        starts = indptr[frontier_v]
        lengths = indptr[frontier_v + 1] - starts
        edge_idx = segmented_arange(starts, lengths)
        if edge_idx.size == 0:
            break
        e_sid = np.repeat(frontier_sid, lengths)
        edges += np.bincount(e_sid, minlength=batch)
        e_v = indices[edge_idx].astype(np.int64)
        hit = gen.random(edge_idx.size) <= weights[edge_idx]
        c_keys = e_sid[hit] * n + e_v[hit]
        if c_keys.size == 0:
            break
        c_keys = np.unique(c_keys)
        pos = np.searchsorted(visited, c_keys)
        probe = np.minimum(pos, visited.size - 1)
        is_new = visited[probe] != c_keys
        new_keys = c_keys[is_new]
        if new_keys.size == 0:
            break
        visited = _merge_new(visited, pos[is_new], new_keys)
        frontier_sid, frontier_v = np.divmod(new_keys, n)

    sizes = np.bincount(visited // n, minlength=batch)
    return visited, sizes, rounds, edges


def walk_batch(
    graph: DirectedGraph,
    sources: np.ndarray,
    gen: np.random.Generator,
    selection_index: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """LT lockstep reverse walks: ``(keys, sizes, rounds, edges)``."""
    n = graph.n
    batch = sources.size
    indptr, indices = graph.indptr, graph.indices
    deg = graph.in_degrees()
    totals = graph.total_in_weight()
    sid = np.arange(batch, dtype=np.int64)
    visited = np.sort(sid * n + sources)
    walk_sid, walk_v = sid, sources.copy()
    rounds = np.zeros(batch, dtype=np.int64)
    edges = np.zeros(batch, dtype=np.int64)

    for _ in range(n + 1):
        if walk_sid.size == 0:
            break
        rounds[walk_sid] += 1
        edges[walk_sid] += deg[walk_v]
        tau = gen.random(walk_sid.size)
        alive = (deg[walk_v] > 0) & (tau <= totals[walk_v])
        if not alive.any():
            break
        walk_sid, walk_v, tau = walk_sid[alive], walk_v[alive], tau[alive]
        query = walk_v + tau / totals[walk_v]
        pos = np.searchsorted(selection_index, query, side="left")
        pos = np.minimum(pos, indptr[walk_v + 1] - 1)
        chosen = indices[pos].astype(np.int64)
        keys = walk_sid * n + chosen
        ins = np.searchsorted(visited, keys)
        fresh = visited[np.minimum(ins, visited.size - 1)] != keys
        if fresh.any():
            visited = _merge_new(visited, ins[fresh], keys[fresh])
        walk_sid, walk_v = walk_sid[fresh], chosen[fresh]

    sizes = np.bincount(visited // n, minlength=batch)
    return visited, sizes, rounds, edges


def sample_with_oracle(
    graph: DirectedGraph,
    num_sets: int,
    model: str = "IC",
    rng=None,
    eliminate_sources: bool = False,
    batch_size: int = 16384,
):
    """The library's batch loop run over the reference kernels: the
    ``(collection, trace)`` the samplers must reproduce exactly."""
    from repro.rrr.batching import sample_batches
    from repro.rrr.sampler_lt import _selection_index
    from repro.utils.rng import as_generator

    gen = as_generator(rng)
    if model.upper() == "LT":
        index = _selection_index(graph)

        def kernel(sources, _keyset):
            return walk_batch(graph, sources, gen, index)
    else:
        def kernel(sources, _keyset):
            return reverse_bfs_batch(graph, sources, gen)

    return sample_batches(
        graph, num_sets, gen, eliminate_sources, batch_size, kernel, "rrr.batch.oracle"
    )
