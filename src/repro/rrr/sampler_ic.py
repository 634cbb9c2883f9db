"""Reverse-reachable set sampling under the IC model (Alg. 2, host analogue).

An RRR set rooted at a uniformly random source ``s`` contains every vertex
reached by a probabilistic reverse BFS: from each dequeued vertex ``u``,
in-neighbor ``v`` is activated independently with probability ``p_vu``.

The implementation runs a *batch* of independent traversals in lockstep —
one NumPy round expands the frontiers of every unfinished set at once —
which is the host-side mirror of the paper's one-warp-per-block kernel.

As in §3.2, the BFS queue *is* the RRR set: each round's newly reached
keys ``sid * n + v`` are appended to a list, and one sort at batch end
turns that list into the sid-major / vertex-ascending flat layout.
Membership and within-round de-duplication go through one hash
:class:`~repro.kernels.keyset.KeySet`, so a round costs O(frontier +
candidates) — never O(batch) or O(everything visited so far).  Each
round's frontier is sorted before it expands, so the generator is drawn
in the same order as by a traversal that kept its visited set sorted.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csc import DirectedGraph
from repro.kernels.keyset import KeySet
from repro.rrr.batching import sample_batches
from repro.rrr.collection import RRRCollection
from repro.rrr.trace import SampleTrace
from repro.utils.errors import ValidationError
from repro.utils.rng import as_generator


def _run_heads(sorted_ids: np.ndarray) -> np.ndarray:
    """Start positions of the runs of equal values in a non-empty
    sorted array."""
    mark = np.empty(sorted_ids.size, dtype=bool)
    mark[0] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=mark[1:])
    return np.flatnonzero(mark)


def _reverse_bfs_batch(
    graph: DirectedGraph,
    sources: np.ndarray,
    gen: np.random.Generator,
    keyset: KeySet,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep reverse BFS for one batch of sources.

    Returns ``(visited_keys_sorted, sizes, rounds, edges_examined)`` where
    keys are ``sid * n + v`` (in ``keyset.dtype``) and all per-set arrays
    have batch length.
    ``keyset`` is cleared and reused.
    """
    n = graph.n
    batch = sources.size
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    keyset.clear()
    sid = np.arange(batch, dtype=np.int64)
    seeds = sid * n + sources
    keyset.insert(seeds)
    # the per-round runs are kept in the key set's (often int32) width
    found = [seeds.astype(keyset.dtype)]
    frontier_sid, frontier_v = sid, sources
    head = sid  # one source per set: every position starts a run
    sizes = np.ones(batch, dtype=np.int64)
    rounds = np.zeros(batch, dtype=np.int64)
    edges = np.zeros(batch, dtype=np.int64)

    while frontier_sid.size:
        # the frontier is sid-major, so its run heads name the live sets
        live = frontier_sid[head]
        rounds[live] += 1
        starts = indptr[frontier_v]
        lengths = indptr[frontier_v + 1] - starts
        ends = np.cumsum(lengths)
        total = int(ends[-1])
        if total == 0:
            break
        edges[live] += np.add.reduceat(lengths, head)
        # edge ids of the frontier's in-edge slices, laid end to end
        edge_idx = np.arange(total, dtype=np.int64)
        edge_idx += np.repeat(starts - (ends - lengths), lengths)
        hit = np.flatnonzero(gen.random(total) <= weights[edge_idx])
        if hit.size == 0:
            break
        c_keys = np.repeat(frontier_sid, lengths)[hit] * n + indices[edge_idx[hit]]
        new_keys = np.sort(c_keys[keyset.insert(c_keys)])
        if new_keys.size == 0:
            break
        found.append(new_keys.astype(keyset.dtype))
        frontier_sid, frontier_v = np.divmod(new_keys, n)
        head = _run_heads(frontier_sid)
        sizes[frontier_sid[head]] += np.diff(head, append=frontier_sid.size)

    # every round's keys are sorted runs; a stable (merge-based) sort
    # joins them in O(total log rounds), in place once the runs are freed
    visited = np.concatenate(found)
    del found
    visited.sort(kind="stable")
    return visited, sizes, rounds, edges


def sample_rrr_ic(
    graph: DirectedGraph,
    num_sets: int,
    rng=None,
    eliminate_sources: bool = False,
    batch_size: int = 16384,
) -> tuple[RRRCollection, SampleTrace]:
    """Sample ``num_sets`` IC RRR sets (kept sets, post source elimination).

    With ``eliminate_sources`` (§3.4) the source vertex is stripped from
    every set and sets that become empty — exactly the former singletons —
    are discarded and do not count toward ``num_sets``; their traversal
    work still appears in the returned trace, which is what they cost the
    device.
    """
    if graph.weights is None:
        raise ValidationError("sample_rrr_ic requires IC edge weights")
    if num_sets < 0:
        raise ValidationError("num_sets must be non-negative")
    gen = as_generator(rng)

    def kernel(sources, keyset):
        return _reverse_bfs_batch(graph, sources, gen, keyset)

    return sample_batches(
        graph, num_sets, gen, eliminate_sources, batch_size, kernel, "rrr.batch.ic"
    )
