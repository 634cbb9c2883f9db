"""Parity of the samplers' key-set kernels with the sorted-merge oracle.

Every case runs the production kernel and the reference kernel of
``tests/visited_oracle.py`` from the same sources and generator state
and asserts equal keys, sizes, rounds and edges — per batch, and
through the full samplers with source elimination on and off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import DirectedGraph, assign_ic_weights, assign_lt_weights
from repro.graphs.datasets import load_dataset
from repro.graphs.generators import powerlaw_configuration
from repro.kernels import KeySet
from repro.rrr import sample_rrr_ic, sample_rrr_lt
from repro.rrr.sampler_ic import _reverse_bfs_batch
from repro.rrr.sampler_lt import _selection_index, _walk_batch
from repro.utils.errors import ValidationError
from tests import visited_oracle as oracle


def _ring(n: int = 500, k: int = 4) -> DirectedGraph:
    """Every vertex has in-edges from its ``k`` ring predecessors: IC
    cascades at p=0.6 crawl the ring for over a hundred rounds."""
    src = (np.arange(n)[:, None] - np.arange(1, k + 1)[None, :]) % n
    return DirectedGraph(np.arange(n + 1) * k, src.reshape(-1).astype(np.int32))


def _hub(n: int = 400) -> DirectedGraph:
    """Vertex 0 points at every vertex and every vertex points at 0, so
    a frontier of hundreds re-activates the hub in one round: the
    candidate stream is dominated by duplicates of one key."""
    others = np.arange(1, n)
    src = np.concatenate([np.zeros(n - 1, dtype=np.int64), others])
    dst = np.concatenate([others, np.zeros(n - 1, dtype=np.int64)])
    return DirectedGraph.from_edges(src, dst, n=n)


def _topology(name: str) -> DirectedGraph:
    if name == "sl-tiny":
        return load_dataset("SL", "tiny", rng=5)
    if name == "ring":
        return _ring()
    if name == "edgeless":
        return DirectedGraph.from_edges([], [], n=50)
    if name == "n131":  # n % 64 != 0
        return powerlaw_configuration(131, 700, rng=2)
    if name == "n1":  # one vertex with a self-loop
        return DirectedGraph.from_edges([0], [0], n=1)
    if name == "hub":
        return _hub()
    raise KeyError(name)


_IC_CONSTANT = {"ring": 0.6, "hub": 0.5, "n1": 1.0}


def _graph(name: str, model: str) -> DirectedGraph:
    topo = _topology(name)
    if model == "LT":
        return assign_lt_weights(topo)
    if name in _IC_CONSTANT:
        return assign_ic_weights(topo, scheme="constant", p=_IC_CONSTANT[name])
    return assign_ic_weights(topo)


GRAPHS = ["sl-tiny", "ring", "edgeless", "n131", "n1", "hub"]
BATCHES = [1, 97, 256]


def _kernels(graph: DirectedGraph, model: str, gen_seed: int, keyset: KeySet):
    """``(production, reference)`` kernels over one shared source draw."""
    if model == "LT":
        index = _selection_index(graph)
        return (
            lambda s: _walk_batch(graph, s, np.random.default_rng(gen_seed), index, keyset),
            lambda s: oracle.walk_batch(graph, s, np.random.default_rng(gen_seed), index),
        )
    return (
        lambda s: _reverse_bfs_batch(graph, s, np.random.default_rng(gen_seed), keyset),
        lambda s: oracle.reverse_bfs_batch(graph, s, np.random.default_rng(gen_seed)),
    )


def _assert_batch_equal(out, ref):
    for name, got, want in zip(("keys", "sizes", "rounds", "edges"), out, ref):
        np.testing.assert_array_equal(got, want, err_msg=name)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("graph_name", GRAPHS)
@pytest.mark.parametrize("model", ["IC", "LT"])
def test_batch_kernel_matches_oracle(model, graph_name, batch):
    graph = _graph(graph_name, model)
    keyset = KeySet(2 * batch, max_key=batch * graph.n - 1)
    kernel, reference = _kernels(graph, model, 17, keyset)
    # two consecutive batches: the second reuses (and clears) the key set
    for seed in (3, 4):
        sources = np.random.default_rng(seed).integers(0, graph.n, size=batch)
        _assert_batch_equal(kernel(sources), reference(sources))


@pytest.mark.parametrize("model", ["IC", "LT"])
def test_key_set_resizes_mid_batch(model):
    """A minimum-size key set must double many times inside one deep
    batch without changing a single key."""
    graph = _graph("ring", model)
    keyset = KeySet(1)
    start = keyset.capacity
    kernel, reference = _kernels(graph, model, 23, keyset)
    sources = np.random.default_rng(9).integers(0, graph.n, size=256)
    out = kernel(sources)
    _assert_batch_equal(out, reference(sources))
    assert keyset.capacity >= 8 * start
    assert keyset.size == out[0].size


SAMPLERS = {"IC": sample_rrr_ic, "LT": sample_rrr_lt}


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("graph_name", GRAPHS)
@pytest.mark.parametrize("eliminate", [False, True])
@pytest.mark.parametrize("model", ["IC", "LT"])
def test_sampler_matches_oracle(model, eliminate, graph_name, batch):
    graph = _graph(graph_name, model)
    num_sets = 40 if batch == 1 else 300

    def run(sampler):
        return sampler(graph, num_sets, rng=31, eliminate_sources=eliminate,
                       batch_size=batch)

    def reference(graph_, num_sets_, rng, eliminate_sources, batch_size):
        return oracle.sample_with_oracle(graph_, num_sets_, model, rng=rng,
                                         eliminate_sources=eliminate_sources,
                                         batch_size=batch_size)

    if eliminate and graph_name in ("edgeless", "n1"):
        # every set is its bare source: both discard all and give up
        for sampler in (SAMPLERS[model], reference):
            with pytest.raises(ValidationError):
                run(sampler)
        return
    coll, trace = run(SAMPLERS[model])
    coll_ref, trace_ref = run(reference)
    np.testing.assert_array_equal(coll.flat, coll_ref.flat)
    np.testing.assert_array_equal(coll.offsets, coll_ref.offsets)
    np.testing.assert_array_equal(coll.sources, coll_ref.sources)
    for field in ("sizes", "rounds", "edges_examined", "kept_mask", "sources"):
        np.testing.assert_array_equal(
            getattr(trace, field), getattr(trace_ref, field), err_msg=field
        )
    assert trace.raw_singletons == trace_ref.raw_singletons
