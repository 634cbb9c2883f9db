"""Visited-set parity: the samplers' hash key-set kernel must draw the
same stream as the sorted-merge reference kernels in
``tests/visited_oracle.py``, so collections *and* traces are
bit-identical to the reference run."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.rrr import sample_rrr_ic, sample_rrr_lt
from tests.visited_oracle import sample_with_oracle

SAMPLERS = {"IC": sample_rrr_ic, "LT": sample_rrr_lt}


def _assert_identical(ref, out):
    coll_ref, trace_ref = ref
    coll, trace = out
    np.testing.assert_array_equal(coll.flat, coll_ref.flat)
    np.testing.assert_array_equal(coll.offsets, coll_ref.offsets)
    np.testing.assert_array_equal(coll.sources, coll_ref.sources)
    np.testing.assert_array_equal(coll.counts, coll_ref.counts)
    np.testing.assert_array_equal(trace.sizes, trace_ref.sizes)
    np.testing.assert_array_equal(trace.rounds, trace_ref.rounds)
    np.testing.assert_array_equal(trace.edges_examined, trace_ref.edges_examined)
    np.testing.assert_array_equal(trace.kept_mask, trace_ref.kept_mask)
    np.testing.assert_array_equal(trace.sources, trace_ref.sources)
    assert trace.raw_singletons == trace_ref.raw_singletons


@pytest.mark.parametrize("model", ["IC", "LT"])
@pytest.mark.parametrize("eliminate", [False, True])
def test_parity_matrix(model, eliminate, small_ic_graph, small_lt_graph):
    graph = small_ic_graph if model == "IC" else small_lt_graph
    ref = sample_with_oracle(graph, 400, model, rng=42,
                             eliminate_sources=eliminate, batch_size=128)
    out = SAMPLERS[model](graph, 400, rng=42, eliminate_sources=eliminate,
                          batch_size=128)
    _assert_identical(ref, out)


def test_singleton_heavy_graph_parity(line_graph):
    """Tiny graphs with near-empty RRR sets exercise the empty-frontier
    paths of the kernel."""
    from repro.graphs import assign_ic_weights

    graph = assign_ic_weights(line_graph)
    ref = sample_with_oracle(graph, 50, "IC", rng=0, eliminate_sources=True)
    out = sample_rrr_ic(graph, 50, rng=0, eliminate_sources=True)
    _assert_identical(ref, out)


def test_lt_selection_index_cache(small_lt_graph):
    """The per-graph LT selection index is built once and reused."""
    from repro.rrr import clear_selection_indices

    clear_selection_indices()
    with obs.profiled() as handle:
        sample_rrr_lt(small_lt_graph, 50, rng=1)
        sample_rrr_lt(small_lt_graph, 50, rng=2)
    counters = handle.report().counters
    assert counters.get("rrr.lt_index.built", 0) == 1
    assert counters.get("rrr.lt_index.reused", 0) >= 1
    clear_selection_indices()
    with obs.profiled() as handle:
        sample_rrr_lt(small_lt_graph, 50, rng=3)
    assert handle.report().counters.get("rrr.lt_index.built", 0) == 1
