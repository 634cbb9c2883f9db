import numpy as np

from repro.rrr.trace import SampleTrace, empty_trace


def _trace(sizes, kept=None):
    sizes = np.asarray(sizes, dtype=np.int64)
    kept = np.ones(sizes.size, dtype=bool) if kept is None else np.asarray(kept)
    return SampleTrace(
        sizes=sizes,
        rounds=np.ones_like(sizes),
        edges_examined=sizes * 2,
        kept_mask=kept,
        raw_singletons=int((sizes == 1).sum()),
        sources=np.zeros_like(sizes),
    )


def test_counters():
    t = _trace([1, 3, 2], kept=[True, True, False])
    assert t.attempted == 3
    assert t.kept == 2
    assert t.discarded_empty == 1
    assert t.raw_singleton_fraction == 1 / 3
    assert t.total_edges_examined() == 12
    assert t.total_stored_elements() == 4


def test_merge():
    merged = _trace([1, 2]).merged_with(_trace([3]))
    assert merged.attempted == 3
    assert merged.raw_singletons == 1
    assert merged.total_stored_elements() == 6


def test_empty_trace_identity():
    t = empty_trace()
    assert t.attempted == 0
    assert t.raw_singleton_fraction == 0.0
    merged = t.merged_with(_trace([5]))
    assert merged.attempted == 1


def test_concat_matches_pairwise_merges():
    from repro.resilience.report import ResilienceReport

    parts = [_trace([1, 2]), _trace([3], kept=[False]), _trace([1, 1, 4])]
    parts[0].resilience = ResilienceReport(retries=1)
    parts[2].resilience = ResilienceReport(crashes=2)
    pairwise = empty_trace()
    for part in parts:
        pairwise = pairwise.merged_with(part)
    joined = SampleTrace.concat(parts)
    for field in ("sizes", "rounds", "edges_examined", "kept_mask", "sources"):
        got, want = getattr(joined, field), getattr(pairwise, field)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype
    assert joined.raw_singletons == pairwise.raw_singletons == 3
    assert joined.resilience.retries == 1
    assert joined.resilience.crashes == 2


def test_concat_of_nothing_is_empty():
    t = SampleTrace.concat([])
    assert t.attempted == 0
    assert t.sizes.dtype == np.int64
    assert t.kept_mask.dtype == bool
