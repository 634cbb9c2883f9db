"""Per-set sampling traces consumed by the simulated-GPU cost models.

A trace records, for every *attempted* RRR set, the work its traversal
performed (vertices activated, BFS rounds / walk steps, edges examined).
Engines charge traversal cycles for all attempted sets but storage and
selection cost only for the kept ones — exactly the accounting the
source-elimination heuristic changes (§3.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.resilience.report import ResilienceReport


@dataclass
class SampleTrace:
    """Work statistics for one sampling run.

    All per-set arrays are aligned over *attempted* sets; ``kept_mask``
    marks which of those were stored (always all of them unless source
    elimination discarded emptied singletons).
    """

    sizes: np.ndarray  # stored size per attempted set (post-elimination)
    rounds: np.ndarray  # BFS depth (IC) or walk length (LT) per attempted set
    edges_examined: np.ndarray  # in-edges probed per attempted set
    kept_mask: np.ndarray  # bool, True where the set was stored
    raw_singletons: int  # sets of size 1 before source elimination
    sources: np.ndarray  # source vertex per attempted set
    #: recovery tally of the supervised fan-out that produced this trace
    #: (None for in-process sampling, which has nothing to recover from)
    resilience: "Optional[ResilienceReport]" = None

    @property
    def attempted(self) -> int:
        return int(self.kept_mask.size)

    @property
    def kept(self) -> int:
        return int(self.kept_mask.sum())

    @property
    def discarded_empty(self) -> int:
        return self.attempted - self.kept

    @property
    def raw_singleton_fraction(self) -> float:
        """Fraction of attempted sets that were singletons pre-elimination
        (the x-axis of the paper's Fig. 5)."""
        return self.raw_singletons / self.attempted if self.attempted else 0.0

    def total_edges_examined(self) -> int:
        return int(self.edges_examined.sum())

    def total_stored_elements(self) -> int:
        return int(self.sizes[self.kept_mask].sum())

    def merged_with(self, other: "SampleTrace") -> "SampleTrace":
        """Concatenate two traces (successive sampling phases of IMM)."""
        return SampleTrace.concat([self, other])

    @staticmethod
    def concat(traces: "Sequence[SampleTrace]") -> "SampleTrace":
        """Concatenate traces in order: one ``np.concatenate`` per field.

        The per-set arrays come out int64 (``kept_mask`` bool) whatever
        the parts hold; an empty sequence gives :func:`empty_trace`.
        """
        from repro.resilience.report import merge_reports

        if not traces:
            return empty_trace()

        def cat(field: str, dtype) -> np.ndarray:
            return np.concatenate([getattr(t, field) for t in traces], dtype=dtype)

        return SampleTrace(
            sizes=cat("sizes", np.int64),
            rounds=cat("rounds", np.int64),
            edges_examined=cat("edges_examined", np.int64),
            kept_mask=cat("kept_mask", bool),
            raw_singletons=sum(t.raw_singletons for t in traces),
            sources=cat("sources", np.int64),
            resilience=reduce(merge_reports, (t.resilience for t in traces), None),
        )


def empty_trace() -> SampleTrace:
    """A zero-length trace (identity for :meth:`SampleTrace.concat`)."""
    z = np.empty(0, dtype=np.int64)
    return SampleTrace(
        sizes=z,
        rounds=z.copy(),
        edges_examined=z.copy(),
        kept_mask=np.empty(0, dtype=bool),
        raw_singletons=0,
        sources=z.copy(),
    )
