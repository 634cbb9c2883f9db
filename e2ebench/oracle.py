"""Answer checks and the held-out influence oracle.

The oracle is one fixed RRR sample per process, drawn from an entropy
that no solve stream uses and outside the set-up timing.  An answer's
influence is estimated as ``n`` times the fraction of the held-out sets
its seeds hit; ``spread_frac`` divides that by ``n`` again.  IMM's own
estimate is not used: with source elimination it is inflated by design.
"""

from __future__ import annotations

import numpy as np

#: root entropy of the held-out sample; solve streams are rooted at the
#: workload seed, so no solve stream draws these sets
ORACLE_ENTROPY = (0x0AC1E, 0x5EED)
ORACLE_SETS = 32768


class Oracle:
    def __init__(self, graph, model: str, sets: int = ORACLE_SETS):
        # the samplers are imported directly rather than through
        # get_sampler, so a traced run never counts the oracle's sets
        if model == "LT":
            from repro.rrr.sampler_lt import sample_rrr_lt as sampler
        else:
            from repro.rrr.sampler_ic import sample_rrr_ic as sampler
        rng = np.random.default_rng(np.random.SeedSequence(ORACLE_ENTROPY))
        collection, _ = sampler(graph, sets, rng=rng)
        self.n = graph.n
        self.sets = collection.num_sets
        self.flat = collection.flat
        self.set_of = np.repeat(np.arange(self.sets), np.diff(collection.offsets))

    def coverage(self, seeds) -> float:
        """Fraction of held-out sets that contain at least one seed."""
        hit = np.zeros(self.n, dtype=bool)
        hit[np.asarray(seeds)] = True
        return np.unique(self.set_of[hit[self.flat]]).size / self.sets

    def standard_error(self, fraction: float) -> float:
        return float(np.sqrt(fraction * (1.0 - fraction) / self.sets))


def valid_seeds(seeds, k: int, n: int) -> bool:
    """``k`` distinct vertex ids in ``[0, n)``."""
    seeds = np.asarray(seeds)
    return (
        seeds.shape == (k,)
        and np.unique(seeds).size == k
        and bool(np.all((seeds >= 0) & (seeds < n)))
    )
