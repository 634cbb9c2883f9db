"""Host-side hot-loop kernels.

``repro.kernels`` is the CPU analogue of the device's inner loops: the
samplers' visited-key set (:mod:`repro.kernels.keyset`), packed uint64
primitives (:mod:`repro.kernels.bitset`), the selection-side membership
plane built on them (:mod:`repro.kernels.planes`), and the mode/budget
resolution that decides when the dense scan runs
(:mod:`repro.kernels.modes`).
"""

from repro.kernels.bitset import (
    WORD_BITS,
    andnot_words,
    decode_bits,
    pack_bits,
    popcount_rows,
    popcount_words,
    scatter_or,
    split_index,
    tail_mask,
    test_bits,
    words_for_bits,
)
from repro.kernels.modes import (
    COVERAGE_SCANS,
    DEFAULT_PLANE_BUDGET_BYTES,
    ENV_BUDGET_MB,
    ENV_COVERAGE_SCAN,
    choose_scan_impl,
    plane_budget_bytes,
    resolve_coverage_scan,
)
from repro.kernels.keyset import KeySet
from repro.kernels.planes import MembershipPlane

__all__ = [
    "WORD_BITS",
    "andnot_words",
    "decode_bits",
    "pack_bits",
    "popcount_rows",
    "popcount_words",
    "scatter_or",
    "split_index",
    "tail_mask",
    "test_bits",
    "words_for_bits",
    "COVERAGE_SCANS",
    "DEFAULT_PLANE_BUDGET_BYTES",
    "ENV_BUDGET_MB",
    "ENV_COVERAGE_SCAN",
    "choose_scan_impl",
    "plane_budget_bytes",
    "resolve_coverage_scan",
    "KeySet",
    "MembershipPlane",
]
