"""The dense selection plane built on the word-parallel kernels.

:class:`MembershipPlane` is the selection-side ``(n x theta)``-bit
vertex->set membership plane.  A vertex's marginal coverage is
``popcount(row AND NOT covered)`` over packed words — the host mirror
of §3.5's thread-based scan — and rows extend append-only as the RRR
stream grows, so one plane serves every prefix of a sweep.

The plane accounts its footprint and word traffic to :mod:`repro.obs`
(``kernels.membership.plane_bytes`` / ``kernels.bitset.words_touched``).
"""

from __future__ import annotations

import weakref

import numpy as np

from repro import obs
from repro.kernels.bitset import scatter_or, split_index, words_for_bits
from repro.memory.budget import governor
from repro.utils.errors import ValidationError

#: the governor account dense planes report under
ACCOUNT = "kernels.planes"


class _PlaneCharge:
    """Governor accounting for one plane's resident bytes.

    A plane has no ``close()`` — a membership plane lives for a store's
    lifetime — so the credit is tied to garbage collection via
    ``weakref.finalize`` on the owner.
    The governor instance is captured at creation: after a test's
    ``reset_governor`` the release still balances the ledger it charged.
    """

    __slots__ = ("_gov", "_nbytes")

    def __init__(self):
        self._gov = governor()
        self._nbytes = 0

    def resize(self, nbytes: int) -> None:
        delta = int(nbytes) - self._nbytes
        if delta > 0:
            self._gov.request(delta)
        self._nbytes = int(nbytes)
        self._gov.account(ACCOUNT, "resident", delta)

    def release(self) -> None:
        if self._nbytes:
            self._gov.account(ACCOUNT, "resident", -self._nbytes)
            self._nbytes = 0


class MembershipPlane:
    """Append-only packed ``(n x num_sets)``-bit vertex->set membership.

    Row ``v`` is the bitmap of RRR set ids containing vertex ``v``.
    Word capacity grows geometrically (columns double), so extending by
    one chunk of the stream is amortized O(new elements); rows are
    stable views once capacity suffices, which is what lets one plane
    serve every theta prefix of a warm-start sweep.
    """

    __slots__ = (
        "n", "num_sets", "num_elements", "_words_cap", "_plane", "_charge",
        "__weakref__",
    )

    def __init__(self, n: int):
        if n < 1:
            raise ValidationError("MembershipPlane needs at least one vertex")
        self.n = int(n)
        self.num_sets = 0
        self.num_elements = 0
        self._words_cap = 1
        self._plane = np.zeros((self.n, 1), dtype=np.uint64)
        self._charge = _PlaneCharge()
        self._charge.resize(self._plane.nbytes)
        weakref.finalize(self, self._charge.release)

    @property
    def nbytes(self) -> int:
        return int(self._plane.nbytes)

    def _grow_to(self, num_sets: int) -> None:
        need = words_for_bits(num_sets)
        if need <= self._words_cap:
            return
        cap = self._words_cap
        while cap < need:
            cap *= 2
        wider = np.zeros((self.n, cap), dtype=np.uint64)
        wider[:, : self._words_cap] = self._plane
        self._plane = wider
        self._words_cap = cap
        self._charge.resize(self._plane.nbytes)
        obs.gauge_max("kernels.membership.plane_bytes", int(self._plane.nbytes))

    def extend(
        self, seg_flat: np.ndarray, seg_set_ids: np.ndarray, num_sets_after: int
    ) -> None:
        """Scatter the next stream segment's ``(vertex, set)`` bits.

        ``seg_flat``/``seg_set_ids`` are parallel arrays for global
        element positions ``num_elements ..``; set ids must be
        non-decreasing (stream order), which makes the vertex-major
        stable sort below produce a word-sorted scatter.
        """
        seg_flat = np.asarray(seg_flat)
        if seg_flat.size != np.asarray(seg_set_ids).size:
            raise ValidationError("segment arrays must be parallel")
        if num_sets_after < self.num_sets:
            raise ValidationError("membership plane is append-only")
        self._grow_to(num_sets_after)
        if seg_flat.size:
            # stable vertex sort: within a vertex, set ids stay ascending,
            # so word indices are globally non-decreasing for scatter_or
            order = np.argsort(seg_flat, kind="stable")
            v = seg_flat[order].astype(np.int64)
            sets = np.asarray(seg_set_ids)[order].astype(np.int64)
            word, mask = split_index(sets)
            scatter_or(self._plane.reshape(-1), v * self._words_cap + word, mask)
            obs.counter_add("kernels.bitset.words_touched", v.size)
        self.num_sets = max(self.num_sets, int(num_sets_after))
        self.num_elements += int(seg_flat.size)

    def row(self, v: int, nwords: int) -> np.ndarray:
        """The first ``nwords`` membership words of vertex ``v`` (a view)."""
        return self._plane[v, :nwords]
