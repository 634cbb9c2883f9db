"""A vectorised open-addressing set of non-negative int64 keys.

The samplers' visited state: one key ``sid * n + v`` per vertex ``v``
reached by traversal ``sid`` of the current batch.  Memory is
O(visited keys), not O(batch x n), and one :meth:`KeySet.insert` call
costs O(candidates x probe length) — independent of the batch width and
of everything visited in earlier rounds.

Layout: a power-of-two table of keys (``EMPTY`` marks a free slot),
addressed by a multiplicative (Fibonacci) hash with linear probing, and
kept at most half full so probe chains stay short: a lockstep round
lasts as many steps as its longest chain.  Slots are int32
whenever the caller's key bound allows (``sid * n + v`` of a batch
usually fits), which halves the table and its cache footprint.

All candidates of one call probe in lockstep: each reads its home slot,
then windows of consecutive slots, and stops at the first slot that
holds its key (already present) or is free.  Two candidates that stop
at the same free slot in the same step — different keys colliding, or
one key repeated in the candidate stream — are resolved by a claim
written into the slot itself: every claimant writes a mark made from
its own index (a negative value no key takes), reads it back, and only
the one whose mark survived stores its key over it.  The losers re-read
from that slot on the next step and either find their key there (a
duplicate: not new) or move on.  That single rule gives both membership against
earlier rounds and de-duplication within the round, with no sort.
"""

from __future__ import annotations

import numpy as np

#: the free-slot marker; keys are ``sid * n + v >= 0``
EMPTY = -1

#: 2**64 / golden ratio, odd: the Fibonacci-hashing multiplier
_MULT = np.uint64(0x9E3779B97F4A7C15)

#: smallest table, in slots
_MIN_BITS = 6

_INT32_MAX = int(np.iinfo(np.int32).max)

#: slots a probe reads per step once its home slot was taken: one read
#: covers a short cluster (32 bytes of an int32 table), so the lockstep
#: loop ends after a few steps instead of one step per slot
_WINDOW = np.arange(8)


class KeySet:
    """Insert-only set of non-negative int64 keys with a batch insert.

    ``expected`` sizes the first table (twice the expected key count,
    rounded up to a power of two).  Before an insert that could take the
    table past half full — counting every candidate as new — it is
    rehashed, once, into a table that holds them.  ``max_key`` bounds
    every key that will be inserted (``None``: any int64).
    :meth:`clear` empties the set for reuse without giving back the
    capacity it grew to.
    """

    __slots__ = ("_bits", "_dtype", "_table", "size")

    def __init__(self, expected: int = 0, max_key: int | None = None):
        small = max_key is not None and int(max_key) <= _INT32_MAX
        self._dtype = np.int32 if small else np.int64
        bits = max(_MIN_BITS, int(2 * max(int(expected), 1) - 1).bit_length())
        self._alloc(bits)
        self.size = 0

    def _alloc(self, bits: int) -> None:
        self._bits = bits
        self._table = np.full(1 << bits, EMPTY, dtype=self._dtype)

    @property
    def dtype(self) -> np.dtype:
        """The narrowest integer dtype holding every key (int32 or int64)."""
        return np.dtype(self._dtype)

    @property
    def capacity(self) -> int:
        return int(self._table.size)

    def clear(self) -> None:
        self._table.fill(EMPTY)
        self.size = 0

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        hashed = keys.view(np.uint64) * _MULT
        return (hashed >> np.uint64(64 - self._bits)).view(np.int64)

    def _grow(self, need: int) -> None:
        """Rehash into a table at least 4x larger, which ``need`` keys
        fill at most half; the 4x step keeps the keys re-inserted by all
        rehashes to a third of those finally held."""
        live = self._table[self._table != EMPTY].astype(np.int64)
        self._alloc(max(int(2 * need - 1).bit_length(), self._bits + 2))
        self.size = 0
        if live.size:
            self._probe(live)

    def insert(self, keys: np.ndarray) -> np.ndarray:
        """Insert ``keys``; return the mask of those that were new.

        Of several equal keys in one call exactly one is reported new.
        Which one is unspecified; callers that need an order sort the
        new keys themselves.
        """
        keys = np.asarray(keys, dtype=np.int64)
        need = self.size + keys.size  # as if every key were new
        if 2 * need > self.capacity:
            self._grow(need)
        return self._probe(keys)

    def _probe(self, keys: np.ndarray) -> np.ndarray:
        """Lockstep linear probing; the table has room for every key."""
        table = self._table
        mask = self.capacity - 1
        is_new = np.zeros(keys.size, dtype=bool)
        pos = np.arange(keys.size, dtype=np.int64)  # keys still probing
        slot = self._slots(keys)
        k = keys
        width = 1
        while pos.size:
            if width == 1:
                at = slot
                held = table[at]
            else:
                # a probe that outlived its home slot reads a window: its
                # first slot holding this key or free is where it stops
                window = (slot[:, None] + _WINDOW) & mask
                row = table[window]
                stop = (row == k[:, None]) | (row == EMPTY)
                first = stop.argmax(axis=1)
                lane = np.arange(pos.size)
                at, held = window[lane, first], row[lane, first]
            present = held == k
            free = held == EMPTY
            # neither: every slot read holds another key, so probe on
            retry = ~(present | free)
            after = np.where(retry, (slot + width) & mask, at)
            claimed = free.nonzero()[0]
            if claimed.size:
                c_slot, c_pos = at[claimed], pos[claimed]
                # marks are < EMPTY, so no key equals one; every claimed
                # slot has a winner, so no mark outlives this step
                mark = EMPTY - 1 - c_pos
                table[c_slot] = mark
                won = table[c_slot] == mark
                table[c_slot[won]] = keys[c_pos[won]]
                is_new[c_pos[won]] = True
                # a lost claim re-reads from that slot and meets the
                # winner's key there
                retry[claimed[~won]] = True
            rest = retry.nonzero()[0]
            slot, pos = after[rest], pos[rest]
            k = keys[pos]
            width = _WINDOW.size
        self.size += int(is_new.sum())
        return is_new
