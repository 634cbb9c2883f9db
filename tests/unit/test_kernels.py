"""Unit tests for the host kernels (repro.kernels)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import (
    DEFAULT_PLANE_BUDGET_BYTES,
    ENV_BUDGET_MB,
    ENV_COVERAGE_SCAN,
    KeySet,
    MembershipPlane,
    andnot_words,
    choose_scan_impl,
    decode_bits,
    pack_bits,
    plane_budget_bytes,
    popcount_rows,
    popcount_words,
    resolve_coverage_scan,
    scatter_or,
    split_index,
    tail_mask,
    words_for_bits,
)
from repro.kernels import test_bits as bits_test  # alias: not a pytest case
from repro.utils.errors import ValidationError


# ---------------------------------------------------------------------------
# word primitives
# ---------------------------------------------------------------------------
def test_words_for_bits_boundaries():
    assert words_for_bits(0) == 0
    assert words_for_bits(1) == 1
    assert words_for_bits(64) == 1
    assert words_for_bits(65) == 2
    assert words_for_bits(128) == 2
    assert words_for_bits(129) == 3


def test_tail_mask_exact_multiple_is_all_ones():
    assert int(tail_mask(64)) == (1 << 64) - 1
    assert int(tail_mask(128)) == (1 << 64) - 1


def test_tail_mask_partial_word():
    assert int(tail_mask(1)) == 1
    assert int(tail_mask(65)) == 1
    assert int(tail_mask(67)) == 0b111


@pytest.mark.parametrize("nbits", [1, 5, 63, 64, 65, 127, 128, 200])
def test_pack_decode_roundtrip(nbits):
    rng = np.random.default_rng(nbits)
    ids = np.flatnonzero(rng.random(nbits) < 0.4).astype(np.int64)
    words = pack_bits(ids, nbits)
    assert words.size == words_for_bits(nbits)
    np.testing.assert_array_equal(decode_bits(words, nbits), ids)


def test_pack_bits_matches_scalar_loop():
    """pack_bits is byte-identical to the historical per-vertex |= loop."""
    n = 131
    ids = np.array([0, 1, 63, 64, 65, 100, 130], dtype=np.int64)
    expected = np.zeros(words_for_bits(n), dtype=np.uint64)
    for v in ids.tolist():
        expected[v >> 6] |= np.uint64(1) << np.uint64(v & 63)
    np.testing.assert_array_equal(pack_bits(ids, n), expected)


def test_pack_bits_rejects_out_of_range():
    with pytest.raises(ValidationError):
        pack_bits(np.array([4], dtype=np.int64), 4)
    with pytest.raises(ValidationError):
        pack_bits(np.array([-1], dtype=np.int64), 4)


def test_decode_bits_clips_tail_garbage():
    words = np.array([np.uint64((1 << 64) - 1)])
    np.testing.assert_array_equal(decode_bits(words, 3), [0, 1, 2])


def test_test_bits_matches_membership():
    nbits = 150
    members = np.array([0, 64, 149], dtype=np.int64)
    words = pack_bits(members, nbits)
    probe = np.array([0, 1, 63, 64, 65, 148, 149], dtype=np.int64)
    expected = np.isin(probe, members)
    np.testing.assert_array_equal(bits_test(words, probe), expected)


def test_popcount_words_and_rows():
    words = np.array([0, (1 << 64) - 1, 0b1011], dtype=np.uint64)
    assert popcount_words(words) == 64 + 3
    plane = words.reshape(3, 1)
    np.testing.assert_array_equal(popcount_rows(plane), [0, 64, 3])


def test_andnot_words():
    mine = np.array([0b1111], dtype=np.uint64)
    covered = np.array([0b0101], dtype=np.uint64)
    np.testing.assert_array_equal(andnot_words(mine, covered), [0b1010])


def test_scatter_or_handles_duplicate_words():
    """Duplicate word indices (sorted) must all land — the failure mode
    a plain fancy-index |= silently drops."""
    words = np.zeros(2, dtype=np.uint64)
    ids = np.array([0, 1, 2, 64], dtype=np.int64)  # three bits share word 0
    word_idx, masks = split_index(ids)
    scatter_or(words, word_idx, masks)
    assert int(words[0]) == 0b111
    assert int(words[1]) == 1


# ---------------------------------------------------------------------------
# KeySet
# ---------------------------------------------------------------------------
def test_keyset_reports_each_new_key_once():
    ks = KeySet()
    keys = np.array([5, 9, 5, 5, 12, 9], dtype=np.int64)
    new = ks.insert(keys)
    assert sorted(keys[new].tolist()) == [5, 9, 12]
    assert ks.size == 3
    again = ks.insert(np.array([12, 13, 13, 0], dtype=np.int64))
    np.testing.assert_array_equal(np.sort(np.array([12, 13, 13, 0])[again]), [0, 13])
    assert ks.size == 5


def test_keyset_matches_python_set_and_grows():
    rng = np.random.default_rng(3)
    ks = KeySet(1)
    seen = set()
    for _ in range(20):
        keys = rng.integers(0, 5000, size=int(rng.integers(0, 900)))
        new = ks.insert(keys)
        assert sorted(keys[new].tolist()) == sorted(set(keys.tolist()) - seen)
        seen |= set(keys.tolist())
        assert ks.size == len(seen)
        assert 2 * ks.size <= ks.capacity  # never past half full
    assert ks.capacity > 64  # it grew from the minimum table


def test_keyset_duplicate_heavy_stream():
    """A stream of one repeated key (a hub every frontier vertex
    activates) is settled by the claim array: exactly one copy is new."""
    ks = KeySet(1)
    keys = np.concatenate([np.full(5000, 7), np.arange(100), np.full(5000, 7)])
    new = ks.insert(keys)
    assert sorted(keys[new].tolist()) == list(range(100))
    assert ks.size == 100
    assert not ks.insert(np.full(10, 7)).any()


def test_keyset_clear_keeps_capacity():
    ks = KeySet(1)
    ks.insert(np.arange(1000, dtype=np.int64))
    capacity = ks.capacity
    ks.clear()
    assert ks.size == 0 and ks.capacity == capacity
    assert ks.insert(np.arange(1000, dtype=np.int64)).all()


# ---------------------------------------------------------------------------
# MembershipPlane
# ---------------------------------------------------------------------------
def test_membership_plane_extend_and_grow():
    plane = MembershipPlane(5)
    # sets: 0 -> {0, 3}, 1 -> {1}, then 70 more singleton sets of vertex 2
    plane.extend(np.array([0, 3, 1]), np.array([0, 0, 1]), 2)
    assert plane.num_sets == 2
    assert plane.num_elements == 3
    plane.extend(np.full(70, 2), np.arange(2, 72), 72)  # forces word growth
    assert plane.num_sets == 72

    nwords = words_for_bits(72)
    np.testing.assert_array_equal(decode_bits(plane.row(0, nwords)), [0])
    np.testing.assert_array_equal(decode_bits(plane.row(1, nwords)), [1])
    np.testing.assert_array_equal(decode_bits(plane.row(2, nwords)), np.arange(2, 72))
    np.testing.assert_array_equal(decode_bits(plane.row(3, nwords)), [0])
    assert decode_bits(plane.row(4, nwords)).size == 0


def test_membership_plane_append_only():
    plane = MembershipPlane(3)
    plane.extend(np.array([0]), np.array([0]), 1)
    with pytest.raises(ValidationError):
        plane.extend(np.array([1]), np.array([0]), 0)
    with pytest.raises(ValidationError):
        plane.extend(np.array([1, 2]), np.array([0]), 2)


# ---------------------------------------------------------------------------
# mode resolution and the memory budget
# ---------------------------------------------------------------------------
def test_resolve_precedence_explicit_beats_env(monkeypatch):
    monkeypatch.setenv(ENV_COVERAGE_SCAN, "csr")
    assert resolve_coverage_scan("bitset") == "bitset"
    assert resolve_coverage_scan(None) == "csr"
    monkeypatch.delenv(ENV_COVERAGE_SCAN)
    assert resolve_coverage_scan(None) == "auto"


def test_resolve_rejects_unknown(monkeypatch):
    with pytest.raises(ValidationError):
        resolve_coverage_scan("postings")
    monkeypatch.setenv(ENV_COVERAGE_SCAN, "nope")
    with pytest.raises(ValidationError):
        resolve_coverage_scan(None)


def test_plane_budget_env_override(monkeypatch):
    monkeypatch.delenv(ENV_BUDGET_MB, raising=False)
    assert plane_budget_bytes() == DEFAULT_PLANE_BUDGET_BYTES
    monkeypatch.setenv(ENV_BUDGET_MB, "0.5")
    assert plane_budget_bytes() == 512 * 1024
    monkeypatch.setenv(ENV_BUDGET_MB, "oops")
    with pytest.raises(ValidationError):
        plane_budget_bytes()
    monkeypatch.setenv(ENV_BUDGET_MB, "-1")
    with pytest.raises(ValidationError):
        plane_budget_bytes()


def test_choose_scan_impl_budget_fallback(monkeypatch):
    monkeypatch.delenv(ENV_BUDGET_MB, raising=False)
    assert choose_scan_impl("auto", 1000, 5000) == "bitset"
    assert choose_scan_impl("csr", 1000, 5000) == "csr"
    monkeypatch.setenv(ENV_BUDGET_MB, "0.001")
    assert choose_scan_impl("auto", 100_000, 1_000_000) == "csr"


@pytest.mark.parametrize("max_key", [None, 10_000, 2**40])
def test_keyset_key_width(max_key):
    """Narrow slots when the key bound allows; same answers either way."""
    ks = KeySet(1, max_key=max_key)
    hi = 10_000 if max_key is None or max_key < 2**31 else 2**40
    keys = np.random.default_rng(5).integers(0, hi, size=3000)
    new = ks.insert(keys)
    assert sorted(keys[new].tolist()) == sorted(set(keys.tolist()))
    assert not ks.insert(keys).any()
    assert ks.dtype == (np.int32 if max_key == 10_000 else np.int64)
