"""The keep-k ranker against a frozen reference model of itself.

``ref_rank_nearest`` below is a verbatim copy of
:func:`repro.steer.neighbors.rank_nearest` as it was before the one-sort
ranker: a 3-key ``lexsort((j, d2, owner))``.  The hypothesis tests feed
random flat candidate triples through both and require equal
``(order, found)`` arrays.  Candidate sets fall on both sides of
``RANK_LEXSORT_BELOW``, and the inputs are chosen to stress the packed
``(owner, d2 rank, j)`` key above it: tied distances (``-0.0``, ``inf``
and NaN among them), duplicated points, shuffled candidates, indexes up
to ``2**31 - 1``, thousands of owners, and field widths at and past the
63-bit limit.

The grid and all-pairs twins cannot catch a ranker bug against each
other, because both sides rank with the same function; this is the
oracle that does.  Only the name of the copied function is changed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.steer.neighbors import RANK_LEXSORT_BELOW, rank_nearest


# ----------------------------------------------------------------------
# Reference model (frozen copy of the lexsort ranker)
# ----------------------------------------------------------------------
def ref_rank_nearest(
    owner: np.ndarray, d2: np.ndarray, j: np.ndarray, rows: int, k: int
):
    """The exact keep-``k`` selection over flat candidate triples: per
    owner row ``0..rows-1``, the ``k`` smallest ``(d2, j)`` pairs among
    its candidates, as ``(order, found)`` — each ``(rows, k)``, indexes
    nearest-first and whether the slot holds one (an unfound slot holds
    0).  Ties on ``d2`` break by index, so the kept set is *the* ``k``
    lexicographically smallest pairs whatever order the candidates come
    in; ``d2`` keeps the caller's float association.
    """
    # Owner-major, then (d2, index): lexsort's primary key is its last.
    ranked = np.lexsort((j, d2, owner))
    j, owner = j[ranked], owner[ranked]
    rank = np.arange(owner.size) - np.searchsorted(owner, owner)
    top = rank < k
    owner, rank = owner[top], rank[top]
    order = np.zeros((rows, k), dtype=np.int64)
    found = np.zeros((rows, k), dtype=bool)
    order[owner, rank] = j[top]
    found[owner, rank] = True
    return order, found


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
def _assert_same(owner, d2, j, rows, k):
    got = rank_nearest(owner, d2, j, rows, k)
    want = ref_rank_nearest(owner, d2, j, rows, k)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


#: A handful of distances, so most candidates tie with others: signed
#: zeros, the smallest subnormal, neighbours one ulp apart, inf and NaN.
TIED = np.array(
    [0.0, -0.0, 5e-324, 1.0, 2.0, 2.0000000000000004, 4.5, 81.0, np.inf, np.nan]
)


@st.composite
def candidate_sets(draw):
    """Flat ``(owner, d2, j)`` triples over ``rows`` owners, in any order.

    Hypothesis picks the shape (owners, candidates, index base, share of
    tied distances) and a seed; numpy draws the values, which keeps a
    200-candidate example cheap to generate.
    """
    rows = draw(st.integers(1, 3000))
    # Both sides of the lexsort / packed-key split.
    size = draw(st.integers(0, 4 * RANK_LEXSORT_BELOW))
    # Indexes from near zero or just below 2**31 - 1.
    base = draw(st.sampled_from([0, 2**31 - 1 - 400]))
    tie_share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    owner = rng.integers(0, rows, size)
    j = base + rng.integers(0, 401, size)
    d2 = rng.uniform(0.0, 81.0, size)
    tied = rng.random(size) < tie_share
    d2[tied] = rng.choice(TIED, int(tied.sum()))
    # Duplicated points: copy some candidates' (d2, j) to other owners.
    copies = rng.integers(0, size, rng.integers(0, 21)) if size else owner
    owner = np.concatenate((owner, rng.integers(0, rows, copies.size)))
    d2 = np.concatenate((d2, d2[copies]))
    j = np.concatenate((j, j[copies]))
    order = rng.permutation(owner.size)
    return owner[order], d2[order], j[order], rows, draw(st.integers(1, 8))


class TestRankNearestReference:
    @settings(max_examples=500, deadline=None)
    @given(candidate_sets())
    def test_matches_frozen_lexsort(self, case):
        _assert_same(*case)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=1, max_size=40),
        st.lists(st.integers(0, 39), max_size=20),
        st.randoms(use_true_random=False),
    )
    def test_lattice_with_duplicated_points(self, lattice, copies, rnd):
        # Every candidate of every owner, as the all-pairs twin passes
        # them: a coarse lattice ties nearly every distance.
        pts = lattice + [lattice[c % len(lattice)] for c in copies]
        pos = np.array(pts, dtype=np.float64)
        n = pos.shape[0]
        d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
        owner, j = np.nonzero((d2 < 4.5) & ~np.eye(n, dtype=bool))
        shuffle = list(range(owner.size))
        rnd.shuffle(shuffle)
        owner, j = owner[shuffle], j[shuffle]
        _assert_same(owner, d2[owner, j], j, n, 7)

    @pytest.mark.parametrize(
        "size", [RANK_LEXSORT_BELOW - 1, RANK_LEXSORT_BELOW]
    )
    def test_either_side_of_the_lexsort_split(self, size):
        rng = np.random.default_rng(size)
        owner = rng.integers(0, 40, size)
        d2 = rng.integers(0, 12, size).astype(np.float64)  # many ties
        j = rng.integers(0, 300, size)
        _assert_same(owner, d2, j, 40, 7)

    def test_int32_indexes_from_the_grid(self):
        # The grid twin passes its member ids as int32.
        rng = np.random.default_rng(3)
        owner = rng.integers(0, 50, 2000)
        d2 = rng.integers(0, 30, 2000).astype(np.float64)
        j = rng.integers(0, 2**31 - 1, 2000).astype(np.int32)
        _assert_same(owner, d2, j, 50, 7)


class TestPackedWidths:
    """Owner, rank and index fields share 63 bits: a set that fits must
    match the reference, one that does not must raise."""

    @staticmethod
    def _case(owner_bits: int, rank_bits: int, j_bits: int):
        rows = 1 << owner_bits
        distinct = 1 << rank_bits  # ranks 0 .. 2**rank_bits - 1
        d2 = np.arange(distinct, dtype=np.float64)
        owner = np.linspace(0, rows - 1, distinct).astype(np.int64)
        j = np.full(distinct, (1 << j_bits) - 1, dtype=np.int64)
        j[::2] = 0
        return owner, d2, j, rows

    def test_exactly_63_bits_matches_the_reference(self):
        # 2**20 rows x 2**12 distinct distances x 31-bit indexes.
        owner, d2, j, rows = self._case(20, 12, 31)
        _assert_same(owner, d2, j, rows, 1)

    def test_64_bits_raises(self):
        owner, d2, j, rows = self._case(20, 12, 32)
        with pytest.raises(OverflowError, match="63 bits"):
            rank_nearest(owner, d2, j, rows, 1)

    def test_negative_index_raises(self):
        one = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError, match=">= 0"):
            rank_nearest(one, np.zeros(1), one - 1, 1, 7)
