"""The sweep-and-prune band scan against frozen copies of the dense scans.

``ref_neighbor_candidates`` and ``ref_neighbor_search_all_numpy`` below
are verbatim copies of ``backend.kernels_native._neighbor_candidates``
and :func:`repro.steer.neighbors.neighbor_search_all_numpy` as they were
before the band scan: a dense ``m x n`` distance block filtered by
``np.nonzero``, and the same block in slices of ``block`` query rows.
Only the names of the copied functions are changed.  The hypothesis
tests feed flocks through both sides and require identical ``(order,
found)`` and result arrays.  The flocks stress what the x windows could
get wrong:

* duplicated points and float32-rounded coordinates (tied distances);
* pairs offset by exactly ``r`` along x, and by one ulp inside and
  outside it; with full-precision coordinates ``x + r`` rounds, so a
  pair can sit in radius exactly on a window bound that had no margin;
* NaN and infinite components in any slot, so bands hold only
  non-finite owners or mix them with valid ones;
* ``m < n`` threads, arbitrary query rows (duplicated, empty), any band
  height from 1 past ``n``, and radii from 0 to infinity.

Both sides rank with :func:`rank_nearest`, which has its own oracle
(``test_rank_reference.py``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.kernels_native import _neighbor_candidates
from repro.gpusteer.kernels_emu import MAX_NEIGHBORS
from repro.steer.neighbors import (
    BAND_ROWS,
    NO_NEIGHBOR,
    band_scan,
    neighbor_search_all_numpy,
    rank_nearest,
)
from repro.steer.params import DEFAULT_PARAMS, BoidsParams


# ----------------------------------------------------------------------
# Reference models (frozen copies of the dense scans)
# ----------------------------------------------------------------------
def ref_neighbor_candidates(pos: np.ndarray, m: int, r2: float):
    """The v1/v2 candidate scan for threads 0..m-1 over all n agents.

    Returns ``(order, found)``: per thread, up to 7 neighbor indexes in
    the canonical nearest-first (d2, index) order the emulator's
    ``_write_results``/gather produce, and the validity mask.
    """
    n = pos.shape[0]
    my = pos[:m]
    # offset = my_pos - other_pos, per component; d2 in dot3's order.
    ox = my[:, None, 0] - pos[None, :, 0]
    oy = my[:, None, 1] - pos[None, :, 1]
    oz = my[:, None, 2] - pos[None, :, 2]
    d2 = (ox * ox + oy * oy) + oz * oz
    in_radius = (d2 < r2) & (np.arange(n)[None, :] != np.arange(m)[:, None])
    owner, j = np.nonzero(in_radius)
    return rank_nearest(owner, d2[owner, j], j, m, MAX_NEIGHBORS)


def ref_neighbor_search_all_numpy(
    positions: np.ndarray,
    params: BoidsParams,
    block: int = 2048,
    rows: "np.ndarray | None" = None,
) -> np.ndarray:
    """Blocked brute force over an ``(n, 3)`` float array.

    ``rows`` restricts the search to the given query agents — the think
    frequency's cohort (§5.3): only those rows of the result are filled,
    the rest stay NO_NEIGHBOR.
    """
    n = positions.shape[0]
    k = params.max_neighbors
    r2 = params.search_radius**2
    query = np.arange(n) if rows is None else np.asarray(rows)
    out = np.full((n, k), NO_NEIGHBOR, dtype=np.int64)
    for start in range(0, len(query), block):
        sel = query[start : start + block]
        chunk = positions[sel]
        # (block, n) squared distances.
        d2 = ((chunk[:, None, :] - positions[None, :, :]) ** 2).sum(axis=2)
        keep = d2 < r2
        keep[np.arange(len(sel)), sel] = False  # exclude self
        owner, j = np.nonzero(keep)
        idx, found = rank_nearest(owner, d2[owner, j], j, len(sel), k)
        out[sel] = np.where(found, idx, NO_NEIGHBOR)
    return out


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
#: Radii (exactly representable ones put pairs exactly on the radius).
RADII = [0.0, 1e-3, 0.5, 1.0, 3.0, 9.0, 40.0, np.inf]

#: Non-finite values a component can take.
NON_FINITE = np.array([np.nan, np.inf, -np.inf])


@st.composite
def flocks(draw):
    """An ``(n, 3)`` float64 flock and a search radius.

    Hypothesis picks the shape (size, spread, radius, shares of
    duplicated, on-radius and non-finite points) and a seed; numpy
    draws the values.  Coordinates sit on a quarter grid or are float32
    rounded, like the device's loads, so distances tie often, or use
    every bit of a float64.
    """
    n = draw(st.integers(0, 160))
    r = draw(st.sampled_from(RADII))
    spread = draw(st.sampled_from([1.0, 10.0, 50.0, 1e6]))
    dup_share, edge_share, bad_share = (
        draw(st.sampled_from([0.0, 0.1, 0.5])) for _ in range(3)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos = rng.uniform(-spread, spread, (n, 3))
    grid = draw(st.sampled_from(["quarter", "float32", "float64"]))
    if grid == "quarter":
        pos = np.round(pos * 4) / 4
    elif grid == "float32":
        pos = pos.astype(np.float32).astype(np.float64)
    if n:
        # Duplicated points.
        dst = rng.integers(0, n, int(n * dup_share))
        pos[dst] = pos[rng.integers(0, n, dst.size)]
        # Pairs x-offset by exactly ±r, or one ulp inside or outside it.
        a = rng.integers(0, n, int(n * edge_share))
        b = rng.integers(0, n, a.size)
        step = rng.choice([-1.0, 1.0], a.size) * (r if np.isfinite(r) else 1.0)
        x = pos[a, 0] + step
        nudge = rng.integers(-1, 2, a.size)
        x = np.where(nudge < 0, np.nextafter(x, pos[a, 0]), x)
        x = np.where(nudge > 0, np.nextafter(x, x + step), x)
        pos[b] = pos[a]
        pos[b, 0] = x
        # NaN / ±inf components, anywhere.
        bad = rng.integers(0, n, int(n * bad_share) + rng.integers(0, 3))
        pos[bad, rng.integers(0, 3, bad.size)] = rng.choice(NON_FINITE, bad.size)
    return pos, r


def _assert_same(got, want):
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


class TestBandScanReference:
    @settings(max_examples=300, deadline=None)
    @given(flocks(), st.data())
    def test_thread_scan_matches_frozen_dense(self, flock, data):
        pos, r = flock
        n = pos.shape[0]
        m = data.draw(st.integers(0, n))
        band = data.draw(st.integers(1, max(n, 1) + 2))
        r2 = float(r * r)
        with np.errstate(all="ignore"):
            want = ref_neighbor_candidates(pos, m, r2)
            _assert_same(band_scan(pos, np.arange(m), r2, MAX_NEIGHBORS, band), want)
            _assert_same(_neighbor_candidates(pos, m, r2), want)

    @settings(max_examples=300, deadline=None)
    @given(flocks(), st.data())
    def test_host_engine_matches_frozen_blocked(self, flock, data):
        pos, r = flock
        n = pos.shape[0]
        params = replace(
            DEFAULT_PARAMS,
            search_radius=r,
            max_neighbors=data.draw(st.integers(1, 9)),
        )
        rows = None
        if data.draw(st.booleans()):
            # Arbitrary query rows: duplicated, unordered, possibly none.
            rows = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=2 * n))
            rows = np.array(rows, dtype=np.int64)
        block = data.draw(st.integers(1, max(n, 1) + 2))
        ref_block = data.draw(st.sampled_from([1, 7, 2048]))
        with np.errstate(all="ignore"):
            want = ref_neighbor_search_all_numpy(pos, params, ref_block, rows)
            np.testing.assert_array_equal(
                neighbor_search_all_numpy(pos, params, block, rows), want
            )
            np.testing.assert_array_equal(
                neighbor_search_all_numpy(pos, params, rows=rows), want
            )

    def test_default_band_height(self):
        # Several default-height bands, each with a NaN or infinite owner.
        rng = np.random.default_rng(31)
        pos = rng.uniform(-50.0, 50.0, (5 * BAND_ROWS, 3))
        pos[:: BAND_ROWS + 1, rng.integers(0, 3)] = np.nan
        pos[7 :: BAND_ROWS + 3, 0] = np.inf
        with np.errstate(all="ignore"):
            _assert_same(
                _neighbor_candidates(pos, pos.shape[0], 81.0),
                ref_neighbor_candidates(pos, pos.shape[0], 81.0),
            )

    def test_window_reaches_past_a_rounded_down_root(self):
        # fl(sqrt(3)) is below sqrt(3) and its square still rounds below
        # 3, so a neighbour exactly fl(sqrt(3)) along x is in radius, and
        # so is one just below fl(1 - fl(sqrt(3))) from an owner at 1,
        # whose offset rounds back to fl(sqrt(3)): window bounds of
        # x ± fl(sqrt(r2)), with no margin, would stop just short of them.
        s = 3.0**0.5
        assert s * s < 3.0
        for x in (0.0, 1.0, -2.5):
            pos = np.array([[x, 0.0, 0.0], [x + s, 0.0, 0.0], [x - s, 0.0, 0.0]])
            pos = np.vstack((pos, [np.nextafter(x - s, -np.inf), 0.0, 0.0]))
            want = ref_neighbor_candidates(pos, 4, 3.0)
            assert want[1][0].sum() == (3 if x == 1.0 else 2)
            for band in (1, 2, 4):
                _assert_same(band_scan(pos, np.arange(4), 3.0, MAX_NEIGHBORS, band), want)

    def test_association_decides_the_radius(self):
        # Offsets whose two associations of ox² + oy² + oz² round apart,
        # with r2 the larger of the two: the pair is in radius under one
        # association only, so a band scan that re-associates d2 fails.
        rng = np.random.default_rng(5)
        o = rng.uniform(0.5, 2.0, (4096, 3))
        sq = o * o
        dot3 = (sq[:, 0] + sq[:, 1]) + sq[:, 2]
        other = sq[:, 0] + (sq[:, 1] + sq[:, 2])
        below = np.flatnonzero(dot3 < other)[:4]
        above = np.flatnonzero(dot3 > other)[:4]
        assert below.size == above.size == 4
        for row in np.concatenate((below, above)):
            pos = np.array([[0.0, 0.0, 0.0], o[row]])
            r2 = float(max(dot3[row], other[row]))
            want = ref_neighbor_candidates(pos, 2, r2)
            assert want[1][0, 0] == (dot3[row] < other[row])
            _assert_same(band_scan(pos, np.arange(2), r2, MAX_NEIGHBORS), want)


class TestHostDistanceAssociation:
    """The host engine's ``((a - b)**2).sum(axis=2)`` is dot3's
    ``(ox*ox + oy*oy) + oz*oz`` bit for bit, so both engines can share
    one scan."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(1, 60),
        st.sampled_from([1e-3, 1.0, 50.0, 1e12]),
        st.integers(0, 2**32 - 1),
    )
    def test_sum_of_squares_is_dot3(self, rows, n, spread, seed):
        rng = np.random.default_rng(seed)
        chunk = rng.uniform(-spread, spread, (rows, 3))
        positions = rng.uniform(-spread, spread, (n, 3))
        host = ((chunk[:, None, :] - positions[None, :, :]) ** 2).sum(axis=2)
        o = chunk[:, None, :] - positions[None, :, :]
        dot3 = (o[..., 0] * o[..., 0] + o[..., 1] * o[..., 1]) + o[..., 2] * o[..., 2]
        np.testing.assert_array_equal(host.view(np.uint64), dot3.view(np.uint64))
