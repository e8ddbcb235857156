"""Neighbor search: the 7 nearest agents within a radius (paper §5.2.1).

Three engines compute the identical result:

``pure``
    Listing 5.2 verbatim — a linear scan keeping the 7 nearest.  O(n) per
    agent, O(n^2) for everyone; the CPU performance bottleneck (82% of
    cycles, Fig. 5.5) and the exact algorithm the GPU kernels port.

``numpy``
    The same arithmetic vectorized as a sweep-and-prune band scan
    (:func:`band_scan`): x-sorted bands of owners, each scanning only
    the x window its radius can reach.

``kdtree``
    ``scipy.spatial.cKDTree`` k-nearest query with the radius filter
    applied afterwards.  An *engine* optimization only — it returns the
    same neighbor sets, and the paper-faithful timing model continues to
    charge for the brute-force scan the paper's code performs.  (It is
    also the "spatial data structures" future work of ch. 7.)

All engines return an ``(n, k)`` int array padded with -1.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.steer.params import BoidsParams
from repro.steer.vec3 import Vec3

NO_NEIGHBOR = -1


def neighbor_search_pure(
    positions: "list[Vec3]",
    me: int,
    search_radius: float,
    max_neighbors: int = 7,
) -> list[int]:
    """Listing 5.2: the 7 nearest agents within the radius, one agent."""
    neighbors: list[tuple[float, int]] = []  # (distance^2, index)
    r2 = search_radius * search_radius
    my_pos = positions[me]
    for j, other in enumerate(positions):
        if j == me:
            continue
        d2 = my_pos.distance_squared(other)
        if d2 < r2:
            if len(neighbors) < max_neighbors:
                neighbors.append((d2, j))
            else:
                # Evict the lexicographically largest (d2, index) pair if
                # the new pair is smaller: the kept set is *the*
                # max_neighbors smallest pairs, independent of scan order
                # — so ties resolve identically across every engine and
                # both device backends.
                worst = max(range(len(neighbors)), key=lambda k: neighbors[k])
                if neighbors[worst] > (d2, j):
                    neighbors[worst] = (d2, j)
    neighbors.sort()
    found = [j for _d2, j in neighbors]
    return found + [NO_NEIGHBOR] * (max_neighbors - len(found))


def neighbor_search_all_pure(
    positions: "list[Vec3]", params: BoidsParams
) -> np.ndarray:
    """The listing 5.2 scan for every agent (the O(n^2) problem)."""
    return np.array(
        [
            neighbor_search_pure(
                positions, i, params.search_radius, params.max_neighbors
            )
            for i in range(len(positions))
        ],
        dtype=np.int64,
    ).reshape(len(positions), params.max_neighbors)


#: Below this many candidates one 3-key ``lexsort`` ranks faster than
#: the dense-rank pass plus the packed sort (they cost the same near 380
#: candidates; a native v5 step at n=64 passes ~40, a v6 grid slice
#: ~3,000).  Both orders are the exact ``(owner, d2, j)`` order.
RANK_LEXSORT_BELOW = 384


def rank_nearest(
    owner: np.ndarray, d2: np.ndarray, j: np.ndarray, rows: int, k: int
):
    """The exact keep-``k`` selection over flat candidate triples: per
    owner row ``0..rows-1``, the ``k`` smallest ``(d2, j)`` pairs among
    its candidates, as ``(order, found)`` — each ``(rows, k)``, indexes
    nearest-first and whether the slot holds one (an unfound slot holds
    0).  Ties on ``d2`` break by index, so the kept set is *the* ``k``
    lexicographically smallest pairs whatever order the candidates come
    in; ``d2`` keeps the caller's float association.

    One sort ranks everything: ``lexsort((j, d2, owner))`` below
    :data:`RANK_LEXSORT_BELOW` candidates, else one sort of a packed
    integer key (:func:`_packed_order`).  Indexes must be non-negative.
    """
    order = np.zeros((rows, k), dtype=np.int64)
    found = np.zeros((rows, k), dtype=bool)
    if not d2.size:
        return order, found
    # The OR of the indexes is as wide as the largest, negative if any is.
    j_bits = int(np.bitwise_or.reduce(j))
    if j_bits < 0:
        raise ValueError("rank_nearest: candidate indexes must be >= 0")
    if d2.size < RANK_LEXSORT_BELOW:
        # Owner-major, then (d2, index): lexsort's primary key is its last.
        ranked = np.lexsort((j, d2, owner))
        owner, j = owner[ranked], j[ranked]
    else:
        owner, j = _packed_order(owner, d2, j, rows, j_bits.bit_length())
    rank = np.arange(owner.size) - owner.searchsorted(owner)
    top = rank < k
    slot = owner[top] * k + rank[top]  # flat (row, rank) positions
    order.ravel()[slot] = j[top]
    found.ravel()[slot] = True
    return order, found


def _packed_order(
    owner: np.ndarray, d2: np.ndarray, j: np.ndarray, rows: int, j_bits: int
):
    """``(owner, j)`` sorted in ``(owner, d2, j)`` order by one integer sort.

    ``d2``'s dense rank (equal distances, NaNs too, share a rank) orders
    exactly like ``d2``, so the packed key ``owner << (r + j_bits) |
    rank << j_bits | j`` orders exactly like the triple.  The rank width
    ``r`` comes from the distinct distances; a set whose three fields
    pass 63 bits raises ``OverflowError``.
    """
    # Candidates in d2 order; the key sort below does not care.
    by_d2 = d2.argsort()
    sorted_d2 = d2[by_d2]
    fresh = np.empty(d2.size, dtype=bool)  # starts a new distance
    fresh[0] = False
    np.not_equal(sorted_d2[1:], sorted_d2[:-1], out=fresh[1:])
    if sorted_d2[-1] != sorted_d2[-1]:
        # NaNs sort last and compare unequal; like lexsort, tie them.
        fresh[int(np.argmax(sorted_d2 != sorted_d2)) + 1 :] = False
    dense = fresh.cumsum(dtype=np.int64)
    top_rank = int(dense[-1])
    low_bits = top_rank.bit_length() + j_bits
    if int(rows - 1).bit_length() + low_bits > 63:
        raise OverflowError(
            f"rank_nearest: {rows} rows, {top_rank + 1} distinct distances "
            f"and {j_bits}-bit indexes do not pack into 63 bits"
        )
    key = owner[by_d2].astype(np.int64, copy=False) << low_bits
    key |= dense << j_bits
    key |= j[by_d2]
    key.sort()
    return key >> low_bits, key & ((1 << j_bits) - 1)


#: Owner rows per band of the sweep-and-prune scan (:func:`band_scan`).
BAND_ROWS = 64


def band_scan(
    pos: np.ndarray, owners: np.ndarray, r2: float, k: int, band: int = BAND_ROWS
):
    """The all-pairs in-radius scan, ranked: per owner row ``a``, the
    ``k`` smallest ``(d2, j)`` over agents ``j != owners[a]`` with ``d2 <
    r2``, as :func:`rank_nearest`'s ``(order, found)``; ``d2`` is dot3's
    ``(ox*ox + oy*oy) + oz*oz`` of ``o = pos[owners[a]] - pos[j]``.

    Sweep and prune: the candidates are sorted by x once, the owners are
    taken in x order ``band`` rows at a time, and each band scans, densely,
    only the x window its radius can reach.  That is the dense scan exactly:

    * rounding is monotone and the added squares are non-negative, so
      ``d2 >= fl(ox*ox)``, which only grows as ``x_j`` leaves the band's
      x range: a pair outside the window is never in radius;
    * a kept pair's ``d2`` is the same IEEE operation as the dense scan's;
    * :func:`rank_nearest` does not depend on candidate order.

    A band's bounds are its first and last owner in x order.  NaN sorts
    last and infinities at the ends, so a non-finite owner only widens
    its band's window (``min``/``max`` would drop the valid owners).
    """
    m = len(owners)
    x = pos[:, 0]
    by_x = x.argsort(kind="stable")
    cand = pos.T.take(by_x, axis=1)  # (3, n) candidate coordinates in x order
    rows = x[owners].argsort(kind="stable")  # owner rows in x order
    own = pos.T.take(owners[rows], axis=1)
    xs = own[0].tolist()
    # A kept pair has fl(fl(x_i - x_j)**2) < r2, so |x_i - x_j| <
    # sqrt(r2) * (1 + 3u) (u = 2**-53; 2**-500 absorbs underflow); the
    # terms in |lo| and |hi| cover rounding the bounds themselves, so
    # every x_j a band needs lies strictly inside its two bounds.
    reach = max(r2, 0.0) ** 0.5 * (1 + 2.0**-40) + 2.0**-500
    bounds = []
    for b in range(0, m, band):
        lo, hi = xs[b], xs[min(b + band, m) - 1]
        bounds += (
            lo - (reach + abs(lo) * 2.0**-50),
            hi + (reach + abs(hi) * 2.0**-50),
        )
    window = cand[0].searchsorted(bounds).tolist()
    none = np.zeros(0, dtype=np.int64)
    parts = [(none, np.zeros(0), none)]
    for b, s, e in zip(range(0, m, band), window[::2], window[1::2]):
        if s < e:
            ox, oy, oz = own[:, b : b + band, None]
            cx, cy, cz = cand[:, None, s:e]
            d2 = np.square(ox - cx)
            d2 += np.square(oy - cy)
            d2 += np.square(oz - cz)
            hit = np.flatnonzero(d2 < r2)
            r, c = np.divmod(hit, e - s)
            parts.append((rows[b + r], d2.ravel()[hit], by_x[s + c]))
    owner, d2, j = (np.concatenate(p) for p in zip(*parts))
    other = owners[owner] != j  # drop the self pairs
    return rank_nearest(owner[other], d2[other], j[other], m, k)


def neighbor_search_all_numpy(
    positions: np.ndarray,
    params: BoidsParams,
    block: int = BAND_ROWS,
    rows: "np.ndarray | None" = None,
) -> np.ndarray:
    """The all-pairs search over an ``(n, 3)`` array, as one
    :func:`band_scan` in float64 with ``block`` owners per band.

    ``rows`` restricts the search to the given query agents — the think
    frequency's cohort (§5.3): only those rows of the result are filled,
    the rest stay NO_NEIGHBOR.
    """
    pos = np.asarray(positions, dtype=np.float64)
    n = pos.shape[0]
    k = params.max_neighbors
    query = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
    idx, found = band_scan(pos, query, params.search_radius**2, k, block)
    out = np.full((n, k), NO_NEIGHBOR, dtype=np.int64)
    out[query] = np.where(found, idx, NO_NEIGHBOR)
    return out


def neighbor_search_all_kdtree(
    positions: np.ndarray,
    params: BoidsParams,
    rows: "np.ndarray | None" = None,
) -> np.ndarray:
    """k-NN via cKDTree, radius-filtered — same sets, different engine."""
    from scipy.spatial import cKDTree

    n = positions.shape[0]
    k = params.max_neighbors
    query = np.arange(n) if rows is None else np.asarray(rows)
    tree = cKDTree(positions)
    # +1 for the self-match the query returns, +1 as a tie sentinel: one
    # candidate past the kept set, so a tie straddling the k-cut always
    # shows up as a duplicated distance in the returned row.
    kk = min(k + 2, n)
    dist, idx = tree.query(positions[query], k=kk)
    if kk == 1:
        dist = dist[:, None]
        idx = idx[:, None]
    # Drop self-matches and out-of-radius hits.
    self_col = idx == query[:, None]
    dist = np.where(self_col, np.inf, dist)
    dist[dist >= params.search_radius] = np.inf
    order = np.argsort(dist, axis=1, kind="stable")
    dist = np.take_along_axis(dist, order, axis=1)
    idx = np.take_along_axis(idx, order, axis=1)
    out = np.full((n, k), NO_NEIGHBOR, dtype=np.int64)
    take = min(k, kk)
    sel = idx[:, :take].astype(np.int64)
    sel[~np.isfinite(dist[:, :take])] = NO_NEIGHBOR
    out[query, :take] = sel
    # The tree's k-cut and return order are arbitrary under exact ties,
    # so any row showing a duplicated in-radius distance is recomputed
    # with the exact (d2, index) engine.  Measure-zero for continuous
    # positions — the fallback fires only on manufactured tie inputs.
    finite = np.isfinite(dist)
    dup = (dist[:, :-1] == dist[:, 1:]) & finite[:, 1:]
    tie_rows = query[np.any(dup, axis=1)]
    if tie_rows.size:
        exact = neighbor_search_all_numpy(positions, params, rows=tie_rows)
        out[tie_rows] = exact[tie_rows]
    return out


ENGINES = {
    "numpy": neighbor_search_all_numpy,
    "kdtree": neighbor_search_all_kdtree,
}

#: Populations above this many agents make ``auto`` pick the kdtree.
AUTO_KDTREE_ABOVE = 2048

#: Counts every ``auto`` dispatch that switched to the kdtree engine;
#: listed in metric snapshots only once it has fired.
_KDTREE_SWITCHES = obs.bind_counter(
    "steer.neighbor_engine_switches", engine="kdtree"
)


def neighbor_search_all(
    positions: np.ndarray,
    params: BoidsParams,
    engine: str = "auto",
    rows: "np.ndarray | None" = None,
) -> np.ndarray:
    """Dispatch to an engine; ``auto`` uses kdtree for large populations
    (above :data:`AUTO_KDTREE_ABOVE` agents), counting each switch in
    ``steer.neighbor_engine_switches{engine=kdtree}``."""
    if engine == "auto":
        if positions.shape[0] > AUTO_KDTREE_ABOVE:
            engine = "kdtree"
            _KDTREE_SWITCHES.inc()
        else:
            engine = "numpy"
    try:
        fn = ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown neighbor engine {engine!r}; pick from {sorted(ENGINES)}"
        ) from None
    return fn(positions, params, rows=rows)
