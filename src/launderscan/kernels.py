"""Repeat-cycle search behind the fingerprint's repeat-cycle feature.

Events are one machine's (timestamp, domain-id) pairs sorted by timestamp.
A period p is confirmed when the event block in [t, t+p) is mirrored in
[t+p, t+2p): identical domain ids in order, each mirrored timestamp within
``tol`` of its partner shifted by p, and the first block holds at least
``min_len`` events.  Anchors t are event timestamps.  Candidate periods are
gaps between same-domain event pairs, checked smallest first.

The search is vectorised: same-domain pairs (i, j) are formed in chunks of
at most PAIR_CHUNK, and the block-length conditions, plus a match of the two
blocks' last events, are applied as array masks.  Only the pairs that pass
them are checked event by event, in (p, i, j) order; a chunk's pairs whose
p is not below the smallest period confirmed so far are dropped.
"""

from __future__ import annotations

import numpy as np

# There is no jit path.  chainbench/run.py::environment() still records this
# flag in every benchmark run, so it stays until that benchmark changes.
USING_NUMBA = False

# Same-domain pairs formed at once; bounds one call's memory however many
# events share a domain (the pair count grows with its square).
PAIR_CHUNK = 1 << 18


def find_repeat_period(ts, dom, tol, min_len):
    """Smallest confirmed repeat period in ms, or -1 when none verifies."""
    ts = np.ascontiguousarray(ts, dtype=np.int64)
    dom = np.ascontiguousarray(dom, dtype=np.int32)
    tol, min_len = int(tol), int(min_len)
    n = ts.shape[0]
    if n < max(2, 2 * min_len):
        return -1
    # Row q of the pair triangle pairs event order[q] with every later event
    # of its domain; a stable sort keeps each domain's events in index order.
    order = np.argsort(dom, kind="stable")
    sdom = dom[order]
    starts = np.flatnonzero(np.r_[True, sdom[1:] != sdom[:-1]])
    sizes = np.diff(np.r_[starts, n])
    row_len = np.repeat(starts + sizes, sizes) - np.arange(n) - 1
    row_end = np.cumsum(row_len)
    total = int(row_end[-1])
    # the first block ends where ts reaches ts[j]; it must end at j itself
    first = np.searchsorted(ts, ts, side="left")
    best = -1
    for lo in range(0, total, PAIR_CHUNK):
        k = np.arange(lo, min(lo + PAIR_CHUNK, total))  # pair numbers
        row = np.searchsorted(row_end, k, side="right")
        col = k - (row_end[row] - row_len[row])  # 0 for a row's first pair
        i, j = order[row], order[row + 1 + col]
        p = ts[j] - ts[i]
        keep = (p > 0) & (first[j] == j) & (j - i >= min_len)
        if best >= 0:
            keep &= p < best
        i, j, p = i[keep], j[keep], p[keep]
        # the second block [ts[j], ts[j] + p) must hold as many events
        keep = np.searchsorted(ts, ts[j] + p, side="left") - j == j - i
        i, j, p = i[keep], j[keep], p[keep]
        # the blocks' last events must already mirror each other
        last = 2 * j - i - 1
        keep = (dom[last] == dom[j - 1]) & (np.abs((ts[last] - p) - ts[j - 1]) <= tol)
        i, j, p = i[keep], j[keep], p[keep]
        for s in np.lexsort((j, i, p)):
            a, b, q = int(i[s]), int(j[s]), int(p[s])
            if not np.array_equal(dom[a:b], dom[b:2 * b - a]):
                continue
            if np.abs((ts[b:2 * b - a] - q) - ts[a:b]).max() <= tol:
                best = q
                break
    return best
