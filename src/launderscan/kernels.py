"""Repeat-cycle search behind the fingerprint's repeat-cycle feature.

Events are one machine's (timestamp, domain) pairs sorted by timestamp.
A period p is confirmed when the event block in [t, t+p) is mirrored in
[t+p, t+2p): equal domains in order, each mirrored timestamp within ``tol``
of its partner shifted by p, and the first block holds at least
``min_len`` events.  Anchors t are event timestamps.  Candidate periods are
gaps between same-domain event pairs; the smallest confirmed one wins.

The search walks, for each event i, the later events j of its domain with
j - i >= min_len, in index order, so the gap p grows along the walk.  A pair
is checked only when both blocks end at their pair's bounds: the first at j
(``ts[j-1] < ts[j]``) and the second at 2j - i.  The walk ends at the first
confirmed period, and two rules stop it before then: at the first j whose
second block would run past the last event (2j - i > n), and at the first p
no smaller than the best period found so far.  When no period exists, only
the first rule applies, so the search stays quadratic in the number of
events that share a domain.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

# There is no jit path.  chainbench/run.py::environment() still records this
# flag in every benchmark run, so it stays until that benchmark changes.
USING_NUMBA = False


def find_repeat_period(ts, dom, tol, min_len):
    """Smallest confirmed repeat period in ms, or -1 when none verifies.
    ``ts`` and ``dom`` are sequences of equal length, ``ts`` sorted and
    ``dom`` of any hashable values."""
    n = len(ts)
    if n < max(2, 2 * min_len):
        return -1
    at: dict = {}  # domain -> its events' indices, ascending
    for k, d in enumerate(dom):
        at.setdefault(d, []).append(k)
    best = -1
    for idxs in at.values():
        for a, i in enumerate(idxs):
            t0 = ts[i]
            # the walk's bounds: j - i >= min_len, 2j - i <= n, and p < best
            lo = bisect_left(idxs, i + min_len, a + 1)
            hi = bisect_right(idxs, (n + i) // 2, lo)
            if best >= 0:
                hi = bisect_left(idxs, bisect_left(ts, t0 + best), lo, hi)
            for j in idxs[lo:hi]:
                t1 = ts[j]
                p = t1 - t0
                end = 2 * j - i
                # the first block [t0, t1) must end at j, the second
                # [t1, t1 + p) at ``end``
                if ts[j - 1] == t1 or ts[end - 1] >= t1 + p or (end < n and ts[end] < t1 + p):
                    continue
                if dom[i:j] == dom[j:end] and all(
                        abs(u - s - p) <= tol for s, u in zip(ts[i:j], ts[j:end])):
                    best = p
                    break
    return best
