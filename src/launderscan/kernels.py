"""Repeat-cycle search behind the fingerprint's repeat-cycle feature.

Events are one machine's (timestamp, domain-id) pairs sorted by timestamp.
A period p is confirmed when the event block in [t, t+p) is mirrored in
[t+p, t+2p): identical domain ids in order, each mirrored timestamp within
``tol`` of its partner shifted by p, and the first block holds at least
``min_len`` events.  Anchors t are event timestamps.  Candidate periods are
gaps between same-domain event pairs, checked smallest first.
"""

from __future__ import annotations

import numpy as np

# There is no jit path.  chainbench/run.py::environment() still records this
# flag in every benchmark run, so it stays until that benchmark changes.
USING_NUMBA = False


def find_repeat_period(ts, dom, tol, min_len):
    """Smallest confirmed repeat period in ms, or -1 when none verifies."""
    ts = np.ascontiguousarray(ts, dtype=np.int64)
    dom = np.ascontiguousarray(dom, dtype=np.int32)
    tol, min_len = int(tol), int(min_len)
    n = ts.shape[0]
    if n < 2 * min_len:
        return -1
    cands = []
    by_dom: dict[int, list[int]] = {}
    for i in range(n):
        by_dom.setdefault(int(dom[i]), []).append(i)
    for idxs in by_dom.values():
        for a in range(len(idxs)):
            i = idxs[a]
            for b in range(a + 1, len(idxs)):
                j = idxs[b]
                if ts[j] > ts[i]:
                    cands.append((int(ts[j] - ts[i]), i, j))
    cands.sort()
    for p, i, j in cands:
        end1 = int(np.searchsorted(ts, ts[i] + p, side="left"))
        m = end1 - i
        if m < min_len or end1 != j:
            continue
        end2 = int(np.searchsorted(ts, ts[i] + 2 * p, side="left"))
        if end2 - j != m:
            continue
        if not np.array_equal(dom[i:end1], dom[j:end2]):
            continue
        off = (ts[j:end2] - p) - ts[i:end1]
        if np.abs(off).max() <= tol:
            return p
    return -1
