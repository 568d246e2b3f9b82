import os
import random
import subprocess
import sys
import time
from bisect import bisect_left
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from launderscan import kernels
from launderscan.ipattr import IpAttributionTable
from launderscan.model import DAY_MS

from conftest import u32_to_ip


def oracle_period(ts, dom, tol, min_len):
    """Brute-force repeat-cycle search: every same-domain pair, in Python,
    checked in (p, i, j) order."""
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


def test_find_repeat_period_short_input():
    assert kernels.find_repeat_period([1, 2], [0, 0], 10, 3) == -1


@st.composite
def event_streams(draw):
    """Sorted (ts, dom) streams on a small time range, so ties are common;
    half of them repeat a block of events at a period, with jitter."""
    n_dom = draw(st.integers(1, 4))
    block = draw(st.lists(st.tuples(st.integers(0, 60), st.integers(0, n_dom - 1)), max_size=14))
    events = list(block)
    if draw(st.booleans()):
        period = draw(st.integers(1, 150))
        jitter = draw(st.lists(st.integers(-3, 3), min_size=len(block), max_size=len(block)))
        events += [(t + period + dj, d) for (t, d), dj in zip(block, jitter)]
    events.sort()
    return [t for t, _ in events], [d for _, d in events]


@settings(max_examples=400, deadline=None)
@given(event_streams(), st.integers(0, 4), st.integers(1, 6))
def test_find_repeat_period_equals_oracle(stream, tol, min_len):
    ts, dom = stream
    assert kernels.find_repeat_period(ts, dom, tol, min_len) == oracle_period(ts, dom, tol, min_len)


def _repeat(start, period, offsets, d):
    return [(start + k * period + o, d) for k in range(2) for o in offsets]


@pytest.mark.parametrize("chunk", [1, 2, 5, 262_144])
def test_smaller_period_wins_across_chunks(chunk):
    # domain 0 repeats at 1,000 ms and is walked first; domain 1 repeats at
    # 300 ms in a later chunk of the stream, from 1,999 + chunk ms, so at or
    # after the 2,000 ms end of domain 0's second cycle; domain 1's walk
    # must not stop at the 1,000 ms bound
    slow = _repeat(0, 1_000, (0, 10, 20), 0)
    fast = _repeat(1_999 + chunk, 300, (0, 10, 20), 1)
    ts = [t for t, _ in slow + fast]
    dom = [d for _, d in slow + fast]
    assert kernels.find_repeat_period(ts[:6], dom[:6], 0, 3) == 1_000
    assert kernels.find_repeat_period(ts, dom, 0, 3) == 300
    assert oracle_period(ts, dom, 0, 3) == 300


# Run in a fresh interpreter: VmHWM starts over at exec, where ru_maxrss
# would carry the test process's high-water mark into the child.
_LARGE_DOMAIN_CHILD = """
from launderscan import kernels

def vm_hwm():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))

n = 2_000
ts = [k * k for k in range(n)]
dom = [0] * n
before = vm_hwm()
got = kernels.find_repeat_period(ts, dom, 0, 3)
print(got, vm_hwm() - before)
"""


def test_one_large_domain_stays_bounded_in_memory():
    # 2,000 events on one domain are ~2M pairs; square timestamps never
    # mirror, since each later gap is wider than its partner.  The child's
    # peak resident memory may grow by under 48 MB across the call.
    src = str(Path(kernels.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", _LARGE_DOMAIN_CHILD],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got, growth = map(int, proc.stdout.split())
    assert got == -1
    assert growth < 48 * 2**20


def _pair_confirms(ts, dom, tol, min_len, i, j):
    """Whether events i and j anchor a confirmed period ts[j] - ts[i]."""
    p = ts[j] - ts[i]
    end = bisect_left(ts, ts[j] + p)
    return (p > 0 and dom[i] == dom[j] and j - i >= min_len and bisect_left(ts, ts[j]) == j
            and end - j == j - i and dom[i:j] == dom[j:end]
            and all(abs(u - s - p) <= tol for s, u in zip(ts[i:j], ts[j:end])))


def test_polling_stream_does_not_stall():
    # one domain polled at random over 7 days: 20k events are ~200M pairs,
    # but a period confirms early and bounds every later walk
    rng = random.Random(20)
    ts = sorted(rng.randrange(7 * DAY_MS) for _ in range(20_000))
    dom = [0] * len(ts)
    start = time.perf_counter()
    got = kernels.find_repeat_period(ts, dom, 60_000, 5)
    assert time.perf_counter() - start < 2.0
    # the smallest confirmed period: some pair with that gap confirms it, and
    # no pair with a smaller gap confirms its own
    shorter = [(i, j) for i in range(len(ts)) for j in range(i + 5, bisect_left(ts, ts[i] + got))]
    assert got > 0 and not any(_pair_confirms(ts, dom, 60_000, 5, i, j) for i, j in shorter)
    assert any(_pair_confirms(ts, dom, 60_000, 5, i, j)
               for i in range(len(ts)) for j in range(i + 5, bisect_left(ts, ts[i] + got + 1))
               if ts[j] - ts[i] == got)


def test_lpm_empty_table():
    t = IpAttributionTable()
    ips = [u32_to_ip(v) for v in (1, 2, 3)]
    assert t.lookup_batch(ips) == [None, None, None]
