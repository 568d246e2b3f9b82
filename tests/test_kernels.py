import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from launderscan import kernels
from launderscan.ipattr import IpAttributionTable

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
    assert kernels.find_repeat_period(np.array([1, 2], dtype=np.int64), np.array([0, 0], dtype=np.int32), 10, 3) == -1


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
    ts = np.array([t for t, _ in events], dtype=np.int64)
    dom = np.array([d for _, d in events], dtype=np.int32)
    return ts, dom


@settings(max_examples=400, deadline=None)
@given(
    event_streams(),
    st.integers(0, 4),
    st.integers(1, 6),
    st.sampled_from([1, 3, kernels.PAIR_CHUNK]),
)
def test_find_repeat_period_equals_oracle(stream, tol, min_len, chunk):
    ts, dom = stream
    with mock.patch.object(kernels, "PAIR_CHUNK", chunk):
        assert kernels.find_repeat_period(ts, dom, tol, min_len) == oracle_period(ts, dom, tol, min_len)


def _repeat(start, period, offsets, d):
    return [(start + k * period + o, d) for k in range(2) for o in offsets]


@pytest.mark.parametrize("chunk", [1, 2, 5, kernels.PAIR_CHUNK])
def test_smaller_period_wins_across_chunks(monkeypatch, chunk):
    # domain 0 repeats at 1,000 ms and its pairs are formed first; domain 1
    # repeats at 300 ms, in a later chunk once the chunk is small
    slow = _repeat(0, 1_000, (0, 10, 20), 0)
    fast = _repeat(2_000, 300, (0, 10, 20), 1)
    ts = np.array([t for t, _ in slow + fast], dtype=np.int64)
    dom = np.array([d for _, d in slow + fast], dtype=np.int32)
    monkeypatch.setattr(kernels, "PAIR_CHUNK", chunk)
    assert kernels.find_repeat_period(ts[:6], dom[:6], 0, 3) == 1_000
    assert kernels.find_repeat_period(ts, dom, 0, 3) == 300
    assert oracle_period(ts, dom, 0, 3) == 300


def test_one_large_domain_stays_bounded_in_memory():
    # 2,000 events on one domain are ~2M pairs; square timestamps never
    # mirror, since each later gap is wider than its partner
    n = 2_000
    ts = np.arange(n, dtype=np.int64) ** 2
    dom = np.zeros(n, dtype=np.int32)
    tracemalloc.start()
    try:
        got = kernels.find_repeat_period(ts, dom, 0, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == -1
    assert peak < 48 * 2**20


def test_lpm_empty_table():
    t = IpAttributionTable()
    ips = [u32_to_ip(v) for v in (1, 2, 3)]
    assert t.lookup_batch(ips) == [None, None, None]
