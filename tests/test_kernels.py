import numpy as np

from launderscan import kernels
from launderscan.ipattr import IpAttributionTable


def test_find_repeat_period_short_input():
    assert kernels.find_repeat_period(np.array([1, 2], dtype=np.int64), np.array([0, 0], dtype=np.int32), 10, 3) == -1


def test_lpm_empty_table():
    t = IpAttributionTable()
    ips = np.array([1, 2, 3], dtype=np.uint32)
    assert list(t.lookup_batch(ips)) == [-1, -1, -1]
