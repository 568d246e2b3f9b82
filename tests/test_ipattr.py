import random

import numpy as np
import pytest

from launderscan.ipattr import IpAttributionTable, ip_to_u32, parse_cidr

from conftest import u32_to_ip


def linear_scan_oracle(entries, ips_u32):
    """Independent longest-prefix reference: try every prefix for every IP
    and keep the longest match."""
    n = len(ips_u32)
    best_len = np.full(n, -1, dtype=np.int64)
    best = np.full(n, -1, dtype=np.int64)
    for net, mask_len, isp_idx in entries:
        mask = (0xFFFFFFFF << (32 - mask_len)) & 0xFFFFFFFF if mask_len else 0
        match = (ips_u32 & np.uint32(mask)) == np.uint32(net)
        upgrade = match & (mask_len > best_len)
        best_len[upgrade] = mask_len
        best[upgrade] = isp_idx
    return best


def test_insert_then_lookup():
    t = IpAttributionTable()
    t.insert("192.168.0.0/16", "homeisp")
    assert t.lookup("192.168.5.5") == "homeisp"
    assert t.lookup("192.169.5.5") is None


def test_host_bits_rejected():
    t = IpAttributionTable()
    with pytest.raises(ValueError, match="host bits"):
        t.insert("10.0.0.1/8", "x")


def test_duplicate_prefix_last_wins():
    t = IpAttributionTable()
    t.insert("10.0.0.0/8", "a")
    t.insert("10.0.0.0/8", "b")
    assert t.lookup("10.3.4.5") == "b"


def test_longest_prefix_examples():
    t = IpAttributionTable()
    t.insert("10.0.0.0/8", "a")
    t.insert("10.1.0.0/16", "b")
    assert t.lookup("10.1.2.3") == "b"
    assert t.lookup("8.8.8.8") is None
    assert t.lookup("10.255.255.255") == "a"


def test_zero_mask_matches_everything():
    t = IpAttributionTable()
    t.insert("0.0.0.0/0", "default")
    t.insert("9.0.0.0/8", "niner")
    assert t.lookup("1.2.3.4") == "default"
    assert t.lookup("9.9.9.9") == "niner"


def test_parse_cidr_errors():
    for bad in ("10.0.0.0", "10.0.0.0/8/2", "10.0.0.0/ab", "10.0.0/8", "1.2.3.4/33",
                "\u0661\u0660.0.0.0/8", "10.0.0.0/\u0668",  # Arabic-Indic digits
                "001.2.3.0/24"):  # a leading zero: inet_aton reads the octet as octal
        with pytest.raises(ValueError):
            parse_cidr(bad)


def test_ip_u32_roundtrip():
    rng = random.Random(3)
    for _ in range(200):
        v = rng.randrange(2**32)
        assert ip_to_u32(u32_to_ip(v)) == v


def test_batch_lookup_matches_linear_scan_oracle():
    rng = random.Random(1234)
    t = IpAttributionTable()
    made: dict[tuple[int, int], str] = {}  # (net, mask_len) -> isp, as inserted
    while len(made) < 1000:
        mask_len = rng.randrange(0, 33)
        mask = (0xFFFFFFFF << (32 - mask_len)) & 0xFFFFFFFF if mask_len else 0
        net = rng.randrange(2**32) & mask
        if (net, mask_len) in made:
            continue
        made[(net, mask_len)] = isp = f"isp-{(len(made) + 1) % 37:02d}"
        t.insert(f"{u32_to_ip(net)}/{mask_len}", isp)
    isp_index = {isp: i for i, isp in enumerate(sorted(set(made.values())))}
    entries = [(net, ml, isp_index[isp]) for (net, ml), isp in made.items()]
    ips = np.array([rng.randrange(2**32) for _ in range(20_000)], dtype=np.uint32)
    names = t.lookup_batch([u32_to_ip(v) for v in ips.tolist()])
    got = np.array([isp_index.get(isp, -1) for isp in names])
    want = linear_scan_oracle(entries, ips)
    assert np.array_equal(got.astype(np.int64), want)


def test_scalar_lookup_agrees_with_batch():
    rng = random.Random(99)
    t = IpAttributionTable()
    for i in range(200):
        mask_len = rng.randrange(1, 33)
        mask = (0xFFFFFFFF << (32 - mask_len)) & 0xFFFFFFFF
        net = rng.randrange(2**32) & mask
        t.insert(f"{u32_to_ip(net)}/{mask_len}", f"o{i % 11}")
    ips = [rng.randrange(2**32) for _ in range(2000)]
    batch = t.lookup_batch([u32_to_ip(v) for v in ips])
    for v, isp in zip(ips, batch):
        assert t.lookup(u32_to_ip(v)) == isp


def test_insert_then_lookup_inside_prefix():
    rng = random.Random(5)
    for _ in range(50):
        t = IpAttributionTable()
        mask_len = rng.randrange(1, 25)
        mask = (0xFFFFFFFF << (32 - mask_len)) & 0xFFFFFFFF
        net = rng.randrange(2**32) & mask
        t.insert(f"{u32_to_ip(net)}/{mask_len}", "owner")
        inside = net | rng.randrange(2 ** (32 - mask_len))
        assert t.lookup(u32_to_ip(inside)) == "owner"

