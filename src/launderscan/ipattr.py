"""CIDR prefix table answering "which ISP owns this IP?" by longest-prefix
match: one dict probe per mask length in use, longest first."""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .model import is_valid_ipv4


def ip_to_u32(ip: str) -> int:
    a, b, c, d = ip.split(".")
    return (int(a) << 24) | (int(b) << 16) | (int(c) << 8) | int(d)


def u32_to_ip(v: int) -> str:
    return f"{(v >> 24) & 255}.{(v >> 16) & 255}.{(v >> 8) & 255}.{v & 255}"


def parse_cidr(cidr: str) -> tuple[int, int]:
    """Parse canonical "a.b.c.d/len"; host bits below the mask are an error."""
    parts = cidr.strip().split("/")
    if len(parts) != 2:
        raise ValueError(f"bad cidr {cidr!r}")
    addr, mask_s = parts
    if not is_valid_ipv4(addr):
        raise ValueError(f"bad octets in {cidr!r}")
    if not (mask_s.isascii() and mask_s.isdigit()) or not (0 <= int(mask_s) <= 32):
        raise ValueError(f"bad mask in {cidr!r}")
    mask_len = int(mask_s)
    net = ip_to_u32(addr)
    mask = _mask_of(mask_len)
    if net & ~mask & 0xFFFFFFFF:
        raise ValueError(f"host bits set in {cidr!r}")
    return net, mask_len


def _mask_of(mask_len: int) -> int:
    return (0xFFFFFFFF << (32 - mask_len)) & 0xFFFFFFFF if mask_len else 0


class IpAttributionTable:
    """Longest-prefix CIDR → ISP map.

    Reinserting an identical (network, mask) prefix overwrites the previous
    ISP and bumps ``replace_count``.
    """

    def __init__(self):
        self._entries: dict[tuple[int, int], int] = {}
        self._isp_names: list[str] = []
        self._isp_index: dict[str, int] = {}
        self._mask_lens: list[int] = []  # descending
        self.replace_count = 0

    def __len__(self) -> int:
        return len(self._entries)

    def isp_names(self) -> tuple[str, ...]:
        return tuple(self._isp_names)

    def entries(self) -> Iterable[tuple[int, int, str]]:
        for (net, mask_len), idx in self._entries.items():
            yield net, mask_len, self._isp_names[idx]

    def insert(self, cidr: str, isp: str) -> None:
        net, mask_len = parse_cidr(cidr)
        idx = self._isp_index.get(isp)
        if idx is None:
            idx = len(self._isp_names)
            self._isp_index[isp] = idx
            self._isp_names.append(isp)
        key = (net, mask_len)
        if key in self._entries:
            self.replace_count += 1
        self._entries[key] = idx
        if mask_len not in self._mask_lens:
            self._mask_lens.append(mask_len)
            self._mask_lens.sort(reverse=True)

    def _probe(self, v: int) -> int:
        """ISP index of the longest prefix covering u32 address ``v``, or -1."""
        for mask_len in self._mask_lens:
            idx = self._entries.get((v & _mask_of(mask_len), mask_len))
            if idx is not None:
                return idx
        return -1

    def lookup(self, ip: str) -> Optional[str]:
        """ISP of the longest prefix covering ``ip``, or None."""
        idx = self._probe(ip_to_u32(ip))
        return self._isp_names[idx] if idx >= 0 else None

    def lookup_batch(self, ips_u32: np.ndarray) -> np.ndarray:
        """ISP index per IP (-1 = no covering prefix)."""
        ips = np.asarray(ips_u32, dtype=np.uint32).tolist()
        return np.fromiter(map(self._probe, ips), dtype=np.int32, count=len(ips))
