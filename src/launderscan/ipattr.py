"""CIDR prefix table answering "which ISP owns this IP?" by longest-prefix
match: one dict probe per mask length in use, longest first."""

from __future__ import annotations

from typing import Optional, Sequence

from .model import is_valid_ipv4


def ip_to_u32(ip: str) -> int:
    a, b, c, d = ip.split(".")
    return (int(a) << 24) | (int(b) << 16) | (int(c) << 8) | int(d)


def parse_cidr(cidr: str) -> tuple[int, int]:
    """Parse canonical "a.b.c.d/len"; host bits below the mask are an error.
    The error's message is a fixed reason that does not echo ``cidr``."""
    parts = cidr.strip().split("/")
    if len(parts) != 2:
        raise ValueError("bad cidr")
    addr, mask_s = parts
    if not is_valid_ipv4(addr):
        raise ValueError("bad octets")
    if not (mask_s.isascii() and mask_s.isdigit()) or not (0 <= int(mask_s) <= 32):
        raise ValueError("bad mask")
    mask_len = int(mask_s)
    net = ip_to_u32(addr)
    mask = _mask_of(mask_len)
    if net & ~mask & 0xFFFFFFFF:
        raise ValueError("host bits set")
    return net, mask_len


def _mask_of(mask_len: int) -> int:
    return (0xFFFFFFFF << (32 - mask_len)) & 0xFFFFFFFF if mask_len else 0


class IpAttributionTable:
    """Longest-prefix CIDR → ISP map.

    Reinserting an identical (network, mask) prefix overwrites the previous
    ISP.
    """

    def __init__(self):
        self._entries: dict[tuple[int, int], str] = {}
        self._mask_lens: list[int] = []  # descending

    def insert(self, cidr: str, isp: str) -> None:
        net, mask_len = parse_cidr(cidr)
        self._entries[(net, mask_len)] = isp
        if mask_len not in self._mask_lens:
            self._mask_lens.append(mask_len)
            self._mask_lens.sort(reverse=True)

    def lookup(self, ip: str) -> Optional[str]:
        """ISP of the longest prefix covering ``ip``, or None."""
        v = ip_to_u32(ip)
        for mask_len in self._mask_lens:
            isp = self._entries.get((v & _mask_of(mask_len), mask_len))
            if isp is not None:
                return isp
        return None

    def lookup_batch(self, ips: Sequence[str]) -> list[Optional[str]]:
        """``lookup`` of each IP, in order."""
        return [self.lookup(ip) for ip in ips]
