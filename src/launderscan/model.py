"""Shared record types, domain normalization, and small validation helpers.

Every value type here is immutable after construction and safe to share
between workers.  Domain identity throughout the toolkit is the registrable
domain (public suffix plus one label); the full hostname is kept alongside so
host-level analyses stay possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

DAY_MS = 86_400_000

# Minimal fallback so the toolkit works without a suffix file; real runs
# should load an explicit list.
BUILTIN_SUFFIXES = ("com", "net", "org", "co.uk", "info", "biz")


class InvalidDomainError(ValueError):
    """Raised when a host string cannot be normalized into a domain."""


@dataclass(frozen=True, slots=True)
class PublicSuffixSet:
    suffixes: frozenset[str]

    @classmethod
    def builtin(cls) -> "PublicSuffixSet":
        return cls(frozenset(BUILTIN_SUFFIXES))

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "PublicSuffixSet":
        """Parse a suffix file: one suffix per line, '#' comments, blanks ignored."""
        out = set()
        for raw in lines:
            line = raw.split("#", 1)[0].strip().lower().lstrip(".")
            if line:
                out.add(line)
        return cls(frozenset(out))

    def match(self, host: str) -> Optional[str]:
        """Longest suffix whose label sequence ends ``host``, or None."""
        labels = host.split(".")
        for start in range(len(labels)):
            cand = ".".join(labels[start:])
            if cand in self.suffixes:
                return cand
        return None


@dataclass(frozen=True, slots=True)
class NormalizedDomain:
    registrable: str
    full_host: str


def url_host(url: str) -> str:
    """The text after a non-empty ``scheme://`` up to the first '/', '?' or
    '#', without userinfo; "" when there is none.  The toolkit's only
    URL→host split; port, case and trailing dot are left to normalize_domain."""
    scheme, sep, rest = url.partition("://")
    if not scheme or not sep:
        return ""
    return rest.split("/", 1)[0].split("?", 1)[0].split("#", 1)[0].rpartition("@")[2]


def normalize_domain(host: str, suffix_list: PublicSuffixSet) -> NormalizedDomain:
    """Lowercase ``host``, strip port/userinfo/trailing dot, derive registrable.

    The registrable domain is the longest matching public suffix plus one
    preceding label.  When no suffix matches, the registrable equals the full
    host; such domains are the ones is_malformed_domain() flags.
    """
    if not host:
        raise InvalidDomainError("empty host")
    if any(c.isspace() for c in host):
        raise InvalidDomainError(f"whitespace in host: {host!r}")
    h = host.lower()
    if "@" in h:
        h = h.rsplit("@", 1)[1]
    if ":" in h:
        h = h.split(":", 1)[0]
    h = h.rstrip(".")
    if not h:
        raise InvalidDomainError(f"no host left after stripping: {host!r}")
    if "" in h.split("."):
        raise InvalidDomainError(f"empty label in host: {host!r}")
    suffix = suffix_list.match(h)
    if suffix is None or suffix == h:
        registrable = h
    else:
        # one label in front of the suffix
        head = h[: -(len(suffix) + 1)]
        registrable = head.rsplit(".", 1)[-1] + "." + suffix
    return NormalizedDomain(registrable=registrable, full_host=h)


def is_malformed_domain(d: NormalizedDomain, suffix_list: PublicSuffixSet) -> bool:
    """True when the host's trailing labels match no known public suffix."""
    return suffix_list.match(d.full_host) is None


def canonical_isp(name: str) -> str:
    isp = name.strip().casefold()
    if not isp:
        raise ValueError("empty ISP name")
    return isp


def is_valid_ipv4(s: str) -> bool:
    parts = s.split(".")
    if len(parts) != 4:
        return False
    for p in parts:
        if not p.isdigit() or len(p) > 3:
            return False
        if int(p) > 255:
            return False
    return True


@dataclass(frozen=True, slots=True)
class HttpRecord:
    """One client-side HTTP(S) event from a panel trace.

    ``process_name`` is kept verbatim: empty and whitespace-only names are
    distinct, deliberate signals.  ``domain`` is the URL's domain, derived
    once by ``ingest.record_domain``; None when the host does not normalize.
    """

    timestamp: int
    machine_id: str
    process_name: str
    method: str
    url: str
    domain: Optional[NormalizedDomain]
    referrer: Optional[str]
    server_ip: str
    status: Optional[int]
    user_agent: Optional[str]


@dataclass(frozen=True, slots=True)
class ImpressionRecord:
    timestamp: int
    machine_id: str
    attributed_domain: NormalizedDomain
    exchange_account: Optional[str] = None


@dataclass(frozen=True, slots=True)
class PageViewRecord:
    timestamp: int
    machine_id: str
    publisher_domain: NormalizedDomain
