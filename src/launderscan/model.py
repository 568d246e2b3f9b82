"""Shared record types, domain normalization, and small validation helpers.

Every value type here is immutable after construction and safe to share
between workers.  A domain throughout the toolkit is a plain ``str``: the
registrable domain (public suffix plus one label) that normalize_domain gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional

DAY_MS = 86_400_000

# Minimal fallback so the toolkit works without a suffix file; real runs
# should load an explicit list.
BUILTIN_SUFFIXES = ("com", "net", "org", "co.uk", "info", "biz")


class InvalidDomainError(ValueError):
    """Raised when a host string cannot be normalized into a domain."""


def content_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(line_no, text) for each line of a reference table that has text left
    once its '#' comment is cut and it is stripped; line numbers count from 1."""
    for line_no, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            yield line_no, text


@dataclass(frozen=True, slots=True)
class PublicSuffixSet:
    suffixes: frozenset[str]
    max_labels: int = field(init=False, compare=False)  # most labels in a suffix: no longer tail matches

    def __post_init__(self):
        object.__setattr__(self, "max_labels", max((s.count(".") + 1 for s in self.suffixes), default=0))

    @classmethod
    def builtin(cls) -> "PublicSuffixSet":
        return cls(frozenset(BUILTIN_SUFFIXES))

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "PublicSuffixSet":
        """Parse a suffix file: one suffix per line, '#' comments, blanks ignored."""
        return cls(frozenset({text.lower().lstrip(".") for _, text in content_lines(lines)} - {""}))

    def match(self, host: str) -> Optional[str]:
        """Longest suffix whose label sequence ends ``host``, or None; linear in its length."""
        labels = host.split(".")
        for start in range(max(0, len(labels) - self.max_labels), len(labels)):
            cand = ".".join(labels[start:])
            if cand in self.suffixes:
                return cand
        return None


def url_host(url: str) -> str:
    """The text after a non-empty ``scheme://`` up to the first '/', '?' or
    '#', without userinfo; "" when there is none.  The toolkit's only
    URL→host split; port, case and trailing dot are left to normalize_domain."""
    scheme, sep, rest = url.partition("://")
    if not scheme or not sep:
        return ""
    return rest.partition("/")[0].partition("?")[0].partition("#")[0].rpartition("@")[2]


# urllib.parse.urlsplit drops these before it splits a URL
_URL_DROPS = str.maketrans("", "", "\t\r\n")


def url_query(url: str) -> str:
    """The text after the first '?' up to the first '#', without tab, CR or
    LF; "" when there is none.  The toolkit's only URL→query split: it equals
    ``urlsplit(url).query`` wherever urlsplit accepts the URL, and never raises."""
    if not url.isprintable():
        url = url.translate(_URL_DROPS)
    return url.partition("#")[0].partition("?")[2]


def normalize_domain(host: str, suffix_list: PublicSuffixSet) -> str:
    """Lowercase ``host``, strip port/userinfo/trailing dot, and return its
    registrable domain: the longest matching public suffix plus one preceding
    label.  When no suffix matches, that is the whole host; such domains are
    the ones is_malformed_domain() flags.  Idempotent on what it returns.
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
        return h
    # one label in front of the suffix
    head = h[: -(len(suffix) + 1)]
    return head.rsplit(".", 1)[-1] + "." + suffix


def is_malformed_domain(domain: str, suffix_list: PublicSuffixSet) -> bool:
    """True when the host's trailing labels match no known public suffix.
    ``domain`` is the host's registrable domain: a host that matches none is
    its own registrable, and any other registrable ends in the suffix that
    matched, so the answer is the host's."""
    return suffix_list.match(domain) is None


def canonical_isp(name: str) -> str:
    isp = name.strip().casefold()
    if not isp:
        raise ValueError("empty ISP name")
    return isp


def is_valid_ipv4(s: str) -> bool:
    """Dotted quad of ASCII-digit octets, each at most 255.  ``str.isdigit``
    alone would pass other scripts' digits and superscripts such as '²'.  An
    octet of two or more digits may not start with '0': ``inet_aton`` reads
    '04' as octal, so '1.2.3.04' would name a second host beside '1.2.3.4'."""
    parts = s.split(".")
    if len(parts) != 4:
        return False
    for p in parts:
        if not (p.isascii() and p.isdigit()) or len(p) > 3:
            return False
        if int(p) > 255 or (len(p) > 1 and p[0] == "0"):
            return False
    return True


class HttpRecord(NamedTuple):
    """One client-side HTTP(S) event from a panel trace.

    ``process_name`` is kept verbatim: empty and whitespace-only names are
    distinct, deliberate signals.  ``domain`` is the URL's domain, as
    ``ingest.record_domain`` gives it; None when the host does not normalize.
    ``ingest.load_trace`` normalizes each distinct host once and shares the
    result, and records it loads share one ``str`` object per distinct
    machine, process, server IP and referrer value.  The trace line's user
    agent is checked but not stored: no output reads it.

    Records are built only for ``load_trace``'s list form and for the lines
    fingerprint keeps (those to a reported IP); a ``load_trace`` consumer
    takes the fields in this order instead.  A NamedTuple, not a frozen
    dataclass: a tuple is built in one call where a frozen dataclass pays an
    ``object.__setattr__`` per field.  Tuples also compare field by field:
    a sort without a ``key`` would order records by every field and raise
    on a None domain beside a str, so never sort records without one.
    """

    timestamp: int
    machine_id: str
    process_name: str
    url: str
    domain: Optional[str]
    referrer: Optional[str]
    server_ip: str


class DomainEvent(NamedTuple):
    """A machine met a domain at a time: an ad impression attributed to the
    domain (``LoadResult.impressions``) or a page view of it
    (``LoadResult.pageviews``).  Panel reconciliation compares the two.

    A NamedTuple for the reason HttpRecord is one; never sort events
    without a ``key``.
    """

    timestamp: int
    machine_id: str
    domain: str
