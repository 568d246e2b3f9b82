"""Per-record signature rules: hosts-hijack spoof query extraction and
follow-through verification, sibling ad-call referrer consistency, and
tampered-environment classification from URL-encoding function fingerprints.

Both URL rules read the query through ``model.url_query`` and resolve a
parameter value alike: a value holding ``://`` names its host's domain.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence
from urllib.parse import parse_qsl

from .model import (
    InvalidDomainError,
    PublicSuffixSet,
    is_valid_ipv4,
    normalize_domain,
    url_host,
    url_query,
)

SPOOF_DOMAIN_KEY = "spoof_domain"
LAND_IP_KEY = "land_ip"

EXPECTED_FUNCTIONS = frozenset({"escape", "encodeURI", "encodeURIComponent"})


class MalformedSignalError(ValueError):
    """Both spoof query keys are present but a value does not parse."""


class EmptyFingerprintError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class SpoofSignal:
    """What a hijack query says: the spoofed domain resolves to ``land_ip``."""

    spoof_domain: str
    land_ip: str


def _query_values(url: str, keys: tuple[str, ...]) -> dict[str, list[str]]:
    """Every value of each of ``keys`` in the URL's query, in order and
    percent-decoded once, as ``parse_qsl(query, keep_blank_values=True)``
    gives them; a key that is absent has no entry.  parse_qsl can only yield
    a key the query does not spell by decoding a '%' or a '+', so a query
    with neither and with none of ``keys`` is not parsed; with neither, it
    has nothing to decode, so splitting on '&' and then at the first '=',
    skipping empty pairs, is all it does."""
    query = url_query(url)
    found: dict[str, list[str]] = {}
    if "%" in query or "+" in query:
        pairs = parse_qsl(query, keep_blank_values=True)
    elif any(key in query for key in keys):
        pairs = (pair.partition("=")[::2] for pair in query.split("&") if pair)
    else:
        return found
    for key, val in pairs:
        if key in keys:
            found.setdefault(key, []).append(val)
    return found


# A trace names few distinct spoofed domains and landing IPs, so the rules
# check each value once; bounded, since every value comes from the input.
@lru_cache(maxsize=4096)
def _value_domain(val: str, suffix: PublicSuffixSet) -> str:
    """The domain a query value names: its host's when it is a URL, else the
    value itself.  Raises InvalidDomainError when that does not normalize."""
    return normalize_domain(url_host(val) if "://" in val else val, suffix)


_valid_land_ip = lru_cache(maxsize=4096)(is_valid_ipv4)


def may_hold(url: str, key: str) -> bool:
    """False when the URL's query cannot hold ``key``: the URL does not spell
    it, nor spell it split by a tab, CR or LF (which are not printable, and
    which URL splitting drops), nor escape it with a '%' or a '+'.  Neither
    URL rule can find ``key`` in such a URL, so callers may skip it."""
    return key in url or "%" in url or "+" in url or not url.isprintable()


def check_spoof_query(url: str, suffix: PublicSuffixSet) -> Optional[SpoofSignal]:
    """Extract a spoof signal when the URL query carries both hijack keys.

    Returns None when either key is absent; raises MalformedSignalError when
    both keys are present but the landing IP (or the spoofed domain) cannot
    be parsed.  Percent-decoding is applied once; parameter order and
    unrelated parameters do not matter.
    """
    if not may_hold(url, SPOOF_DOMAIN_KEY):
        return None
    values = _query_values(url, (SPOOF_DOMAIN_KEY, LAND_IP_KEY))
    if SPOOF_DOMAIN_KEY not in values or LAND_IP_KEY not in values:
        return None
    spoof_val, land_val = values[SPOOF_DOMAIN_KEY][0], values[LAND_IP_KEY][0]
    if not _valid_land_ip(land_val):
        raise MalformedSignalError(f"unparseable {LAND_IP_KEY} value {land_val!r}")
    try:
        dom = _value_domain(spoof_val, suffix)
    except InvalidDomainError as err:
        raise MalformedSignalError(f"unparseable {SPOOF_DOMAIN_KEY} value {spoof_val!r}") from err
    return SpoofSignal(spoof_domain=dom, land_ip=land_val)


def verify_spoof_followthrough(
    signal: SpoofSignal,
    ts: int,
    index: dict[tuple[str, Optional[str]], list[int]],
    horizon_ms: int,
) -> bool:
    """True when, after the signal's request at ``ts`` and at most
    ``horizon_ms`` later, the machine whose request times ``index`` holds,
    each list sorted, by (server IP, domain), requests the spoofed domain
    from the landing IP.  One lookup per signal: the first of those request
    times after ``ts``."""
    times = index.get((signal.land_ip, signal.spoof_domain), ())
    k = bisect_right(times, ts)
    return k < len(times) and times[k] <= ts + horizon_ms


@dataclass(frozen=True, slots=True)
class ReferrerCheck:
    consistent: bool
    values: frozenset[str]  # distinct registrable domains seen in the parameter


def sibling_referrer_consistency(
    ad_call_urls: Sequence[str], param_name: str, suffix: PublicSuffixSet
) -> ReferrerCheck:
    """Sibling ad calls from one page load cannot honestly claim different
    referrer domains; more than one distinct registrable value is flagged."""
    seen: set[str] = set()
    for url in ad_call_urls:
        for val in _query_values(url, (param_name,)).get(param_name, ()):
            try:
                seen.add(_value_domain(val, suffix))
            except InvalidDomainError:
                continue
    return ReferrerCheck(consistent=len(seen) <= 1, values=frozenset(seen))


@dataclass(frozen=True, slots=True)
class EnvFingerprint:
    """Stringified window-object URL-encoding functions captured in-page."""

    functions: dict[str, str]

    def __post_init__(self):
        if not isinstance(self.functions, dict) or not all(
            isinstance(v, str) for v in self.functions.values()
        ):
            raise ValueError("fingerprint must map function names to strings")
        unknown = set(self.functions) - EXPECTED_FUNCTIONS
        if unknown:
            raise ValueError(f"unexpected fingerprint keys: {sorted(unknown)}")


def _native_pattern(name: str) -> re.Pattern:
    return re.compile(
        r"\Afunction(?:\s+" + re.escape(name) + r")?\s*\(\s*\)\s*\{\s*\[\s*native\s+code\s*\]\s*\}\Z"
    )


@dataclass(frozen=True, slots=True)
class EnvClassification:
    tampered: frozenset[str]

    @property
    def clean(self) -> bool:
        return not self.tampered


def classify_env(fp: EnvFingerprint) -> EnvClassification:
    """A function is tampered when its string form is not the native-code
    rendering (whitespace-flexible; the function name may be omitted but,
    when present, must match)."""
    if not fp.functions:
        raise EmptyFingerprintError("fingerprint has no expected functions")
    bad = set()
    for name, rendered in fp.functions.items():
        if not _native_pattern(name).match(rendered.strip()):
            bad.add(name)
    return EnvClassification(tampered=frozenset(bad))
