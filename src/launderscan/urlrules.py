"""Per-record signature rules: hosts-hijack spoof query extraction and
follow-through verification, sibling ad-call referrer consistency, and
tampered-environment classification from URL-encoding function fingerprints.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional, Sequence
from urllib.parse import parse_qsl, urlsplit

from .model import (
    HttpRecord,
    InvalidDomainError,
    NormalizedDomain,
    PublicSuffixSet,
    is_valid_ipv4,
    normalize_domain,
    url_host,
)

SPOOF_DOMAIN_KEY = "spoof_domain"
LAND_IP_KEY = "land_ip"

# urlsplit drops these before it splits a URL
_URLSPLIT_DROPS = str.maketrans("", "", "\t\r\n")

EXPECTED_FUNCTIONS = frozenset({"escape", "encodeURI", "encodeURIComponent"})


class MalformedSignalError(ValueError):
    """Both spoof query keys are present but a value does not parse."""


class EmptyFingerprintError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class SpoofSignal:
    """What a hijack query says: the spoofed domain resolves to ``land_ip``."""

    spoof_domain: NormalizedDomain
    land_ip: str


def check_spoof_query(url: str, suffix: PublicSuffixSet) -> Optional[SpoofSignal]:
    """Extract a spoof signal when the URL query carries both hijack keys.

    Returns None when either key is absent; raises MalformedSignalError when
    both keys are present but the landing IP (or the spoofed domain) cannot
    be parsed.  Percent-decoding is applied once; parameter order and
    unrelated parameters do not matter.
    """
    # Skip the parse where no signal can exist: there is no query, or there
    # is no escape and the URL does not spell both keys (parse_qsl then only
    # turns '+' into a space).
    if "?" not in url:
        return None
    if "%" not in url:
        spelled = url if url.isprintable() else url.translate(_URLSPLIT_DROPS)
        if SPOOF_DOMAIN_KEY not in spelled or LAND_IP_KEY not in spelled:
            return None
    query = urlsplit(url).query
    if not query:
        return None
    spoof_val = None
    land_val = None
    for key, val in parse_qsl(query, keep_blank_values=True):
        if key == SPOOF_DOMAIN_KEY and spoof_val is None:
            spoof_val = val
        elif key == LAND_IP_KEY and land_val is None:
            land_val = val
    if spoof_val is None or land_val is None:
        return None
    if not is_valid_ipv4(land_val):
        raise MalformedSignalError(f"unparseable {LAND_IP_KEY} value {land_val!r}")
    try:
        dom = normalize_domain(spoof_val, suffix)
    except InvalidDomainError as err:
        raise MalformedSignalError(f"unparseable {SPOOF_DOMAIN_KEY} value {spoof_val!r}") from err
    return SpoofSignal(spoof_domain=dom, land_ip=land_val)


def verify_spoof_followthrough(
    signal: SpoofSignal,
    ts: int,
    trace: Sequence[HttpRecord],
    horizon_ms: int,
) -> bool:
    """True when, after the signal's request at ``ts`` and at most
    ``horizon_ms`` later, the same machine's trace (sorted by timestamp)
    requests the spoofed domain from the landing IP."""
    lo, hi = ts, ts + horizon_ms
    want = signal.spoof_domain.registrable
    for k in range(bisect_right(trace, lo, key=attrgetter("timestamp")), len(trace)):
        rec = trace[k]
        if rec.timestamp > hi:
            break
        if rec.server_ip != signal.land_ip:
            continue
        if rec.domain is not None and rec.domain.registrable == want:
            return True
    return False


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
        for key, val in parse_qsl(urlsplit(url).query, keep_blank_values=True):
            if key != param_name or not val:
                continue
            host = url_host(val) if "://" in val else val
            try:
                seen.add(normalize_domain(host, suffix).registrable)
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
