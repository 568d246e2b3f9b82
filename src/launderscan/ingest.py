"""Loaders for every input file format: JSON-lines traces (which may
interleave http, impression, and pageview records via a "kind" field),
CIDR→ISP maps, ranked domain lists, malware process lists, and alias groups.

All loaders are single-pass.  ``load_trace`` builds and keeps no record: it
hands each valid record's fields to its kind's consumer as it reads it, in
file order, so each subcommand folds the trace into only what its output
reads.  By default a loader skips bad lines and counts them by reason
(``Skips``); in strict mode the first bad line raises ParseAbortError.
``load_trace`` parses or skips every line, a blank one included, so skipped
+ parsed = ``total_lines``.  The table loaders drop '#' comments and blank
lines uncounted (``model.content_lines``), and then ``load_ip_map`` parses
or skips each line left (a repeated prefix replaces the earlier one),
``load_ranked_domains`` also drops a repeated domain uncounted,
``load_malware_list`` skips nothing, and ``load_alias_groups`` raises on a
bad line in either mode and drops a line with no domain.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .ipattr import IpAttributionTable
from .model import (
    InvalidDomainError,
    PublicSuffixSet,
    canonical_isp,
    content_lines,
    is_valid_ipv4,
    normalize_domain,
    url_host,
)


# The last millisecond of 9999-12-31 UTC.  A later ts has no calendar day,
# and sums of two such timestamps would no longer fit in an int64.
MAX_TS_MS = 253_402_300_799_999

_raw_decode = json.JSONDecoder().raw_decode


class ParseAbortError(ValueError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class Skips:
    """The lines a loader skipped, as a count per reason and the first
    ``(line_no, reason)``; ``len()`` is their total.  Reasons are fixed
    strings, so the tally does not grow with the input.  Calling it skips a
    line, or in strict mode raises ParseAbortError for it."""

    __slots__ = ("strict", "counts", "first")

    def __init__(self, strict: bool = False):
        self.strict = strict
        self.counts: dict[str, int] = {}
        self.first: Optional[tuple[int, str]] = None

    def __call__(self, line_no: int, reason: str):
        if self.strict:
            raise ParseAbortError(line_no, reason)
        if self.first is None:
            self.first = (line_no, reason)
        self.counts[reason] = self.counts.get(reason, 0) + 1

    def __len__(self) -> int:
        return sum(self.counts.values())


def is_utf8(line: str) -> bool:
    """False when ``line`` carries bytes that were not UTF-8, read in as lone
    surrogates (``errors="surrogateescape"``)."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def decode_line(line: str):
    """The JSON value of a stripped trace line.  It raises ValueError (or
    RecursionError, on deep nesting) exactly when ``json.loads(line)`` raises,
    and gives an equal value otherwise: with no JSON whitespace at either end,
    one ``raw_decode`` that ends at ``len(line)`` is all ``json.loads`` checks,
    without its per-call wrapper.  A leading BOM fails to decode here too."""
    obj, end = _raw_decode(line)
    if end != len(line):
        raise ValueError("extra data after the JSON value")
    return obj


@dataclass(slots=True)
class LoadResult:
    skipped: Skips = field(default_factory=Skips)
    total_lines: int = 0


def load_trace(
    lines: Iterable[str],
    suffix: PublicSuffixSet,
    strict: bool = False,
    http: Optional[Callable[..., object]] = None,
    impression: Optional[Callable[..., object]] = None,
    pageview: Optional[Callable[..., object]] = None,
) -> LoadResult:
    """Parse a JSON-lines trace, handing each valid record's fields to its
    kind's consumer as the line is read, in file order; the trace need not
    be sorted.  An http record is passed as ``http(ts, machine, proc, url,
    domain, ref, ip)``: the timestamp in ms, the machine id, the process
    name kept verbatim (empty and whitespace-only names are distinct
    signals), the URL, the URL host's ``normalize_domain`` or None when it
    does not normalize, the referrer or None, and the server IP.  An
    impression is passed as ``impression(ts, machine, domain)`` with its
    attributed domain, and a page view as ``pageview(ts, machine, domain)``
    with its publisher domain.  A line whose kind has no consumer
    is still decoded, checked and counted, so the skips, ``total_lines`` and
    a strict abort do not depend on which consumers are given; only an http
    line's host normalization is not made.

    An http line's ``method``, ``status`` and ``ua`` are checked (a string;
    an int or absent; a string or absent) but not passed on, and an
    impression's ``account`` is neither: no analysis reads them.
    ``attr_domain`` and ``pub_domain`` load only from a string that
    normalizes.  Each distinct value is checked once, however many lines
    repeat it: an IP string is validated once, a URL host, attr_domain or
    pub_domain is normalized once, and every consumer call gets the first
    ``str`` object seen for its machine, process, IP and referrer.

    When orjson is installed it decodes a line whose value it must give as
    ``json`` does (see the loop); every other line takes ``decode_line``.
    The cyclic garbage collector is paused while the trace loads: what the
    consumers keep forms no cycles, so its passes would only walk live
    objects.
    """
    out = LoadResult(skipped=Skips(strict))
    # name -> normalize_domain(name), None when it does not normalize
    domains: dict[str, Optional[str]] = {}
    # ip -> its first str object when is_valid_ipv4(ip), else None
    ips: dict[str, Optional[str]] = {}
    shared = {}.setdefault  # str value -> the first equal object seen
    missing = object()
    skip = out.skipped
    # imported here, not with this module: synthgen imports this module, and
    # orjson adds about 1 MB to a process that never loads a trace
    try:
        from orjson import loads as fast_loads
    except ImportError:
        fast_loads = None

    def domain_of(name) -> Optional[str]:
        if not isinstance(name, str):  # a JSON null, bool, number, list or object
            return None
        if name not in domains:
            try:
                domains[name] = normalize_domain(name, suffix)
            except InvalidDomainError:
                domains[name] = None
        return domains[name]

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        line_no = 0
        for line_no, raw in enumerate(lines, start=1):
            # orjson's value is json's when all three hold: orjson accepts the
            # line (it rejects blank text, a BOM, NaN, 1e400 and lone
            # surrogates, raw or escaped, and allows only JSON whitespace
            # around the value, which strip() would drop too); the line nests
            # under 512 deep, well inside json's recursion limit (n characters
            # nest at most n/2 deep, so only long lines are counted); and
            # ``status`` is not a float (orjson gives one for an int past 64
            # bits, where ``ts`` is "bad ts" either way).  Any other line takes
            # the json path.
            obj = None
            if fast_loads is not None and (len(raw) <= 1_024
                                           or raw.count("[") + raw.count("{") < 512):
                try:
                    obj = fast_loads(raw)
                except ValueError:
                    pass
            if type(obj) is not dict or type(obj.get("status")) is float:
                line = raw.strip()
                if not line:
                    skip(line_no, "blank line")
                    continue
                if not line.isascii() and not is_utf8(line):
                    skip(line_no, "bad encoding")
                    continue
                try:
                    obj = decode_line(line)
                except (ValueError, RecursionError):  # deep nesting, oversized ints
                    skip(line_no, "bad json")
                    continue
                # a "\udcff" escape decodes to a lone surrogate no output can
                # encode; a one-character search keeps lines without escapes cheap
                if "\\" in line and not is_utf8(json.dumps(obj, ensure_ascii=False)):
                    skip(line_no, "bad encoding")
                    continue
                if not isinstance(obj, dict):
                    skip(line_no, "not an object")
                    continue
            kind = obj.get("kind", "http")
            ts = obj.get("ts")
            machine = obj.get("machine")
            if type(ts) is not int or not 0 < ts <= MAX_TS_MS:  # bool is an int subclass
                skip(line_no, "bad ts")
                continue
            if not isinstance(machine, str) or not machine:
                skip(line_no, "bad machine")
                continue
            if kind == "http":
                url = obj.get("url")
                raw_ip = obj.get("ip")
                host = url_host(url) if isinstance(url, str) else ""
                if not host:
                    skip(line_no, "bad url")
                    continue
                # the type test comes first: a JSON list or object is unhashable
                ip = ips.get(raw_ip, missing) if isinstance(raw_ip, str) else None
                if ip is missing:
                    ip = ips[raw_ip] = raw_ip if is_valid_ipv4(raw_ip) else None
                if ip is None:
                    skip(line_no, "bad ip")
                    continue
                proc, status = obj.get("proc", ""), obj.get("status")
                ua, ref = obj.get("ua"), obj.get("ref")
                bad = ("status" if status is not None and type(status) is not int
                       else "proc" if not isinstance(proc, str)
                       else "method" if not isinstance(obj.get("method", ""), str)
                       else "ua" if ua is not None and not isinstance(ua, str)
                       else "ref" if ref is not None and not isinstance(ref, str)
                       else None)
                if bad:
                    skip(line_no, f"bad {bad}")
                elif http is not None:
                    dom = domains.get(host, missing)
                    if dom is missing:
                        dom = domain_of(host)
                    http(ts, shared(machine, machine), shared(proc, proc), url, dom,
                         None if ref is None else shared(ref, ref), ip)
            elif kind == "impression":
                dom = domain_of(obj.get("attr_domain"))
                if dom is None:
                    skip(line_no, "bad attr_domain")
                elif impression is not None:
                    impression(ts, shared(machine, machine), dom)
            elif kind == "pageview":
                dom = domain_of(obj.get("pub_domain"))
                if dom is None:
                    skip(line_no, "bad pub_domain")
                elif pageview is not None:
                    pageview(ts, shared(machine, machine), dom)
            else:
                skip(line_no, "bad kind")
        out.total_lines = line_no
    finally:
        if gc_was_enabled:
            gc.enable()
    return out


def load_ip_map(
    lines: Iterable[str], strict: bool = False
) -> tuple[IpAttributionTable, Skips]:
    """Parse "CIDR,ISP" CSV lines ('#' comments).  Duplicate prefixes are
    last-wins."""
    table = IpAttributionTable()
    skip = Skips(strict)
    for line_no, line in content_lines(lines):
        parts = line.split(",", 1)
        if len(parts) != 2 or not parts[1].strip():
            skip(line_no, "bad row")
            continue
        cidr, isp_raw = parts[0].strip(), parts[1]
        try:
            isp = canonical_isp(isp_raw)
        except ValueError:
            skip(line_no, "bad isp")
            continue
        try:
            table.insert(cidr, isp)
        except ValueError as err:
            skip(line_no, str(err))
    return table, skip


@dataclass(frozen=True, slots=True)
class RankedDomainList:
    """Reputation list: rank 1 is the most reputable."""

    entries: tuple[str, ...]

    def high_value_at(self, cutoff: int) -> frozenset[str]:
        """The domains of the first ``cutoff`` entries."""
        return frozenset(self.entries[:cutoff])


def load_ranked_domains(
    lines: Iterable[str], suffix: PublicSuffixSet, strict: bool = False
) -> tuple[RankedDomainList, Skips]:
    """One domain per line, rank = line order; duplicates keep the first rank."""
    entries: dict[str, None] = {}  # insertion-ordered set
    skip = Skips(strict)
    for line_no, line in content_lines(lines):
        try:
            entries.setdefault(normalize_domain(line, suffix))
        except InvalidDomainError:
            skip(line_no, "bad domain")
    return RankedDomainList(entries=tuple(entries)), skip


@dataclass(frozen=True, slots=True)
class MalwareProcessList:
    names: frozenset[str]

    def matches(self, process_name: str) -> bool:
        return process_name.casefold() in self.names


def load_malware_list(lines: Iterable[str]) -> MalwareProcessList:
    return MalwareProcessList(names=frozenset(line.casefold() for _, line in content_lines(lines)))


@dataclass(frozen=True, slots=True)
class AliasGroups:
    """Disjoint sets of domains treated as one publisher identity."""

    groups: tuple[frozenset[str], ...]
    index: dict[str, int]

    @classmethod
    def empty(cls) -> "AliasGroups":
        return cls(groups=(), index={})

    def group_key(self, registrable: str) -> str:
        gid = self.index.get(registrable)
        return registrable if gid is None else f"alias:{gid}"


def load_alias_groups(lines: Iterable[str], suffix: PublicSuffixSet) -> AliasGroups:
    """One group per line, comma-separated.  A bad domain or overlapping
    groups raise ParseAbortError."""
    groups: list[frozenset[str]] = []
    index: dict[str, int] = {}
    for line_no, line in content_lines(lines):
        members = set()
        for item in line.split(","):
            item = item.strip()
            if not item:
                continue
            try:
                members.add(normalize_domain(item, suffix))
            except InvalidDomainError as err:
                raise ParseAbortError(line_no, f"bad domain {item!r}") from err
        if not members:
            continue
        gid = len(groups)
        for m in sorted(members):
            if m in index:
                raise ParseAbortError(line_no, f"{m} in two groups")
            index[m] = gid
        groups.append(frozenset(members))
    return AliasGroups(groups=tuple(groups), index=index)
