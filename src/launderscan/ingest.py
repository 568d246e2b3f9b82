"""Loaders for every input file format: JSON-lines traces (which may
interleave http, impression, and pageview records via a "kind" field),
CIDR→ISP maps, ranked domain lists, malware process lists, and alias groups.

All loaders are single-pass and lenient by default: bad lines are skipped and
recorded with their line number and a reason.  In strict mode the first bad
line raises ParseAbortError.  For every loader, skipped + parsed = total.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .ipattr import IpAttributionTable
from .model import (
    HttpRecord,
    ImpressionRecord,
    InvalidDomainError,
    NormalizedDomain,
    PageViewRecord,
    PublicSuffixSet,
    canonical_isp,
    is_valid_ipv4,
    normalize_domain,
    url_host,
)


@dataclass(frozen=True, slots=True)
class Skip:
    line_no: int
    reason: str


class ParseAbortError(ValueError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


def is_utf8(line: str) -> bool:
    """False when ``line`` carries bytes that were not UTF-8, read in as lone
    surrogates (``errors="surrogateescape"``)."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def record_domain(url: str, suffix: PublicSuffixSet) -> Optional[NormalizedDomain]:
    """The domain an http record's URL resolves to (``HttpRecord.domain``);
    None when its host does not normalize."""
    try:
        return normalize_domain(url_host(url), suffix)
    except InvalidDomainError:
        return None


@dataclass(slots=True)
class LoadResult:
    http: list[HttpRecord] = field(default_factory=list)
    impressions: list[ImpressionRecord] = field(default_factory=list)
    pageviews: list[PageViewRecord] = field(default_factory=list)
    skipped: list[Skip] = field(default_factory=list)
    total_lines: int = 0

    @property
    def parsed_count(self) -> int:
        return len(self.http) + len(self.impressions) + len(self.pageviews)


def load_trace(
    lines: Iterable[str],
    suffix: Optional[PublicSuffixSet] = None,
    strict: bool = False,
) -> LoadResult:
    """Parse a JSON-lines trace into typed records, in file order."""
    suffix = suffix or PublicSuffixSet.builtin()
    out = LoadResult()
    domains: dict[str, Optional[NormalizedDomain]] = {}  # host -> record_domain

    def skip(line_no: int, reason: str):
        if strict:
            raise ParseAbortError(line_no, reason)
        out.skipped.append(Skip(line_no, reason))

    for line_no, raw in enumerate(lines, start=1):
        out.total_lines += 1
        line = raw.strip()
        if not line:
            skip(line_no, "blank line")
            continue
        if not line.isascii() and not is_utf8(line):
            skip(line_no, "bad encoding")
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):  # deep nesting, oversized ints
            skip(line_no, "bad json")
            continue
        # a "\udcff" escape decodes to a lone surrogate no output can encode;
        # a one-character search keeps lines without escapes cheap
        if "\\" in line and not is_utf8(json.dumps(obj, ensure_ascii=False)):
            skip(line_no, "bad encoding")
            continue
        if not isinstance(obj, dict):
            skip(line_no, "not an object")
            continue
        kind = obj.get("kind", "http")
        ts = obj.get("ts")
        machine = obj.get("machine")
        if type(ts) is not int or ts <= 0:  # bool is an int subclass
            skip(line_no, "bad ts")
            continue
        if not isinstance(machine, str) or not machine:
            skip(line_no, "bad machine")
            continue
        if kind == "http":
            url = obj.get("url")
            ip = obj.get("ip")
            host = url_host(url) if isinstance(url, str) else ""
            if not host:
                skip(line_no, "bad url")
                continue
            if not isinstance(ip, str) or not is_valid_ipv4(ip):
                skip(line_no, "bad ip")
                continue
            status = obj.get("status")
            if status is not None and type(status) is not int:
                skip(line_no, "bad status")
                continue
            proc, method = obj.get("proc", ""), obj.get("method", "GET")
            ua, ref = obj.get("ua"), obj.get("ref")
            bad = ("proc" if not isinstance(proc, str)
                   else "method" if not isinstance(method, str)
                   else "ua" if ua is not None and not isinstance(ua, str)
                   else "ref" if ref is not None and not isinstance(ref, str)
                   else None)
            if bad:
                skip(line_no, f"bad {bad}")
                continue
            if host not in domains:
                domains[host] = record_domain(url, suffix)
            out.http.append(
                HttpRecord(
                    timestamp=ts,
                    machine_id=machine,
                    process_name=proc,
                    method=method,
                    url=url,
                    domain=domains[host],
                    referrer=ref,
                    server_ip=ip,
                    status=status,
                    user_agent=ua,
                )
            )
        elif kind == "impression":
            try:
                dom = normalize_domain(str(obj["attr_domain"]), suffix)
            except (KeyError, InvalidDomainError):
                skip(line_no, "bad attr_domain")
                continue
            out.impressions.append(
                ImpressionRecord(
                    timestamp=ts,
                    machine_id=machine,
                    attributed_domain=dom,
                    exchange_account=obj.get("account"),
                )
            )
        elif kind == "pageview":
            try:
                dom = normalize_domain(str(obj["pub_domain"]), suffix)
            except (KeyError, InvalidDomainError):
                skip(line_no, "bad pub_domain")
                continue
            out.pageviews.append(
                PageViewRecord(timestamp=ts, machine_id=machine, publisher_domain=dom)
            )
        else:
            skip(line_no, f"bad kind {kind!r}")
    return out


@dataclass(slots=True)
class IpMapLoad:
    table: IpAttributionTable
    skipped: list[Skip]
    total_lines: int


def load_ip_map(lines: Iterable[str], strict: bool = False) -> IpMapLoad:
    """Parse "CIDR,ISP" CSV lines ('#' comments).  Duplicate prefixes are
    last-wins; the table's replace counter records how many."""
    table = IpAttributionTable()
    skipped: list[Skip] = []
    total = 0

    def skip(line_no: int, reason: str):
        if strict:
            raise ParseAbortError(line_no, reason)
        skipped.append(Skip(line_no, reason))

    for line_no, raw in enumerate(lines, start=1):
        total += 1
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
            continue
    return IpMapLoad(table=table, skipped=skipped, total_lines=total)


@dataclass(frozen=True, slots=True)
class RankedDomainList:
    """Reputation list: rank 1 is the most reputable; the first ``cutoff``
    entries are the high-value set."""

    entries: tuple[NormalizedDomain, ...]
    cutoff: int

    def high_value(self) -> frozenset[str]:
        return frozenset(d.registrable for d in self.entries[: self.cutoff])

    def high_value_at(self, cutoff: int) -> frozenset[str]:
        return frozenset(d.registrable for d in self.entries[: min(cutoff, len(self.entries))])

    def to_lines(self) -> list[str]:
        return [d.registrable for d in self.entries]


def load_ranked_domains(
    lines: Iterable[str],
    cutoff: int = 2000,
    suffix: Optional[PublicSuffixSet] = None,
    strict: bool = False,
) -> tuple[RankedDomainList, list[Skip]]:
    """One domain per line, rank = line order; duplicates keep the first rank."""
    suffix = suffix or PublicSuffixSet.builtin()
    entries: list[NormalizedDomain] = []
    seen: set[str] = set()
    skipped: list[Skip] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            dom = normalize_domain(line, suffix)
        except InvalidDomainError:
            if strict:
                raise ParseAbortError(line_no, "bad domain")
            skipped.append(Skip(line_no, "bad domain"))
            continue
        if dom.registrable in seen:
            continue
        seen.add(dom.registrable)
        entries.append(dom)
    clamped = max(0, min(cutoff, len(entries)))
    return RankedDomainList(entries=tuple(entries), cutoff=clamped), skipped


@dataclass(frozen=True, slots=True)
class MalwareProcessList:
    names: frozenset[str]

    def matches(self, process_name: str) -> bool:
        return process_name.casefold() in self.names


def load_malware_list(lines: Iterable[str]) -> MalwareProcessList:
    names = set()
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if line:
            names.add(line.casefold())
    return MalwareProcessList(names=frozenset(names))


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

    def to_lines(self) -> list[str]:
        return [",".join(sorted(g)) for g in self.groups]


def load_alias_groups(
    lines: Iterable[str], suffix: Optional[PublicSuffixSet] = None
) -> AliasGroups:
    """One group per line, comma-separated.  A bad domain or overlapping
    groups raise ParseAbortError."""
    suffix = suffix or PublicSuffixSet.builtin()
    groups: list[frozenset[str]] = []
    index: dict[str, int] = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        members = set()
        for item in line.split(","):
            item = item.strip()
            if not item:
                continue
            try:
                dom = normalize_domain(item, suffix)
            except InvalidDomainError as err:
                raise ParseAbortError(line_no, f"bad domain {item!r}") from err
            members.add(dom.registrable)
        if not members:
            continue
        gid = len(groups)
        for m in sorted(members):
            if m in index:
                raise ParseAbortError(line_no, f"{m} in two groups")
            index[m] = gid
        groups.append(frozenset(members))
    return AliasGroups(groups=tuple(groups), index=index)
