"""Per-machine reconciliation of attributed ad impressions against publisher
visits, one UTC day at a time: an impression is "missing" when the machine
never visited the attributed domain (or an alias sibling) inside the session
lookback window ending at the impression."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .ingest import AliasGroups
from .model import DAY_MS, ImpressionRecord, PageViewRecord


@dataclass(frozen=True, slots=True)
class SessionPolicy:
    lookback_ms: int = DAY_MS
    alias: AliasGroups = field(default_factory=AliasGroups.empty)

    def __post_init__(self):
        if self.lookback_ms <= 0:
            raise ValueError("lookback_ms must be > 0")


def attributed_ads(
    impressions: Sequence[ImpressionRecord], day: int, end: Optional[int] = None
) -> dict[str, list[tuple[int, str]]]:
    """Impressions inside [day, end) (ms; by default the day starting at
    ``day``), grouped by machine and time-ordered."""
    lo, hi = day, day + DAY_MS if end is None else end
    out: dict[str, list[tuple[int, str]]] = {}
    for imp in impressions:
        if lo <= imp.timestamp < hi:
            out.setdefault(imp.machine_id, []).append(
                (imp.timestamp, imp.attributed_domain.registrable)
            )
    for ads in out.values():
        ads.sort()
    return out


@dataclass(slots=True)
class VisitIndex:
    """Publisher visits queryable as: did this machine view this domain (or a
    sibling) within the lookback ending at ts?"""

    policy: SessionPolicy
    day: int
    _times: dict[tuple[str, str], list[int]] = field(default_factory=dict)

    def add(self, machine: str, registrable: str, ts: int):
        key = (machine, self.policy.alias.group_key(registrable))
        self._times.setdefault(key, []).append(ts)

    def seal(self):
        for times in self._times.values():
            times.sort()

    def visited(self, machine: str, registrable: str, ts: int) -> bool:
        times = self._times.get((machine, self.policy.alias.group_key(registrable)))
        if not times:
            return False
        lo = bisect_left(times, ts - self.policy.lookback_ms)
        hi = bisect_right(times, ts)
        return hi > lo


def publisher_visits(
    pageviews: Sequence[PageViewRecord], day: int, policy: SessionPolicy
) -> VisitIndex:
    """Index page views that can legitimize this day's impressions, including
    previous-day views still inside the lookback."""
    index = VisitIndex(policy=policy, day=day)
    lo, hi = day - policy.lookback_ms, day + DAY_MS
    for pv in pageviews:
        if lo <= pv.timestamp < hi:
            index.add(pv.machine_id, pv.publisher_domain.registrable, pv.timestamp)
    index.seal()
    return index


@dataclass(frozen=True, slots=True)
class DomainStat:
    attributed: int
    missing: int

    @property
    def fraction(self) -> float:
        return self.missing / self.attributed if self.attributed else 0.0


@dataclass(frozen=True, slots=True)
class MachineStat:
    attributed: int
    missing: int


@dataclass(frozen=True, slots=True)
class MisattributionTable:
    day: int
    per_domain: dict[str, DomainStat]
    per_machine: dict[str, MachineStat]
    missing_events: dict[str, tuple[tuple[int, str], ...]]  # machine -> (ts, domain)

    def total_attributed(self) -> int:
        return sum(s.attributed for s in self.per_domain.values())


def misattribution_table(
    ads: dict[str, list[tuple[int, str]]],
    visits: VisitIndex,
    policy: SessionPolicy,
) -> MisattributionTable:
    dom_attr: dict[str, int] = {}
    dom_miss: dict[str, int] = {}
    per_machine: dict[str, MachineStat] = {}
    missing_events: dict[str, tuple[tuple[int, str], ...]] = {}
    for machine in sorted(ads):
        events = ads[machine]
        misses: list[tuple[int, str]] = []
        for ts, dom in events:
            dom_attr[dom] = dom_attr.get(dom, 0) + 1
            if not visits.visited(machine, dom, ts):
                dom_miss[dom] = dom_miss.get(dom, 0) + 1
                misses.append((ts, dom))
        per_machine[machine] = MachineStat(attributed=len(events), missing=len(misses))
        if misses:
            missing_events[machine] = tuple(misses)
    per_domain = {
        d: DomainStat(attributed=n, missing=dom_miss.get(d, 0)) for d, n in dom_attr.items()
    }
    return MisattributionTable(
        day=visits.day,
        per_domain=per_domain,
        per_machine=per_machine,
        missing_events=missing_events,
    )


def rank_machines(table: MisattributionTable, min_ads: int) -> list[str]:
    """Machines with at least min_ads attributed impressions, most missing
    first; ties break toward higher volume then lexical machine id."""
    rows = [
        (machine, stat)
        for machine, stat in table.per_machine.items()
        if stat.attributed >= min_ads
    ]
    rows.sort(key=lambda kv: (-kv[1].missing, -kv[1].attributed, kv[0]))
    return [machine for machine, _ in rows]
