"""Per-machine reconciliation of attributed ad impressions against publisher
visits: an impression is "missing" when the machine never visited the
attributed domain (or an alias sibling) inside the session lookback window
ending at the impression.  One pass covers any time range: a visit counts
for an impression by its distance from it alone, never by calendar day."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .ingest import AliasGroups
from .model import DAY_MS


@dataclass(frozen=True, slots=True)
class SessionPolicy:
    lookback_ms: int = DAY_MS
    alias: AliasGroups = field(default_factory=AliasGroups.empty)

    def __post_init__(self):
        if self.lookback_ms <= 0:
            raise ValueError("lookback_ms must be > 0")


def attributed_ads(
    impressions: dict[str, list[tuple[int, str]]], start: int, end: int
) -> dict[str, list[tuple[int, str]]]:
    """Each machine's ``(ts, domain)`` impressions inside [start, end) (ms),
    time-ordered; a machine with none there is left out."""
    out: dict[str, list[tuple[int, str]]] = {}
    for machine, events in impressions.items():
        kept = [e for e in events if start <= e[0] < end]
        if kept:
            kept.sort()
            out[machine] = kept
    return out


@dataclass(slots=True)
class VisitIndex:
    """Publisher visits queryable as: did this machine view this domain (or a
    sibling) within the lookback ending at ts?"""

    policy: SessionPolicy
    _times: dict[tuple[str, str], list[int]]  # (machine, group key) -> sorted view times

    def visited(self, machine: str, registrable: str, ts: int) -> bool:
        times = self._times.get((machine, self.policy.alias.group_key(registrable)))
        if not times:
            return False
        lo = bisect_left(times, ts - self.policy.lookback_ms)
        hi = bisect_right(times, ts)
        return hi > lo


def publisher_visits(pageviews: dict[tuple[str, str], list[int]], policy: SessionPolicy) -> VisitIndex:
    """Index ``pageviews``, each ``(machine, domain)``'s view times, by
    machine and alias group.  The dict becomes the index: a key whose domain
    is in an alias group moves to its group key, and every list is sorted."""
    for machine, dom in [k for k in pageviews if k[1] in policy.alias.index]:
        times = pageviews.pop((machine, dom))
        pageviews.setdefault((machine, policy.alias.group_key(dom)), []).extend(times)
    for times in pageviews.values():
        times.sort()
    return VisitIndex(policy, pageviews)


@dataclass(frozen=True, slots=True)
class AdStat:
    """Attributed impressions, and how many of them had no qualifying visit,
    of one domain or one machine."""

    attributed: int
    missing: int

    @property
    def fraction(self) -> float:
        return self.missing / self.attributed if self.attributed else 0.0


@dataclass(frozen=True, slots=True)
class MisattributionTable:
    per_domain: dict[str, AdStat]
    per_machine: dict[str, AdStat]
    missing_events: dict[str, tuple[tuple[int, str], ...]]  # machine -> time-ordered (ts, domain)


def misattribution_table(
    ads: dict[str, list[tuple[int, str]]],
    visits: VisitIndex,
) -> MisattributionTable:
    dom_attr: dict[str, int] = {}
    dom_miss: dict[str, int] = {}
    per_machine: dict[str, AdStat] = {}
    missing_events: dict[str, tuple[tuple[int, str], ...]] = {}
    for machine in sorted(ads):
        events = ads[machine]
        misses: list[tuple[int, str]] = []
        for event in events:
            ts, dom = event
            dom_attr[dom] = dom_attr.get(dom, 0) + 1
            if not visits.visited(machine, dom, ts):
                dom_miss[dom] = dom_miss.get(dom, 0) + 1
                misses.append(event)  # the ad's own tuple, not a copy
        per_machine[machine] = AdStat(attributed=len(events), missing=len(misses))
        if misses:
            missing_events[machine] = tuple(misses)
    per_domain = {
        d: AdStat(attributed=n, missing=dom_miss.get(d, 0)) for d, n in dom_attr.items()
    }
    return MisattributionTable(
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
