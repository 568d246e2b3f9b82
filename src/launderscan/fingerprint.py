"""Scheme characterization: per-detection feature profiles, rule-based
grouping into schemes, the domain-set Jaccard matrix, and repeat-cycle
detection for machine request sequences.

Grouping is an aid, not an oracle: final scheme attribution stays with the
analyst, and reports say so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import kernels
from .detector import Detection
from .model import DAY_MS, PublicSuffixSet, is_malformed_domain
# Not called here: records carry their domain from ingest.  chainbench/tracer.py
# counts normalize_domain calls under this module's name, so the import
# stays until that benchmark changes.
from .model import normalize_domain  # noqa: F401
from .urlrules import MalformedSignalError, check_spoof_query

FLAG_SPOOF_QUERY = "SpoofQueryFields"
FLAG_MALFORMED = "MalformedDomains"
FLAG_EMPTY_PROC = "EmptyProcessName"
FLAG_REPEAT_CYCLE = "RepeatCycle"

# record share of malformed hosts on a pair's traffic before the flag fires
MALFORMED_SHARE_THRESHOLD = 0.05
# a machine's traffic repeats when at least CYCLE_MIN_LEN events recur, each
# within CYCLE_TOLERANCE_MS of its place one period later
CYCLE_TOLERANCE_MS = 60_000
CYCLE_MIN_LEN = 5


def jaccard(a: set | frozenset, b: set | frozenset) -> float:
    """|A∩B| / |A∪B|.  Undefined (raises) when both sets are empty."""
    if not a and not b:
        raise ValueError("jaccard undefined for two empty sets")
    return len(a & b) / len(a | b)


@dataclass(frozen=True, slots=True)
class SchemeProfile:
    """One scheme's footprint: domain set plus distinguishing features.

    Frozen, like every value type in the toolkit: merging and naming build
    new profiles.  Sets are kept (not just counts) so profiles can be
    merged; their sizes are the summary-table columns.
    """

    label: str
    domains: frozenset[str]
    process_names: frozenset[str]
    isps: frozenset[str]
    ips: frozenset[str]
    machines: frozenset[str]
    days: frozenset[int]
    request_count: int
    signature_flags: frozenset[str]


def detect_repeat_cycle(
    events: Sequence[tuple[int, str]],
    tolerance_ms: int,
    min_len: int,
) -> Optional[int]:
    """Smallest period at which one machine's (timestamp, domain) sequence
    repeats itself: the event block in [t, t+p) must recur element-wise in
    [t+p, t+2p) with per-event offsets within tolerance, over at least
    min_len events."""
    if min_len < 3:
        raise ValueError("min_len must be >= 3")
    if len(events) < 2 * min_len:
        return None
    ts = [e[0] for e in events]
    if any(a > b for a, b in zip(ts, ts[1:])):
        raise ValueError("events must be sorted by timestamp")
    p = kernels.find_repeat_period(ts, [e[1] for e in events], tolerance_ms, min_len)
    return None if p < 0 else p


def extract_features(
    detections: Sequence[Detection],
    records: Sequence[tuple],
    suffix: PublicSuffixSet,
) -> list[SchemeProfile]:
    """Profile each of ``detections``, all of one IP, in order, from
    ``records``: all the trace records that hit that IP, read once for all.
    Each record is an http line's fields as ``ingest.load_trace`` passes
    them, ``(ts, machine, proc, url, domain, ref, ip)``.

    Feature extraction deliberately looks at the IP's full traffic (not just
    the flagged domains): malformed-domain requests and ad-call URLs land on
    the same infrastructure but never enter the high-value domain set.
    """
    procs: set[str] = set()
    days: set[int] = set()
    malformed = 0
    dom_counts: dict[str, int] = {}
    spoof = False
    per_machine: dict[str, list[tuple[int, str]]] = {}
    for ts, machine, proc, url, dom, _, _ in records:
        procs.add(proc)
        days.add(ts // DAY_MS)
        if not spoof:
            try:
                spoof = check_spoof_query(url, suffix) is not None
            except MalformedSignalError:
                spoof = True
        if dom is None:
            malformed += 1
            continue
        dom_counts[dom] = dom_counts.get(dom, 0) + 1
        per_machine.setdefault(machine, []).append((ts, dom))
    malformed += sum(n for dom, n in dom_counts.items() if is_malformed_domain(dom, suffix))
    flags = set()
    if spoof:
        flags.add(FLAG_SPOOF_QUERY)
    if records and malformed / len(records) >= MALFORMED_SHARE_THRESHOLD:
        flags.add(FLAG_MALFORMED)
    if any(p.strip() == "" for p in procs):
        flags.add(FLAG_EMPTY_PROC)
    for events in per_machine.values():
        events.sort()
        if detect_repeat_cycle(events, CYCLE_TOLERANCE_MS, CYCLE_MIN_LEN) is not None:
            flags.add(FLAG_REPEAT_CYCLE)
            break
    return [
        SchemeProfile(
            label=f"{d.ip}|{d.isp}",
            domains=d.domains,
            process_names=frozenset(procs),
            isps=frozenset({d.isp}),
            ips=frozenset({d.ip}),
            machines=d.machine_ids,
            days=frozenset(days),
            request_count=d.request_count,
            signature_flags=frozenset(flags),
        )
        for d in detections
    ]


def _mergeable(a: SchemeProfile, b: SchemeProfile, feature_agreement: float) -> bool:
    if not (a.isps & b.isps):
        return False
    if not ((a.process_names & b.process_names) or a.signature_flags == b.signature_flags):
        return False
    if feature_agreement > 0.0:
        if not a.domains and not b.domains:
            return False
        return jaccard(a.domains, b.domains) >= feature_agreement
    return True


def _merge(a: SchemeProfile, b: SchemeProfile) -> SchemeProfile:
    return SchemeProfile(
        label=min(a.label, b.label),
        domains=a.domains | b.domains,
        process_names=a.process_names | b.process_names,
        isps=a.isps | b.isps,
        ips=a.ips | b.ips,
        machines=a.machines | b.machines,
        days=a.days | b.days,
        request_count=a.request_count + b.request_count,
        signature_flags=a.signature_flags | b.signature_flags,
    )


def group_detections(
    profiles: Sequence[SchemeProfile],
    feature_agreement: float = 0.0,
) -> list[SchemeProfile]:
    """Merge per-detection profiles into schemes.

    Two profiles merge when they share an ISP and either share a process name
    or carry identical signature flags; feature_agreement > 0 additionally
    requires that level of domain-set Jaccard overlap.  Passes repeat until
    no merge fires, so grouping its own output is a no-op.
    """
    current = sorted(profiles, key=lambda p: p.label)
    changed = True
    while changed:
        changed = False
        merged: list[SchemeProfile] = []
        for prof in current:
            target = None
            for i, existing in enumerate(merged):
                if _mergeable(existing, prof, feature_agreement):
                    target = i
                    break
            if target is None:
                merged.append(prof)
            else:
                merged[target] = _merge(merged[target], prof)
                changed = True
        current = sorted(merged, key=lambda p: p.label)
    return current


@dataclass(frozen=True, slots=True)
class JaccardMatrix:
    labels: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]  # full symmetric matrix

    def to_csv_lines(self) -> list[str]:
        """Upper triangle filled, lower triangle '-', like a published
        similarity table."""
        lines = ["," + ",".join(self.labels)]
        for i, lab in enumerate(self.labels):
            cells = []
            for j in range(len(self.labels)):
                cells.append("-" if j < i else f"{self.values[i][j]:.2f}")
            lines.append(lab + "," + ",".join(cells))
        return lines


def jaccard_matrix(profiles: Sequence[SchemeProfile]) -> JaccardMatrix:
    if not profiles:
        raise ValueError("no profiles")
    for p in profiles:
        if not p.domains:
            raise ValueError(f"profile {p.label} has an empty domain set")
    labels = tuple(p.label for p in profiles)
    n = len(profiles)
    vals = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = jaccard(profiles[i].domains, profiles[j].domains)
            vals[i][j] = v
            vals[j][i] = v
    return JaccardMatrix(labels=labels, values=tuple(tuple(row) for row in vals))


def profile_csv_rows(profiles: Sequence[SchemeProfile], first_members: Sequence[str]) -> list[list]:
    """A header, then one row per profile, ending in its entry of ``first_members``."""
    rows = [["label", "isps", "ips", "days_seen", "top2k_domains", "machines", "avg_daily_requests",
             "flags", "first_member"]]
    for p, first in zip(profiles, first_members, strict=True):
        rows.append(
            [
                p.label,
                len(p.isps),
                len(p.ips),
                len(p.days),
                len(p.domains),
                len(p.machines),
                f"{p.request_count / len(p.days) if p.days else 0.0:.2f}",
                ";".join(sorted(p.signature_flags)),
                first,
            ]
        )
    return rows
