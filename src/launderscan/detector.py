"""Placement-laundering detector.

Pipeline: index every (domain, server IP) observation in a time window,
select candidate domains (high-reputation domains resolving to several IPs
across at least two ISPs), flag (IP, ISP) pairs serving at least
``flag_threshold`` candidate domains, then label each flagged pair from the
process names seen on its traffic.  No record is kept: ``WindowTallies``
folds each http record, as the trace streams, into its window's
``DomainResolutionIndex`` of requests per process name and machines per
(server IP, domain), and each stage reads those indexes.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

from .ingest import MalwareProcessList, RankedDomainList
from .ipattr import IpAttributionTable
from .model import DAY_MS
# Not called here: records carry their domain from ingest.  chainbench/tracer.py
# counts normalize_domain calls under this module's name, and
# chainbench/test_chainbench.py checks that it can, so the import stays until
# that benchmark changes.
from .model import normalize_domain  # noqa: F401

LABEL_TRUE_POSITIVE = "TruePositiveCandidate"
LABEL_SUSPICIOUS = "Suspicious"
LABEL_UNLABELED = "Unlabeled"


@dataclass(frozen=True, slots=True)
class DetectorConfig:
    high_value_cutoff: int = 2000
    min_ips_per_domain: int = 2
    min_isps_per_domain: int = 2
    flag_threshold: int = 20

    def __post_init__(self):
        for name in ("high_value_cutoff", "min_ips_per_domain", "min_isps_per_domain", "flag_threshold"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.flag_threshold < self.min_ips_per_domain:
            raise ValueError("flag_threshold must be >= min_ips_per_domain")


# One (server IP, domain)'s requests in a window: the count per process
# name, and the machines that made them.
Evidence = tuple[dict[str, int], set[str]]


@dataclass(slots=True)
class DomainResolutionIndex:
    """One window's view of its http records: the evidence of each server
    IP's requests for each domain it resolved (candidates and flags read the
    domains, labels the evidence), each IP's ISP (None when the ip map has
    none), and how many records had a domain, had none, or fell outside the
    window."""

    ip_isp: dict[str, Optional[str]] = field(default_factory=dict)
    evidence: dict[str, dict[str, Evidence]] = field(default_factory=dict)
    records_seen: int = 0
    skipped_out_of_window: int = 0
    bad_domain_records: int = 0


class WindowTallies:
    """A ``load_trace`` consumer that tallies each http record's fields into
    its window's ``DomainResolutionIndex`` and keeps no record.  Given
    ``windows`` (sorted, each ending where the next starts), a record belongs
    to the one that holds its timestamp, or to none; without, to its UTC
    day."""

    __slots__ = ("edges", "by_key", "outside")

    def __init__(self, windows: Sequence[tuple[int, int]] = ()):
        self.edges = [w[0] for w in windows] + [windows[-1][1]] if windows else None
        self.by_key: dict[int, DomainResolutionIndex] = {}  # window index, or UTC day
        self.outside = 0  # records in no window

    def __call__(self, ts: int, machine: str, proc: str, url: str, dom: Optional[str],
                 ref: Optional[str], ip: str):
        edges = self.edges
        if edges is None:
            key = ts // DAY_MS
        elif edges[0] <= ts < edges[-1]:
            key = bisect_right(edges, ts) - 1
        else:
            self.outside += 1
            return
        index = self.by_key.get(key)
        if index is None:
            index = self.by_key[key] = DomainResolutionIndex()
        if dom is None:
            index.bad_domain_records += 1
            return
        doms = index.evidence.get(ip)
        if doms is None:
            doms = index.evidence[ip] = {}
        evidence = doms.get(dom)
        if evidence is None:
            evidence = doms[dom] = ({}, set())
        procs, machines = evidence
        procs[proc] = procs.get(proc, 0) + 1
        machines.add(machine)

    def day_span(self) -> Optional[tuple[int, int]]:
        """Without ``windows``: the UTC days from the first record's to the
        last's; None for no records."""
        if not self.by_key:
            return None
        return min(self.by_key) * DAY_MS, (max(self.by_key) + 1) * DAY_MS

    def per_window(self, windows: Sequence[tuple[int, int]]) -> list[DomainResolutionIndex]:
        """The index of each of ``windows``: those given at construction, or
        UTC days, with its records counted.  Each counts every record outside
        it as out of window."""
        for index in self.by_key.values():
            index.records_seen = _requests(index.evidence.values())
        total = self.outside + sum(i.bad_domain_records + i.records_seen for i in self.by_key.values())
        out = []
        for i, (start, _) in enumerate(windows):
            key = i if self.edges is not None else start // DAY_MS
            index = self.by_key.get(key) or DomainResolutionIndex()
            index.skipped_out_of_window = total - index.bad_domain_records - index.records_seen
            out.append(index)
        return out


def _requests(by_domain) -> int:
    """The requests in the evidence of each of ``by_domain``'s values (one
    IP's, or a window's, domain → evidence maps)."""
    return sum(sum(procs.values()) for doms in by_domain for procs, _ in doms.values())


def build_resolution_index(index: DomainResolutionIndex, table: IpAttributionTable) -> DomainResolutionIndex:
    """Fill ``index.ip_isp`` in place with the ISP of each server IP in one
    window's ``index``, in one batch.  Returns ``index`` itself, not a copy."""
    ips = list(index.evidence)
    index.ip_isp = dict(zip(ips, table.lookup_batch(ips)))
    return index


def candidate_domains(
    index: DomainResolutionIndex,
    ranking: RankedDomainList,
    cfg: DetectorConfig,
) -> frozenset[str]:
    """High-value domains resolving to >= min_ips distinct IPs spanning
    >= min_isps distinct known ISPs (unknown-ISP IPs count toward the IP
    minimum only)."""
    high_value = ranking.high_value_at(cfg.high_value_cutoff)
    ip_counts: Counter = Counter()
    isps: dict[str, set[str]] = {}
    for ip, doms in index.evidence.items():
        isp = index.ip_isp[ip]
        for dom in high_value.intersection(doms):
            ip_counts[dom] += 1
            if isp is not None:
                isps.setdefault(dom, set()).add(isp)
    return frozenset(
        dom for dom, n in ip_counts.items()
        if n >= cfg.min_ips_per_domain and len(isps.get(dom, ())) >= cfg.min_isps_per_domain
    )


def flag_pairs(
    index: DomainResolutionIndex,
    candidates: frozenset[str],
    cfg: DetectorConfig,
) -> dict[tuple[str, str], frozenset[str]]:
    """(ip, isp) pairs whose IP served >= flag_threshold candidate domains.
    IPs without a known ISP are never flagged."""
    flagged = {}
    for ip, doms in index.evidence.items():
        isp = index.ip_isp.get(ip)
        if isp is None:
            continue
        hits = candidates.intersection(doms)
        if len(hits) >= cfg.flag_threshold:
            flagged[(ip, isp)] = hits
    return flagged


@dataclass(frozen=True, slots=True)
class Detection:
    ip: str
    isp: str
    domains: frozenset[str]
    process_names: tuple[tuple[str, int], ...]  # (name, count), sorted
    machine_ids: frozenset[str]
    request_count: int
    label: str


def label_detections(
    flagged: dict[tuple[str, str], frozenset[str]],
    index: DomainResolutionIndex,
    malware: MalwareProcessList,
) -> list[Detection]:
    """Attach traffic evidence and a label to each flagged pair, from its IP's
    evidence in ``index`` for the domains in the pair's set.

    A pair is TruePositiveCandidate when any process name on its matching
    traffic is on the malware list, Suspicious when any process name is empty
    or whitespace-only, else Unlabeled.
    """
    out = []
    for (ip, isp), doms in flagged.items():
        names: Counter = Counter()
        machines: set[str] = set()
        for dom, (procs, seen) in index.evidence[ip].items():
            if dom in doms:
                names.update(procs)
                machines |= seen
        if any(malware.matches(n) for n in names):
            label = LABEL_TRUE_POSITIVE
        elif any(n.strip() == "" for n in names):
            label = LABEL_SUSPICIOUS
        else:
            label = LABEL_UNLABELED
        out.append(
            Detection(
                ip=ip,
                isp=isp,
                domains=doms,
                process_names=tuple(sorted(names.items())),
                machine_ids=frozenset(machines),
                request_count=sum(names.values()),
                label=label,
            )
        )
    out.sort(key=lambda d: (-d.request_count, d.ip, d.isp))
    return out


CSV_HEADER = ("window_start", "window_end", "ip", "isp", "domain_count", "request_count", "label")


@dataclass(frozen=True, slots=True)
class DetectionReport:
    window: tuple[int, int]
    config: DetectorConfig
    detections: tuple[Detection, ...]
    diagnostics: dict

    def to_json_dict(self) -> dict:
        return {
            "window": list(self.window),
            "config": asdict(self.config),
            "detections": [
                {
                    "ip": d.ip,
                    "isp": d.isp,
                    "domain_count": len(d.domains),
                    "domains": sorted(d.domains),
                    "process_names": {n: c for n, c in d.process_names},
                    "machine_count": len(d.machine_ids),
                    "machine_ids": sorted(d.machine_ids),
                    "request_count": d.request_count,
                    "label": d.label,
                }
                for d in self.detections
            ],
            "diagnostics": dict(sorted(self.diagnostics.items())),
        }

    def csv_rows(self) -> list[list]:
        """One row per detection, in the order of ``CSV_HEADER``."""
        return [
            [self.window[0], self.window[1], d.ip, d.isp, len(d.domains), d.request_count, d.label]
            for d in self.detections
        ]


def detect(
    index: DomainResolutionIndex,
    table: IpAttributionTable,
    ranking: RankedDomainList,
    malware: MalwareProcessList,
    cfg: DetectorConfig,
    window: tuple[int, int],
) -> DetectionReport:
    """Run the full pipeline over ``window``'s ``index``, as
    ``WindowTallies.per_window`` gives it."""
    build_resolution_index(index, table)
    cands = candidate_domains(index, ranking, cfg)
    flagged = flag_pairs(index, cands, cfg)
    detections = label_detections(flagged, index, malware)
    unknown_isp_ips = [ip for ip, isp in index.ip_isp.items() if isp is None]
    affected = set()
    for d in detections:
        affected.update(d.domains)
    labels = Counter(d.label for d in detections)
    diagnostics = {
        "records_seen": index.records_seen,
        "out_of_window": index.skipped_out_of_window,
        "bad_domain_records": index.bad_domain_records,
        "distinct_ips": len(index.evidence),
        "unknown_isp_ips": len(unknown_isp_ips),
        "unknown_isp_records": _requests(index.evidence[ip] for ip in unknown_isp_ips),
        "candidate_domains": len(cands),
        "pairs_flagged": len(flagged),
        "affected_domain_total": len(affected),
        "labels": dict(sorted(labels.items())),
    }
    return DetectionReport(
        window=window,
        config=cfg,
        detections=tuple(detections),
        diagnostics=diagnostics,
    )
