"""Placement-laundering detector.

Pipeline: index every (domain, server IP) observation in a time window,
select candidate domains (high-reputation domains resolving to several IPs
across at least two ISPs), flag (IP, ISP) pairs serving at least
``flag_threshold`` candidate domains, then label each flagged pair from the
process names seen on its traffic.  Each window is a bisected slice of the
time-ordered records, scanned once; labels read their records from the index.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import asdict, dataclass, field
from operator import attrgetter
from typing import Optional, Sequence

from .ingest import MalwareProcessList, RankedDomainList
from .ipattr import IpAttributionTable
from .model import HttpRecord
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


@dataclass(slots=True)
class DomainResolutionIndex:
    """The domains each server IP resolved inside a window, each IP's ISP
    (None when the ip map has none), and each IP's in-window records that
    have a domain, in time order: the evidence its labels are read from."""

    by_ip: dict[str, set[str]] = field(default_factory=dict)
    ip_isp: dict[str, Optional[str]] = field(default_factory=dict)
    ip_records: dict[str, list[HttpRecord]] = field(default_factory=dict)
    records_seen: int = 0
    skipped_out_of_window: int = 0
    bad_domain_records: int = 0


def build_resolution_index(
    records: Sequence[HttpRecord],
    table: IpAttributionTable,
    window: tuple[int, int],
) -> DomainResolutionIndex:
    """Index domain→IP resolutions for the records in [window[0], window[1]), a
    bisected slice: ``records`` must be in time order, as load_trace gives them."""
    idx = DomainResolutionIndex()
    lo = bisect_left(records, window[0], key=attrgetter("timestamp"))
    hi = bisect_left(records, window[1], lo, key=attrgetter("timestamp"))
    idx.skipped_out_of_window = len(records) - (hi - lo)
    for i in range(lo, hi):  # not islice, which steps through records[:lo] too
        rec = records[i]
        if rec.domain is None:
            idx.bad_domain_records += 1
            continue
        idx.records_seen += 1
        idx.ip_records.setdefault(rec.server_ip, []).append(rec)
        idx.by_ip.setdefault(rec.server_ip, set()).add(rec.domain)
    # one batch ISP resolution over the distinct IPs
    ips = list(idx.by_ip)
    idx.ip_isp = dict(zip(ips, table.lookup_batch(ips)))
    return idx


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
    for ip, doms in index.by_ip.items():
        isp = index.ip_isp[ip]
        for dom in doms & high_value:
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
    for ip, doms in index.by_ip.items():
        isp = index.ip_isp.get(ip)
        if isp is None:
            continue
        hits = doms & candidates
        if len(hits) >= cfg.flag_threshold:
            flagged[(ip, isp)] = frozenset(hits)
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
    in-window records in ``index`` whose domain is in the pair's set.

    A pair is TruePositiveCandidate when any process name on its matching
    traffic is on the malware list, Suspicious when any process name is empty
    or whitespace-only, else Unlabeled.
    """
    out = []
    for (ip, isp), doms in flagged.items():
        matching = [rec for rec in index.ip_records[ip] if rec.domain in doms]
        names = Counter(rec.process_name for rec in matching)
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
                machine_ids=frozenset(rec.machine_id for rec in matching),
                request_count=len(matching),
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
    records: Sequence[HttpRecord],
    table: IpAttributionTable,
    ranking: RankedDomainList,
    malware: MalwareProcessList,
    cfg: DetectorConfig,
    window: tuple[int, int],
) -> DetectionReport:
    """Run the full pipeline over one window of time-ordered ``records``."""
    index = build_resolution_index(records, table, window)
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
        "distinct_ips": len(index.by_ip),
        "unknown_isp_ips": len(unknown_isp_ips),
        "unknown_isp_records": sum(len(index.ip_records[ip]) for ip in unknown_isp_ips),
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
