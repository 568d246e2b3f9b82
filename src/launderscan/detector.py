"""Placement-laundering detector.

Pipeline: index every (domain, server IP) observation in a time window,
select candidate domains (high-reputation domains resolving to several IPs
across at least two ISPs), flag (IP, ISP) pairs serving at least
``flag_threshold`` candidate domains, then label each flagged pair from the
process names seen on its traffic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .ingest import MalwareProcessList, RankedDomainList
from .ipattr import IpAttributionTable, ip_to_u32
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
    """Transposed views of domain↔IP resolutions observed inside a window.

    by_domain and by_ip are mutually consistent: (d, ip) appears in one iff
    it appears in the other.
    """

    window: tuple[int, int]
    by_domain: dict[str, set[tuple[str, Optional[str]]]] = field(default_factory=dict)
    by_ip: dict[str, set[str]] = field(default_factory=dict)
    ip_isp: dict[str, Optional[str]] = field(default_factory=dict)
    unknown_isp_ips: set[str] = field(default_factory=set)
    ip_record_count: Counter = field(default_factory=Counter)
    records_seen: int = 0
    skipped_out_of_window: int = 0
    bad_domain_records: int = 0

    def merge(self, other: "DomainResolutionIndex") -> "DomainResolutionIndex":
        """Combine two shards of the same window (set unions, count sums)."""
        if other.window != self.window:
            raise ValueError("cannot merge indexes over different windows")
        out = DomainResolutionIndex(window=self.window)
        for src in (self, other):
            for d, pairs in src.by_domain.items():
                out.by_domain.setdefault(d, set()).update(pairs)
            for ip, doms in src.by_ip.items():
                out.by_ip.setdefault(ip, set()).update(doms)
            out.ip_isp.update(src.ip_isp)
            out.unknown_isp_ips.update(src.unknown_isp_ips)
            out.ip_record_count.update(src.ip_record_count)
            out.records_seen += src.records_seen
            out.skipped_out_of_window += src.skipped_out_of_window
            out.bad_domain_records += src.bad_domain_records
        return out


def build_resolution_index(
    records: Sequence[HttpRecord],
    table: IpAttributionTable,
    window: tuple[int, int],
) -> DomainResolutionIndex:
    """Index domain→IP resolutions for records inside [window[0], window[1])."""
    idx = DomainResolutionIndex(window=window)
    start, end = window
    dom_ips: dict[str, set[str]] = idx.by_ip  # ip -> domains, built directly
    for rec in records:
        if not (start <= rec.timestamp < end):
            idx.skipped_out_of_window += 1
            continue
        if rec.domain is None:
            idx.bad_domain_records += 1
            continue
        dom = rec.domain.registrable
        idx.records_seen += 1
        idx.ip_record_count[rec.server_ip] += 1
        doms = dom_ips.get(rec.server_ip)
        if doms is None:
            dom_ips[rec.server_ip] = {dom}
        else:
            doms.add(dom)
    # one batch ISP resolution over the distinct IPs
    ips = sorted(dom_ips)
    if ips:
        arr = np.fromiter((ip_to_u32(s) for s in ips), dtype=np.uint32, count=len(ips))
        owners = table.lookup_batch(arr)
        names = table.isp_names()
        for ip, owner in zip(ips, owners):
            isp = names[owner] if owner >= 0 else None
            idx.ip_isp[ip] = isp
            if isp is None:
                idx.unknown_isp_ips.add(ip)
    for ip, doms in dom_ips.items():
        isp = idx.ip_isp[ip]
        for d in doms:
            idx.by_domain.setdefault(d, set()).add((ip, isp))
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
    out = set()
    for dom, pairs in index.by_domain.items():
        if dom not in high_value:
            continue
        if len({ip for ip, _ in pairs}) < cfg.min_ips_per_domain:
            continue
        isps = {isp for _, isp in pairs if isp is not None}
        if len(isps) >= cfg.min_isps_per_domain:
            out.add(dom)
    return frozenset(out)


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
    records: Sequence[HttpRecord],
    malware: MalwareProcessList,
    window: Optional[tuple[int, int]] = None,
) -> list[Detection]:
    """Attach traffic evidence and a label to each flagged pair.

    A pair is TruePositiveCandidate when any process name on its matching
    traffic is on the malware list, Suspicious when any process name is empty
    or whitespace-only, else Unlabeled.
    """
    by_ip: dict[str, tuple[tuple[str, str], frozenset[str]]] = {
        key[0]: (key, doms) for key, doms in flagged.items()
    }
    procs: dict[tuple[str, str], Counter] = {k: Counter() for k in flagged}
    machines: dict[tuple[str, str], set[str]] = {k: set() for k in flagged}
    counts: dict[tuple[str, str], int] = {k: 0 for k in flagged}
    for rec in records:
        hit = by_ip.get(rec.server_ip)
        if hit is None:
            continue
        if window is not None and not (window[0] <= rec.timestamp < window[1]):
            continue
        key, doms = hit
        if rec.domain is None or rec.domain.registrable not in doms:
            continue
        procs[key][rec.process_name] += 1
        machines[key].add(rec.machine_id)
        counts[key] += 1
    out = []
    for key, doms in flagged.items():
        names = procs[key]
        if any(malware.matches(n) for n in names):
            label = LABEL_TRUE_POSITIVE
        elif any(n.strip() == "" for n in names):
            label = LABEL_SUSPICIOUS
        else:
            label = LABEL_UNLABELED
        out.append(
            Detection(
                ip=key[0],
                isp=key[1],
                domains=doms,
                process_names=tuple(sorted(names.items())),
                machine_ids=frozenset(machines[key]),
                request_count=counts[key],
                label=label,
            )
        )
    out.sort(key=lambda d: (-d.request_count, d.ip, d.isp))
    return out


@dataclass(frozen=True, slots=True)
class DetectionReport:
    window: tuple[int, int]
    config: DetectorConfig
    detections: tuple[Detection, ...]
    diagnostics: dict

    def to_json_dict(self) -> dict:
        return {
            "window": list(self.window),
            "config": {
                "high_value_cutoff": self.config.high_value_cutoff,
                "min_ips_per_domain": self.config.min_ips_per_domain,
                "min_isps_per_domain": self.config.min_isps_per_domain,
                "flag_threshold": self.config.flag_threshold,
            },
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
    """Run the full pipeline over one window."""
    index = build_resolution_index(records, table, window)
    cands = candidate_domains(index, ranking, cfg)
    flagged = flag_pairs(index, cands, cfg)
    detections = label_detections(flagged, records, malware, window)
    affected = set()
    unknown_records = 0
    for ip in index.unknown_isp_ips:
        unknown_records += index.ip_record_count[ip]
    for d in detections:
        affected.update(d.domains)
    labels = Counter(d.label for d in detections)
    diagnostics = {
        "records_seen": index.records_seen,
        "out_of_window": index.skipped_out_of_window,
        "bad_domain_records": index.bad_domain_records,
        "distinct_ips": len(index.by_ip),
        "unknown_isp_ips": len(index.unknown_isp_ips),
        "unknown_isp_records": unknown_records,
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
