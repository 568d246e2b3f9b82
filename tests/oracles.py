"""Record-based oracles: a trace loaded into one time-ordered record list
per kind, and what detect, fingerprint and rules computed from such lists
before each stage folded the records as they streamed and kept only what its
output reads.  Hypothesis tests hold each stage's output to these, and
``panel_fold`` gives panelscan's inputs from record lists."""

import dataclasses
from bisect import bisect_left
from collections import Counter
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional

from launderscan import fingerprint as fp
from launderscan import urlrules as ur
from launderscan.cli import _windows
from launderscan.detector import (
    LABEL_SUSPICIOUS,
    LABEL_TRUE_POSITIVE,
    LABEL_UNLABELED,
    Detection,
    DetectionReport,
    DomainResolutionIndex,
    candidate_domains,
    flag_pairs,
)
from launderscan.ingest import Skips, load_trace
from launderscan.model import (
    DAY_MS,
    InvalidDomainError,
    PublicSuffixSet,
    normalize_domain,
    url_host,
)


class HttpRecord(NamedTuple):
    """One http line's fields, in the order ``load_trace`` passes them to its
    http consumer and ``fingerprint.extract_features`` reads them.  Tuples
    compare field by field, and ``domain`` may be None beside a str, so
    never sort records without a ``key``."""

    timestamp: int
    machine_id: str
    process_name: str
    url: str
    domain: Optional[str]
    referrer: Optional[str]
    server_ip: str


class DomainEvent(NamedTuple):
    """An impression's or a page view's fields, in the order ``load_trace``
    passes them to its consumer: a machine met a domain at a time."""

    timestamp: int
    machine_id: str
    domain: str


def panel_fold(impressions: Iterable[DomainEvent] = (), pageviews: Iterable[DomainEvent] = ()):
    """What panelscan folds the events into as the trace streams, in the
    given order: per machine its ``(ts, domain)`` impressions, and per
    ``(machine, domain)`` its page-view times.  ``panel.attributed_ads``
    takes the first and ``panel.publisher_visits`` the second."""
    ads: dict[str, list[tuple[int, str]]] = {}
    views: dict[tuple[str, str], list[int]] = {}
    for ts, machine, dom in impressions:
        ads.setdefault(machine, []).append((ts, dom))
    for ts, machine, dom in pageviews:
        views.setdefault((machine, dom), []).append(ts)
    return ads, views


class Records(NamedTuple):
    """A trace's records of each kind, each list in time order, and its
    skips and line count."""

    http: list[HttpRecord]
    impressions: list[DomainEvent]
    pageviews: list[DomainEvent]
    skipped: Skips
    total_lines: int


def load_records(lines: Iterable[str], suffix: PublicSuffixSet, strict: bool = False) -> Records:
    """``load_trace``'s records of every kind, each list stable-sorted by
    timestamp (equal timestamps keep file order)."""
    http, impressions, pageviews = [], [], []
    result = load_trace(lines, suffix, strict,
                        http=lambda *fields: http.append(HttpRecord(*fields)),
                        impression=lambda *fields: impressions.append(DomainEvent(*fields)),
                        pageview=lambda *fields: pageviews.append(DomainEvent(*fields)))
    key = attrgetter("timestamp")
    return Records(sorted(http, key=key), sorted(impressions, key=key),
                   sorted(pageviews, key=key), result.skipped, result.total_lines)


def record_domain(url: str, suffix: PublicSuffixSet) -> Optional[str]:
    """The domain an http record's URL resolves to (``HttpRecord.domain``);
    None when its host does not normalize."""
    try:
        return normalize_domain(url_host(url), suffix)
    except InvalidDomainError:
        return None


def url_host_split(url):
    """``model.url_host`` written with ``str.split``, as it was before it
    took ``partition``."""
    scheme, sep, rest = url.partition("://")
    if not scheme or not sep:
        return ""
    return rest.split("/", 1)[0].split("?", 1)[0].split("#", 1)[0].rpartition("@")[2]


def followthrough_index(trace):
    """One machine's request times per (server IP, domain), read from its
    trace sorted by timestamp, so each list is sorted too."""
    index = {}
    for rec in trace:
        index.setdefault((rec.server_ip, rec.domain), []).append(rec.timestamp)
    return index


def record_windows(window, records):
    """``window``, else the UTC days the time-ordered ``records`` span, split
    at UTC midnights as detect splits them."""
    if window is None and records:
        lo, hi = records[0].timestamp, records[-1].timestamp
        window = (lo - lo % DAY_MS, hi - hi % DAY_MS + DAY_MS)
    return _windows(window)


def detect_records(records, table, ranking, malware, cfg, window) -> DetectionReport:
    """One window's report from the time-ordered ``records``: a bisected
    slice indexed with each IP's in-window records, and labels read from
    those records."""
    key = attrgetter("timestamp")
    lo = bisect_left(records, window[0], key=key)
    hi = bisect_left(records, window[1], lo, key=key)
    index = DomainResolutionIndex(skipped_out_of_window=len(records) - (hi - lo))
    ip_records = {}
    for rec in records[lo:hi]:
        if rec.domain is None:
            index.bad_domain_records += 1
            continue
        index.records_seen += 1
        ip_records.setdefault(rec.server_ip, []).append(rec)
        # candidates and flags read only the domains; labels come from records
        index.evidence.setdefault(rec.server_ip, {})[rec.domain] = None
    ips = list(index.evidence)
    index.ip_isp = dict(zip(ips, table.lookup_batch(ips)))
    cands = candidate_domains(index, ranking, cfg)
    flagged = flag_pairs(index, cands, cfg)
    detections = []
    for (ip, isp), doms in flagged.items():
        matching = [rec for rec in ip_records[ip] if rec.domain in doms]
        names = Counter(rec.process_name for rec in matching)
        if any(malware.matches(n) for n in names):
            label = LABEL_TRUE_POSITIVE
        elif any(n.strip() == "" for n in names):
            label = LABEL_SUSPICIOUS
        else:
            label = LABEL_UNLABELED
        detections.append(Detection(ip, isp, doms, tuple(sorted(names.items())),
                                    frozenset(rec.machine_id for rec in matching),
                                    len(matching), label))
    detections.sort(key=lambda d: (-d.request_count, d.ip, d.isp))
    unknown = [ip for ip, isp in index.ip_isp.items() if isp is None]
    affected = set()
    for d in detections:
        affected.update(d.domains)
    diagnostics = {
        "records_seen": index.records_seen,
        "out_of_window": index.skipped_out_of_window,
        "bad_domain_records": index.bad_domain_records,
        "distinct_ips": len(index.evidence),
        "unknown_isp_ips": len(unknown),
        "unknown_isp_records": sum(len(ip_records[ip]) for ip in unknown),
        "candidate_domains": len(cands),
        "pairs_flagged": len(flagged),
        "affected_domain_total": len(affected),
        "labels": dict(sorted(Counter(d.label for d in detections).items())),
    }
    return DetectionReport(window, cfg, tuple(detections), diagnostics)


def fingerprint_records(records, pairs, suffix, feature_agreement):
    """``profiles.csv``'s rows and ``jaccard.csv``'s lines from the
    time-ordered ``records``: each reported IP's records picked out in one
    pass, then profiled, grouped and named."""
    detections = {}
    for _, d in pairs:
        detections.setdefault(d.ip, []).append(d)
    by_ip = {ip: [] for ip in detections}
    for rec in records:
        if rec.server_ip in by_ip:
            by_ip[rec.server_ip].append(rec)
    profiles = [p for ip, ds in detections.items() for p in fp.extract_features(ds, by_ip[ip], suffix)]
    grouped = fp.group_detections(profiles, feature_agreement=feature_agreement)
    schemes = [dataclasses.replace(p, label=f"scheme-{i:02d}") for i, p in enumerate(grouped, 1)]
    rows = fp.profile_csv_rows(schemes, [p.label for p in grouped])
    return rows, fp.jaccard_matrix(schemes).to_csv_lines() if schemes else []


def rules_records(records, suffix, horizon, param):
    """The trace findings (no ``--envfp``) from the time-ordered ``records``,
    grouped by machine: every record's URL checked for a spoof signal, and
    every record with a referrer grouped by it."""
    findings = []
    by_machine = {}
    for rec in records:
        by_machine.setdefault(rec.machine_id, []).append(rec)
    for machine in sorted(by_machine):
        recs = by_machine[machine]
        index = followthrough_index(recs)
        for rec in recs:
            try:
                signal = ur.check_spoof_query(rec.url, suffix)
            except ur.MalformedSignalError as err:
                findings.append({"type": "malformed_spoof_signal", "machine": machine,
                                 "ts": rec.timestamp, "url": rec.url, "error": str(err)})
                continue
            if signal is None:
                continue
            findings.append({"type": "spoof_signal", "machine": machine, "ts": rec.timestamp,
                             "url": rec.url, "spoof_domain": signal.spoof_domain,
                             "land_ip": signal.land_ip,
                             "verified": ur.verify_spoof_followthrough(signal, rec.timestamp,
                                                                       index, horizon)})
        groups = {}
        for rec in recs:
            if rec.referrer:
                groups.setdefault(rec.referrer, []).append(rec.url)
        for ref in sorted(groups):
            check = ur.sibling_referrer_consistency(groups[ref], param, suffix)
            if not check.consistent:
                findings.append({"type": "referrer_inconsistency", "machine": machine,
                                 "context_referrer": ref, "values": sorted(check.values)})
    return findings
