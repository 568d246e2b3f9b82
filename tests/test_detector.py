import random
from collections import Counter
from collections.abc import Sequence
from operator import attrgetter

import pytest

from launderscan.cli import _windows
from launderscan.detector import (
    Detection,
    DetectorConfig,
    DomainResolutionIndex,
    LABEL_SUSPICIOUS,
    LABEL_TRUE_POSITIVE,
    LABEL_UNLABELED,
    WindowTallies,
    build_resolution_index,
    candidate_domains,
    detect,
    flag_pairs,
    label_detections,
)
from launderscan.ingest import (
    MalwareProcessList,
    RankedDomainList,
    load_ip_map,
    load_ranked_domains,
)
from launderscan.ipattr import IpAttributionTable
from launderscan.model import DAY_MS, HttpRecord, PublicSuffixSet

from conftest import DAY0, WINDOW, window_tally
from oracles import record_domain

SUFFIX = PublicSuffixSet.builtin()


def _rec(url, ip, ts=DAY0 + 1000, machine="m1", proc="chrome.exe"):
    return HttpRecord(
        timestamp=ts,
        machine_id=machine,
        process_name=proc,
        url=url,
        domain=record_domain(url, SUFFIX),
        referrer=None,
        server_ip=ip,
    )


def _ranking(domains):
    ranking, _ = load_ranked_domains(list(domains), suffix=SUFFIX)
    return ranking


def test_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(flag_threshold=0)
    with pytest.raises(ValueError):
        DetectorConfig(flag_threshold=1, min_ips_per_domain=2)
    DetectorConfig()  # defaults are valid


def test_index_single_record():
    table, _ = load_ip_map(["1.2.3.0/24,A"])
    idx = build_resolution_index(window_tally([_rec("http://example.com/x", "1.2.3.4")]), table)
    assert {ip: set(doms) for ip, doms in idx.evidence.items()} == {"1.2.3.4": {"example.com"}}
    assert idx.ip_isp == {"1.2.3.4": "a"}


def test_index_unknown_isp_still_indexed():
    table, _ = load_ip_map(["1.2.3.0/24,A"])
    idx = build_resolution_index(window_tally([_rec("http://example.com/x", "9.9.9.9")]), table)
    assert {ip: set(doms) for ip, doms in idx.evidence.items()} == {"9.9.9.9": {"example.com"}}
    assert idx.ip_isp == {"9.9.9.9": None}


def test_index_window_filter_and_counts():
    table, _ = load_ip_map(["1.2.3.0/24,A"])
    records = [
        _rec("http://a.com/", "1.2.3.4", ts=WINDOW[0]),
        _rec("http://a.com/", "1.2.3.4", ts=WINDOW[1]),  # end exclusive
        _rec("http://a.com/", "1.2.3.4", ts=WINDOW[0] - 1),
    ]
    idx = build_resolution_index(window_tally(records), table)
    assert idx.records_seen == 1
    assert idx.skipped_out_of_window == 2


def _random_records(rng, n_domains=20, n_ips=12, n=1000):
    domains = [f"d{i:02d}.com" for i in range(n_domains)]
    ips = [f"10.0.{i}.1" for i in range(n_ips)]
    return [
        _rec(
            f"http://www.{rng.choice(domains)}/p",
            rng.choice(ips),
            ts=DAY0 + rng.randrange(DAY_MS),
            machine=f"m{rng.randrange(5)}",
        )
        for _ in range(n)
    ]


def _index_from_pairs(pairs_by_domain, isp_of):
    """Hand-build an index: domain -> list of ips; isp_of maps ip -> isp or None."""
    idx = DomainResolutionIndex()
    for dom, ips in pairs_by_domain.items():
        for ip in ips:
            idx.evidence.setdefault(ip, {})[dom] = ({}, set())
            idx.ip_isp[ip] = isp_of.get(ip)
    return idx


def test_candidate_domains_rules():
    isp_of = {"1.1.1.1": "a", "1.1.1.2": "a", "2.2.2.1": "b", "9.9.9.9": None}
    idx = _index_from_pairs(
        {
            "multi.com": ["1.1.1.1", "1.1.1.2", "2.2.2.1"],  # 3 ips, isps {a,b}
            "oneisp.com": ["1.1.1.1", "1.1.1.2"],  # 2 ips, single isp
            "lowrank.com": ["1.1.1.1", "2.2.2.1"],
            "unknown.com": ["1.1.1.1", "9.9.9.9"],  # 2 ips but 1 known isp
        },
        isp_of,
    )
    ranking = _ranking(["multi.com", "oneisp.com", "unknown.com", "lowrank.com"])
    cands = candidate_domains(idx, ranking, DetectorConfig(high_value_cutoff=3))
    assert cands == {"multi.com"}


def test_flag_threshold_boundary():
    # one IP serving exactly N candidate domains, each domain also at a
    # per-domain second IP on another ISP so it qualifies as a candidate
    def build(n):
        isp_of = {"5.5.5.5": "cloud"}
        domains = {}
        for i in range(n):
            other = f"6.6.{i}.1"
            isp_of[other] = f"home{i}"
            domains[f"d{i:03d}.com"] = ["5.5.5.5", other]
        idx = _index_from_pairs(domains, isp_of)
        ranking = _ranking(sorted(domains))
        cfg = DetectorConfig()
        cands = candidate_domains(idx, ranking, cfg)
        assert len(cands) == n
        return flag_pairs(idx, cands, cfg)

    assert build(19) == {}
    flagged = build(20)
    assert set(flagged) == {("5.5.5.5", "cloud")}
    assert len(flagged[("5.5.5.5", "cloud")]) == 20


def test_flag_pairs_empty_candidates():
    idx = _index_from_pairs({"a.com": ["1.1.1.1"]}, {"1.1.1.1": "a"})
    assert flag_pairs(idx, frozenset(), DetectorConfig()) == {}


def test_candidate_domains_match_bruteforce_oracle():
    """Candidates and the unknown-ISP diagnostics, from the records alone."""
    rng = random.Random(21)
    # 10.0.10.1 and 10.0.11.1 have no ISP
    table, _ = load_ip_map([f"10.0.{i}.0/24,isp{i % 4}" for i in range(10)])
    records = _random_records(rng, n=80)  # 2 of the top 5 domains qualify, 9 of all 20
    ranking = _ranking([f"d{i:02d}.com" for i in range(20)])
    idx = build_resolution_index(window_tally(records), table)
    ips_of: dict[str, set] = {}
    for r in records:
        ips_of.setdefault(r.domain, set()).add(r.server_ip)
    for cutoff in (5, 20):
        cfg = DetectorConfig(high_value_cutoff=cutoff, min_ips_per_domain=3,
                             min_isps_per_domain=3, flag_threshold=3)
        want = {
            dom for dom, ips in ips_of.items()
            if int(dom[1:3]) < cutoff and len(ips) >= 3
            and len({table.lookup(ip) for ip in ips} - {None}) >= 3
        }
        assert candidate_domains(idx, ranking, cfg) == want
    unknown = [r for r in records if table.lookup(r.server_ip) is None]
    diag = detect(window_tally(records), table, ranking, MalwareProcessList(frozenset()), cfg, WINDOW).diagnostics
    assert diag["unknown_isp_ips"] == len({r.server_ip for r in unknown}) == 2
    assert diag["unknown_isp_records"] == len(unknown) > 0


def test_flag_pairs_matches_bruteforce_oracle():
    rng = random.Random(77)
    for _ in range(30):
        n_dom = rng.randrange(5, 50)
        n_ip = rng.randrange(2, 20)
        isp_of = {}
        for i in range(n_ip):
            isp_of[f"10.1.{i}.1"] = None if rng.random() < 0.15 else f"isp{rng.randrange(4)}"
        domains = {}
        for d in range(n_dom):
            k = rng.randrange(1, min(6, n_ip + 1))
            domains[f"d{d:02d}.com"] = rng.sample(sorted(isp_of), k)
        idx = _index_from_pairs(domains, isp_of)
        ranking = _ranking(sorted(domains))
        cfg = DetectorConfig(flag_threshold=rng.randrange(2, 6), min_ips_per_domain=2)
        cands = candidate_domains(idx, ranking, cfg)
        got = flag_pairs(idx, cands, cfg)
        # brute force: for every ip, count candidate domains listing it
        want = {}
        for ip, isp in isp_of.items():
            if isp is None:
                continue
            hits = {d for d, ips in domains.items() if ip in ips and d in cands}
            if len(hits) >= cfg.flag_threshold:
                want[(ip, isp)] = frozenset(hits)
        assert got == want


def test_labeling_rules():
    flagged = {("5.5.5.5", "cloud"): frozenset({"a.com", "b.com"})}
    malware = MalwareProcessList(frozenset({"adware_helper.exe"}))

    def run(proc_names):
        records = [
            _rec(f"http://{dom}/x", "5.5.5.5", proc=proc, machine=f"m{i}")
            for i, (dom, proc) in enumerate(proc_names)
        ]
        index = build_resolution_index(window_tally(records), IpAttributionTable())
        dets = label_detections(flagged, index, malware)
        assert len(dets) == 1
        return dets[0]

    assert run([("a.com", "adware_helper.exe"), ("b.com", "chrome.exe")]).label == LABEL_TRUE_POSITIVE
    assert run([("a.com", ""), ("b.com", "  ")]).label == LABEL_SUSPICIOUS
    assert run([("a.com", "chrome.exe")]).label == LABEL_UNLABELED


def test_labeling_counts_only_matching_domains():
    flagged = {("5.5.5.5", "cloud"): frozenset({"a.com"})}
    records = [
        _rec("http://a.com/x", "5.5.5.5", machine="m1"),
        _rec("http://other.com/x", "5.5.5.5", machine="m2"),  # not in domain set
        _rec("http://a.com/x", "7.7.7.7", machine="m3"),  # wrong ip
    ]
    index = build_resolution_index(window_tally(records), IpAttributionTable())
    det = label_detections(flagged, index, MalwareProcessList(frozenset()))[0]
    assert det.request_count == 1
    assert det.machine_ids == {"m1"}


def _label_oracle(flagged, records, malware, window):
    """Detections from one full scan of ``records``, re-testing the window:
    what ``label_detections`` computed before the index kept each IP's
    records."""
    by_ip = {key[0]: (key, doms) for key, doms in flagged.items()}
    procs = {k: Counter() for k in flagged}
    machines = {k: set() for k in flagged}
    counts = {k: 0 for k in flagged}
    for rec in records:
        hit = by_ip.get(rec.server_ip)
        if hit is None or not (window[0] <= rec.timestamp < window[1]):
            continue
        key, doms = hit
        if rec.domain not in doms:
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
        out.append(Detection(key[0], key[1], doms, tuple(sorted(names.items())),
                             frozenset(machines[key]), counts[key], label))
    out.sort(key=lambda d: (-d.request_count, d.ip, d.isp))
    return out


def test_label_evidence_matches_full_scan_oracle():
    """Over shuffled three-day traces with records outside every window,
    records without a domain and IPs the ip map does not know, each day's
    detections equal the full-scan oracle's."""
    rng = random.Random(18)
    # 10.0.6.1 and 10.0.7.1 have no ISP
    table, _ = load_ip_map([f"10.0.{i}.0/24,isp{i % 3}" for i in range(6)])
    ips = [f"10.0.{i}.1" for i in range(8)]
    domains = [f"d{i}.com" for i in range(8)]
    names = ("Adware_Helper.exe", "", "  ", "chrome.exe")
    malware = MalwareProcessList(frozenset({"adware_helper.exe"}))
    ranking = _ranking(domains)
    cfg = DetectorConfig(min_ips_per_domain=2, min_isps_per_domain=2, flag_threshold=2)
    windows = [(DAY0 + k * DAY_MS, DAY0 + (k + 1) * DAY_MS) for k in range(3)]
    seen_labels, shared = set(), 0
    for _ in range(40):
        procs_of = {ip: rng.sample(names, rng.randrange(1, 3)) for ip in ips}
        records = []
        for _ in range(rng.randrange(50, 300)):
            ip = rng.choice(ips)
            rec = _rec(f"http://www.{rng.choice(domains)}/p", ip,
                       ts=DAY0 + rng.randrange(-DAY_MS // 2, 3 * DAY_MS + DAY_MS // 2),
                       machine=f"m{rng.randrange(6)}", proc=rng.choice(procs_of[ip]))
            records.append(rec._replace(domain=None) if rng.random() < 0.1 else rec)
        rng.shuffle(records)
        for w in windows:
            index = build_resolution_index(window_tally(records, w), table)
            flagged = flag_pairs(index, candidate_domains(index, ranking, cfg), cfg)
            got = label_detections(flagged, index, malware)
            assert got == _label_oracle(flagged, records, malware, w)
            seen_labels.update(d.label for d in got)
            shared += any(a & b for (ka, a) in flagged.items() for (kb, b) in flagged.items() if ka < kb)
    assert seen_labels == {LABEL_TRUE_POSITIVE, LABEL_SUSPICIOUS, LABEL_UNLABELED}
    assert shared > 0


class _CountingRecords(Sequence):
    """Records that count every element read from them, however read."""

    def __init__(self, records):
        self.records = records
        self.reads = 0

    def __len__(self):
        return len(self.records)

    def __getitem__(self, k):
        self.reads += len(range(len(self.records))[k]) if isinstance(k, slice) else 1
        return self.records[k]


def _detect_reads(n):
    """Record reads for detect over each UTC day of a trace of n records that
    spans n // 100 days, tallied by day as ``cmd_detect`` tallies a trace."""
    days = n // 100
    table, _ = load_ip_map([f"10.0.{i}.0/24,isp{i % 2}" for i in range(4)])
    records = _CountingRecords([
        _rec(f"http://www.d{i % 5}.com/", f"10.0.{i % 4}.1", ts=DAY0 + i * days * DAY_MS // n)
        for i in range(n)
    ])
    ranking = _ranking([f"d{i}.com" for i in range(5)])
    malware = MalwareProcessList(frozenset())
    cfg = DetectorConfig(flag_threshold=2)
    tallies = WindowTallies()
    for rec in records:
        tallies(*rec)
    windows = _windows(tallies.day_span())
    assert len(windows) == days
    flagged = 0
    for w, tally in zip(windows, tallies.per_window(windows)):
        rep = detect(tally, table, ranking, malware, cfg, w)
        assert rep.diagnostics["records_seen"] + rep.diagnostics["out_of_window"] == n
        flagged += rep.diagnostics["pairs_flagged"]
    assert flagged == 4 * days
    return records.reads


def test_detect_reads_grow_linearly_with_records_and_day_windows():
    """detect reads each record once, whatever the day windows: twice the
    records over twice the days read at most about twice as many."""
    n = 3_000
    assert _detect_reads(2 * n) <= 2.1 * _detect_reads(n)


def test_detection_invariants_on_corpus(small_corpus):
    rep = detect(
        window_tally(small_corpus.trace.http),
        small_corpus.table,
        small_corpus.ranking,
        small_corpus.malware,
        DetectorConfig(),
        WINDOW,
    )
    cfg = rep.config
    for d in rep.detections:
        assert len(d.domains) >= cfg.flag_threshold
        assert d.request_count >= len(d.domains)
    counts = [d.request_count for d in rep.detections]
    assert counts == sorted(counts, reverse=True)


def test_detect_flags_exactly_the_plants(small_corpus):
    rep = detect(
        window_tally(small_corpus.trace.http),
        small_corpus.table,
        small_corpus.ranking,
        small_corpus.malware,
        DetectorConfig(),
        WINDOW,
    )
    flagged = {(d.ip, d.isp) for d in rep.detections}
    assert flagged == set(small_corpus.truth.planted_pairs)


def test_detect_clean_scenario_is_silent(clean_corpus):
    rep = detect(
        window_tally(clean_corpus.trace.http),
        clean_corpus.table,
        clean_corpus.ranking,
        clean_corpus.malware,
        DetectorConfig(),
        WINDOW,
    )
    assert rep.detections == ()
    assert rep.diagnostics["candidate_domains"] == 0


def test_detect_single_plant_at_exact_threshold():
    # 20 domains, each at the plant ip and at its own home ip/isp
    rows = ["185.0.0.0/24,plantisp"] + [f"10.{i}.0.0/16,home{i}" for i in range(20)]
    table, _ = load_ip_map(rows)
    domains = [f"d{i:02d}.com" for i in range(20)]
    records = []
    for i, dom in enumerate(domains):
        records.append(_rec(f"http://www.{dom}/h", f"10.{i}.0.1", machine="bg"))
        records.append(_rec(f"http://www.{dom}/x", "185.0.0.1", machine="bot", proc=""))
    ranking = _ranking(domains)
    rep = detect(window_tally(records), table, ranking, MalwareProcessList(frozenset()), DetectorConfig(), WINDOW)
    assert len(rep.detections) == 1
    det = rep.detections[0]
    assert (det.ip, det.isp) == ("185.0.0.1", "plantisp")
    assert det.label == LABEL_SUSPICIOUS


def test_permutation_invariance():
    """Records spread over three UTC days and tallied by day, as
    ``cmd_detect`` tallies a trace without ``--window``, give the same
    reports in every order: the tallies, not a sort, carry it."""
    rng = random.Random(13)
    table, _ = load_ip_map([f"10.0.{i}.0/24,isp{i % 3}" for i in range(10)])
    records = [rec._replace(timestamp=DAY0 + rng.randrange(3 * DAY_MS))
               for rec in _random_records(rng, n_ips=10, n=900)]
    ranking = _ranking([f"d{i:02d}.com" for i in range(20)])
    malware = MalwareProcessList(frozenset())
    cfg = DetectorConfig(flag_threshold=2)

    def reports(recs):
        tallies = WindowTallies()
        for rec in recs:
            tallies(*rec)
        windows = _windows(tallies.day_span())
        assert len(windows) == 3
        return [detect(tally, table, ranking, malware, cfg, w).to_json_dict()
                for w, tally in zip(windows, tallies.per_window(windows))]

    want = reports(sorted(records, key=attrgetter("timestamp")))
    assert all(rep["diagnostics"]["pairs_flagged"] for rep in want)
    for _ in range(5):
        rng.shuffle(records)
        assert reports(records) == want


def test_monotonicity_properties():
    rng = random.Random(31)
    for _ in range(25):
        n_ip = rng.randrange(3, 15)
        isp_of = {f"10.2.{i}.1": f"isp{rng.randrange(5)}" for i in range(n_ip)}
        domains = {
            f"d{d:02d}.com": rng.sample(sorted(isp_of), rng.randrange(1, n_ip + 1))
            for d in range(rng.randrange(4, 30))
        }
        idx = _index_from_pairs(domains, isp_of)
        ranking = _ranking(sorted(domains))
        lo = DetectorConfig(flag_threshold=2)
        hi = DetectorConfig(flag_threshold=4)
        c = candidate_domains(idx, ranking, lo)
        assert set(flag_pairs(idx, c, hi)) <= set(flag_pairs(idx, c, lo))
        # lowering the high-value cutoff never adds a candidate
        full = candidate_domains(idx, ranking, DetectorConfig(high_value_cutoff=len(domains)))
        for cutoff in range(1, len(domains)):
            smaller = candidate_domains(idx, ranking, DetectorConfig(high_value_cutoff=cutoff))
            assert smaller <= full


def test_detect_empty_inputs_yield_empty_report():
    table, _ = load_ip_map([])
    ranking = _ranking(["a.com"])
    rep = detect(window_tally([]), table, ranking, MalwareProcessList(frozenset()), DetectorConfig(), WINDOW)
    assert rep.detections == ()
    assert rep.diagnostics["records_seen"] == 0


def test_soundness_single_isp_world():
    # every domain resolves only to IPs of one ISP -> no candidates at all
    rng = random.Random(41)
    isp_of = {f"10.3.{i}.1": "onlyisp" for i in range(8)}
    domains = {
        f"d{d}.com": rng.sample(sorted(isp_of), rng.randrange(1, 8)) for d in range(30)
    }
    idx = _index_from_pairs(domains, isp_of)
    ranking = _ranking(sorted(domains))
    assert candidate_domains(idx, ranking, DetectorConfig()) == frozenset()
