import random

import pytest

from launderscan.detector import (
    DetectorConfig,
    DomainResolutionIndex,
    LABEL_SUSPICIOUS,
    LABEL_TRUE_POSITIVE,
    LABEL_UNLABELED,
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
    record_domain,
)
from launderscan.model import DAY_MS, HttpRecord, PublicSuffixSet

from conftest import DAY0, WINDOW

SUFFIX = PublicSuffixSet.builtin()


def _rec(url, ip, ts=DAY0 + 1000, machine="m1", proc="chrome.exe"):
    return HttpRecord(
        timestamp=ts,
        machine_id=machine,
        process_name=proc,
        method="GET",
        url=url,
        domain=record_domain(url, SUFFIX),
        referrer=None,
        server_ip=ip,
        status=200,
        user_agent="UA",
    )


def _ranking(domains, cutoff=None):
    ranking, _ = load_ranked_domains(list(domains), cutoff=cutoff or len(domains), suffix=SUFFIX)
    return ranking


def test_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(flag_threshold=0)
    with pytest.raises(ValueError):
        DetectorConfig(flag_threshold=1, min_ips_per_domain=2)
    DetectorConfig()  # defaults are valid


def test_index_single_record():
    table = load_ip_map(["1.2.3.0/24,A"]).table
    idx = build_resolution_index([_rec("http://example.com/x", "1.2.3.4")], table, WINDOW)
    assert idx.by_domain == {"example.com": {("1.2.3.4", "a")}}
    assert idx.by_ip == {"1.2.3.4": {"example.com"}}
    assert not idx.unknown_isp_ips


def test_index_unknown_isp_still_indexed():
    table = load_ip_map(["1.2.3.0/24,A"]).table
    idx = build_resolution_index([_rec("http://example.com/x", "9.9.9.9")], table, WINDOW)
    assert idx.by_domain == {"example.com": {("9.9.9.9", None)}}
    assert idx.unknown_isp_ips == {"9.9.9.9"}


def test_index_window_filter_and_counts():
    table = load_ip_map(["1.2.3.0/24,A"]).table
    records = [
        _rec("http://a.com/", "1.2.3.4", ts=WINDOW[0]),
        _rec("http://a.com/", "1.2.3.4", ts=WINDOW[1]),  # end exclusive
        _rec("http://a.com/", "1.2.3.4", ts=WINDOW[0] - 1),
    ]
    idx = build_resolution_index(records, table, WINDOW)
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


def test_index_transpose_consistency():
    rng = random.Random(21)
    table = load_ip_map([f"10.0.{i}.0/24,isp{i % 4}" for i in range(12)]).table
    records = _random_records(rng)
    idx = build_resolution_index(records, table, WINDOW)
    rebuilt = {}
    for dom, pairs in idx.by_domain.items():
        for ip, _ in pairs:
            rebuilt.setdefault(ip, set()).add(dom)
    assert rebuilt == idx.by_ip


def test_index_merge_equals_whole():
    rng = random.Random(8)
    table = load_ip_map([f"10.0.{i}.0/24,isp{i % 4}" for i in range(12)]).table
    records = _random_records(rng, n=600)
    whole = build_resolution_index(records, table, WINDOW)
    a = build_resolution_index(records[:250], table, WINDOW)
    b = build_resolution_index(records[250:], table, WINDOW)
    merged = a.merge(b)
    assert merged.by_domain == whole.by_domain
    assert merged.by_ip == whole.by_ip
    assert merged.records_seen == whole.records_seen


def _index_from_pairs(pairs_by_domain, isp_of):
    """Hand-build an index: domain -> list of ips; isp_of maps ip -> isp or None."""
    idx = DomainResolutionIndex(window=WINDOW)
    for dom, ips in pairs_by_domain.items():
        for ip in ips:
            isp = isp_of.get(ip)
            idx.by_domain.setdefault(dom, set()).add((ip, isp))
            idx.by_ip.setdefault(ip, set()).add(dom)
            idx.ip_isp[ip] = isp
            if isp is None:
                idx.unknown_isp_ips.add(ip)
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
    ranking = _ranking(["multi.com", "oneisp.com", "unknown.com", "lowrank.com"], cutoff=3)
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
        dets = label_detections(flagged, records, malware)
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
    det = label_detections(flagged, records, MalwareProcessList(frozenset()))[0]
    assert det.request_count == 1
    assert det.machine_ids == {"m1"}


def test_detection_invariants_on_corpus(small_corpus, small_malware):
    rep = detect(
        small_corpus.http_records(),
        small_corpus.table,
        small_corpus.ranking,
        small_malware,
        DetectorConfig(),
        WINDOW,
    )
    cfg = rep.config
    for d in rep.detections:
        assert len(d.domains) >= cfg.flag_threshold
        assert d.request_count >= len(d.domains)
    counts = [d.request_count for d in rep.detections]
    assert counts == sorted(counts, reverse=True)


def test_detect_flags_exactly_the_plants(small_corpus, small_malware):
    rep = detect(
        small_corpus.http_records(),
        small_corpus.table,
        small_corpus.ranking,
        small_malware,
        DetectorConfig(),
        WINDOW,
    )
    flagged = {(d.ip, d.isp) for d in rep.detections}
    assert flagged == set(small_corpus.truth.planted_pairs)


def test_detect_clean_scenario_is_silent(clean_corpus):
    rep = detect(
        clean_corpus.http_records(),
        clean_corpus.table,
        clean_corpus.ranking,
        MalwareProcessList(frozenset(clean_corpus.malware_names)),
        DetectorConfig(),
        WINDOW,
    )
    assert rep.detections == ()
    assert rep.diagnostics["candidate_domains"] == 0


def test_detect_single_plant_at_exact_threshold():
    # 20 domains, each at the plant ip and at its own home ip/isp
    rows = ["185.0.0.0/24,plantisp"] + [f"10.{i}.0.0/16,home{i}" for i in range(20)]
    table = load_ip_map(rows).table
    domains = [f"d{i:02d}.com" for i in range(20)]
    records = []
    for i, dom in enumerate(domains):
        records.append(_rec(f"http://www.{dom}/h", f"10.{i}.0.1", machine="bg"))
        records.append(_rec(f"http://www.{dom}/x", "185.0.0.1", machine="bot", proc=""))
    ranking = _ranking(domains)
    rep = detect(records, table, ranking, MalwareProcessList(frozenset()), DetectorConfig(), WINDOW)
    assert len(rep.detections) == 1
    det = rep.detections[0]
    assert (det.ip, det.isp) == ("185.0.0.1", "plantisp")
    assert det.label == LABEL_SUSPICIOUS


def test_permutation_invariance():
    rng = random.Random(13)
    table = load_ip_map([f"10.0.{i}.0/24,isp{i % 3}" for i in range(10)]).table
    records = _random_records(rng, n_ips=10, n=400)
    ranking = _ranking([f"d{i:02d}.com" for i in range(20)])
    malware = MalwareProcessList(frozenset())
    cfg = DetectorConfig(flag_threshold=2)
    rep1 = detect(records, table, ranking, malware, cfg, WINDOW)
    shuffled = records[:]
    rng.shuffle(shuffled)
    rep2 = detect(shuffled, table, ranking, malware, cfg, WINDOW)
    assert rep1.to_json_dict() == rep2.to_json_dict()


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
    table = load_ip_map([]).table
    ranking = _ranking(["a.com"])
    rep = detect([], table, ranking, MalwareProcessList(frozenset()), DetectorConfig(), WINDOW)
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
