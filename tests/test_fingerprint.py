import random

import pytest
from hypothesis import given, strategies as st

from launderscan.detector import Detection, DetectorConfig, detect
from launderscan.fingerprint import (
    FLAG_EMPTY_PROC,
    FLAG_MALFORMED,
    FLAG_REPEAT_CYCLE,
    FLAG_SPOOF_QUERY,
    SchemeProfile,
    detect_repeat_cycle,
    extract_features,
    group_detections,
    jaccard,
    jaccard_matrix,
)
from launderscan.ingest import record_domain
from launderscan.model import DAY_MS, HttpRecord, PublicSuffixSet

from conftest import DAY0, WINDOW

SUFFIX = PublicSuffixSet.builtin()


def brute_force_jaccard(a, b):
    """Independent enumeration: count membership over the concatenated pool."""
    pool = sorted(set(list(a) + list(b)))
    inter = sum(1 for x in pool if x in a and x in b)
    union = sum(1 for x in pool if x in a or x in b)
    return inter / union


def test_jaccard_identity_disjoint_half():
    s = {"a", "b", "c"}
    assert jaccard(s, s) == 1.0
    assert jaccard({"a"}, {"b"}) == 0.0
    assert jaccard({"a", "b", "c"}, {"b", "c", "d"}) == 0.5


def test_jaccard_both_empty_is_undefined():
    with pytest.raises(ValueError):
        jaccard(set(), set())


@given(
    st.sets(st.integers(0, 30), max_size=15),
    st.sets(st.integers(0, 30), max_size=15),
)
def test_jaccard_symmetry_and_bounds(a, b):
    if not a and not b:
        return
    v = jaccard(a, b)
    assert v == jaccard(b, a)
    assert 0.0 <= v <= 1.0
    assert (v == 1.0) == (a == b)
    assert (v == 0.0) == (not (a & b))
    assert v == pytest.approx(brute_force_jaccard(a, b), abs=1e-12)


def _profile(label, domains, procs=("p",), isps=("isp",), flags=()):
    return SchemeProfile(
        label=label,
        domains=frozenset(domains),
        process_names=frozenset(procs),
        user_agents=frozenset(),
        isps=frozenset(isps),
        ips=frozenset({label}),
        machines=frozenset({f"m-{label}"}),
        days=frozenset({0}),
        request_count=10,
        signature_flags=frozenset(flags),
    )


def test_matrix_disjoint_and_single():
    p1 = _profile("x", {"a.com"})
    p2 = _profile("y", {"b.com"})
    m = jaccard_matrix([p1, p2])
    assert m.value(0, 0) == 1.0 and m.value(1, 1) == 1.0
    assert m.value(0, 1) == 0.0 and m.value(1, 0) == 0.0
    single = jaccard_matrix([p1])
    assert single.values == ((1.0,),)


def test_matrix_matches_pairwise_recomputation():
    rng = random.Random(2)
    profiles = [
        _profile(f"p{i}", {f"d{rng.randrange(30)}.com" for _ in range(rng.randrange(1, 20))})
        for i in range(5)
    ]
    m = jaccard_matrix(profiles)
    for i in range(5):
        for j in range(5):
            want = 1.0 if i == j else brute_force_jaccard(profiles[i].domains, profiles[j].domains)
            assert m.value(i, j) == pytest.approx(want, abs=1e-12)
            assert m.value(i, j) == m.value(j, i)


def test_matrix_error_cases():
    with pytest.raises(ValueError):
        jaccard_matrix([])
    with pytest.raises(ValueError):
        jaccard_matrix([_profile("x", set())])


def test_matrix_csv_layout():
    m = jaccard_matrix([_profile("x", {"a.com"}), _profile("y", {"a.com", "b.com"})])
    lines = m.to_csv_lines()
    assert lines[0] == ",x,y"
    assert lines[1] == "x,1.00,0.50"
    assert lines[2] == "y,-,1.00"


def _rec(url, ip, ts=DAY0 + 1000, machine="m1", proc="botproc.exe", ua="UA-1"):
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
        user_agent=ua,
    )


def _detection(ip="5.5.5.5", isp="cloud", domains=("a.com", "b.com")):
    return Detection(
        ip=ip,
        isp=isp,
        domains=frozenset(domains),
        process_names=(),
        machine_ids=frozenset({"m1"}),
        request_count=4,
        label="Unlabeled",
    )


def test_extract_features_flags():
    det = _detection()
    hv = frozenset({"a.com", "b.com"})
    # empty process name
    prof = extract_features(det, [_rec("http://a.com/x", "5.5.5.5", proc="")], SUFFIX, hv)
    assert FLAG_EMPTY_PROC in prof.signature_flags
    # spoof query keys
    prof = extract_features(
        det,
        [_rec("http://x.tld/ad?spoof_domain=a.com&land_ip=1.2.3.4", "5.5.5.5")],
        SUFFIX,
        hv,
    )
    assert FLAG_SPOOF_QUERY in prof.signature_flags
    # 6% of hosts malformed -> flag; 4% -> no flag
    records = [_rec(f"http://a.com/{i}", "5.5.5.5") for i in range(94)]
    records += [_rec(f"http://li.zulilycom/{i}", "5.5.5.5") for i in range(6)]
    prof = extract_features(det, records, SUFFIX, hv)
    assert FLAG_MALFORMED in prof.signature_flags
    records = [_rec(f"http://a.com/{i}", "5.5.5.5") for i in range(96)]
    records += [_rec(f"http://li.zulilycom/{i}", "5.5.5.5") for i in range(4)]
    prof = extract_features(det, records, SUFFIX, hv)
    assert FLAG_MALFORMED not in prof.signature_flags


def test_extract_features_repeat_cycle_and_counts():
    det = _detection()
    hv = frozenset({"a.com", "b.com"})
    base = [(DAY0 + i * 60_000, "a.com" if i % 2 else "b.com") for i in range(6)]
    period = 2 * 3_600_000
    records = [
        _rec(f"http://{dom}/x", "5.5.5.5", ts=ts, machine="bot")
        for ts, dom in base + [(ts + period, d) for ts, d in base]
    ]
    prof = extract_features(det, records, SUFFIX, hv, cycle_tolerance_ms=1_000, cycle_min_len=5)
    assert FLAG_REPEAT_CYCLE in prof.signature_flags
    assert prof.ip_count == 1 and prof.isp_count == 1
    assert prof.days_seen == 1
    assert prof.request_count == det.request_count


def test_extract_features_restricts_domains_to_high_value():
    det = _detection(domains=("a.com", "offlist.com"))
    prof = extract_features(det, [], SUFFIX, frozenset({"a.com"}))
    assert prof.domains == {"a.com"}


def test_group_merges_same_isp_same_flags():
    a = _profile("a", {"d1.com"}, procs=("",), isps=("cloud",), flags=(FLAG_EMPTY_PROC, FLAG_SPOOF_QUERY))
    b = _profile("b", {"d2.com"}, procs=("other",), isps=("cloud",), flags=(FLAG_EMPTY_PROC, FLAG_SPOOF_QUERY))
    merged = group_detections([a, b])
    assert len(merged) == 1
    assert merged[0].domains == {"d1.com", "d2.com"}
    assert merged[0].ip_count == 2


def test_group_keeps_different_isps_apart():
    a = _profile("a", {"d1.com"}, procs=("p",), isps=("one",))
    b = _profile("b", {"d2.com"}, procs=("p",), isps=("two",))
    assert len(group_detections([a, b])) == 2


def test_group_shared_process_name_merges():
    a = _profile("a", {"d1.com"}, procs=("bot.exe", "x"), isps=("cloud",), flags=(FLAG_MALFORMED,))
    b = _profile("b", {"d2.com"}, procs=("bot.exe",), isps=("cloud",), flags=())
    assert len(group_detections([a, b])) == 1


def test_group_empty_and_idempotent():
    assert group_detections([]) == []
    rng = random.Random(17)
    profiles = [
        _profile(
            f"p{i:02d}",
            {f"d{rng.randrange(12)}.com" for _ in range(rng.randrange(1, 5))},
            procs=(rng.choice(["a.exe", "b.exe", ""]),),
            isps=(rng.choice(["one", "two", "three"]),),
            flags=tuple(rng.sample([FLAG_EMPTY_PROC, FLAG_MALFORMED], rng.randrange(3) % 2)),
        )
        for i in range(14)
    ]
    once = group_detections(profiles)
    twice = group_detections(once)
    assert [p.label for p in twice] == [p.label for p in once]
    assert [p.domains for p in twice] == [p.domains for p in once]


def test_group_feature_agreement_gate():
    a = _profile("a", {"d1.com", "d2.com"}, procs=("p",), isps=("cloud",))
    b = _profile("b", {"d9.com"}, procs=("p",), isps=("cloud",))
    assert len(group_detections([a, b])) == 1
    assert len(group_detections([a, b], feature_agreement=0.5)) == 2


def test_cycle_exact_22h_block():
    rng = random.Random(6)
    base_ts = sorted(rng.randrange(DAY0, DAY0 + 3_600_000) for _ in range(50))
    doms = [f"d{rng.randrange(50)}" for _ in range(50)]
    period = 22 * 3_600_000
    events = list(zip(base_ts, doms)) + [(t + period, d) for t, d in zip(base_ts, doms)]
    assert detect_repeat_cycle(events, tolerance_ms=1_000, min_len=3) == period


def test_cycle_random_streams_report_none():
    for seed in range(20):
        rng = random.Random(seed)
        ts = sorted(rng.randrange(DAY0, DAY0 + DAY_MS) for _ in range(120))
        events = [(t, f"d{rng.randrange(50)}") for t in ts]
        assert detect_repeat_cycle(events, tolerance_ms=1_000, min_len=3) is None


def test_cycle_small_block_with_jitter():
    events = [
        (0, "a"), (2_000, "b"), (5_000, "c"),
        (10_000, "a"), (12_800, "b"), (14_500, "c"),
    ]
    assert detect_repeat_cycle(events, tolerance_ms=2_000, min_len=3) == 10_000


def test_cycle_validation():
    with pytest.raises(ValueError):
        detect_repeat_cycle([(0, "a")] * 8, tolerance_ms=10, min_len=2)
    with pytest.raises(ValueError):
        detect_repeat_cycle([(5, "a"), (1, "b")] * 4, tolerance_ms=10, min_len=3)


def test_profiles_from_corpus_group_to_scheme_count(small_corpus, small_malware):
    rep = detect(
        small_corpus.http_records(),
        small_corpus.table,
        small_corpus.ranking,
        small_malware,
        DetectorConfig(),
        WINDOW,
    )
    records = small_corpus.http_records()
    by_ip = {}
    flagged_ips = {d.ip for d in rep.detections}
    for r in records:
        if r.server_ip in flagged_ips:
            by_ip.setdefault(r.server_ip, []).append(r)
    hv = small_corpus.ranking.high_value()
    profiles = [extract_features(d, by_ip[d.ip], SUFFIX, hv) for d in rep.detections]
    grouped = group_detections(profiles)
    # hyphbot spans 4 ISPs (grouping is ISP-scoped), the other four schemes
    # collapse to one profile each
    assert len(grouped) == 8
    isp_sets = sorted(",".join(sorted(p.isps)) for p in grouped)
    assert isp_sets.count("vds-park") == 1
    m = jaccard_matrix(grouped)
    for i in range(len(grouped)):
        assert m.value(i, i) == 1.0
        for j in range(len(grouped)):
            assert m.value(i, j) == m.value(j, i)
