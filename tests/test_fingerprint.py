import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from launderscan.detector import Detection, DetectorConfig, detect
from launderscan.fingerprint import (
    CYCLE_MIN_LEN,
    CYCLE_TOLERANCE_MS,
    FLAG_EMPTY_PROC,
    FLAG_MALFORMED,
    FLAG_REPEAT_CYCLE,
    FLAG_SPOOF_QUERY,
    MALFORMED_SHARE_THRESHOLD,
    SchemeProfile,
    detect_repeat_cycle,
    extract_features,
    group_detections,
    jaccard,
    jaccard_matrix,
)
from launderscan.model import DAY_MS, PublicSuffixSet, is_malformed_domain
from launderscan.urlrules import MalformedSignalError, check_spoof_query

from conftest import DAY0, WINDOW, window_index
from oracles import HttpRecord, record_domain

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
    assert m.values[0][0] == 1.0 and m.values[1][1] == 1.0
    assert m.values[0][1] == 0.0 and m.values[1][0] == 0.0
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
            assert m.values[i][j] == pytest.approx(want, abs=1e-12)
            assert m.values[i][j] == m.values[j][i]


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


def _rec(url, ip, ts=DAY0 + 1000, machine="m1", proc="botproc.exe"):
    return HttpRecord(
        timestamp=ts,
        machine_id=machine,
        process_name=proc,
        url=url,
        domain=record_domain(url, SUFFIX),
        referrer=None,
        server_ip=ip,
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
    # empty process name
    prof = extract_features([det], [_rec("http://a.com/x", "5.5.5.5", proc="")], SUFFIX)[0]
    assert FLAG_EMPTY_PROC in prof.signature_flags
    # spoof query keys
    prof = extract_features(
        [det],
        [_rec("http://x.tld/ad?spoof_domain=a.com&land_ip=1.2.3.4", "5.5.5.5")],
        SUFFIX,
    )[0]
    assert FLAG_SPOOF_QUERY in prof.signature_flags
    # 6% of hosts malformed -> flag; 4% -> no flag
    records = [_rec(f"http://a.com/{i}", "5.5.5.5") for i in range(94)]
    records += [_rec(f"http://li.zulilycom/{i}", "5.5.5.5") for i in range(6)]
    prof = extract_features([det], records, SUFFIX)[0]
    assert FLAG_MALFORMED in prof.signature_flags
    records = [_rec(f"http://a.com/{i}", "5.5.5.5") for i in range(96)]
    records += [_rec(f"http://li.zulilycom/{i}", "5.5.5.5") for i in range(4)]
    prof = extract_features([det], records, SUFFIX)[0]
    assert FLAG_MALFORMED not in prof.signature_flags


def test_malformed_rule_runs_once_per_distinct_domain():
    """extract_features checks each distinct domain once, however many of
    the IP's records carry it."""
    records = [_rec(f"http://a.com/{i}", "5.5.5.5") for i in range(94)]
    records += [_rec(f"http://li.zulilycom/{i}", "5.5.5.5") for i in range(6)]
    with mock.patch("launderscan.fingerprint.is_malformed_domain", wraps=is_malformed_domain) as check:
        prof = extract_features([_detection()], records, SUFFIX)[0]
    assert FLAG_MALFORMED in prof.signature_flags
    assert sorted(c.args[0] for c in check.call_args_list) == ["a.com", "li.zulilycom"]


def test_extract_features_repeat_cycle_and_counts():
    det = _detection()
    base = [(DAY0 + i * 60_000, "a.com" if i % 2 else "b.com") for i in range(6)]
    period = 2 * 3_600_000
    records = [
        _rec(f"http://{dom}/x", "5.5.5.5", ts=ts, machine="bot")
        for ts, dom in base + [(ts + period, d) for ts, d in base]
    ]
    prof = extract_features([det], records, SUFFIX)[0]
    assert FLAG_REPEAT_CYCLE in prof.signature_flags
    assert len(prof.ips) == 1 and len(prof.isps) == 1
    assert len(prof.days) == 1
    assert prof.request_count == det.request_count


def _features_oracle(detection, records, suffix):
    """One detection's profile, reading all of its IP's ``records`` for it
    alone."""
    procs: set[str] = set()
    days: set[int] = set()
    malformed = 0
    spoof = False
    per_machine: dict[str, list[tuple[int, str]]] = {}
    for rec in records:
        procs.add(rec.process_name)
        days.add(rec.timestamp // DAY_MS)
        if not spoof:
            try:
                spoof = check_spoof_query(rec.url, suffix) is not None
            except MalformedSignalError:
                spoof = True
        dom = rec.domain
        if dom is None:
            malformed += 1
            continue
        if is_malformed_domain(dom, suffix):
            malformed += 1
        per_machine.setdefault(rec.machine_id, []).append((rec.timestamp, dom))
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
    return SchemeProfile(
        label=f"{detection.ip}|{detection.isp}",
        domains=detection.domains,
        process_names=frozenset(procs),
        isps=frozenset({detection.isp}),
        ips=frozenset({detection.ip}),
        machines=detection.machine_ids,
        days=frozenset(days),
        request_count=detection.request_count,
        signature_flags=frozenset(flags),
    )


# the last two give no domain; the spoof URLs carry a signal and a malformed one
_URLS = ("http://a.com/x", "http://b.net/y", "http://shop.c.org/z", "http://li.zulilycom/w",
         "http://x.tld/ad?spoof_domain=a.com&land_ip=1.2.3.4",
         "http://x.tld/ad?spoof_domain=a.com&land_ip=1.2.3.04", "http://a..com/", "http://")
_PROCS = ("bot.exe", "chrome.exe", "", "  ")


def _random_ip(rng, ip, replay):
    """One IP's records, over three days and 1-3 machines, and its 1-4
    detections; with ``replay``, one machine's block recurs 22 h later."""
    machines = [f"{ip}-m{i}" for i in range(rng.randrange(1, 4))]
    urls = rng.sample(_URLS, rng.randrange(1, 4))
    procs = rng.sample(_PROCS, rng.randrange(1, 3))
    records = [
        HttpRecord(DAY0 + rng.randrange(3 * DAY_MS), rng.choice(machines), rng.choice(procs), url,
                   record_domain(url, SUFFIX), None, ip)
        for url in rng.choices(urls, k=rng.randrange(0, 40))
    ]
    if replay:
        block = [(DAY0 + i * 60_000, rng.choice(("a.com", "b.net", "c.org"))) for i in range(8)]
        for ts, dom in block + [(ts + 22 * 3_600_000, dom) for ts, dom in block]:
            records.append(HttpRecord(ts, machines[0], "bot.exe", f"http://{dom}/", dom, None, ip))
    rng.shuffle(records)
    detections = [
        Detection(
            ip=ip,
            isp=rng.choice(("isp-a", "isp-b")),
            domains=frozenset(rng.sample(("a.com", "b.net", "c.org", "d.com"), rng.randrange(1, 4))),
            process_names=(),
            machine_ids=frozenset(rng.sample(machines, rng.randrange(1, len(machines) + 1))),
            request_count=rng.randrange(1, 500),
            label="Unlabeled",
        )
        for _ in range(rng.randrange(1, 5))
    ]
    return detections, records


def test_extract_features_per_ip_matches_per_detection_oracle():
    """Each IP's detections profiled together equal each detection profiled
    alone from the same records."""
    seen: dict[str, set[bool]] = {}
    for seed in range(30):
        rng = random.Random(seed)
        for n in range(rng.randrange(2, 6)):
            detections, records = _random_ip(rng, f"10.0.{seed}.{n}", replay=n == 0)
            profiles = extract_features(detections, records, SUFFIX)
            assert profiles == [_features_oracle(d, records, SUFFIX) for d in detections]
            for flag in (FLAG_SPOOF_QUERY, FLAG_MALFORMED, FLAG_EMPTY_PROC, FLAG_REPEAT_CYCLE):
                seen.setdefault(flag, set()).add(flag in profiles[0].signature_flags)
    assert all(both == {True, False} for both in seen.values()), seen


def test_group_merges_same_isp_same_flags():
    a = _profile("a", {"d1.com"}, procs=("",), isps=("cloud",), flags=(FLAG_EMPTY_PROC, FLAG_SPOOF_QUERY))
    b = _profile("b", {"d2.com"}, procs=("other",), isps=("cloud",), flags=(FLAG_EMPTY_PROC, FLAG_SPOOF_QUERY))
    merged = group_detections([a, b])
    assert len(merged) == 1
    assert merged[0].domains == {"d1.com", "d2.com"}
    assert len(merged[0].ips) == 2


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


# RepeatCycle's fire count on uniform random one-day streams, 20 seeded
# trials per (domains, events) cell.  Chance alone fires it on one busy
# domain; it never fires over ten.
CHANCE_FIRES = {
    (1, 50): 0, (1, 100): 0, (1, 200): 1, (1, 400): 4, (1, 1_000): 20,
    (10, 50): 0, (10, 100): 0, (10, 200): 0, (10, 400): 0, (10, 1_000): 0,
}


def test_cycle_chance_fire_counts_on_uniform_traffic():
    fired = {}
    for n_dom, n in CHANCE_FIRES:
        fired[n_dom, n] = 0
        for trial in range(20):
            rng = random.Random(f"{n_dom}/{n}/{trial}")
            events = sorted((rng.randrange(DAY0, DAY0 + DAY_MS), f"d{rng.randrange(n_dom)}")
                            for _ in range(n))
            fired[n_dom, n] += detect_repeat_cycle(events, CYCLE_TOLERANCE_MS, CYCLE_MIN_LEN) is not None
    assert fired == CHANCE_FIRES


def test_cycle_validation():
    with pytest.raises(ValueError):
        detect_repeat_cycle([(0, "a")] * 8, tolerance_ms=10, min_len=2)
    with pytest.raises(ValueError):
        detect_repeat_cycle([(5, "a"), (1, "b")] * 4, tolerance_ms=10, min_len=3)


def test_profiles_from_corpus_group_to_scheme_count(small_corpus):
    rep = detect(
        window_index(small_corpus.trace.http),
        small_corpus.table,
        small_corpus.ranking,
        small_corpus.malware,
        DetectorConfig(),
        WINDOW,
    )
    records = small_corpus.trace.http
    by_ip = {}
    flagged_ips = {d.ip for d in rep.detections}
    for r in records:
        if r.server_ip in flagged_ips:
            by_ip.setdefault(r.server_ip, []).append(r)
    profiles = [extract_features([d], by_ip[d.ip], SUFFIX)[0] for d in rep.detections]
    grouped = group_detections(profiles)
    # hyphbot spans 4 ISPs (grouping is ISP-scoped), the other four schemes
    # collapse to one profile each
    assert len(grouped) == 8
    isp_sets = sorted(",".join(sorted(p.isps)) for p in grouped)
    assert isp_sets.count("vds-park") == 1
    m = jaccard_matrix(grouped)
    for i in range(len(grouped)):
        assert m.values[i][i] == 1.0
        for j in range(len(grouped)):
            assert m.values[i][j] == m.values[j][i]
