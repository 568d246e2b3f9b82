"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavyweight scenario
(five planted schemes over a 10K-machine clean background, ~1M records in one
day) is generated once per session and shared.
"""

import json
import random
import re
import time

import numpy as np
import pytest

from launderscan import synthgen as sg
from launderscan.cli import main as cli_main
from launderscan.detector import (
    DetectorConfig,
    build_resolution_index,
    candidate_domains,
    detect,
    flag_pairs,
)
from launderscan.fingerprint import (
    detect_repeat_cycle,
    extract_features,
    group_detections,
    jaccard,
    jaccard_matrix,
)
from launderscan.framedepth import DepthSample, compare
from launderscan.ingest import (
    load_alias_groups,
    load_ip_map,
    load_malware_list,
    load_ranked_domains,
)
from launderscan.ipattr import IpAttributionTable
from launderscan.model import DAY_MS, PublicSuffixSet
from launderscan.panel import (
    SessionPolicy,
    attributed_ads,
    misattribution_table,
    publisher_visits,
    rank_machines,
)
from launderscan.urlrules import (
    EnvFingerprint,
    check_spoof_query,
    classify_env,
    verify_spoof_followthrough,
)

from conftest import DAY0, WINDOW, emitted_corpus, truth_from_json, u32_to_ip, window_tally
from oracles import followthrough_index, load_records

SUFFIX = PublicSuffixSet.builtin()
HOUR_MS = 3_600_000


def check(num, name, ok):
    print(f"[criterion {num:>2}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {name}"


@pytest.fixture(scope="session")
def big_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance-scenario")
    scenario = sg.Scenario(seed=7, background=sg.BackgroundSpec(machine_count=10_000),
                           plants=sg.five_scheme_plants())
    sg.emit_scenario_files(scenario, out)
    return out


@pytest.fixture(scope="session")
def big_run(big_dir):
    """Timed end-to-end run over the emitted files, exactly what an analyst
    invocation does: load everything, detect over the one-day window."""
    t0 = time.monotonic()
    with open(big_dir / "trace.jsonl", "r", encoding="utf-8") as fh:
        loaded = load_records(fh, SUFFIX)
    with open(big_dir / "ipmap.csv", "r", encoding="utf-8") as fh:
        table, _ = load_ip_map(fh)
    with open(big_dir / "ranking.txt", "r", encoding="utf-8") as fh:
        ranking, _ = load_ranked_domains(fh, suffix=SUFFIX)
    with open(big_dir / "malware.txt", "r", encoding="utf-8") as fh:
        malware = load_malware_list(fh)
    tally = window_tally(loaded.http)
    report = detect(tally, table, ranking, malware, DetectorConfig(), WINDOW)
    elapsed = time.monotonic() - t0
    truth = truth_from_json(json.loads((big_dir / "truth.json").read_text()))
    index = build_resolution_index(tally, table)
    return {
        "loaded": loaded,
        "table": table,
        "ranking": ranking,
        "malware": malware,
        "report": report,
        "elapsed": elapsed,
        "truth": truth,
        "index": index,
    }


def test_criterion_1_recall_precision_runtime(big_run):
    report = big_run["report"]
    truth = big_run["truth"]
    index = big_run["index"]
    cands = candidate_domains(index, big_run["ranking"], DetectorConfig())
    planted = set(truth.planted_pairs)
    # eligibility recomputed from the resolution index, not from flag_pairs
    eligible = {
        (ip, isp)
        for ip, isp in planted
        if len(index.evidence.get(ip, {}).keys() & cands) >= 20
    }
    flagged = {(d.ip, d.isp) for d in report.detections}
    records_total = big_run["loaded"].total_lines
    recall_ok = eligible <= flagged
    precision_ok = flagged <= planted
    runtime_ok = big_run["elapsed"] < 60.0
    print(
        f"    planted={len(planted)} eligible={len(eligible)} flagged={len(flagged)} "
        f"records={records_total} elapsed={big_run['elapsed']:.1f}s"
    )
    check(1, "recall 1.0 on eligible plants", recall_ok and eligible == planted)
    check(1, "precision 1.0 (no pairs outside ground truth)", precision_ok)
    check(1, "~1M-record day under 60 s", records_total > 900_000 and runtime_ok)


def test_criterion_2_threshold_boundary():
    from test_detector import _index_from_pairs, _ranking  # shared fixtures

    def flags_for(n):
        isp_of = {"5.5.5.5": "cloud"}
        domains = {}
        for i in range(n):
            other = f"6.6.{i}.1"
            isp_of[other] = f"home{i}"
            domains[f"d{i:03d}.com"] = ["5.5.5.5", other]
        idx = _index_from_pairs(domains, isp_of)
        cfg = DetectorConfig()
        cands = candidate_domains(idx, _ranking(sorted(domains)), cfg)
        return flag_pairs(idx, cands, cfg)

    check(2, "19 candidate domains yield zero detections", flags_for(19) == {})
    twenty = flags_for(20)
    check(2, "20 candidate domains yield exactly one", set(twenty) == {("5.5.5.5", "cloud")})


def test_criterion_3_labeling(big_run):
    truth = big_run["truth"]
    by_pair = {(d.ip, d.isp): d for d in big_run["report"].detections}
    expected = {
        "hyphbot": "Suspicious",       # empty process name
        "scheme-beta": "TruePositiveCandidate",   # malware-listed process
        "scheme-gamma": "Unlabeled",   # ordinary named process
        "scheme-omega": "Suspicious",  # whitespace process name
        "scheme-lambda": "TruePositiveCandidate",
    }
    ok = True
    for scheme, want in expected.items():
        for pair in truth.scheme_pairs[scheme]:
            got = by_pair[pair].label
            if got != want:
                print(f"    {scheme} {pair}: got {got}, want {want}")
                ok = False
    check(3, "malware-listed -> TruePositiveCandidate, empty/whitespace -> Suspicious", ok)


def test_criterion_4_jaccard_oracle(big_run):
    rng = random.Random(424)
    ok = True
    for _ in range(10_000):
        a = frozenset(rng.randrange(60) for _ in range(rng.randrange(0, 25)))
        b = frozenset(rng.randrange(60) for _ in range(rng.randrange(0, 25)))
        if not a and not b:
            continue
        pool = sorted(set(a) | set(b))
        inter = sum(1 for x in pool if x in a and x in b)
        union = sum(1 for x in pool if x in a or x in b)
        if abs(jaccard(a, b) - inter / union) > 1e-12:
            ok = False
            break
    s = frozenset({"x", "y"})
    ok = ok and jaccard(s, s) == 1.0 and jaccard({"x"}, {"y"}) == 0.0
    check(4, "fast jaccard equals brute-force enumeration (1e-12)", ok)

    # scheme profiles from the five-plant run
    records = big_run["loaded"].http
    detections = big_run["report"].detections
    flagged_ips = {d.ip for d in detections}
    by_ip = {}
    for r in records:
        if r.server_ip in flagged_ips:
            by_ip.setdefault(r.server_ip, []).append(r)
    profiles = group_detections(
        [extract_features([d], by_ip[d.ip], SUFFIX)[0] for d in detections]
    )
    m = jaccard_matrix(profiles)
    n = len(m.labels)
    sym = all(m.values[i][j] == m.values[j][i] for i in range(n) for j in range(n))
    diag = all(m.values[i][i] == 1.0 for i in range(n))
    print(f"    profiles={n}")
    check(4, "five-plant matrix symmetric with unit diagonal", sym and diag)


def test_criterion_5_longest_prefix_oracle():
    rng = random.Random(555)
    table = IpAttributionTable()
    made: dict[tuple[int, int], str] = {}  # (net, mask_len) -> isp, as inserted
    while len(made) < 1000:
        mask_len = rng.randrange(0, 33)
        mask = (0xFFFFFFFF << (32 - mask_len)) & 0xFFFFFFFF if mask_len else 0
        net = rng.randrange(2**32) & mask
        if (net, mask_len) in made:
            continue
        made[(net, mask_len)] = isp = f"isp-{(len(made) + 1) % 31:02d}"
        table.insert(f"{u32_to_ip(net)}/{mask_len}", isp)
    ips = np.array([rng.randrange(2**32) for _ in range(100_000)], dtype=np.uint32)
    isp_index = {isp: i for i, isp in enumerate(sorted(set(made.values())))}
    names = table.lookup_batch([u32_to_ip(v) for v in ips.tolist()])
    got = np.array([isp_index.get(isp, -1) for isp in names], dtype=np.int64)
    best_len = np.full(len(ips), -1, dtype=np.int64)
    want = np.full(len(ips), -1, dtype=np.int64)
    for (net, mask_len), isp in made.items():
        isp_idx = isp_index[isp]
        mask = (0xFFFFFFFF << (32 - mask_len)) & 0xFFFFFFFF if mask_len else 0
        match = (ips & np.uint32(mask)) == np.uint32(net)
        upgrade = match & (mask_len > best_len)
        best_len[upgrade] = mask_len
        want[upgrade] = isp_idx
    check(5, "100K lookups against 1000 prefixes match linear scan", np.array_equal(got, want))


def test_criterion_6_panel_ranking(tmp_path):
    plant = sg.SchemeTemplate(
        label="hijack",
        kind=sg.KIND_HOSTS_HIJACK,
        isp_pool=("mini-cloud",),
        ip_count=2,
        machine_count=3,
        target_domains=40,
        daily_requests=8_000,
        daily_impressions=30_000,
        process_name="",
    )
    scenario = sg.Scenario(
        seed=21,
        divisor=100,
        background=sg.BackgroundSpec(
            machine_count=300, domain_count=240, high_value_cutoff=200,
            visits_per_machine=4, isp_count=12,
        ),
        plants=(plant,),
    )
    corpus = emitted_corpus(scenario, tmp_path)
    policy = SessionPolicy(alias=corpus.alias)
    ads = attributed_ads(corpus.trace.impressions, DAY0, DAY0 + DAY_MS)
    visits = publisher_visits(corpus.trace.pageviews, policy)
    table = misattribution_table(ads, visits)
    ranked = rank_machines(table, min_ads=25)
    planted = corpus.truth.planted_machines
    top = ranked[: len(planted)]
    clean_zero = all(
        stat.missing == 0
        for machine, stat in table.per_machine.items()
        if machine.startswith("bg-")
    )
    sibling_ads = sum(
        1
        for imp in corpus.trace.impressions
        if imp.machine_id.startswith("bg-")
        and imp.domain in corpus.alias.index
    )
    print(f"    ranked={len(ranked)} planted_top={top} sibling_attributed={sibling_ads}")
    check(6, "planted machines occupy the top ranks", set(top) == set(planted))
    check(
        6,
        "clean machines rank behind or below min_ads",
        all(m in planted for m in ranked[: len(planted)])
        and all(table.per_machine[m].missing == 0 for m in ranked[len(planted):]),
    )
    check(6, "alias siblings produce zero missing on clean machines", clean_zero and sibling_ads > 0)


def test_criterion_7_cycle_detection():
    rng = random.Random(777)
    base_ts = sorted(DAY0 + rng.randrange(HOUR_MS) for _ in range(50))
    doms = [f"d{rng.randrange(50)}" for _ in range(50)]
    period = 22 * HOUR_MS
    events = list(zip(base_ts, doms)) + [(t + period, d) for t, d in zip(base_ts, doms)]
    tolerance = 60_000
    got = detect_repeat_cycle(events, tolerance_ms=tolerance, min_len=3)
    check(7, "22 h repeat reported within tolerance", got is not None and abs(got - period) <= tolerance)
    silent = True
    for seed in range(100):
        srng = random.Random(9000 + seed)
        ts = sorted(DAY0 + srng.randrange(DAY_MS) for _ in range(120))
        stream = [(t, f"d{srng.randrange(50)}") for t in ts]
        if detect_repeat_cycle(stream, tolerance_ms=tolerance, min_len=3) is not None:
            silent = False
            break
    check(7, "100 seeded random streams report none", silent)


def test_criterion_8_env_fingerprint():
    clean = classify_env(
        EnvFingerprint(functions={"escape": "function escape() { [native code] }"})
    )
    tampered = classify_env(
        EnvFingerprint(
            functions={"escape": "function(n) { return privateEncode(n, wrapper['escape']);}"}
        )
    )
    check(8, "verbatim console strings classify Clean / Tampered({escape})",
          clean.clean and tampered.tampered == {"escape"})
    rng = random.Random(88)
    names = ("escape", "encodeURI", "encodeURIComponent")
    ok = True
    for _ in range(1000):
        victim = rng.choice(names)
        functions = {n: f"function {n}() {{ [native code] }}" for n in names}
        functions[victim] = f"function(a,b) {{ return shim{rng.randrange(10**6)}(a,b); }}"
        if classify_env(EnvFingerprint(functions=functions)).tampered != {victim}:
            ok = False
            break
    check(8, "random single-function substitution property (1000 trials)", ok)


def test_criterion_9_spoof_rule(big_run):
    truth = big_run["truth"]
    hyph_machines = truth.scheme_machines["hyphbot"]
    by_machine = {}
    for rec in big_run["loaded"].http:
        if rec.machine_id in hyph_machines:
            by_machine.setdefault(rec.machine_id, []).append(rec)
    total = verified = 0
    for machine in sorted(by_machine):
        recs = sorted(by_machine[machine], key=lambda r: r.timestamp)
        index = followthrough_index(recs)
        for rec in recs:
            signal = check_spoof_query(rec.url, SUFFIX)
            if signal is None:
                continue
            total += 1
            verified += verify_spoof_followthrough(signal, rec.timestamp, index, 60_000)
    ad_calls = sum(
        1
        for recs in by_machine.values()
        for rec in recs
        if "spoof_domain=" in rec.url
    )
    print(f"    ad_calls={ad_calls} extracted={total} verified={verified}")
    check(9, "every emitted ad call extracted and verified", total == ad_calls > 0 and verified == total)

    mutated_verified = 0
    for machine in sorted(by_machine):
        recs = [
            rec._replace(url=re.sub(r"land_ip=[0-9.]+", "land_ip=203.0.113.254", rec.url))
            if "land_ip=" in rec.url
            else rec
            for rec in sorted(by_machine[machine], key=lambda r: r.timestamp)
        ]
        index = followthrough_index(recs)
        for rec in recs:
            signal = check_spoof_query(rec.url, SUFFIX)
            if signal is None:
                continue
            mutated_verified += verify_spoof_followthrough(signal, rec.timestamp, index, 60_000)
    check(9, "mutated land_ip leaves every signal unverified", mutated_verified == 0)


def test_criterion_10_frame_depth():
    tainted_counts = {1: 1500, 2: 1200, 3: 900, 4: 700, 5: 500, 6: 400,
                      7: 300, 8: 250, 9: 200, 10: 150, 11: 39}
    general_counts = {1: 400, 2: 180, 3: 50, 4: 20, 5: 8, 6: 2}
    assert sum(tainted_counts.values()) == 6139
    assert sum(general_counts.values()) == 660
    tainted = DepthSample(
        depths=tuple(d for d, n in tainted_counts.items() for _ in range(n)) + (0,) * 44_358,
        label="tainted",
    )
    general = DepthSample(
        depths=tuple(d for d, n in general_counts.items() for _ in range(n)) + (0,) * 5_825,
        label="general",
    )
    result = compare(tainted, general)
    dom = dict(result.tail_dominance)
    # independent recomputation from raw counts
    ok = result.max_depth_a == 11
    for k in range(1, 12):
        tail_a = sum(n for d, n in tainted_counts.items() if d >= k) / 6139
        tail_b = sum(n for d, n in general_counts.items() if d >= k) / 660
        ok = ok and abs(dom[k] - (tail_a - tail_b)) < 1e-12
    positive = all(dom[k] > 0.0 for k in range(3, 12))
    check(10, "tail dominance strictly positive for every k >= 3, max depth 11", ok and positive)
    self_cmp = compare(tainted, tainted)
    check(10, "compare(a, a) identically zero", all(v == 0.0 for _, v in self_cmp.tail_dominance))


def test_criterion_11_determinism(tmp_path):
    outs = []
    for run in ("one", "two"):
        base = tmp_path / run
        scen = base / "scenario"
        assert cli_main(["synth", "--out", str(scen), "--seed", "11", "--machines", "320"]) == 0
        report = base / "report.json"
        assert cli_main([
            "detect", "--trace", str(scen / "trace.jsonl"), "--ipmap", str(scen / "ipmap.csv"),
            "--ranking", str(scen / "ranking.txt"), "--malware", str(scen / "malware.txt"),
            "--out", str(report),
        ]) == 0
        fpdir = base / "fp"
        assert cli_main([
            "fingerprint", "--report", str(report), "--trace", str(scen / "trace.jsonl"),
            "--out", str(fpdir),
        ]) == 0
        alias = base / "alias.csv"
        alias.write_text("".join(line + "\n" for line in sg.ALIAS_GROUP_LINES))
        pndir = base / "panel"
        assert cli_main([
            "panelscan", "--trace", str(scen / "trace.jsonl"), "--alias", str(alias),
            "--min-ads", "1", "--out", str(pndir),
        ]) == 0
        rules_out = base / "findings.jsonl"
        assert cli_main([
            "rules", "--trace", str(scen / "trace.jsonl"), "--out", str(rules_out),
        ]) == 0
        td = base / "t.csv"
        gd = base / "g.csv"
        td.write_text("http://a/,2\nhttp://b/,5\n")
        gd.write_text("http://c/,1\nhttp://d/,2\n")
        fd_out = base / "depth.json"
        assert cli_main([
            "framedepth", "--tainted", str(td), "--general", str(gd), "--out", str(fd_out),
        ]) == 0
        outs.append(
            {
                "scenario": {
                    name: (scen / name).read_bytes()
                    for name in ("trace.jsonl", "ipmap.csv", "ranking.txt", "malware.txt", "truth.json", "manifest.json")
                },
                "report": report.read_bytes(),
                "profiles": (fpdir / "profiles.csv").read_bytes(),
                "jaccard": (fpdir / "jaccard.csv").read_bytes(),
                "panel": {
                    name: (pndir / name).read_bytes()
                    for name in ("domains.csv", "machines.csv", "ranking.txt", "evidence.txt")
                },
                "rules": rules_out.read_bytes(),
                "depth": fd_out.read_bytes(),
            }
        )
    check(11, "fixed-seed generation and all subcommand reports byte-identical", outs[0] == outs[1])
