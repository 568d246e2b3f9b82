import json

import pytest

from launderscan import synthgen as sg
from launderscan.detector import DetectorConfig, candidate_domains, build_resolution_index
from launderscan.ingest import load_alias_groups
from launderscan.model import DAY_MS, HttpRecord, PublicSuffixSet, is_valid_ipv4
from launderscan.panel import SessionPolicy, attributed_ads, misattribution_table, publisher_visits

from conftest import DAY0, WINDOW

SUFFIX = PublicSuffixSet.builtin()


def _tiny_scenario(seed=3, plants=True, machines=60):
    templates = ()
    if plants:
        templates = (
            sg.SchemeTemplate(
                label="mini-hijack",
                kind=sg.KIND_HOSTS_HIJACK,
                isp_pool=("mini-cloud",),
                ip_count=2,
                machine_count=4,
                target_domains=30,
                daily_requests=4_000,
                daily_impressions=2_000,
                process_name="",
            ),
        )
    return sg.Scenario(
        seed=seed,
        divisor=100,
        background=sg.BackgroundSpec(
            machine_count=machines,
            domain_count=120,
            high_value_cutoff=100,
            visits_per_machine=4,
            isp_count=10,
        ),
        plants=templates,
    )


def test_same_seed_identical_output():
    a = sg.generate(_tiny_scenario())
    b = sg.generate(_tiny_scenario())
    assert a.records == b.records
    assert a.truth.planted_pairs == b.truth.planted_pairs
    assert a.truth.record_labels == b.truth.record_labels


def test_different_seed_differs():
    a = sg.generate(_tiny_scenario(seed=3))
    b = sg.generate(_tiny_scenario(seed=4))
    assert a.records != b.records


def test_emit_files_and_manifest(tmp_path):
    scenario = _tiny_scenario()
    manifest = sg.emit_scenario_files(scenario, tmp_path / "one")
    names = {"trace.jsonl", "ipmap.csv", "ranking.txt", "malware.txt", "aliases.csv", "truth.json"}
    assert set(manifest["files"]) == names
    for name in names | {"manifest.json"}:
        assert (tmp_path / "one" / name).exists()
    alias = load_alias_groups((tmp_path / "one" / "aliases.csv").read_text().splitlines(), SUFFIX)
    assert alias.groups == tuple(frozenset(line.split(",")) for line in sg.ALIAS_GROUP_LINES)
    # digests stable across reruns, and they change with the seed
    again = sg.emit_scenario_files(scenario, tmp_path / "two")
    assert {n: f["sha256"] for n, f in manifest["files"].items()} == {
        n: f["sha256"] for n, f in again["files"].items()
    }
    assert (tmp_path / "one" / "manifest.json").read_bytes() == (
        tmp_path / "two" / "manifest.json"
    ).read_bytes()
    other = sg.emit_scenario_files(_tiny_scenario(seed=9), tmp_path / "three")
    assert (
        other["files"]["trace.jsonl"]["sha256"] != manifest["files"]["trace.jsonl"]["sha256"]
    )


def test_emit_unwritable_dir_errors():
    with pytest.raises(OSError, match="/proc"):
        sg.emit_scenario_files(_tiny_scenario(), "/proc/launderscan-denied")


def test_truth_roundtrip(tmp_path):
    scenario = _tiny_scenario()
    corpus = sg.generate(scenario)
    sg.emit_scenario_files(scenario, tmp_path)
    loaded = sg.GroundTruth.from_json_dict(json.loads((tmp_path / "truth.json").read_text()))
    assert loaded.planted_pairs == corpus.truth.planted_pairs
    assert loaded.record_labels == corpus.truth.record_labels
    assert loaded.scheme_machines == corpus.truth.scheme_machines


def test_generated_records_satisfy_invariants(small_corpus):
    http = small_corpus.http_records()
    assert len(http) > 10_000
    for rec in http[:10_000]:
        assert rec.timestamp > 0
        assert is_valid_ipv4(rec.server_ip)
        assert "://" in rec.url and rec.url.split("://", 1)[1]
        assert rec.machine_id


def test_every_planted_pair_has_a_labeled_record(small_corpus):
    records = small_corpus.records
    seen_pairs = set()
    for idx, label in small_corpus.truth.record_labels.items():
        rec = records[idx]
        if isinstance(rec, HttpRecord):
            scheme = next(
                lab
                for lab, pairs in small_corpus.truth.scheme_pairs.items()
                if lab == label
            )
            pair_ips = {ip for ip, _ in small_corpus.truth.scheme_pairs[scheme]}
            assert rec.server_ip in pair_ips
            seen_pairs.add((rec.server_ip, label))
    for label, pairs in small_corpus.truth.scheme_pairs.items():
        for ip, _ in pairs:
            assert (ip, label) in seen_pairs


def test_clean_background_yields_no_candidates(clean_corpus):
    idx = build_resolution_index(
        clean_corpus.http_records(), clean_corpus.table, WINDOW
    )
    cands = candidate_domains(idx, clean_corpus.ranking, DetectorConfig())
    assert cands == frozenset()


def test_clean_background_impressions_never_missing(clean_corpus):
    policy = SessionPolicy(alias=clean_corpus.alias)
    ads = attributed_ads(clean_corpus.impression_records(), DAY0)
    visits = publisher_visits(clean_corpus.pageview_records(), DAY0, policy)
    table = misattribution_table(ads, visits, policy)
    assert all(s.missing == 0 for s in table.per_machine.values())
    assert sum(s.attributed for s in table.per_machine.values()) > 0


def test_plant_machines_have_no_pageviews(small_corpus):
    planted = small_corpus.truth.planted_machines
    assert planted
    for pv in small_corpus.pageview_records():
        assert pv.machine_id not in planted


def test_rotator_changes_active_domains_by_day():
    tpl = sg.SchemeTemplate(
        label="rot",
        kind=sg.KIND_EPHEMERAL_ROTATOR,
        isp_pool=("rot-isp",),
        ip_count=1,
        machine_count=2,
        target_domains=12,
        daily_requests=600,
        daily_impressions=10,
        process_name="r.exe",
        extras={"active_per_day": 5},
    )
    scenario = sg.Scenario(
        seed=6,
        day_count=2,
        divisor=100,
        background=sg.BackgroundSpec(
            machine_count=30, domain_count=60, high_value_cutoff=50, visits_per_machine=2, isp_count=5
        ),
        plants=(tpl,),
    )
    corpus = sg.generate(scenario)
    plant_ip = next(iter(corpus.truth.planted_pairs))[0]
    by_day = {0: set(), 1: set()}
    for rec in corpus.http_records():
        if rec.server_ip == plant_ip:
            day = (rec.timestamp - sg.DEFAULT_EPOCH_MS) // DAY_MS
            host = rec.url.split("://", 1)[1].split("/", 1)[0]
            by_day[day].add(host)
    assert by_day[0] and by_day[1]
    assert by_day[0] != by_day[1]


def test_template_validation():
    with pytest.raises(ValueError, match="machine_count"):
        sg.SchemeTemplate(
            label="x", kind=sg.KIND_HOSTS_HIJACK, isp_pool=("a",), ip_count=5,
            machine_count=2, target_domains=10, daily_requests=10, daily_impressions=0,
            process_name="p",
        )
    with pytest.raises(ValueError, match="kind"):
        sg.SchemeTemplate(
            label="x", kind="Nonsense", isp_pool=("a",), ip_count=1,
            machine_count=1, target_domains=10, daily_requests=10, daily_impressions=0,
            process_name="p",
        )


def test_plant_wanting_too_many_targets_errors():
    tpl = sg.SchemeTemplate(
        label="greedy", kind=sg.KIND_MALFORMED_BOT, isp_pool=("a",), ip_count=1,
        machine_count=1, target_domains=500, daily_requests=10, daily_impressions=0,
        process_name="p",
    )
    scenario = sg.Scenario(
        seed=1,
        background=sg.BackgroundSpec(machine_count=10, domain_count=120, high_value_cutoff=100),
        plants=(tpl,),
    )
    with pytest.raises(ValueError, match="target domains"):
        sg.generate(scenario)


def test_alias_lines_load():
    groups = load_alias_groups(sg.ALIAS_GROUP_LINES, SUFFIX)
    assert len(groups.groups) == 2
