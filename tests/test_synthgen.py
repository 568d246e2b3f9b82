import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from launderscan import cli
from launderscan import synthgen as sg
from launderscan.detector import DetectorConfig, build_resolution_index, candidate_domains, detect
from launderscan.fingerprint import FLAG_REPEAT_CYCLE, extract_features
from launderscan.ingest import MAX_TS_MS, load_alias_groups
from launderscan.model import DAY_MS, PublicSuffixSet, is_valid_ipv4
from launderscan.panel import SessionPolicy, attributed_ads, misattribution_table, publisher_visits

from conftest import DAY0, SMALL_SCENARIO, WINDOW, emitted_corpus, truth_from_json, window_index
from oracles import panel_fold

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from chainbench.run import PINS, synth_argv  # noqa: E402

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


def test_same_seed_identical_output(tmp_path):
    a = emitted_corpus(_tiny_scenario(), tmp_path / "a")
    b = emitted_corpus(_tiny_scenario(), tmp_path / "b")
    assert a.lines == b.lines
    assert a.truth.planted_pairs == b.truth.planted_pairs
    assert a.truth.record_labels == b.truth.record_labels


def test_different_seed_differs(tmp_path):
    a = emitted_corpus(_tiny_scenario(seed=3), tmp_path / "a")
    b = emitted_corpus(_tiny_scenario(seed=4), tmp_path / "b")
    assert a.lines != b.lines


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
    sg.emit_scenario_files(_tiny_scenario(), tmp_path)
    text = (tmp_path / "truth.json").read_text()
    loaded = truth_from_json(json.loads(text))
    assert loaded.planted_pairs and loaded.record_labels
    assert json.dumps(loaded.to_json_dict(), sort_keys=True) + "\n" == text


def test_generated_records_satisfy_invariants(small_corpus):
    http = small_corpus.trace.http
    assert len(http) > 10_000
    for rec in http[:10_000]:
        assert rec.timestamp > 0
        assert is_valid_ipv4(rec.server_ip)
        assert "://" in rec.url and rec.url.split("://", 1)[1]
        assert rec.machine_id


def test_every_planted_pair_has_a_labeled_record(small_corpus):
    lines = small_corpus.lines
    seen_pairs = set()
    for idx, label in small_corpus.truth.record_labels.items():
        rec = json.loads(lines[idx])
        if rec["kind"] == "http":
            scheme = next(
                lab
                for lab, pairs in small_corpus.truth.scheme_pairs.items()
                if lab == label
            )
            pair_ips = {ip for ip, _ in small_corpus.truth.scheme_pairs[scheme]}
            assert rec["ip"] in pair_ips
            seen_pairs.add((rec["ip"], label))
    for label, pairs in small_corpus.truth.scheme_pairs.items():
        for ip, _ in pairs:
            assert (ip, label) in seen_pairs


def test_clean_background_yields_no_candidates(clean_corpus):
    idx = build_resolution_index(window_index(clean_corpus.trace.http), clean_corpus.table)
    cands = candidate_domains(idx, clean_corpus.ranking, DetectorConfig())
    assert cands == frozenset()


def test_clean_background_impressions_never_missing(clean_corpus):
    policy = SessionPolicy(alias=clean_corpus.alias)
    impressions, pageviews = panel_fold(clean_corpus.trace.impressions, clean_corpus.trace.pageviews)
    ads = attributed_ads(impressions, DAY0, DAY0 + DAY_MS)
    visits = publisher_visits(pageviews, policy)
    table = misattribution_table(ads, visits)
    assert all(s.missing == 0 for s in table.per_machine.values())
    assert sum(s.attributed for s in table.per_machine.values()) > 0


def test_plant_machines_have_no_pageviews(small_corpus):
    planted = small_corpus.truth.planted_machines
    assert planted
    for pv in small_corpus.trace.pageviews:
        assert pv.machine_id not in planted


def test_rotator_changes_active_domains_by_day(tmp_path):
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
    corpus = emitted_corpus(scenario, tmp_path)
    plant_ip = next(iter(corpus.truth.planted_pairs))[0]
    by_day = {0: set(), 1: set()}
    for rec in corpus.trace.http:
        if rec.server_ip == plant_ip:
            day = (rec.timestamp - sg.EPOCH_MS) // DAY_MS
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


def test_plant_wanting_too_many_targets_errors(tmp_path):
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
        sg.emit_scenario_files(scenario, tmp_path)


def test_alias_lines_load():
    groups = load_alias_groups(sg.ALIAS_GROUP_LINES, SUFFIX)
    assert len(groups.groups) == 2


@pytest.fixture(scope="module")
def replay_corpus(tmp_path_factory):
    """SMALL_SCENARIO with a 22 h ``replay_period_ms`` on scheme-gamma."""
    period = 22 * 3_600_000
    plants = tuple(
        replace(t, extras={**t.extras, "replay_period_ms": period}) if t.label == "scheme-gamma" else t
        for t in sg.five_scheme_plants()
    )
    return emitted_corpus(replace(SMALL_SCENARIO, plants=plants), tmp_path_factory.mktemp("replay"))


def test_replay_period_plants_a_repeat_cycle_on_that_scheme_alone(replay_corpus):
    """A 22 h ``replay_period_ms`` on scheme-gamma replays each gamma
    machine's first two hours 22 h later; RepeatCycle then flags gamma's
    profiles and no other scheme's."""
    corpus = replay_corpus
    records = corpus.trace.http
    report = detect(window_index(records), corpus.table, corpus.ranking, corpus.malware, DetectorConfig(), WINDOW)
    by_ip: dict[str, list] = {}
    for rec in records:
        by_ip.setdefault(rec.server_ip, []).append(rec)
    cycled = {
        d.ip
        for d in report.detections
        if FLAG_REPEAT_CYCLE in extract_features([d], by_ip[d.ip], SUFFIX)[0].signature_flags
    }
    gamma = {ip for ip, _ in corpus.truth.scheme_pairs["scheme-gamma"]}
    assert len(gamma) == 4 and {d.ip for d in report.detections} >= gamma
    assert cycled == gamma


@pytest.mark.parametrize("workload", ["day-mixed", "clean-3day"])
def test_synth_trace_matches_the_benchmark_pin(workload, tmp_path):
    """``synth`` with a benchmark workload's flags writes, for seed 7, the
    trace whose sha256 and line count chainbench/pins.json holds."""
    assert cli.main(synth_argv(workload, 7, tmp_path)) == 0
    trace = json.loads((tmp_path / "manifest.json").read_text("utf-8"))["files"]["trace.jsonl"]
    assert trace["sha256"] == hashlib.sha256((tmp_path / "trace.jsonl").read_bytes()).hexdigest()
    assert [trace["sha256"], trace["lines"]] == json.loads(PINS.read_text("utf-8"))[workload]["7"]


@pytest.fixture(scope="module")
def dense_two_day_corpus(tmp_path_factory):
    """Five schemes at divisor 25 over two days: the plants outweigh the
    background, and each rotator machine changes targets between days."""
    scenario = sg.Scenario(seed=3, day_count=2, divisor=25, background=sg.BackgroundSpec(machine_count=100),
                           plants=sg.five_scheme_plants())
    return emitted_corpus(scenario, tmp_path_factory.mktemp("dense"))


# for scenarios no benchmark pin covers: the sha256 of the trace lines (each
# ending in a newline), their count and the sha256 of truth.json
RECORDED_DIGESTS = {
    "replay_corpus": ("dd3bfb1b7deb1f578356402e6f4b199bea83e63c6bb38652cd41bd77a14d0a53", 73_709,
                      "39491bb2d915a00eea80bacefd94df06f68ccf17de71fb1c70569d591db329b8"),
    "dense_two_day_corpus": ("aacbae412ff358b7d7dc0e299e1b43128f140e3cb7de77c1c070a39c179c37e4", 122_764,
                             "bc18804bf9325bd1a4c86255e8957160a626bee7cb544c16df913f6ca1615c4d"),
}


@pytest.mark.parametrize("name", sorted(RECORDED_DIGESTS))
def test_generated_lines_match_recorded_digests(name, request):
    corpus = request.getfixturevalue(name)
    text = "".join(line + "\n" for line in corpus.lines)
    truth = json.dumps(corpus.truth.to_json_dict(), sort_keys=True)
    digests = (hashlib.sha256(text.encode()).hexdigest(), len(corpus.lines),
               hashlib.sha256(truth.encode()).hexdigest())
    assert digests == RECORDED_DIGESTS[name]


def _reference_line(payload: dict) -> str:
    """A trace line as a dict of its members through a compact JSONEncoder:
    the encoding the per-kind templates must reproduce byte for byte."""
    return json.JSONEncoder(separators=(",", ":")).encode(payload)


def _line(row: tuple[int, str]) -> str:
    ts, tail = row
    return f'{{"ts":{ts}{tail}'


# every code point, lone surrogates included: json escapes them as \udXXX
_TEXT = st.text(st.characters(exclude_categories=()), max_size=12)
_TS = st.integers(0, MAX_TS_MS)
_NASTY = 'q"\\\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600'


@given(ts=_TS, machine=_TEXT, proc=_TEXT, url=_TEXT, ref=st.none() | _TEXT, ip=_TEXT, ua=_TEXT,
       replay_ms=st.integers(0, sg.DAY_MS))
@example(ts=MAX_TS_MS, machine=_NASTY, proc=_NASTY, url=_NASTY, ref=_NASTY, ip=_NASTY, ua=_NASTY, replay_ms=1)
@example(ts=1, machine="m", proc="", url="http://a.com/", ref=None, ip="1.2.3.4", ua="u", replay_ms=0)
def test_http_template_matches_the_dict_encoding(ts, machine, proc, url, ref, ip, ua, replay_ms):
    row = sg._http(ts, machine, proc, url, ref, ip, ua)
    payload = {"ts": ts, "machine": machine, "proc": proc, "method": "GET", "url": url,
               "ref": ref, "ip": ip, "status": 200, "ua": ua, "kind": "http"}
    assert _line(row) == _reference_line(payload)
    # a replayed row shifts only its timestamp
    assert _line((row[0] + replay_ms, row[1])) == _reference_line({**payload, "ts": ts + replay_ms})


@given(ts=_TS, machine=_TEXT, domain=_TEXT)
@example(ts=MAX_TS_MS, machine=_NASTY, domain=_NASTY)
def test_pageview_template_matches_the_dict_encoding(ts, machine, domain):
    payload = {"ts": ts, "machine": machine, "kind": "pageview", "pub_domain": domain}
    assert _line(sg._pageview(ts, machine, domain)) == _reference_line(payload)


@given(ts=_TS, machine=_TEXT, domain=_TEXT, account=st.none() | _TEXT)
@example(ts=MAX_TS_MS, machine=_NASTY, domain=_NASTY, account=_NASTY)
@example(ts=0, machine="m", domain="a.com", account=None)
def test_impression_template_matches_the_dict_encoding(ts, machine, domain, account):
    payload = {"ts": ts, "machine": machine, "kind": "impression", "attr_domain": domain}
    if account is not None:
        payload["account"] = account
    assert _line(sg._impression(ts, machine, domain, account)) == _reference_line(payload)
