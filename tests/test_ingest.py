import json
import random

import pytest

from launderscan.ingest import (
    ParseAbortError,
    load_alias_groups,
    load_ip_map,
    load_malware_list,
    load_ranked_domains,
    load_trace,
)
from launderscan.model import PublicSuffixSet

SUFFIX = PublicSuffixSet.builtin()


def _http_line(**over):
    obj = {
        "ts": 1_519_900_000_000,
        "machine": "m1",
        "proc": "chrome.exe",
        "method": "GET",
        "url": "http://www.example.com/p/1",
        "ref": None,
        "ip": "10.1.2.3",
        "status": 200,
        "ua": "UA",
        "kind": "http",
    }
    obj.update(over)
    return json.dumps(obj)


def test_well_formed_trace_roundtrip():
    lines = [_http_line(ts=t) for t in (1, 2, 3)]
    result = load_trace(lines, SUFFIX)
    assert len(result.http) == 3
    assert not result.skipped
    assert result.http[0].process_name == "chrome.exe"
    assert [r.timestamp for r in result.http] == [1, 2, 3]


def test_bad_ip_skipped_with_reason():
    result = load_trace([_http_line(ip="999.1.1.1")], SUFFIX)
    assert not result.http
    assert result.skipped[0].reason == "bad ip"
    assert result.skipped[0].line_no == 1


def test_empty_file():
    result = load_trace([], SUFFIX)
    assert result.parsed_count == 0 and result.total_lines == 0


def test_mixed_kinds_and_default_kind():
    lines = [
        _http_line(),
        json.dumps({"ts": 5, "machine": "m1", "kind": "impression", "attr_domain": "example.com"}),
        json.dumps({"ts": 6, "machine": "m1", "kind": "pageview", "pub_domain": "Example.COM"}),
        # no kind key defaults to http
        json.dumps({"ts": 7, "machine": "m2", "url": "http://a.net/x", "ip": "1.2.3.4"}),
        json.dumps({"ts": 8, "machine": "m2", "kind": "mystery"}),
    ]
    result = load_trace(lines, SUFFIX)
    assert len(result.http) == 2
    assert len(result.impressions) == 1
    assert len(result.pageviews) == 1
    assert result.pageviews[0].publisher_domain.registrable == "example.com"
    assert result.http[1].process_name == "" and result.http[1].method == "GET"
    assert [s.reason for s in result.skipped] == ["bad kind 'mystery'"]


def test_whitespace_process_name_preserved():
    result = load_trace([_http_line(proc="  ")], SUFFIX)
    assert result.http[0].process_name == "  "


def test_strict_mode_aborts():
    with pytest.raises(ParseAbortError) as err:
        load_trace(["not json"], SUFFIX, strict=True)
    assert err.value.line_no == 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("ts", True),
        ("status", False),
        ("proc", 5),
        ("proc", None),
        ("method", ["GET"]),
        ("ua", 7),
        ("ref", {"url": "http://a.com/"}),
    ],
)
def test_wrongly_typed_http_fields_are_skipped(field, value):
    lines = [_http_line(), _http_line(**{field: value})]
    result = load_trace(lines, SUFFIX)
    assert len(result.http) == 1
    assert [(s.line_no, s.reason) for s in result.skipped] == [(2, f"bad {field}")]
    assert result.parsed_count + len(result.skipped) == result.total_lines
    with pytest.raises(ParseAbortError) as err:
        load_trace(lines, SUFFIX, strict=True)
    assert (err.value.line_no, err.value.reason) == (2, f"bad {field}")


def test_bool_ts_skipped_for_every_kind():
    lines = [
        json.dumps({"ts": True, "machine": "m1", "kind": "impression", "attr_domain": "a.com"}),
        json.dumps({"ts": True, "machine": "m1", "kind": "pageview", "pub_domain": "a.com"}),
    ]
    result = load_trace(lines, SUFFIX)
    assert result.parsed_count == 0
    assert [s.reason for s in result.skipped] == ["bad ts", "bad ts"]


def test_null_ua_and_ref_still_load():
    result = load_trace([_http_line(ua=None, ref=None)], SUFFIX)
    assert not result.skipped
    assert result.http[0].user_agent is None and result.http[0].referrer is None


def test_skips_plus_parsed_equals_total():
    rng = random.Random(44)
    lines = []
    for i in range(200):
        roll = rng.random()
        if roll < 0.6:
            lines.append(_http_line(ts=i + 1))
        elif roll < 0.7:
            lines.append("{broken")
        elif roll < 0.8:
            lines.append(_http_line(ts=i + 1, url="nohost"))
        elif roll < 0.9:
            lines.append(_http_line(ts=-5))
        else:
            lines.append(json.dumps({"ts": i + 1, "machine": "m", "kind": "impression", "attr_domain": "a b"}))
    result = load_trace(lines, SUFFIX)
    assert result.parsed_count + len(result.skipped) == result.total_lines == 200


def test_load_ip_map_basics():
    load = load_ip_map(["10.0.0.0/8,CloudCo", "# comment", "10.1.0.0/16,Other"])
    assert load.table.lookup("10.200.1.1") == "cloudco"
    assert load.table.lookup("10.1.2.3") == "other"
    assert not load.skipped


def test_load_ip_map_bad_rows():
    load = load_ip_map(["10.0.0.0/33,X", "10.0.0.1/8,Y", "300.0.0.0/8,Z", "10.0.0.0/8"])
    assert len(load.table) == 0
    reasons = [s.reason for s in load.skipped]
    assert "bad mask" in reasons[0]
    assert "host bits" in reasons[1]
    assert "bad octets" in reasons[2]
    assert reasons[3] == "bad row"


def test_load_ip_map_duplicate_prefix_last_wins():
    load = load_ip_map(["10.0.0.0/8,A", "10.0.0.0/8,B"])
    assert load.table.lookup("10.1.1.1") == "b"
    assert load.table.replace_count == 1


def test_ranked_domains_cutoff_and_dedupe():
    lines = [f"site{i:04d}.com" for i in range(2500)]
    lines[49] = "site0004.com"  # duplicate of rank 5 at rank 50
    ranking, skipped = load_ranked_domains(lines, cutoff=2000, suffix=SUFFIX)
    assert not skipped
    assert len(ranking.entries) == 2499
    assert ranking.cutoff == 2000
    hv = ranking.high_value()
    assert len(hv) == 2000
    assert ranking.entries[4].registrable == "site0004.com"
    # rank 50 duplicate did not displace anything
    assert ranking.entries[49].registrable == "site0050.com"


def test_ranked_domains_empty_file_clamps_cutoff():
    ranking, _ = load_ranked_domains([], cutoff=2000, suffix=SUFFIX)
    assert ranking.entries == () and ranking.cutoff == 0


def test_ranked_domains_skip_reason():
    ranking, skipped = load_ranked_domains(["good.com", "bad domain"], suffix=SUFFIX)
    assert len(ranking.entries) == 1
    assert skipped[0].reason == "bad domain" and skipped[0].line_no == 2


def test_ranked_roundtrip_random_lists():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(1, 60)
        lines = [f"d{rng.randrange(1000):03d}.net" for _ in range(n)]
        ranking, _ = load_ranked_domains(lines, cutoff=rng.randrange(1, 70), suffix=SUFFIX)
        again, _ = load_ranked_domains(ranking.to_lines(), cutoff=ranking.cutoff, suffix=SUFFIX)
        assert again == ranking


def test_alias_groups():
    groups = load_alias_groups(
        ["outlook.com,live.com,hotmail.com", "realtor.com,move.com"], SUFFIX
    )
    assert len(groups.groups) == 2
    assert groups.group_key("live.com") == groups.group_key("hotmail.com")
    assert groups.group_key("realtor.com") != groups.group_key("live.com")
    assert groups.group_key("unrelated.com") == "unrelated.com"


def test_alias_overlap_is_an_error():
    with pytest.raises(ValueError, match="b.com in two groups"):
        load_alias_groups(["a.com,b.com", "b.com,c.com"], SUFFIX)


def test_alias_roundtrip():
    groups = load_alias_groups(["a.com,b.com", "c.com,d.com"], SUFFIX)
    again = load_alias_groups(groups.to_lines(), SUFFIX)
    assert set(again.groups) == set(groups.groups)


def test_malware_list_casefold_exact():
    malware = load_malware_list(["  Zbotsvc.EXE ", "# note", "", "adware_helper.exe"])
    assert malware.matches("zbotsvc.exe")
    assert malware.matches("ZBOTSVC.exe")
    assert not malware.matches("zbotsvc")
    assert not malware.matches("prefix_zbotsvc.exe")
