import json
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from launderscan import ingest
from launderscan.ingest import (
    MAX_TS_MS,
    ParseAbortError,
    load_alias_groups,
    load_ip_map,
    load_malware_list,
    load_ranked_domains,
    load_trace,
)
from launderscan.model import PublicSuffixSet, url_host

from conftest import parsed_count

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
    assert result.skipped.counts == {"bad ip": 1}
    assert result.skipped.first == (1, "bad ip")


def test_empty_file():
    result = load_trace([], SUFFIX)
    assert parsed_count(result) == 0 and result.total_lines == 0


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
    assert result.pageviews[0].domain == "example.com"
    # records come in time order: the kind-less line (ts 7) is first
    assert [r.timestamp for r in result.http] == [7, 1_519_900_000_000]
    assert result.http[0].process_name == ""
    assert result.skipped.counts == {"bad kind": 1}
    assert result.skipped.first == (5, "bad kind")


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
        ("ts", MAX_TS_MS + 1),
        ("ts", 2**63),
        ("ip", "1.1.1.\u00b2"),  # superscript two: isdigit() but not int()
        ("ip", "\u0661.1.1.1"),  # Arabic-Indic one
        ("ip", ["1.1.1.1"]),  # unhashable: the type test must come first
        ("ip", {"a": 1}),
        ("ip", "1.2.3.04"),  # a leading zero: inet_aton reads the octet as octal
    ],
)
def test_wrongly_typed_http_fields_are_skipped(field, value):
    lines = [_http_line(), _http_line(**{field: value})]
    result = load_trace(lines, SUFFIX)
    assert len(result.http) == 1
    assert result.skipped.counts == {f"bad {field}": 1}
    assert parsed_count(result) + len(result.skipped) == result.total_lines
    with pytest.raises(ParseAbortError) as err:
        load_trace(lines, SUFFIX, strict=True)
    assert (err.value.line_no, err.value.reason) == (2, f"bad {field}")


@pytest.mark.parametrize("account", [["x", 1], {"a": [1]}, 5, None, "acct-1"])
def test_impression_account_loads_as_given(account):
    line = json.dumps({"ts": 5, "machine": "m1", "kind": "impression",
                       "attr_domain": "a.com", "account": account})
    result = load_trace([line], SUFFIX, strict=True)
    assert len(result.impressions) == 1 and not result.skipped


@pytest.mark.parametrize("kind, key", [("impression", "attr_domain"), ("pageview", "pub_domain")])
@pytest.mark.parametrize("value", [None, True, 7, ["a.com"]])
def test_non_string_domain_fields_are_skipped(kind, key, value):
    """Only a JSON string names a domain: null, true, 7 and ["a.com"] are not
    the domains none, true, 7 and ['a.com']."""
    lines = [json.dumps({"ts": 5, "machine": "m1", "kind": kind, key: v}) for v in ("a.com", value)]
    result = load_trace(lines, SUFFIX)
    assert parsed_count(result) == 1
    assert result.skipped.counts == {f"bad {key}": 1}
    with pytest.raises(ParseAbortError) as err:
        load_trace(lines, SUFFIX, strict=True)
    assert (err.value.line_no, err.value.reason) == (2, f"bad {key}")


# Pools that repeat good and bad values, with hosts and domain names in common.
_IPS = ["10.1.2.3", "10.1.2.4", "999.1.1.1", "1.1.1.\u00b2", ["1.1.1.1"], None]
_HOSTS = ["www.a.com", "a.com", "B.net:8080", "b..com", "x y.com", "user@c.org"]
_NAMES = ["a.com", "B.net:8080", "c.org", "bad..name", "", "7", 7, None]


def _pool_line(kind, machine, ip, host, ua, name):
    if kind == "http":
        return json.dumps({"ts": 1, "machine": machine, "url": f"http://{host}/p",
                           "ip": ip, "ua": ua, "proc": "p.exe"})
    key = "attr_domain" if kind == "impression" else "pub_domain"
    obj = {"ts": 1, "machine": machine, "kind": kind, "account": ua}
    if name is not None:
        obj[key] = name
    return json.dumps(obj)


_POOL_LINES = st.lists(
    st.builds(
        _pool_line,
        st.sampled_from(["http", "http", "impression", "pageview"]),
        st.sampled_from(["m-one", "m-two", "m-three"]),
        st.sampled_from(_IPS),
        st.sampled_from(_HOSTS),
        st.sampled_from(["UA-one/1", "UA-two/2", None]),
        st.sampled_from(_NAMES),
    ),
    max_size=40,
)


@given(_POOL_LINES)
def test_repeated_values_are_checked_once_and_shared(lines):
    calls: list[str] = []

    def counted(name, suffix):
        calls.append(name)
        return normalize(name, suffix)

    normalize = ingest.normalize_domain
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "normalize_domain", counted)
        whole = load_trace(lines, SUFFIX)
        whole_calls, calls[:] = list(calls), []
        alone = [load_trace([line], SUFFIX) for line in lines]

    # the memos change no record and no skip
    for kind in ("http", "impressions", "pageviews"):
        assert getattr(whole, kind) == [r for one in alone for r in getattr(one, kind)]
    alone_skips = [(i + 1, one.skipped.first[1]) for i, one in enumerate(alone) if one.skipped]
    assert whole.skipped.first == (alone_skips[0] if alone_skips else None)
    assert whole.skipped.counts == Counter(reason for _, reason in alone_skips)
    # one normalize_domain call per distinct name, host and domain names alike
    assert sorted(whole_calls) == sorted(set(calls))
    assert set(url_host(r.url) for r in whole.http) <= set(whole_calls)
    # equal values are one object
    records = whole.http + whole.impressions + whole.pageviews
    for attr, recs in (("machine_id", records), ("process_name", whole.http),
                       ("referrer", whole.http), ("server_ip", whole.http)):
        first = {}
        for r in recs:
            value = getattr(r, attr)
            assert first.setdefault(value, value) is value


def test_bool_ts_skipped_for_every_kind():
    lines = [
        json.dumps({"ts": True, "machine": "m1", "kind": "impression", "attr_domain": "a.com"}),
        json.dumps({"ts": True, "machine": "m1", "kind": "pageview", "pub_domain": "a.com"}),
    ]
    result = load_trace(lines, SUFFIX)
    assert parsed_count(result) == 0
    assert result.skipped.counts == {"bad ts": 2}


def test_ts_loads_up_to_the_last_millisecond_of_year_9999():
    result = load_trace([_http_line(ts=MAX_TS_MS)], SUFFIX, strict=True)
    assert [r.timestamp for r in result.http] == [MAX_TS_MS]


def test_null_ua_and_ref_still_load():
    result = load_trace([_http_line(ua=None, ref=None)], SUFFIX)
    assert not result.skipped
    assert result.http[0].referrer is None


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
    assert parsed_count(result) + len(result.skipped) == result.total_lines == 200


def test_load_ip_map_basics():
    table, skipped = load_ip_map(["10.0.0.0/8,CloudCo", "# comment", "10.1.0.0/16,Other"])
    assert table.lookup("10.200.1.1") == "cloudco"
    assert table.lookup("10.1.2.3") == "other"
    assert not skipped


def test_load_ip_map_bad_rows():
    lines = ["10.0.0.0/33,X", "10.0.0.1/8,Y", "300.0.0.0/8,Z", "10.0.0.0/8"]
    table, skipped = load_ip_map(lines)
    assert table.lookup("10.0.0.1") is None
    # fixed reasons: the row's CIDR is not echoed
    assert skipped.counts == {"bad mask": 1, "host bits set": 1, "bad octets": 1, "bad row": 1}
    assert skipped.first == (1, "bad mask")
    for i, reason in enumerate(["bad mask", "host bits set", "bad octets", "bad row"]):
        with pytest.raises(ParseAbortError) as err:
            load_ip_map(lines[i:], strict=True)
        assert (err.value.line_no, err.value.reason) == (1, reason)


def test_load_ip_map_duplicate_prefix_last_wins():
    table, _ = load_ip_map(["10.0.0.0/8,A", "10.0.0.0/8,B"])
    assert table.lookup("10.1.1.1") == "b"


def test_ranked_domains_cutoff_and_dedupe():
    lines = [f"site{i:04d}.com" for i in range(2500)]
    lines[49] = "site0004.com"  # duplicate of rank 5 at rank 50
    ranking, skipped = load_ranked_domains(lines, suffix=SUFFIX)
    assert not skipped
    assert len(ranking.entries) == 2499
    hv = ranking.high_value_at(2000)
    assert len(hv) == 2000
    assert ranking.entries[4] == "site0004.com"
    # rank 50 duplicate did not displace anything
    assert ranking.entries[49] == "site0050.com"
    empty, _ = load_ranked_domains([], suffix=SUFFIX)
    assert empty.entries == () and empty.high_value_at(2000) == frozenset()


def test_ranked_domains_skip_reason():
    ranking, skipped = load_ranked_domains(["good.com", "bad domain"], suffix=SUFFIX)
    assert len(ranking.entries) == 1
    assert skipped.counts == {"bad domain": 1} and skipped.first == (2, "bad domain")


def test_ranked_roundtrip_random_lists():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(1, 60)
        lines = [f"d{rng.randrange(1000):03d}.net" for _ in range(n)]
        ranking, _ = load_ranked_domains(lines, suffix=SUFFIX)
        again, _ = load_ranked_domains(ranking.entries, suffix=SUFFIX)
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
    again = load_alias_groups([",".join(sorted(g)) for g in groups.groups], SUFFIX)
    assert set(again.groups) == set(groups.groups)


def test_malware_list_casefold_exact():
    malware = load_malware_list(["  Zbotsvc.EXE ", "# note", "", "adware_helper.exe"])
    assert malware.matches("zbotsvc.exe")
    assert malware.matches("ZBOTSVC.exe")
    assert not malware.matches("zbotsvc")
    assert not malware.matches("prefix_zbotsvc.exe")
